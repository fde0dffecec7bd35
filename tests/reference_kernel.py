"""Earlier implementations of the library's fast paths, kept as references.

Each function is the library's earlier implementation, unchanged except for
the names it imports: twists are dense matrices multiplied in by
``mat_mul``, Hurwitz moves go through ``HomPermRep`` and ``act_on_curve``,
pairing preservation is the dense check m^T J m == J, and the witness walk
extends each prefix by a dense product over every word of the alphabet.
``destabilize`` and ``reduce`` transport every cycle on every call and hash
whole fibrations; ``global_conjugate`` always evaluates the inverse word.
``stabilize`` and ``destabilize`` move separating side data with the earlier
transport: ``_transport_curve`` threads the move's (genus_delta,
boundary_delta) pair into ``_transport_separating``, which adds it to the
side that holds the last boundary circle.  The library derives the same side
from the old and new fibers in one rule, so these copies keep the
differential tests from running the code under test.
The differential tests require the library's paths to agree with these
exactly.

``smith_normal_form`` is the full decomposition U A V = D with the
unimodular U and V, which the library no longer builds: it returns only the
diagonal.  The Smith-form tests check U A V = D against it.

``mat_inverse_unimodular`` is Gauss-Jordan over ``Fraction``, which the
library replaced by the closed-form inverse of a bundle generator; the
reference ``evaluate`` inverts bundle letters with it, so inverse bundle
letters are compared against an independent inverse.

``enumerate_classes`` collects the separating types of every side split
into a set and sorts the result, and ``subset_from_class`` rebuilds the
subset before checking it is proper; the library generates the types in
sorted order and returns from each indicator branch.  The reference
transports recover boundary subsets with this ``subset_from_class``.
``reduce`` tracks each state's depth and the best (rank, size, position)
seen; the library reads both off the fiber rank.

``whole_word_witness`` is the witness search that walked whole words: the
vector walk over every word of each length, carrying w^-1 t for each target
class t and skipping the words ``_whole_word_steps`` shows equal to earlier
ones.  The library now meets in the middle, walking first halves against a
table of second halves; its plans are compared with this walk's.  Both
reference searches draw their letters from ``_alphabet``, written apart from
the library's ``_twists``, so the plans' letter order is checked, not shared.

``pullback`` evaluates each distinct conjugator to a matrix, moves each
source class by it, checks the moved class against the matrix times the
source class and builds the result through the validating constructors; the
library moves the classes letter by letter with ``word_action``.  The
reference witness searches run their round trips through it.

``mat_mul``, ``mat_vec`` and ``transvect`` are the integer kernel as it was
written with generator expressions over ``zip``; the library now takes its
inner products with ``sum(map(operator.mul, ...))``.  Every reference here
multiplies with these copies.

``pairing_matrix``, ``pairing``, ``twist_covector`` and
``preserves_pairing_by_rows`` write the pairing's convention <a_i, b_i> = +1
out by hand, each on its own, as the library did before it built all four on
``homology.covector``; the references here pair classes through these
copies, never through the code under test.

``mat_det`` lives here too: only the tests use it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from lefschetz.curves import Curve, CurveClass
from lefschetz.errors import CapacityError, InputError, NotApplicable
from lefschetz.fibration import DISK, LefschetzFibration, SignedCycle, require_disk
from lefschetz.homology import (
    Matrix,
    SurfaceSpec,
    Vector,
    check_fiber_rank,
    in_radical,
    mat_identity,
    mat_shape,
    vec_gcd,
)
from lefschetz.mapping import (
    BundleGen,
    HomPermRep,
    Letter,
    MCWord,
    Permutation,
    TwistGen,
    act_on_curve,
    perm_compose,
    perm_identity,
    perm_inverse,
)
from lefschetz.reduction import ReduceResult
from lefschetz.witness import (
    WITNESS_WORD_BOUND,
    ImmersionWitness,
    MeridianPlan,
    PlanEntry,
)


# ---------------------------------------------------------------------------
# the integer kernel with generator-expression inner products
# ---------------------------------------------------------------------------

def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    m, k = mat_shape(a)
    k2, n = mat_shape(b)
    if k != k2:
        raise InputError(f"matrix shapes {m}x{k} and {k2}x{n} do not compose")
    bt = tuple(zip(*b)) if b else ()
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
        for row in a
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    m, n = mat_shape(a)
    if n != len(v):
        raise InputError(f"matrix is {m}x{n} but vector has length {len(v)}")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transvect(rows: Matrix, a: Vector, b: Vector, h: int) -> Matrix:
    """Send each row x to x + h (x . a) b."""
    out = []
    for x in rows:
        k = h * sum(map(operator.mul, x, a))
        out.append(tuple(p + k * q for p, q in zip(x, b)) if k else x)
    return tuple(out)


def mat_det(a: Matrix) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    n, m = mat_shape(a)
    if n != m:
        raise InputError("determinant of a non-square matrix")
    if n == 0:
        return 1
    w = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if w[k][k] == 0:
            for i in range(k + 1, n):
                if w[i][k] != 0:
                    w[k], w[i] = w[i], w[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                w[i][j] = (w[i][j] * w[k][k] - w[i][k] * w[k][j]) // prev
            w[i][k] = 0
        prev = w[k][k]
    return sign * w[n - 1][n - 1]


def mat_inverse_unimodular(a: Matrix) -> Matrix:
    """Inverse of an integer matrix with determinant +-1.

    Gauss-Jordan over exact rationals; the result is asserted integral.
    """
    n, m = mat_shape(a)
    if n != m:
        raise InputError("inverse of a non-square matrix")
    w = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if w[r][col] != 0), None)
        if piv is None:
            raise InputError("matrix is singular")
        w[col], w[piv] = w[piv], w[col]
        inv = 1 / w[col][col]
        w[col] = [x * inv for x in w[col]]
        for r in range(n):
            if r != col and w[r][col] != 0:
                f = w[r][col]
                w[r] = [x - f * y for x, y in zip(w[r], w[col])]
    out = []
    for row in w:
        ints = []
        for x in row[n:]:
            if x.denominator != 1:
                raise InputError("matrix is not unimodular")
            ints.append(int(x))
        out.append(tuple(ints))
    return tuple(out)


# ---------------------------------------------------------------------------
# Smith normal form with the unimodular U and V
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithDecomposition:
    """U A V = D with U, V unimodular and D diagonal, d_i | d_{i+1}."""

    d: Matrix
    u: Matrix
    v: Matrix

    def diagonal(self) -> tuple[int, ...]:
        m, n = mat_shape(self.d)
        return tuple(self.d[i][i] for i in range(min(m, n)))


def _min_abs_pivot(w: list[list[int]], t: int, m: int, n: int) -> tuple[int, int] | None:
    best = None
    best_val = 0
    for i in range(t, m):
        for j in range(t, n):
            a = w[i][j]
            if a == 0:
                continue
            if best is None or abs(a) < best_val:
                best = (i, j)
                best_val = abs(a)
    return best


def smith_normal_form(a: Matrix) -> SmithDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Pivoting rule: smallest-magnitude nonzero entry of the trailing
    submatrix, ties broken by lowest (row, column).  This makes the
    decomposition a deterministic function of the input.  Diagonal entries
    are nonnegative and satisfy the divisibility chain.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise InputError("ragged matrix")
    w = [list(row) for row in a]
    u = [list(row) for row in mat_identity(m)]
    v = [list(row) for row in mat_identity(n)]

    def swap_rows(i1, i2):
        w[i1], w[i2] = w[i2], w[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for row in w:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]

    def add_row(dst, src, k):
        # row_dst += k * row_src
        wd, ws = w[dst], w[src]
        for j in range(n):
            wd[j] += k * ws[j]
        ud, us = u[dst], u[src]
        for j in range(m):
            ud[j] += k * us[j]

    def add_col(dst, src, k):
        for row in w:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    t = 0
    while t < min(m, n):
        piv = _min_abs_pivot(w, t, m, n)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # Reduce the pivot column, re-pivoting on any remainder.
            col_dirty = False
            for i in range(t + 1, m):
                if w[i][t] != 0:
                    q = w[i][t] // w[t][t]
                    if q:
                        add_row(i, t, -q)
                    if w[i][t] != 0:
                        col_dirty = True
            if col_dirty:
                best = min(
                    (i for i in range(t, m) if w[i][t] != 0),
                    key=lambda i: (abs(w[i][t]), i),
                )
                if best != t:
                    swap_rows(t, best)
                continue
            row_dirty = False
            for j in range(t + 1, n):
                if w[t][j] != 0:
                    q = w[t][j] // w[t][t]
                    if q:
                        add_col(j, t, -q)
                    if w[t][j] != 0:
                        row_dirty = True
            if row_dirty:
                best = min(
                    (j for j in range(t, n) if w[t][j] != 0),
                    key=lambda j: (abs(w[t][j]), j),
                )
                if best != t:
                    swap_cols(t, best)
                continue
            if any(w[i][t] for i in range(t + 1, m)):
                continue  # column was disturbed by the row pass
            break
        # Pivot must divide the trailing submatrix for the chain to hold.
        d = w[t][t]
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if w[i][j] % d != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue
        if d < 0:
            add_row(t, t, -2)  # negate row t: row += -2*row
        t += 1

    return SmithDecomposition(
        d=tuple(tuple(row) for row in w),
        u=tuple(tuple(row) for row in u),
        v=tuple(tuple(row) for row in v),
    )


# ---------------------------------------------------------------------------
# the pairing, written out entry by entry
# ---------------------------------------------------------------------------

def pairing_matrix(surface: SurfaceSpec) -> Matrix:
    """Skew form J with <a_i, b_i> = +1 and the boundary block zero."""
    r = surface.rank
    rows = [[0] * r for _ in range(r)]
    for i in range(surface.genus):
        rows[2 * i][2 * i + 1] = 1
        rows[2 * i + 1][2 * i] = -1
    return tuple(tuple(row) for row in rows)


def pairing(surface: SurfaceSpec, x: Vector, y: Vector) -> int:
    """Algebraic intersection number of two homology classes."""
    r = surface.rank
    if len(x) != r or len(y) != r:
        raise InputError(
            f"classes of length {len(x)}, {len(y)} on a rank-{r} surface")
    total = 0
    for i in range(surface.genus):
        total += x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i]
    return total


def twist_covector(c: Curve) -> Vector:
    """The row w with w . x = <c, x>: (-c_b1, c_a1, ..., -c_bg, c_ag, 0, ..., 0)."""
    v = c.hom
    w = [0] * len(v)
    for i in range(0, 2 * c.surface.genus, 2):
        w[i], w[i + 1] = -v[i + 1], v[i]
    return tuple(w)


def preserves_pairing_by_rows(surface: SurfaceSpec, m: Matrix) -> bool:
    """Check m^T J m == J exactly, from the g symplectic row pairs of m.

    Let P_x and Q_x be column x of the a-rows and of the b-rows of m; entry
    (x, y) of m^T J m is P_x . Q_y - Q_x . P_y.  Both sides are
    antisymmetric, so entries above the diagonal are compared, row by row,
    stopping at the first row that differs.  A matrix that is not r x r, r
    the rank, raises InputError.
    """
    r = surface.rank
    if len(m) != r or any(len(row) != r for row in m):
        raise InputError(f"matrix must be {r}x{r} for {surface}")
    n = 2 * surface.genus
    cols = tuple(zip(*m))
    ps = [col[0:n:2] for col in cols]
    qs = [col[1:n:2] for col in cols]
    mul = operator.mul
    for x in range(r):
        px, qx = ps[x], qs[x]
        got = [sum(map(mul, px, q)) - sum(map(mul, qx, p))
               for p, q in zip(ps[x + 1:], qs[x + 1:])]
        want = [0] * (r - x - 1)
        if x < n and not x % 2:  # <a_i, b_i> = +1
            want[0] = 1
        if got != want:
            return False
    return True


# ---------------------------------------------------------------------------
# dense twists, words and the pairing check
# ---------------------------------------------------------------------------

def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def preserves_pairing(surface: SurfaceSpec, m: Matrix) -> bool:
    """Check m^T J m == J exactly."""
    j = pairing_matrix(surface)
    return mat_mul(mat_mul(mat_transpose(m), j), m) == j


def twist_matrix(c: Curve, handed: str = "right") -> Matrix:
    """Homology transvection of the twist about c."""
    if handed not in ("right", "left"):
        raise InputError(f"bad handedness {handed!r}")
    h = 1 if handed == "right" else -1
    surface = c.surface
    r = surface.rank
    j = pairing_matrix(surface)
    v = c.hom
    # row w with w_k = sum_m v_m J_{m k}; the transvection is I + h * outer(v, w)
    w = tuple(sum(v[m] * j[m][k] for m in range(r)) for k in range(r))
    return tuple(
        tuple((1 if i == k else 0) + h * v[i] * w[k] for k in range(r))
        for i in range(r)
    )


def _letter_rep(letter: Letter) -> tuple[Matrix, Permutation]:
    gen = letter.gen
    if isinstance(gen, TwistGen):
        handed = gen.handed
        if letter.power == -1:
            handed = "left" if handed == "right" else "right"
        return twist_matrix(gen.curve, handed), perm_identity(gen.surface.boundary)
    if letter.power == -1:
        return mat_inverse_unimodular(gen.matrix), perm_inverse(gen.perm)
    return gen.matrix, gen.perm


def evaluate(w: MCWord) -> HomPermRep:
    """Evaluate a word; the empty word is the identity.

    The result always preserves the pairing form (asserted), and twist-only
    words have identity boundary permutation because twists fix the boundary
    pointwise.
    """
    surface = w.surface
    matrix = mat_identity(surface.rank)
    perm = perm_identity(surface.boundary)
    for letter in w.letters:
        m, p = _letter_rep(letter)
        matrix = mat_mul(matrix, m)
        perm = perm_compose(perm, p)
    rep = HomPermRep(surface, matrix, perm)
    if not preserves_pairing(surface, matrix):
        raise AssertionError("evaluated word does not preserve the pairing form")
    return rep


# ---------------------------------------------------------------------------
# fibration layer
# ---------------------------------------------------------------------------

def twist_product(f: LefschetzFibration) -> Matrix:
    """Ordered product of the signed twist matrices of the cycles."""
    acc = mat_identity(f.fiber.rank)
    for c in f.cycles:
        acc = mat_mul(acc, twist_matrix(c.curve, "right" if c.sign > 0 else "left"))
    return acc


def hurwitz_move(f: LefschetzFibration, i: int, direction: str) -> LefschetzFibration:
    """Elementary change of Hurwitz system at position i (1-based, i < n).

    R:  (c_i^e, c_{i+1}^d)  ->  (c_{i+1}^d, (t_{c_{i+1}}^{-d}(c_i))^e)
    L is the inverse move.  Either way the evaluated product of the signed
    twist matrices is unchanged.
    """
    if direction not in ("L", "R"):
        raise InputError(f"direction must be 'L' or 'R', not {direction!r}")
    n = f.size
    if not 1 <= i < n:
        raise InputError(f"move position {i} out of range 1..{n - 1}")
    cyc = list(f.cycles)
    left, right = cyc[i - 1], cyc[i]
    if direction == "R":
        # conjugate by the inverse twist of the right neighbor
        handed = "left" if right.sign > 0 else "right"
        rep = HomPermRep(
            f.fiber, twist_matrix(right.curve, handed), perm_identity(f.fiber.boundary))
        moved = SignedCycle(act_on_curve(rep, left.curve), left.sign)
        cyc[i - 1], cyc[i] = right, moved
    else:
        handed = "right" if left.sign > 0 else "left"
        rep = HomPermRep(
            f.fiber, twist_matrix(left.curve, handed), perm_identity(f.fiber.boundary))
        moved = SignedCycle(act_on_curve(rep, right.curve), right.sign)
        cyc[i - 1], cyc[i] = moved, left
    return LefschetzFibration(f.fiber, f.base, tuple(cyc), f.bundle)


def pullback(u: LefschetzFibration, plan: MeridianPlan) -> LefschetzFibration:
    """Pull back along the map encoded by the plan.

    Target cycle i is the source cycle plan[i].source transported by the
    evaluated conjugator, with sign multiplied by the local degree.  The
    transported class is checked against the conjugator's matrix times the
    source class.  Each distinct conjugator object is evaluated once.
    """
    require_disk(u, "pullback")
    cycles = []
    reps: dict[int, HomPermRep] = {}  # by the conjugator's identity: no record is hashed
    for e in plan.entries:
        if not 0 <= e.source < u.size:
            raise InputError(f"plan source {e.source} out of range")
        rep = reps.get(id(e.conjugator))
        if rep is None:
            if e.conjugator.surface != u.fiber:
                raise InputError("plan conjugator on the wrong surface")
            rep = reps[id(e.conjugator)] = evaluate(e.conjugator)
        src = u.cycles[e.source]
        moved = act_on_curve(rep, src.curve)
        if moved.hom != mat_vec(rep.matrix, src.curve.hom):
            raise AssertionError("monodromy does not factor through the source")
        cycles.append(SignedCycle(moved, e.local_degree * src.sign))
    return LefschetzFibration(u.fiber, DISK, tuple(cycles))


def _alphabet(u: LefschetzFibration) -> list[Letter]:
    """The twist letters of a witness search from u: the first curve of each
    distinct (type, class) among its cycles, in cycle order, right hand
    before left."""
    curves: list[Curve] = []
    for c in u.cycles:
        if all((d.cls, d.hom) != (c.curve.cls, c.curve.hom) for d in curves):
            curves.append(c.curve)
    return [Letter(TwistGen(c, hand)) for c in curves for hand in ("right", "left")]


def substitution_witness(
    u: LefschetzFibration,
    f: LefschetzFibration,
    depth: int = 4,
) -> MeridianPlan | None:
    """Search for a meridian plan realizing f as a pullback of u.

    For each target cycle, conjugating words over the source's own twist
    letters (and inverses) are enumerated in deterministic length-then-lex
    order up to ``depth``, looking for an exact (type, class) match with a
    source cycle.  Sign-matching sources are preferred (local degree +1);
    otherwise an opposite-sign source is used with local degree -1.  The
    returned plan is verified by a pullback round trip and is an
    ImmersionWitness when every local degree is +1.  Returns None when some
    cycle stays unmatched within the depth bound.
    """
    if u.fiber != f.fiber:
        raise InputError("witness search needs a common fiber")
    require_disk(u, "substitution_witness")
    require_disk(f, "substitution_witness")
    if depth < 0:
        raise InputError("depth must be >= 0")

    letters = _alphabet(u)
    mats = [twist_matrix(l.gen.curve, l.gen.handed) for l in letters]
    targets = [(c.curve.cls, c.curve.hom, c.sign) for c in f.cycles]
    pref = [
        [j for j, s in enumerate(u.cycles) if s.sign == sign and s.curve.cls == cls]
        for cls, _, sign in targets
    ]
    alt = [
        [j for j, s in enumerate(u.cycles) if s.sign != sign and s.curve.cls == cls]
        for cls, _, sign in targets
    ]
    hit_pref: dict[int, tuple[tuple[int, ...], int]] = {}
    hit_alt: dict[int, tuple[tuple[int, ...], int]] = {}

    def visit(word: tuple[int, ...], matrix: Matrix) -> None:
        for i, (cls, hom, _) in enumerate(targets):
            if i not in hit_pref:
                for j in pref[i]:
                    if mat_vec(matrix, u.cycles[j].curve.hom) == hom:
                        hit_pref[i] = (word, j)
                        break
            if i not in hit_pref and i not in hit_alt:
                for j in alt[i]:
                    if mat_vec(matrix, u.cycles[j].curve.hom) == hom:
                        hit_alt[i] = (word, j)
                        break

    # Length-lexicographic: all words of length L before any of length L+1.
    for length in range(depth + 1):
        if _walk_level((), mat_identity(u.fiber.rank), length, mats, visit,
                       hit_pref, len(targets)):
            break

    entries = []
    for i in range(len(targets)):
        if i in hit_pref:
            word, j = hit_pref[i]
            degree = 1
        elif i in hit_alt:
            word, j = hit_alt[i]
            degree = -1
        else:
            return None
        conj = MCWord(u.fiber, tuple(letters[li] for li in word))
        entries.append(PlanEntry(j, conj, degree))
    plan_cls = ImmersionWitness if all(e.local_degree == 1 for e in entries) else MeridianPlan
    plan = plan_cls(tuple(entries))

    check = pullback(u, plan)
    for got, want in zip(check.cycles, f.cycles):
        if (got.curve.cls, got.curve.hom, got.sign) != (
            want.curve.cls, want.curve.hom, want.sign
        ):
            raise AssertionError("witness failed the pullback round trip")
    return plan


def _walk_level(word, matrix, remaining, mats, visit, hit_pref, n_targets) -> bool:
    """Visit all words of exactly ``remaining`` more letters, in lex order."""
    if remaining == 0:
        visit(word, matrix)
        return len(hit_pref) == n_targets
    for li, m in enumerate(mats):
        if _walk_level(word + (li,), mat_mul(matrix, m), remaining - 1,
                       mats, visit, hit_pref, n_targets):
            return True
    return False


def whole_word_witness(
    u: LefschetzFibration,
    f: LefschetzFibration,
    depth: int = 4,
) -> MeridianPlan | None:
    """Search for a meridian plan realizing f as a pullback of u.

    For each target cycle, conjugating words over the source's own twist
    letters (and inverses) are enumerated in deterministic length-then-lex
    order up to ``depth``, looking for an exact (type, class) match with a
    source cycle.  Sign-matching sources are preferred (local degree +1);
    otherwise an opposite-sign source is used with local degree -1.  The
    returned plan is verified by a pullback round trip and is an
    ImmersionWitness when every local degree is +1.  Returns None when some
    cycle stays unmatched within the depth bound.

    The walk skips words that equal a word earlier in that order (see
    :func:`_whole_word_steps`); the first match is never such a word, so the
    plans are those of the full enumeration.  It carries w^-1 t for each
    target class t instead of w's matrix: w is invertible, so w u_j = t
    exactly when u_j = w^-1 t, and a source is matched by one dictionary
    lookup.  Before any search, CapacityError is raised when the unpruned
    word count passes WITNESS_WORD_BOUND.
    """
    if u.fiber != f.fiber:
        raise InputError("witness search needs a common fiber")
    require_disk(u, "substitution_witness")
    require_disk(f, "substitution_witness")
    if depth < 0:
        raise InputError("depth must be >= 0")

    letters = _alphabet(u)
    words, level = 0, 1
    for _ in range(depth + 1):
        words += level
        if words > WITNESS_WORD_BOUND:
            raise CapacityError(
                f"witness search over {len(letters)} letters to depth {depth} "
                f"exceeds the bound of {WITNESS_WORD_BOUND} words")
        level *= len(letters)
        if not level:
            break  # an empty alphabet has only the empty word
    steps = _whole_word_steps(letters)
    # Per target: source hom -> (tier, j), sign-matching sources (tier 0)
    # before opposite-sign ones (tier 1), the first j winning within a tier.
    tables = []
    for t in f.cycles:
        table: dict[Vector, tuple[int, int]] = {}
        for tier in (0, 1):
            for j, s in enumerate(u.cycles):
                if s.curve.cls == t.curve.cls and (s.sign == t.sign) == (tier == 0):
                    table.setdefault(s.curve.hom, (tier, j))
        tables.append(table)
    found: list[tuple[int, tuple[int, ...], int] | None] = [None] * len(tables)

    def visit(word: tuple[int, ...], preimages: Matrix) -> bool:
        # a tier-1 hit is kept until a tier-0 one replaces it
        for i, p in enumerate(preimages):
            hit = tables[i].get(p)
            if hit is not None and (found[i] is None or hit[0] < found[i][0]):
                found[i] = (hit[0], word, hit[1])
        return all(x is not None and x[0] == 0 for x in found)

    # Length-lexicographic: all words of length L before any of length L+1.
    start = tuple(c.curve.hom for c in f.cycles)
    for length in range(depth + 1 if letters else 1):
        if _whole_word_level((), start, length, range(len(steps)), steps, visit):
            break

    if None in found:
        return None
    entries = [PlanEntry(j, MCWord(u.fiber, tuple(letters[li] for li in word)),
                         -1 if tier else 1)
               for tier, word, j in found]
    plan_cls = ImmersionWitness if all(e.local_degree == 1 for e in entries) else MeridianPlan
    plan = plan_cls(tuple(entries))

    if pullback(u, plan).cycles != f.cycles:  # compared up to labels
        raise AssertionError("witness failed the pullback round trip")
    return plan


def _whole_word_steps(letters: list[Letter]) -> list[tuple[Vector, Vector, int, tuple[int, ...]]]:
    """Per twist letter: its step (class, covector, hand) and the letters the
    walk may put after it.

    Letter l is not put after p when it undoes p (the same class with the
    other hand), or when l < p and the two classes pair to 0: such
    transvections commute, so swapping them gives a lex-smaller word with
    the same matrix.  Either way the word equals one that comes earlier in
    length-then-lex order.
    """
    base = [(l.gen.curve.hom, twist_covector(l.gen.curve), l.gen.sign) for l in letters]
    steps = []
    for p, (cp, wp, hp) in enumerate(base):
        after = tuple(
            l for l, (cl, _, hl) in enumerate(base)
            if not (cl == cp and hl == -hp)
            and not (l < p and sum(map(operator.mul, wp, cl)) == 0))
        steps.append((cp, wp, hp, after))
    return steps


def _whole_word_level(word, preimages, remaining, allowed, steps, visit) -> bool:
    """Visit the words of exactly ``remaining`` more letters drawn from
    ``allowed`` and then each letter's followers, in lex order, carrying
    w^-1 t for each target class t: appending letter l applies T_l^-1, one
    rank-1 update.  True once ``visit`` reports every target matched."""
    if remaining == 0:
        return visit(word, preimages)
    for li in allowed:
        c, w, h, after = steps[li]
        if _whole_word_level(word + (li,), transvect(preimages, w, c, -h), remaining - 1,
                             after, steps, visit):
            return True
    return False


def global_conjugate(f: LefschetzFibration, w: MCWord) -> LefschetzFibration:
    """Transport every cycle by w and conjugate the bundle generators."""
    if w.surface != f.fiber:
        raise InputError("conjugating word on the wrong surface")
    rep = evaluate(w)
    rep_inv = evaluate(w.inverse())
    cycles = tuple(SignedCycle(act_on_curve(rep, c.curve), c.sign) for c in f.cycles)
    bundle = tuple(
        BundleGen(
            f.fiber,
            mat_mul(rep.matrix, mat_mul(bg.matrix, rep_inv.matrix)),
            tuple(rep.perm[bg.perm[rep_inv.perm[k]]] for k in range(f.fiber.boundary)),
            bg.label,
        )
        for bg in f.bundle
    )
    return LefschetzFibration(f.fiber, f.base, cycles, bundle)


# ---------------------------------------------------------------------------
# the curve census and boundary subsets
# ---------------------------------------------------------------------------

def enumerate_classes(surface: SurfaceSpec) -> tuple[CurveClass, ...]:
    """All curve types on the surface, duplicate-free, canonically sorted.

    A surface of H1 rank above MAX_FIBER_RANK is refused with CapacityError.
    """
    check_fiber_rank(surface)
    out: list[CurveClass] = []
    if surface.genus >= 1:
        out.append(CurveClass.nonseparating())
    g, b = surface.genus, surface.boundary
    seen = set()
    for g1 in range(g + 1):
        for b1 in range(1, b):
            side_a = (g1, b1)
            side_b = (g - g1, b - b1)
            cls = CurveClass.separating(side_a, side_b)
            if cls not in seen:
                seen.add(cls)
                out.append(cls)
    out.sort(key=CurveClass.sort_key)
    return tuple(out)


def subset_from_class(surface: SurfaceSpec, hom: Vector) -> frozenset[int] | None:
    """Recover the boundary subset whose class is ``hom``, or None.

    Only radical classes of indicator shape qualify: entries all in {0, 1}
    (last circle outside the subset) or all in {0, -1} (last circle inside).
    """
    if len(hom) != surface.rank or not in_radical(surface, hom):
        return None
    b = surface.boundary
    if b < 2:
        return None
    tail = hom[2 * surface.genus:]
    vals = set(tail)
    if vals <= {0, 1} and 1 in vals:
        subset = frozenset(j for j in range(1, b) if tail[j - 1] == 1)
    elif vals <= {0, -1} and -1 in vals:
        subset = frozenset(j for j in range(1, b) if tail[j - 1] == 0) | {b}
    else:
        return None
    if not subset or len(subset) == b:
        return None
    return subset


# ---------------------------------------------------------------------------
# stabilization, destabilization and reduce
# ---------------------------------------------------------------------------

def _split_classes(t: int, g: int, b: int) -> set[CurveClass]:
    """Types of a separating curve that cuts t of the b boundary circles off a
    genus-g surface, one per genus split."""
    return {CurveClass.separating((x, t), (g - x, b - t)) for x in range(g + 1)}


def _transport_separating(
    curve: Curve,
    new_surface: SurfaceSpec,
    new_hom: Vector,
    genus_delta: int,
    boundary_delta: int,
) -> Curve:
    """Move a separating curve's side data through a handle move.

    The active side, which contains the boundary circles touched by the
    move (the last circle among them), changes by (genus_delta,
    boundary_delta); the other side is untouched.  When the recorded
    unordered pair cannot be matched to the subset unambiguously the move
    is refused.
    """
    subset = subset_from_class(curve.surface, curve.hom)
    assert subset is not None
    b = curve.surface.boundary
    active_count, passive_count = len(subset), b - len(subset)
    if b not in subset:
        active_count, passive_count = passive_count, active_count
    s1, s2 = curve.cls.sides
    results = {
        CurveClass.separating((act[0] + genus_delta, act[1] + boundary_delta), pas)
        for act, pas in ((s1, s2), (s2, s1))
        if act[1] == active_count and pas[1] == passive_count
        and act[0] + genus_delta >= 0 and act[1] + boundary_delta >= 1
    }
    if len(results) != 1:
        raise NotApplicable(
            f"side data of separating cycle {curve.label or curve.hom} cannot "
            "be transported unambiguously at homology resolution")
    return Curve(new_surface, results.pop(), new_hom, curve.label)


def _transport_curve(
    curve: Curve,
    new_surface: SurfaceSpec,
    new_hom: Vector,
    genus_delta: int,
    boundary_delta: int,
) -> Curve:
    """Re-coordinatized curve after a stabilization move, with reclassification.

    A non-separating curve whose new class falls into the boundary lattice
    has become separating; its side data is recovered from the class when
    that is unambiguous (always so on a genus-zero result).
    """
    if not in_radical(new_surface, new_hom):
        if vec_gcd(new_hom) != 1:
            raise NotApplicable("transported class is imprimitive")
        return Curve(new_surface, CurveClass.nonseparating(), new_hom, curve.label)
    if curve.cls.is_separating:
        return _transport_separating(
            curve, new_surface, new_hom, genus_delta, boundary_delta)
    subset = subset_from_class(new_surface, new_hom)
    if subset is None:
        raise NotApplicable(
            "transported class is boundary-type but not a subset class")
    candidates = _split_classes(len(subset), new_surface.genus, new_surface.boundary)
    if len(candidates) != 1:
        raise NotApplicable(
            "genus split of a newly separating cycle is ambiguous")
    return Curve(new_surface, candidates.pop(), new_hom, curve.label)


def stabilize(f: LefschetzFibration, mode: str, sign: int = 1) -> LefschetzFibration:
    """Attach a fiber 1-handle and one new cycle crossing it once.

    boundary_up: both handle feet on the last boundary circle, which splits;
    the fiber goes (g, b) -> (g, b+1) and the new cycle is parallel to the
    split-off circle (class d_{b}, a separating curve).

    genus_up: feet on the last two boundary circles, which merge; the fiber
    goes (g, b) -> (g+1, b-1) and the new cycle is the new handle's
    longitude (class b_{g+1}).  Requires b >= 2.

    The total space is unchanged either way.
    """
    require_disk(f, "stabilize")
    if sign not in (1, -1):
        raise InputError("sign must be +-1")
    g, b = f.fiber.genus, f.fiber.boundary
    if mode == "boundary_up":
        if b < 1:
            raise InputError("boundary_up needs a fiber with boundary")
        new_surface = SurfaceSpec(g, b + 1)

        def remap(v: Vector) -> Vector:
            return v + (0,)

        new_hom = new_surface.basis_vector(new_surface.rank - 1)
        new_cls = CurveClass.separating((0, 1), (g, b))
        genus_delta, boundary_delta = 0, 1
    elif mode == "genus_up":
        if b < 2:
            raise InputError("genus_up merges two boundary circles; need b >= 2")
        new_surface = SurfaceSpec(g + 1, b - 1)
        last_delta = 2 * g + (b - 2)
        for c in f.cycles:
            if c.curve.cls.is_separating and c.curve.hom[last_delta] != 0:
                # The merged circles sit on opposite sides, so the cycle
                # becomes non-separating.  Allowed only when the matching
                # destabilization can reclassify it unambiguously.
                t = len(subset_from_class(c.curve.surface, c.curve.hom))
                if _split_classes(t, g, b) != {c.curve.cls}:
                    raise NotApplicable(
                        f"cycle {c.curve.label or c.curve.hom} separates the "
                        "two circles being merged and could not be recovered")

        def remap(v: Vector) -> Vector:
            return v[: 2 * g] + (v[last_delta], 0) + v[2 * g: last_delta]

        new_hom = new_surface.basis_vector(new_surface.beta_index(g + 1))
        new_cls = CurveClass.nonseparating()
        genus_delta, boundary_delta = 1, -1
    else:
        raise InputError(f"unknown stabilization mode {mode!r}")

    cycles = [
        SignedCycle(
            _transport_curve(
                c.curve, new_surface, remap(c.curve.hom), genus_delta, boundary_delta),
            c.sign,
        )
        for c in f.cycles
    ]
    cycles.append(SignedCycle(Curve(new_surface, new_cls, new_hom, "stab"), sign))
    return LefschetzFibration(new_surface, DISK, tuple(cycles))


def destabilize(f: LefschetzFibration, generator_index: int) -> LefschetzFibration:
    """Remove a cancelling handle pair recognized on one basis generator."""
    require_disk(f, "destabilize")
    surface = f.fiber
    g, b = surface.genus, surface.boundary
    rank = surface.rank
    if not 0 <= generator_index < rank:
        raise InputError(f"generator index {generator_index} out of range 0..{rank - 1}")
    coeffs = [c.curve.hom[generator_index] for c in f.cycles]
    hits = [i for i, v in enumerate(coeffs) if v != 0]
    if len(hits) != 1 or abs(coeffs[hits[0]]) != 1:
        raise NotApplicable(
            f"generator {generator_index} is not crossed exactly once by "
            "exactly one cycle")
    removed = hits[0]

    if generator_index < 2 * g:
        if b < 1:
            raise NotApplicable("a closed fiber admits no destabilizing arc")
        pair = generator_index // 2
        partner = generator_index ^ 1
        new_surface = SurfaceSpec(g - 1, b + 1)

        def remap(v: Vector) -> Vector:
            out = [v[2 * q + s] for q in range(g) if q != pair for s in (0, 1)]
            out += list(v[2 * g:])
            out.append(v[partner])
            return tuple(out)

        genus_delta, boundary_delta = -1, 1
    else:
        j = generator_index - 2 * g + 1  # 1-based boundary class number
        new_surface = SurfaceSpec(g, b - 1)
        last_delta = 2 * g + (b - 2)

        def remap(v: Vector) -> Vector:
            vb = v[last_delta]
            out = list(v[: 2 * g])
            for k in range(1, b - 1):
                out.append(-vb if k == j else v[2 * g + k - 1] - vb)
            return tuple(out)

        genus_delta, boundary_delta = 0, -1

    cycles = []
    for idx, c in enumerate(f.cycles):
        if idx == removed:
            continue
        cycles.append(
            SignedCycle(
                _transport_curve(
                    c.curve, new_surface, remap(c.curve.hom),
                    genus_delta, boundary_delta),
                c.sign,
            )
        )
    return LefschetzFibration(new_surface, DISK, tuple(cycles))


def reduce(f: LefschetzFibration, budget: int = 200) -> ReduceResult:
    """Breadth-first search for a maximally destabilized fibration."""
    seen = {f}
    queue: list[tuple[LefschetzFibration, int]] = [(f, 0)]
    best = (f.fiber.rank, f.size, 0, f, 0)
    edges = 0
    exhausted = False
    qi = 0
    while qi < len(queue) and not exhausted:
        state, depth = queue[qi]
        qi += 1
        for gi in range(state.fiber.rank):
            if edges >= budget:
                exhausted = True
                break
            try:
                child = destabilize(state, gi)
            except NotApplicable:
                continue
            edges += 1
            if child in seen:
                continue
            seen.add(child)
            queue.append((child, depth + 1))
            key = (child.fiber.rank, child.size, len(queue))
            if key < best[:3]:
                best = (*key, child, depth + 1)
    return ReduceResult(best[3], best[4], exhausted, edges, len(queue))
