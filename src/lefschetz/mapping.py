"""Mapping classes at (homology transvection, boundary permutation) resolution.

Words in Dehn twists about catalog curves, plus explicit bundle generators,
are evaluated to a pair (integer matrix preserving the intersection pairing,
permutation of the boundary circles).  Words act right to left as maps, so
``evaluate(w1 + w2) = evaluate(w1) o evaluate(w2)``.

The twist about a curve c acts on homology by the transvection

    x  |->  x + h * <c, x> * c

with h = +1 for a right-handed twist and -1 for a left-handed one.  The sign
convention is a recorded constant of the package: with <a_i, b_i> = +1 the
right twist about a_1 sends b_1 to b_1 + a_1.

Deciding whether a set of twists generates the full mapping class group is
out of reach at this resolution, so the surjectivity oracle returns one of
three verdicts: Certified (the set contains a recognized generating
configuration), Obstructed (a finite computation rules surjectivity out), or
Unknown.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import repeat
from math import factorial, isqrt

from .curves import Curve, boundary_subset_class, nonseparating_curve
from .errors import CapacityError, InputError
from .homology import (
    MAX_FIBER_RANK,  # noqa: F401  (re-exported)
    Matrix,
    SurfaceSpec,
    Vector,
    check_fiber_rank,
    mat_identity,
    mat_mul,
    mat_vec,
    preserves_pairing,
)

# ---------------------------------------------------------------------------
# permutations of boundary circles (0-based tuples)
# ---------------------------------------------------------------------------

Permutation = tuple[int, ...]


def perm_identity(n: int) -> Permutation:
    return tuple(range(n))


def perm_compose(s: Permutation, t: Permutation) -> Permutation:
    """(s o t)(i) = s(t(i)); apply t first."""
    return tuple(s[t[i]] for i in range(len(t)))


def perm_inverse(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def check_perm(p: Permutation, n: int) -> None:
    if len(p) != n or sorted(p) != list(range(n)):
        raise InputError(f"{p} is not a permutation of {n} points")


# ---------------------------------------------------------------------------
# generators and words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistGen:
    """Dehn twist about a curve; handed is "right" or "left"."""

    curve: Curve
    handed: str = "right"

    def __post_init__(self) -> None:
        if self.handed not in ("right", "left"):
            raise InputError(f"bad handedness {self.handed!r}")

    @property
    def surface(self) -> SurfaceSpec:
        return self.curve.surface

    @property
    def sign(self) -> int:
        """h in x -> x + h <c, x> c: +1 right-handed, -1 left-handed."""
        return 1 if self.handed == "right" else -1


@dataclass(frozen=True)
class BundleGen:
    """Monodromy of a fiber-bundle loop: matrix plus boundary permutation.

    The matrix must preserve the pairing and act on the boundary classes
    d_1, ..., d_b compatibly with the permutation.
    """

    surface: SurfaceSpec
    matrix: Matrix
    perm: Permutation
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", tuple(tuple(r) for r in self.matrix))
        object.__setattr__(self, "perm", tuple(self.perm))
        if not preserves_pairing(self.surface, self.matrix):
            raise InputError("bundle generator must preserve the pairing form")
        b = self.surface.boundary
        check_perm(self.perm, b)
        for j in range(1, b + 1) if b > 1 else ():  # on b = 1, d_1 = 0
            src = boundary_subset_class(self.surface, frozenset({j}))
            dst = boundary_subset_class(self.surface, frozenset({self.perm[j - 1] + 1}))
            if mat_vec(self.matrix, src) != dst:
                raise InputError(
                    f"matrix moves boundary class {j} off d_{self.perm[j - 1] + 1}")

    def inverse(self) -> "BundleGen":
        return BundleGen(
            self.surface,
            _pairing_inverse(self.surface, self.matrix, self.perm),
            perm_inverse(self.perm),
            label=f"{self.label}^-1" if self.label else "",
        )


def _pairing_inverse(surface: SurfaceSpec, m: Matrix, perm: Permutation) -> Matrix:
    """Inverse of a pairing-preserving m that sends each d_j to d_{perm(j)}.

    In (handle, boundary) blocks m = [[S, 0], [C, P]], with S symplectic and
    P the action of perm on the boundary classes, so

        m^-1 = [[S^-1, 0], [-P^-1 C S^-1, P^-1]],

    where S^-1 = J^T S^T J has entry (x, y) equal to +-S[y^1][x^1] (+ when x
    and y have the same parity) and P^-1 is the action of perm^-1.  Every
    BundleGen and every evaluated word has this form.
    """
    n = 2 * surface.genus
    sign = (1, -1) * surface.genus
    s_inv = tuple(
        tuple(sign[x] * sign[y] * m[y ^ 1][x ^ 1] for y in range(n)) for x in range(n))
    d = surface.boundary - 1
    if d < 1:
        return s_inv
    p_inv = tuple(zip(*(boundary_subset_class(surface, frozenset({k + 1}))[n:]
                        for k in perm_inverse(perm)[:d])))
    # bottom block rows: P^-1 [-C S^-1 | I]
    c_s_inv = mat_mul(tuple(row[:n] for row in m[n:]), s_inv)
    bottom = mat_mul(p_inv, tuple(
        tuple(-x for x in row) + e for row, e in zip(c_s_inv, mat_identity(d))))
    return tuple(row + (0,) * d for row in s_inv) + bottom


def boundary_permutation_gen(
    surface: SurfaceSpec, perm: Permutation, label: str = ""
) -> BundleGen:
    """Bundle generator permuting boundary circles and fixing the handles.

    Sends d_j to d_{perm(j)} and each a_i, b_i to itself; any permutation of
    the boundary is realized by some homeomorphism, so this is always legal.
    """
    check_perm(perm, surface.boundary)
    g, b = surface.genus, surface.boundary
    cols: list[Vector] = []
    for k in range(2 * g):
        cols.append(surface.basis_vector(k))
    for j in range(1, b):
        cols.append(boundary_subset_class(surface, frozenset({perm[j - 1] + 1})))
    matrix = tuple(tuple(col[i] for col in cols) for i in range(surface.rank))
    return BundleGen(surface, matrix, perm, label)


@dataclass(frozen=True)
class Letter:
    """One word letter: a generator or its formal inverse (power -1)."""

    gen: TwistGen | BundleGen
    power: int = 1

    def __post_init__(self) -> None:
        if self.power not in (1, -1):
            raise InputError("letter power must be +-1")

    @property
    def surface(self) -> SurfaceSpec:
        return self.gen.surface

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.power)


@dataclass(frozen=True)
class MCWord:
    """Word of generators on one surface, acting right to left."""

    surface: SurfaceSpec
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        for let in self.letters:
            if let.surface != self.surface:
                raise InputError("word letters live on different surfaces")

    def __mul__(self, other: "MCWord") -> "MCWord":
        if self.surface != other.surface:
            raise InputError("cannot concatenate words on different surfaces")
        return MCWord(self.surface, self.letters + other.letters)

    def inverse(self) -> "MCWord":
        return MCWord(self.surface, tuple(l.inverse() for l in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)


def twist_word(*twists: TwistGen) -> MCWord:
    if not twists:
        raise InputError("empty twist list; build MCWord(surface) directly")
    return MCWord(twists[0].surface, tuple(Letter(t) for t in twists))


@dataclass(frozen=True)
class HomPermRep:
    """Evaluated mapping class: pairing-preserving matrix and boundary permutation."""

    surface: SurfaceSpec
    matrix: Matrix
    perm: Permutation

    def compose(self, other: "HomPermRep") -> "HomPermRep":
        if self.surface != other.surface:
            raise InputError("cannot compose over different surfaces")
        return HomPermRep(
            self.surface,
            mat_mul(self.matrix, other.matrix),
            perm_compose(self.perm, other.perm),
        )

    @property
    def is_identity(self) -> bool:
        return self.matrix == mat_identity(self.surface.rank) and (
            self.perm == perm_identity(self.surface.boundary))


def transvect(rows: Matrix, a: Vector, b: Vector, h: int) -> Matrix:
    """Send each row x to x + h (x . a) b, O(r) per row: the one twist kernel.

    For the twist T about c with covector w (w . x = <c, x>), m T is the
    rank-1 right update ``transvect(m, c, w, h)`` = m + h (m c) w^T, and
    T x is ``transvect((x,), w, c, h)[0]``.
    """
    add, mul = operator.add, operator.mul
    out = []
    for x in rows:
        k = h * sum(map(mul, x, a))
        out.append(tuple(map(add, x, map(mul, repeat(k), b))) if k else x)
    return tuple(out)


def twist_covector(c: Curve) -> Vector:
    """The row w with w . x = <c, x>: (-c_b1, c_a1, ..., -c_bg, c_ag, 0, ..., 0)."""
    v = c.hom
    w = [0] * len(v)
    for i in range(0, 2 * c.surface.genus, 2):
        w[i], w[i + 1] = -v[i + 1], v[i]
    return tuple(w)


def twist_right(m: Matrix, c: Curve, h: int) -> Matrix:
    """m T for the twist T about c with hand h, by one rank-1 update."""
    return transvect(m, c.hom, twist_covector(c), h)


def twist_vector(x: Vector, c: Curve, h: int) -> Vector:
    """T x = x + h <c, x> c for the twist T about c with hand h, in O(r)."""
    return transvect((x,), twist_covector(c), c.hom, h)[0]


def twist_matrix(c: Curve, handed: str = "right") -> Matrix:
    """Homology transvection of the twist about c, as a dense matrix: a view
    for callers, since every library path twists through :func:`transvect`."""
    return twist_right(mat_identity(c.surface.rank), c, TwistGen(c, handed).sign)


def evaluate(w: MCWord) -> HomPermRep:
    """Evaluate a word; the empty word is the identity.

    Twist letters are rank-1 updates; bundle letters multiply in their dense
    matrix.  The result always preserves the pairing form (asserted), and
    twist-only words have identity boundary permutation because twists fix
    the boundary pointwise.
    """
    surface = w.surface
    matrix = mat_identity(surface.rank)
    perm = perm_identity(surface.boundary)
    for letter in w.letters:
        gen = letter.gen
        if isinstance(gen, TwistGen):
            matrix = twist_right(matrix, gen.curve, letter.power * gen.sign)
            continue
        if letter.power == -1:
            gen = gen.inverse()
        matrix = mat_mul(matrix, gen.matrix)
        perm = perm_compose(perm, gen.perm)
    if not preserves_pairing(surface, matrix):
        raise AssertionError("evaluated word does not preserve the pairing form")
    return HomPermRep(surface, matrix, perm)


def act_on_curve(w: MCWord | HomPermRep, c: Curve) -> Curve:
    """Transport a curve by a mapping class.

    The homeomorphism type is invariant, so only the homology class moves.
    The label rides along unchanged: it names the curve the result is the
    image of, and keeping it path-independent makes move round trips
    byte-stable under serialization.
    """
    rep = evaluate(w) if isinstance(w, MCWord) else w
    if rep.surface != c.surface:
        raise InputError("word and curve live on different surfaces")
    new_hom = mat_vec(rep.matrix, c.hom)
    return Curve(c.surface, c.cls, new_hom, c.label)


# ---------------------------------------------------------------------------
# group orders: one deterministic Schreier-Sims routine
# ---------------------------------------------------------------------------

# Work allowed to one group-order computation, counted as orbit points stored
# plus Schreier generators sifted.  Past it the computation gives up.
ORDER_WORK_BOUND = 200_000


def _group_order(gens, base, act, mul, inv, full_order: int) -> int | None:
    """Order of the group G generated by ``gens``, or None past the work bound.

    Deterministic Schreier-Sims (Sims 1970; Seress 2003).  G acts on
    points by ``act(g, point)``; ``mul(a, b)`` applies b first, then a, and
    ``inv`` inverts (its result is only ever passed to ``mul``).  ``base``
    must be a base: an element fixing every base point is the identity.
    Level i keeps the orbit of base[i] under
    H_i = <generators fixing base[:i]> with a transversal (None stands for
    the identity at the base point itself) and, beside it, each transversal
    element's inverse, computed once when its point joins the orbit.  The
    Schreier generators of each (point, generator) pair are sifted through
    the deeper levels, deepest level first, and a nontrivial residue becomes
    a new generator.

    Orbits are extended as generators arrive, each pair is tested once per
    level, and tree edges (pairs that first reached a point) are skipped,
    because their Schreier generators are trivial.  A residue made from a
    level-i Schreier generator lies in H_i already, so it is a new generator
    only of the deeper levels it reaches.

    G must lie in a group of order ``full_order``.  Each orbit is an orbit of
    a subgroup of the true point stabilizer, so the product of the orbit
    lengths bounds |G| from below at every step, and the computation stops
    as soon as it reaches ``full_order``.  Otherwise the order is returned
    only once every Schreier generator has sifted, so it is exact.
    """
    depth = len(base)
    orbits: list[dict] = [{b: None} for b in base]
    inverses: list[dict] = [{} for _ in base]  # point -> inverse of its transversal element
    level_gens: list[list] = [[] for _ in base]
    pending: list[list] = [[] for _ in base]  # non-tree pairs, still to sift
    work = 0
    lower_bound = 1  # product of the orbit lengths, kept up to date by extend

    def sift(h, i: int):
        """(residue, level it dropped out at), or (None, depth) if h sifts."""
        while i < depth:
            pt = act(h, base[i])
            if pt not in orbits[i]:
                return h, i
            if orbits[i][pt] is not None:
                h = mul(inverses[i][pt], h)
            i += 1
        return None, depth

    def extend(i: int, pairs: list) -> None:
        nonlocal work, lower_bound
        orbit, inverse, gens_i, todo = orbits[i], inverses[i], level_gens[i], pending[i]
        before = len(orbit)
        for pt, s in pairs:  # grows while it is read
            img = act(s, pt)
            if img in orbit:
                todo.append((pt, s, img))
                continue
            u = orbit[pt]
            orbit[img] = s if u is None else mul(s, u)
            inverse[img] = inv(orbit[img])
            work += 1
            if work > ORDER_WORK_BOUND:
                break
            pairs.extend((img, t) for t in gens_i)
        lower_bound = lower_bound // before * len(orbit)

    def add(h, lo: int, hi: int) -> None:
        for i in range(lo, hi + 1):
            level_gens[i].append(h)
            extend(i, [(pt, h) for pt in orbits[i]])

    for g in gens:
        residue, level = sift(g, 0)
        if residue is not None:
            add(residue, 0, level)
    while lower_bound != full_order:
        if work > ORDER_WORK_BOUND:
            return None
        i = next((i for i in reversed(range(depth)) if pending[i]), None)
        if i is None:
            return lower_bound
        pt, s, img = pending[i].pop()
        work += 1
        u = orbits[i][pt]
        schreier = s if u is None else mul(s, u)
        if orbits[i][img] is not None:
            schreier = mul(inverses[i][img], schreier)
        residue, level = sift(schreier, i + 1)
        if residue is not None:
            add(residue, i + 1, level)
    return full_order


# ---------------------------------------------------------------------------
# permutation groups: surjectivity onto the full symmetric group
# ---------------------------------------------------------------------------

def perm_group_surjective(perms: list[Permutation], b: int) -> bool:
    """True iff the permutations generate the full symmetric group on b points.

    Every residue kept by the order computation enlarges an orbit, so at
    degree <= 10 its work stays far below ORDER_WORK_BOUND.
    """
    if b < 1:
        raise InputError("need at least one boundary circle")
    if b > 10:
        raise CapacityError(f"permutation degree {b} exceeds the desk-scale bound 10")
    for p in perms:
        check_perm(p, b)
    full = factorial(b)
    order = _group_order(
        perms, range(b), lambda g, i: g[i], perm_compose, perm_inverse, full)
    return order == full


# ---------------------------------------------------------------------------
# mod-p symplectic groups
# ---------------------------------------------------------------------------

def symplectic_group_order(g: int, p: int) -> int:
    """|Sp(2g, p)| = p^(g^2) * prod_{i=1..g} (p^(2i) - 1)."""
    order = p ** (g * g)
    for i in range(1, g + 1):
        order *= p ** (2 * i) - 1
    return order


# The oracle takes int primes up to MAX_MODULUS (the trial division that checks
# them) whose |Sp(2g, p)| has at most 4300 digits, the most Python formats.
MAX_MODULUS = 1_000_000
_MAX_ORDER = 10 ** 4300


def _mod_p_generators(twists: list[TwistGen], g: int, p: int) -> list[Matrix]:
    """The twists' actions on F_p^(2g), deduplicated in order.

    Each is one transvect of the 2g x 2g identity by the twist's center and
    covector; the identity's rows are 2g long, so only handle entries are read.
    """
    identity = mat_identity(2 * g)
    return list(dict.fromkeys(
        tuple(tuple(x % p for x in row)
              for row in transvect(identity, t.curve.hom, twist_covector(t.curve), t.sign))
        for t in twists))


def _symplectic_order_mod(mats: Iterable[Matrix], g: int, p: int) -> int | None:
    """Order of the group the symplectic matrices generate mod p (None: gave up).

    The group acts on column vectors of F_p^(2g); the standard basis is a
    base, since a matrix fixing every basis vector is the identity.

    At p = 2 the chain runs on bit-packed vectors: a point is a 2g-bit int
    whose bit i is entry i, and a matrix is the tuple of its column masks
    (bit i of column j is entry (i, j)), so a matrix acts by XOR-ing the
    columns the point's bits select.  Over F_2 the signs drop out of
    S^-1 = J^T S^T J, so the inverse is a bit transpose: entry (x, y) is
    bit y^1 of column x^1.  Packing is a bijection onto the tuple
    representation, so the chain visits the same points in the same order
    and does the same work.  Odd primes act on tuples of residues.
    """
    n = 2 * g
    full = symplectic_group_order(g, p)
    if p == 2:
        def act2(m: tuple[int, ...], v: int) -> int:
            out = 0
            while v:
                low = v & -v
                out ^= m[low.bit_length() - 1]
                v ^= low
            return out

        def mul2(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
            return tuple([act2(a, col) for col in b])

        def inv2(m: tuple[int, ...]) -> tuple[int, ...]:
            out = [0] * n
            for x in range(n):  # bit y^1 of column x^1 is bit x of column y
                col = m[x ^ 1]
                while col:
                    low = col & -col
                    out[(low.bit_length() - 1) ^ 1] |= 1 << x
                    col ^= low
            return tuple(out)

        packed = [tuple(sum((m[i][j] & 1) << i for i in range(n)) for j in range(n))
                  for m in mats]
        return _group_order(packed, [1 << i for i in range(n)], act2, mul2, inv2, full)

    block = SurfaceSpec(g, 0)

    def act(m: Matrix, v: Vector) -> Vector:
        return tuple(sum(map(operator.mul, row, v)) % p for row in m)

    def mul(a: Matrix, b: Matrix) -> Matrix:
        cols = tuple(zip(*b))
        return tuple(
            tuple(sum(map(operator.mul, row, col)) % p for col in cols) for row in a)

    def inv(m: Matrix) -> Matrix:
        # entries in (-p, p): every inverse is consumed by mul, which reduces
        return _pairing_inverse(block, m, ())

    base = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return _group_order(mats, base, act, mul, inv, full)


# ---------------------------------------------------------------------------
# twist catalog: recognized generating configurations
# ---------------------------------------------------------------------------

def twist_catalog(surface: SurfaceSpec) -> tuple[Curve, ...]:
    """Catalog configuration whose twists generate the mapping class group.

    Available for b = 1, g >= 1 and for the closed torus.  For g >= 2 this is
    the classical (2g+1)-curve configuration: a chain

        b1 - a1 - c1 - a2 - c2 - ... - c_{g-1} - a_g

    together with one extra curve b2 meeting only a2.  The homology table is

        a_i -> alpha_i,   b1 -> beta_1,   b2 -> beta_2,
        c_i -> beta_i + beta_{i+1}

    which realizes the intersection pattern algebraically (consecutive
    configuration neighbors pair to +-1, all other pairs to 0), consists of
    primitive non-separating classes, and spans the full symplectic lattice.
    For g = 1 the catalog is the pair a -> alpha_1, b -> beta_1.
    """
    g, b = surface.genus, surface.boundary
    if g < 1 or b > 1:
        raise InputError(f"no twist catalog for {surface}")
    alpha = lambda i: surface.basis_vector(surface.alpha_index(i))
    beta = lambda i: surface.basis_vector(surface.beta_index(i))
    if g == 1:
        return (
            nonseparating_curve(surface, alpha(1), "a"),
            nonseparating_curve(surface, beta(1), "b"),
        )
    curves = [
        nonseparating_curve(surface, beta(1), "b1"),
        nonseparating_curve(surface, beta(2), "b2"),
    ]
    for i in range(1, g + 1):
        curves.append(nonseparating_curve(surface, alpha(i), f"a{i}"))
    for i in range(1, g):
        chain = tuple(x + y for x, y in zip(beta(i), beta(i + 1)))
        curves.append(nonseparating_curve(surface, chain, f"c{i}"))
    return tuple(curves)


# ---------------------------------------------------------------------------
# the surjectivity oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurjectivityVerdict:
    """Three-valued answer: "certified", "obstructed" or "unknown"."""

    status: str
    detail: str = ""

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    @property
    def obstructed(self) -> bool:
        return self.status == "obstructed"


def _matches_catalog(twists: list[TwistGen], surface: SurfaceSpec) -> bool:
    """Twist set contains every catalog curve, matched by (type, class).

    Labels and handedness are ignored (a twist and its inverse generate the
    same subgroup) and classes match up to overall sign (the curve is
    unoriented).
    """
    have = set()
    for t in twists:
        have.add((t.curve.cls, t.curve.hom))
        have.add((t.curve.cls, tuple(-x for x in t.curve.hom)))
    return all((c.cls, c.hom) in have for c in twist_catalog(surface))


def mcg_surjectivity_oracle(
    twists: list[TwistGen],
    surface: SurfaceSpec,
    primes: tuple[int, ...] = (2, 3, 5),
) -> SurjectivityVerdict:
    """Decide, when possible, whether the twists generate the mapping class group.

    Certified is only returned with a recognized generating-set certificate:

      * the twist set contains the catalog configuration for (g, b=1), or
        the two catalog curves for the torus cases (1,1) and (1,0);
      * the mapping class group is trivial (disk or sphere fiber).

    Obstructed is only returned with a finite computed obstruction:

      * the homology images mod p generate a proper subgroup of the full
        symplectic group Sp(2g, p) for some p.  The order of that group is
        computed exactly by a stabilizer chain (Schreier-Sims on F_p^(2g),
        with the standard basis as base points; at p = 2 on bit-packed
        vectors, where the symplectic inverse is a sign-free bit
        transpose), and only a *completed* chain counts.  A chain that
        would need more than ORDER_WORK_BOUND orbit points and sifted
        Schreier generators is abandoned, and that prime is inconclusive.
        The chain stops early, as full, once the product of its orbit
        lengths reaches |Sp(2g, p)|: each orbit is an orbit of a subgroup
        of the true point stabilizer, so the product is a lower bound on
        the order;
      * g >= 1, b <= 1 and no twists: a surjective monodromy would realize
        the non-separating type, the only one at b <= 1.

    Anything else is Unknown: homology data alone cannot certify
    surjectivity of the full group.

    Before any work, a modulus that is not an int prime (a bool included) is
    refused with InputError; a surface of H1 rank above MAX_FIBER_RANK, a
    modulus above MAX_MODULUS and a prime whose |Sp(2g, p)| has more than 4300
    digits are refused with CapacityError.
    """
    check_fiber_rank(surface)
    for p in primes:
        if type(p) is not int or p < 2 or p <= MAX_MODULUS and any(
                p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise InputError(f"modulus {p!r} is not a prime")
        if p > MAX_MODULUS:
            raise CapacityError(f"modulus {p} exceeds the bound {MAX_MODULUS}")
        if symplectic_group_order(surface.genus, p) >= _MAX_ORDER:
            raise CapacityError(f"|Sp({2 * surface.genus}, {p})| has more than 4300 digits")
    for t in twists:
        if t.surface != surface:
            raise InputError("twist on the wrong surface")
    g, b = surface.genus, surface.boundary

    if g >= 1 and b <= 1 and _matches_catalog(twists, surface):
        return SurjectivityVerdict(
            "certified", f"contains the {2 * g + 1 if g >= 2 else 2}-twist catalog configuration")
    if g == 0 and b <= 1:
        return SurjectivityVerdict("certified", "trivial mapping class group")

    if g >= 1:
        for p in primes:
            order = _symplectic_order_mod(_mod_p_generators(twists, g, p), g, p)
            if order is None:
                continue  # inconclusive at this prime
            full = symplectic_group_order(g, p)
            if order < full:
                return SurjectivityVerdict(
                    "obstructed",
                    f"mod-{p} symplectic closure has order {order} < {full}")

    if g >= 1 and b <= 1 and not twists:
        return SurjectivityVerdict("obstructed", "curve type nonsep is realized by no twist curve")

    return SurjectivityVerdict("unknown", "no certificate and no finite obstruction")
