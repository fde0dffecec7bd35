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

The group orders and the surjectivity oracle live in
:mod:`lefschetz.universality`; their public names still resolve from here,
on use (PEP 562), so importing this module does not load that one.
"""

from __future__ import annotations

import operator
from importlib import import_module
from itertools import repeat

from .curves import Curve, boundary_subset_class, nonseparating_curve
from .errors import InputError, clipped
from .homology import (
    MAX_FIBER_RANK,  # noqa: F401  (re-exported)
    Matrix,
    Record,
    SurfaceSpec,
    Vector,
    mat_identity,
    mat_mul,
    mat_vec,
    preserves_pairing,
)

# public names of lefschetz.universality that this module used to define
_MOVED = ("ORDER_WORK_BOUND", "perm_group_surjective", "symplectic_group_order",
          "MAX_MODULUS", "SurjectivityVerdict", "mcg_surjectivity_oracle")


def __getattr__(name: str):
    """A moved public name, looked up afresh in :mod:`lefschetz.universality`."""
    if name in _MOVED:
        return getattr(import_module(f"{__package__}.universality"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        raise InputError(f"{clipped(p)} is not a permutation of {n} points")


# ---------------------------------------------------------------------------
# generators and words
# ---------------------------------------------------------------------------

class TwistGen(Record):
    """Dehn twist about a curve; handed is "right" or "left"."""

    __slots__ = ("curve", "handed")

    def __init__(self, curve: Curve, handed: str = "right") -> None:
        if handed not in ("right", "left"):
            raise InputError(f"bad handedness {handed!r}")
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "handed", handed)

    @property
    def surface(self) -> SurfaceSpec:
        return self.curve.surface

    @property
    def sign(self) -> int:
        """h in x -> x + h <c, x> c: +1 right-handed, -1 left-handed."""
        return 1 if self.handed == "right" else -1


class HomPermRep(Record):
    """Mapping class at homology resolution: a matrix preserving the pairing
    and a permutation of the boundary circles.

    The constructor is the library's one mapping-class check.  It refuses,
    with InputError, a matrix that does not preserve the pairing or does not
    send each boundary class d_j to d_perm(j), so every rep moves valid
    curves to valid curves.  Products, inverses and conjugates of checked
    reps are mapping classes by algebra, so the library stores them through
    ``Record._trusted`` without this check.
    """

    __slots__ = ("surface", "matrix", "perm")
    _kind = "mapping class"  # names the record in the pairing refusal

    def __init__(self, surface: SurfaceSpec, matrix: Matrix, perm: Permutation) -> None:
        matrix = tuple(tuple(r) for r in matrix)
        perm = tuple(perm)
        if not preserves_pairing(surface, matrix):
            raise InputError(f"{self._kind} must preserve the pairing form")
        b = surface.boundary
        check_perm(perm, b)
        for j in range(1, b + 1) if b > 1 else ():  # on b = 1, d_1 = 0
            src = boundary_subset_class(surface, frozenset({j}))
            dst = boundary_subset_class(surface, frozenset({perm[j - 1] + 1}))
            if mat_vec(matrix, src) != dst:
                raise InputError(f"matrix moves boundary class {j} off d_{perm[j - 1] + 1}")
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "perm", perm)

    def compose(self, other: "HomPermRep") -> "HomPermRep":
        if self.surface != other.surface:
            raise InputError("cannot compose over different surfaces")
        return HomPermRep._trusted(
            self.surface,
            mat_mul(self.matrix, other.matrix),
            perm_compose(self.perm, other.perm),
        )

    @property
    def is_identity(self) -> bool:
        return self.matrix == mat_identity(self.surface.rank) and (
            self.perm == perm_identity(self.surface.boundary))


class BundleGen(HomPermRep):
    """Monodromy of a fiber-bundle loop: a mapping class with a label.

    The constructor makes ``HomPermRep``'s check.  The label is not compared.
    """

    __slots__ = ("label",)
    _compare = ("surface", "matrix", "perm")
    _kind = "bundle generator"

    def __init__(self, surface: SurfaceSpec, matrix: Matrix, perm: Permutation,
                 label: str = "") -> None:
        super().__init__(surface, matrix, perm)
        object.__setattr__(self, "label", label)

    def inverse(self) -> "BundleGen":
        return BundleGen._trusted(
            self.surface,
            pairing_inverse(self.surface, self.matrix, self.perm),
            perm_inverse(self.perm),
            f"{self.label}^-1" if self.label else "",
        )


def pairing_inverse(surface: SurfaceSpec, m: Matrix, perm: Permutation) -> Matrix:
    """Inverse of a pairing-preserving m that sends each d_j to d_{perm(j)}.

    In (handle, boundary) blocks m = [[S, 0], [C, P]], with S symplectic and
    P the action of perm on the boundary classes, so

        m^-1 = [[S^-1, 0], [-P^-1 C S^-1, P^-1]],

    where S^-1 = J^T S^T J has entry (x, y) equal to +-S[y^1][x^1] (+ when x
    and y have the same parity) and P^-1 is the action of perm^-1.  Every
    HomPermRep has this form.  This is the one inverse formula, called by
    ``BundleGen.inverse``.
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
    the boundary is realized by some homeomorphism, so once ``perm`` is
    checked the generator is stored without the mapping-class check.
    """
    perm = tuple(perm)
    check_perm(perm, surface.boundary)
    g, b = surface.genus, surface.boundary
    cols: list[Vector] = []
    for k in range(2 * g):
        cols.append(surface.basis_vector(k))
    for j in range(1, b):
        cols.append(boundary_subset_class(surface, frozenset({perm[j - 1] + 1})))
    matrix = tuple(tuple(col[i] for col in cols) for i in range(surface.rank))
    return BundleGen._trusted(surface, matrix, perm, label)


class Letter(Record):
    """One word letter: a generator or its formal inverse (power -1)."""

    __slots__ = ("gen", "power")

    def __init__(self, gen: TwistGen | BundleGen, power: int = 1) -> None:
        if power not in (1, -1):
            raise InputError("letter power must be +-1")
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "power", power)

    @property
    def surface(self) -> SurfaceSpec:
        return self.gen.surface

    def inverse(self) -> "Letter":
        return Letter._trusted(self.gen, -self.power)


class MCWord(Record):
    """Word of generators on one surface, acting right to left."""

    __slots__ = ("surface", "letters")

    def __init__(self, surface: SurfaceSpec, letters: tuple[Letter, ...] = ()) -> None:
        letters = tuple(letters)
        for let in letters:
            if let.surface != surface:
                raise InputError("word letters live on different surfaces")
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "letters", letters)

    def __mul__(self, other: "MCWord") -> "MCWord":
        if self.surface != other.surface:
            raise InputError("cannot concatenate words on different surfaces")
        return MCWord._trusted(self.surface, self.letters + other.letters)

    def inverse(self) -> "MCWord":
        return MCWord._trusted(
            self.surface, tuple(l.inverse() for l in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)


def twist_word(*twists: TwistGen) -> MCWord:
    if not twists:
        raise InputError("empty twist list; build MCWord(surface) directly")
    return MCWord(twists[0].surface, tuple(Letter(t) for t in twists))


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
    matrix.  Every factor is a mapping class (a transvection, or a bundle
    generator checked where it entered, or its inverse), so the product is
    one and is stored without the check.  Twist-only words have identity
    boundary permutation because twists fix the boundary pointwise.
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
    return HomPermRep._trusted(surface, matrix, perm)


def act_on_curve(w: MCWord | HomPermRep, c: Curve) -> Curve:
    """Transport a curve by a mapping class.

    The homeomorphism type is invariant, so only the homology class moves,
    and the moved curve is stored without validation: every word and every
    ``HomPermRep`` is a mapping class, which takes a valid curve to a valid
    curve of the same type.  The label rides along unchanged: it names the
    curve the result is the image of, and keeping it path-independent makes
    move round trips byte-stable under serialization.
    """
    rep = evaluate(w) if isinstance(w, MCWord) else w
    if rep.surface != c.surface:
        raise InputError("word and curve live on different surfaces")
    return Curve._trusted(c.surface, c.cls, mat_vec(rep.matrix, c.hom), c.label)


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
