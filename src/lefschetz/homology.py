"""Exact integer first homology of compact oriented surfaces with boundary.

A surface of genus ``g`` with ``b`` boundary circles carries the free lattice
H1 with ordered basis

    (a_1, b_1, ..., a_g, b_g, d_1, ..., d_{b-1})

where (a_i, b_i) are the symplectic pairs of the handles and d_j is the class
of a curve parallel to the j-th boundary circle.  The last boundary class is
not stored: d_b = -(d_1 + ... + d_{b-1}).  The intersection pairing is fixed
once and for all by <a_i, b_i> = +1, every other basis pairing 0; the d_j are
in the radical.  :func:`covector` is the one place that writes it.

Every module in the package works over this basis, with plain Python integers
(arbitrary precision, so there is no overflow policy).  Vectors are tuples of
ints and matrices are tuples of row tuples.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from itertools import repeat
from math import gcd

from .errors import CapacityError, InputError, clipped

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# small exact matrix/vector helpers
# ---------------------------------------------------------------------------

def mat_identity(n: int) -> Matrix:
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def mat_shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    m, k = mat_shape(a)
    k2, n = mat_shape(b)
    if k != k2:
        raise InputError(f"matrix shapes {m}x{k} and {k2}x{n} do not compose")
    bt = tuple(zip(*b)) if b else ()
    mul = operator.mul
    return tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in a)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    m, n = mat_shape(a)
    if n != len(v):
        raise InputError(f"matrix is {m}x{n} but vector has length {len(v)}")
    mul = operator.mul
    return tuple([sum(map(mul, row, v)) for row in a])


def mat_from_columns(cols: list[Vector], rows: int) -> Matrix:
    for c in cols:
        if len(c) != rows:
            raise InputError("column length mismatch")
    return tuple(tuple(c[i] for c in cols) for i in range(rows))


def vec_gcd(x: Vector) -> int:
    return gcd(*x)


# ---------------------------------------------------------------------------
# immutable records
# ---------------------------------------------------------------------------

class Record:
    """Base of the library's immutable value types.

    A record lists its fields in ``__slots__``.  Its ``__init__`` takes the
    fields in slot order and, after any validation, hands them to
    ``_store``.  Two records are equal when they have the same class and
    equal compared fields, and a record hashes as the tuple of its compared
    fields, as a frozen dataclass does.  The compared fields are all fields,
    in order, unless the class names them in ``_compare``.  Pickling and
    copying go through the constructor, so a copy is validated again.

    Records are validated where they enter, by the public constructors that
    the file reader also builds through.  ``_trusted`` stores fields without
    that check in three cases: a homeomorphism takes a valid curve, cycle
    or fibration to a valid one of the same type; a product, inverse or
    conjugate of mapping classes is a mapping class; and the records built
    in closed form, the twist catalog and the standard fibrations, are
    valid by construction.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for c in reversed(cls.__mro__)
                            for name in vars(c).get("__slots__", ()))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        compared = getattr(cls, "_compare", cls._fields)
        get = operator.attrgetter(*compared)
        cls._key = staticmethod(get if len(compared) > 1 else lambda r: (get(r),))

    @classmethod
    def _trusted(cls, *fields: object) -> "Record":
        """A record holding ``fields``, all of them in slot order, unvalidated."""
        self = object.__new__(cls)
        self._store(*fields)
        return self

    def _store(self, *fields: object) -> None:
        """Set the first ``len(fields)`` slots, in slot order, to ``fields``."""
        for store, value in zip(self._setters, fields):
            store(self, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self is other or self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# surfaces and the intersection pairing
# ---------------------------------------------------------------------------

# Largest H1 rank of a fiber the library takes on.  The dense kernels grow
# with the square of the rank (a genus-10**6 file ran out of memory), and
# from genus 85 the order of Sp(2g, 2) that an obstruction reports has more
# digits than Python converts to a string by default.
MAX_FIBER_RANK = 100


class SurfaceSpec(Record):
    """Compact connected oriented surface, recorded by genus and boundary count."""

    __slots__ = ("genus", "boundary")

    def __init__(self, genus: int, boundary: int) -> None:
        check_int(genus, "surface genus")
        check_int(boundary, "surface boundary")
        if genus < 0 or boundary < 0:
            raise InputError(f"invalid surface ({clipped(genus)}, {clipped(boundary)})")
        self._store(genus, boundary)

    @property
    def rank(self) -> int:
        """Rank of H1: 2g plus b-1 boundary classes (none for b <= 1)."""
        return 2 * self.genus + max(self.boundary - 1, 0)

    @property
    def euler(self) -> int:
        return 2 - 2 * self.genus - self.boundary

    def alpha_index(self, i: int) -> int:
        """Basis position of a_i, 1-based i."""
        if not 1 <= i <= self.genus:
            raise InputError(f"no handle {i} on {self}")
        return 2 * (i - 1)

    def beta_index(self, i: int) -> int:
        if not 1 <= i <= self.genus:
            raise InputError(f"no handle {i} on {self}")
        return 2 * i - 1

    def delta_index(self, j: int) -> int:
        """Basis position of d_j, 1-based j <= b-1 (d_b is implicit)."""
        if not 1 <= j <= self.boundary - 1:
            raise InputError(f"no stored boundary class {j} on {self}")
        return 2 * self.genus + (j - 1)

    def basis_vector(self, index: int) -> Vector:
        if not 0 <= index < self.rank:
            raise InputError(f"basis index {index} out of range for {self}")
        return tuple(1 if k == index else 0 for k in range(self.rank))

    def zero(self) -> Vector:
        return (0,) * self.rank

    def basis_names(self) -> tuple[str, ...]:
        names = []
        for i in range(1, self.genus + 1):
            names += [f"a{i}", f"b{i}"]
        names += [f"d{j}" for j in range(1, self.boundary)]
        return tuple(names)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"F({self.genus},{self.boundary})"


def check_fiber_rank(surface: SurfaceSpec) -> None:
    """Refuse a surface of H1 rank above MAX_FIBER_RANK with CapacityError."""
    if surface.rank > MAX_FIBER_RANK:
        raise CapacityError(
            f"fiber rank {clipped(surface.rank)} exceeds the desk-scale bound {MAX_FIBER_RANK}")


# Most vanishing cycles a fibration may have.  The total-space invariants
# take the Smith form of a rank x cycles matrix: on F(50, 1) with entries in
# -3..3 that takes about 2.5 s with 200 cycles, 5.3 s with 400 and 33 s with
# 1,000.
MAX_CYCLES = 4 * MAX_FIBER_RANK


def check_cycle_count(count: int) -> None:
    """Refuse more than MAX_CYCLES vanishing cycles with CapacityError."""
    if count > MAX_CYCLES:
        raise CapacityError(
            f"{count} vanishing cycles exceed the desk-scale bound {MAX_CYCLES}")


def check_int(value: int, what: str) -> None:
    """Refuse with InputError a ``value`` that is not an int.  A bool is not
    an int here, since a file written with a bool could not be read back."""
    if type(value) is not int:
        raise InputError(f"{what} must be an int")


def check_ints(values: Iterable[int], what: str) -> None:
    """Refuse with InputError, in one pass, ``values`` holding a non-int."""
    if not all(type(x) is int for x in values):
        raise InputError(f"{what} must be an int")


def check_str(value: str, what: str) -> str:
    """``value``, refused with InputError unless it is a str: a label."""
    if not isinstance(value, str):
        raise InputError(f"{what} must be a str")
    return value


def check_unit(value: int, what: str) -> None:
    """Refuse with InputError a ``value`` that is not the int 1 or -1: a sign,
    a power or a local degree."""
    check_int(value, what)
    if value not in (1, -1):
        raise InputError(f"{what} must be +-1")


def covector(surface: SurfaceSpec, x: Vector) -> Vector:
    """The row w with w . y = <x, y>: (-x_b1, x_a1, ..., -x_bg, x_ag, 0, ..., 0).
    The one place that writes <a_i, b_i> = +1: the pairing, J, its check and twists use it."""
    w = [0] * len(x)
    for i in range(0, 2 * surface.genus, 2):
        w[i], w[i + 1] = -x[i + 1], x[i]
    return tuple(w)


def pairing_matrix(surface: SurfaceSpec) -> Matrix:
    """Skew form J, row i the covector of basis class i."""
    return tuple(covector(surface, e) for e in mat_identity(surface.rank))


def pairing(surface: SurfaceSpec, x: Vector, y: Vector) -> int:
    """Algebraic intersection number of two homology classes."""
    r = surface.rank
    if len(x) != r or len(y) != r:
        raise InputError(
            f"classes of length {len(x)}, {len(y)} on a rank-{r} surface")
    return sum(map(operator.mul, covector(surface, x), y))


def is_essential(x: Vector) -> bool:
    """A class is homologically essential iff it is nonzero."""
    return any(x)


def in_radical(surface: SurfaceSpec, x: Vector) -> bool:
    """True iff x pairs to zero with everything (a boundary-type class)."""
    return not any(x[: 2 * surface.genus])


def preserves_pairing(surface: SurfaceSpec, m: Matrix) -> bool:
    """Check m^T J m == J exactly, column pair by column pair.

    Entry (x, y) of m^T J m is <m_x, m_y>, m_x column x of m, and row x
    of J is the covector of e_x.  Both sides are antisymmetric, so entries
    above the diagonal are compared, column by column, stopping at the
    first column that differs.  A matrix that is not r x r, r the rank,
    raises InputError.
    """
    r = surface.rank
    if len(m) != r or any(len(row) != r for row in m):
        raise InputError(f"matrix must be {r}x{r} for {surface}")
    cols = tuple(zip(*m))
    mul = operator.mul
    for x, want in enumerate(pairing_matrix(surface)):
        w = covector(surface, cols[x])
        if tuple([sum(map(mul, w, y)) for y in cols[x + 1:]]) != want[x + 1:]:
            return False
    return True


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(a: Matrix) -> tuple[int, ...]:
    """Smith invariants of an integer m x n matrix: the min(m, n) diagonal
    entries, nonnegative, each dividing the next, zeros last.

    The pivot is a smallest nonzero entry, the first in row-major order.
    Its column and row are cleared by floor-division remainders; while one
    is left, the next pivot is a smallest remainder in the pivot's column,
    else in its row, so the pivot gets smaller without a rescan.  A pivot
    that fails to divide some other row takes that row into its own, which
    leaves such a remainder.  A pivot that divides everything is recorded
    and its row and column are deleted, so every later pivot is a multiple
    of it; only then is the whole matrix searched again.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise InputError("ragged matrix")
    w = [list(row) for row in a]
    diag: list[int] = []
    near: list[tuple[int, int, int]] = []  # remainders the last round left
    while True:
        piv = min(near or ((abs(x), i, j) for i, row in enumerate(w)
                           for j, x in enumerate(row) if x), default=None)
        if piv is None:
            break
        _, i, j = piv
        prow = w[i]
        p = prow[j]
        for row in w:
            if row is not prow and row[j]:
                row[:] = map(operator.sub, row, map(operator.mul, repeat(row[j] // p), prow))
        near = [(abs(row[j]), r, j) for r, row in enumerate(w) if row[j] and r != i]
        if near:
            continue
        # The column is clear, so clearing the row changes only the row.
        prow[:] = [x % p if l != j else p for l, x in enumerate(prow)]
        if not any(prow[:j] + prow[j + 1:]):
            bad = next((row for row in w if any(x % p for x in row)), None)
            if bad is None:
                diag.append(abs(p))
                w = [row[:j] + row[j + 1:] for row in w if row is not prow]
                continue
            prow[:] = [x % p if l != j else p for l, x in enumerate(bad)]
        near = [(abs(x), i, l) for l, x in enumerate(prow) if x and l != j]
    return tuple(diag) + (0,) * (min(m, n) - len(diag))


def cokernel_invariants(a: Matrix) -> tuple[int, tuple[int, ...]]:
    """Free rank and nontrivial invariant factors of Z^rows / colspan(a).

    Returns (free_rank, torsion) where torsion lists the invariant factors
    greater than 1, in divisibility order.
    """
    diag = smith_normal_form(a)
    rank = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    return (len(a) - rank, torsion)
