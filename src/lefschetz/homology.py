"""Exact integer first homology of compact oriented surfaces with boundary.

A surface of genus ``g`` with ``b`` boundary circles carries the free lattice
H1 with ordered basis

    (a_1, b_1, ..., a_g, b_g, d_1, ..., d_{b-1})

where (a_i, b_i) are the symplectic pairs of the handles and d_j is the class
of a curve parallel to the j-th boundary circle.  The last boundary class is
not stored: d_b = -(d_1 + ... + d_{b-1}).  The intersection pairing is fixed
once and for all by <a_i, b_i> = +1, every other basis pairing 0; the d_j are
in the radical.

Every module in the package works over this basis, with plain Python integers
(arbitrary precision, so there is no overflow policy).  Vectors are tuples of
ints and matrices are tuples of row tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InputError

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# small exact matrix/vector helpers
# ---------------------------------------------------------------------------

def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


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


def mat_from_columns(cols: list[Vector], rows: int) -> Matrix:
    for c in cols:
        if len(c) != rows:
            raise InputError("column length mismatch")
    return tuple(tuple(c[i] for c in cols) for i in range(rows))


def vec_gcd(x: Vector) -> int:
    return gcd(*x)


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
# surfaces and the intersection pairing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceSpec:
    """Compact connected oriented surface, recorded by genus and boundary count."""

    genus: int
    boundary: int

    def __post_init__(self) -> None:
        if self.genus < 0 or self.boundary < 0:
            raise InputError(f"invalid surface ({self.genus}, {self.boundary})")

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


def is_essential(x: Vector) -> bool:
    """A class is homologically essential iff it is nonzero."""
    return any(a != 0 for a in x)


def in_radical(surface: SurfaceSpec, x: Vector) -> bool:
    """True iff x pairs to zero with everything (a boundary-type class)."""
    return not any(x[: 2 * surface.genus])


def preserves_pairing(surface: SurfaceSpec, m: Matrix) -> bool:
    """Check m^T J m == J exactly, from the g symplectic row pairs of m.

    Both sides are antisymmetric, so entries above the diagonal are compared.
    Shapes that do not compose with J raise InputError, as in m^T J m.
    """
    r = surface.rank
    cols = min(map(len, m), default=0)
    t_cols = len(m) if cols else 0  # m^T is cols x len(m), or 0x0 without columns
    if t_cols != r or (not cols and m):
        right = f"{r}x{r}" if t_cols != r else f"{len(m)}x{len(m[0])}"
        raise InputError(f"matrix shapes {cols}x{t_cols} and {right} do not compose")
    if cols != r:
        return False
    j = pairing_matrix(surface)
    pairs = [(m[2 * i], m[2 * i + 1]) for i in range(surface.genus)]
    return all(
        sum(p[x] * q[y] - q[x] * p[y] for p, q in pairs) == j[x][y]
        for x in range(r) for y in range(x + 1, r))


# ---------------------------------------------------------------------------
# Smith normal form
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


def cokernel_invariants(a: Matrix) -> tuple[int, tuple[int, ...]]:
    """Free rank and nontrivial invariant factors of Z^rows / colspan(a).

    Returns (free_rank, torsion) where torsion lists the invariant factors
    greater than 1, in divisibility order.
    """
    m = len(a)
    snf = smith_normal_form(a)
    diag = snf.diagonal()
    rank = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    return (m - rank, torsion)
