"""Exact-arithmetic kernel: pairing, Smith normal form, cokernels."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.errors import InputError
from lefschetz.homology import (
    SurfaceSpec,
    cokernel_invariants,
    is_essential,
    mat_identity,
    mat_mul,
    pairing,
    pairing_matrix,
    smith_normal_form,
)
import reference_kernel as ref
from reference_kernel import mat_det


def surfaces():
    return st.tuples(st.integers(0, 3), st.integers(0, 4)).map(lambda t: SurfaceSpec(*t))


def vectors(surface):
    return st.lists(
        st.integers(-9, 9), min_size=surface.rank, max_size=surface.rank
    ).map(tuple)


# ---------------------------------------------------------------------------
# surfaces and pairing
# ---------------------------------------------------------------------------

def test_rank_and_euler():
    assert SurfaceSpec(2, 1).rank == 4
    assert SurfaceSpec(0, 3).rank == 2
    assert SurfaceSpec(1, 0).rank == 2
    assert SurfaceSpec(0, 1).rank == 0
    assert SurfaceSpec(2, 3).euler == -5
    with pytest.raises(InputError):
        SurfaceSpec(-1, 0)


def test_pairing_basis_table():
    s = SurfaceSpec(1, 1)
    a1 = s.basis_vector(s.alpha_index(1))
    b1 = s.basis_vector(s.beta_index(1))
    assert pairing(s, a1, b1) == 1
    assert pairing(s, b1, a1) == -1

    s = SurfaceSpec(1, 2)
    d1 = s.basis_vector(s.delta_index(1))
    a1 = s.basis_vector(s.alpha_index(1))
    assert pairing(s, d1, a1) == 0

    s = SurfaceSpec(2, 1)
    x = tuple(
        1 if i in (s.alpha_index(1), s.alpha_index(2)) else 0 for i in range(s.rank)
    )
    b1 = s.basis_vector(s.beta_index(1))
    assert pairing(s, x, b1) == 1


def test_pairing_dimension_mismatch():
    s = SurfaceSpec(1, 1)
    with pytest.raises(InputError):
        pairing(s, (1, 0, 0), (0, 1))


@settings(max_examples=100)
@given(data=st.data())
def test_pairing_bilinear_antisymmetric(data):
    s = data.draw(surfaces())
    x = data.draw(vectors(s))
    y = data.draw(vectors(s))
    z = data.draw(vectors(s))
    k = data.draw(st.integers(-5, 5))
    assert pairing(s, x, y) == -pairing(s, y, x)
    assert pairing(s, x, x) == 0
    xz = tuple(a + k * b for a, b in zip(x, z))
    assert pairing(s, xz, y) == pairing(s, x, y) + k * pairing(s, z, y)


def test_pairing_matrix_rank():
    for g, b in [(0, 3), (1, 1), (2, 2), (3, 0)]:
        s = SurfaceSpec(g, b)
        j = pairing_matrix(s)
        assert sum(1 for d in smith_normal_form(j) if d != 0) == 2 * g


def test_is_essential():
    assert not is_essential((0, 0, 0))
    assert is_essential((1, 0))
    s = SurfaceSpec(0, 3)
    assert is_essential(s.basis_vector(s.delta_index(1)))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def _check_snf(a):
    """U A V = D on the reference decomposition, and the library's diagonal
    equals the reference's."""
    snf = ref.smith_normal_form(a)
    m, n = len(a), len(a[0]) if a else 0
    assert mat_mul(mat_mul(snf.u, a), snf.v) == snf.d
    assert abs(mat_det(snf.u)) == 1
    assert abs(mat_det(snf.v)) == 1
    diag = snf.diagonal()
    for i in range(m):
        for j in range(n):
            if i != j:
                assert snf.d[i][j] == 0
    for x, y in zip(diag, diag[1:]):
        assert x >= 0 and y >= 0
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    assert smith_normal_form(a) == diag
    return snf


def test_snf_examples():
    assert smith_normal_form(mat_identity(2)) == (1, 1)
    assert _check_snf(((2, 4), (6, 8))).diagonal() == (2, 4)
    assert smith_normal_form(((0, 6, 0), (4, 0, 0))) == (2, 12)
    assert smith_normal_form(((0, 0), (0, 0), (0, 0))) == (0, 0)
    assert smith_normal_form(((),)) == ()
    assert smith_normal_form(()) == ()
    empty = ref.smith_normal_form(())
    assert empty.d == ()
    assert empty.diagonal() == ()


def test_snf_deterministic():
    a = ((3, 1, -4), (2, -3, 1), (-4, 4, 0))
    assert smith_normal_form(a) == smith_normal_form(a)
    assert ref.smith_normal_form(a) == ref.smith_normal_form(a)


def _sparse_matrices():
    """Up to 10 x 10, or wide up to 12 x 40 like the boundary matrix of a
    fibration with many more cycles than its fiber rank."""
    entries = st.sampled_from((0, 0, 0, 1, -1, 3, -3, 9, -9))
    shapes = st.one_of(st.tuples(st.integers(0, 10), st.integers(0, 10)),
                       st.tuples(st.integers(1, 12), st.integers(11, 40)))
    return shapes.flatmap(
        lambda mn: st.lists(
            st.lists(entries, min_size=mn[1], max_size=mn[1]).map(tuple),
            min_size=mn[0], max_size=mn[0]).map(tuple))


@settings(max_examples=200, deadline=None)
@given(a=_sparse_matrices(), ragged=st.integers(-1, 10))
def test_snf_diagonal_matches_reference(a, ragged):
    """The diagonal-only routine gives the reference's diagonal, and both
    refuse a ragged matrix (one row shortened) with the same InputError.
    The pivot search runs locally between recorded pivots, which the wide
    shapes exercise with long runs of remainders."""
    assert smith_normal_form(a) == ref.smith_normal_form(a).diagonal()
    if 0 <= ragged < len(a) and len(a) > 1 and a[0]:
        bent = a[:ragged] + (a[ragged][:-1],) + a[ragged + 1:]
        with pytest.raises(InputError) as got:
            smith_normal_form(bent)
        with pytest.raises(InputError) as want:
            ref.smith_normal_form(bent)
        assert str(got.value) == str(want.value) == "ragged matrix"


def test_snf_random_20x20():
    rng = random.Random(1201)
    for _ in range(8):
        m = rng.randint(1, 20)
        n = rng.randint(1, 20)
        a = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m))
        _check_snf(a)


@settings(max_examples=60)
@given(
    a=st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=5), min_size=1, max_size=5
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_round_trip_property(a):
    _check_snf(tuple(tuple(r) for r in a))


# ---------------------------------------------------------------------------
# cokernels, with two independent oracles
# ---------------------------------------------------------------------------

def _minors_gcd(a, k):
    m, n = len(a), len(a[0])
    g = 0
    for rows in itertools.combinations(range(m), k):
        for cols in itertools.combinations(range(n), k):
            sub = tuple(tuple(a[i][j] for j in cols) for i in rows)
            g = gcd(g, mat_det(sub))
    return g


def invariant_factors_by_minors(a):
    """Determinantal-divisor oracle: d_k = D_k / D_{k-1}."""
    m, n = len(a), len(a[0]) if a else 0
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        dk = _minors_gcd(a, k)
        if dk == 0:
            break
        divisors.append(dk)
    factors = [divisors[i] // divisors[i - 1] for i in range(1, len(divisors))]
    rank = len(factors)
    return m - rank, tuple(d for d in factors if d > 1)


def _enumerate_quotient(a):
    """Brute-force quotient group of Z^m by the columns of a square matrix.

    Returns coset representatives; membership in the column lattice is
    decided by exact rational solve against the cached inverse.
    """
    m = len(a)
    inv = [[Fraction(0)] * m for _ in range(m)]
    work = [[Fraction(a[i][j]) for j in range(m)] + [Fraction(int(i == j)) for j in range(m)]
            for i in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if work[r][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        scale = 1 / work[col][col]
        work[col] = [x * scale for x in work[col]]
        for r in range(m):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    for i in range(m):
        inv[i] = work[i][m:]

    def in_lattice(v):
        for row in inv:
            if sum(x * Fraction(y) for x, y in zip(row, v)).denominator != 1:
                return False
        return True

    reps = [(0,) * m]
    frontier = [(0,) * m]
    while frontier:
        base = frontier.pop()
        for i in range(m):
            for step in (1, -1):
                cand = tuple(base[j] + step * (j == i) for j in range(m))
                if not any(
                    in_lattice(tuple(c - r for c, r in zip(cand, rep)))
                    for rep in reps
                ):
                    reps.append(cand)
                    frontier.append(cand)
    return reps, in_lattice


def invariant_factors_by_enumeration(a):
    """Order-counting oracle for square nonsingular a, no matrix reduction.

    Reconstructs the invariant factors of the finite quotient from the
    counts of elements killed by prime powers.
    """
    m = len(a)
    reps, in_lattice = _enumerate_quotient(a)
    order = len(reps)

    def killed_by(k):
        return sum(
            1 for r in reps if in_lattice(tuple(k * x for x in r))
        )

    factors_by_prime = {}
    n = order
    p = 2
    primes = []
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    for p in primes:
        heights = []  # m_j = #{i : p-exponent of d_i >= j}
        j = 1
        prev = 1
        while True:
            cnt = killed_by(p**j)
            mj = 0
            while prev * p**mj < cnt:
                mj += 1
            assert prev * p**mj == cnt
            if mj == 0:
                break
            heights.append(mj)
            prev = cnt
            j += 1
        count = heights[0] if heights else 0
        exps = [sum(1 for mj in heights if mj >= i) for i in range(1, count + 1)]
        factors_by_prime[p] = sorted(exps)  # ascending
    width = max((len(v) for v in factors_by_prime.values()), default=0)
    factors = []
    for i in range(width):
        d = 1
        for p, exps in factors_by_prime.items():
            padded = [0] * (width - len(exps)) + exps
            d *= p ** padded[i]
        factors.append(d)
    return tuple(d for d in factors if d > 1)


def test_cokernel_examples():
    assert cokernel_invariants(((1, 0), (0, 1))) == (0, ())
    assert cokernel_invariants(((2,),)) == (0, (2,))
    s = SurfaceSpec(1, 0)
    cols = (s.basis_vector(0), s.basis_vector(1))
    a = tuple(tuple(c[i] for c in cols) for i in range(2))
    assert cokernel_invariants(a) == (0, ())


def test_cokernel_free_rank():
    # 3 rows, single column: two free generators survive
    assert cokernel_invariants(((2,), (0,), (0,))) == (2, (2,))
    assert cokernel_invariants(((0, 0), (0, 0))) == (2, ())


def test_cokernel_against_minors_oracle():
    rng = random.Random(77)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(m))
        assert cokernel_invariants(a) == invariant_factors_by_minors(a)


def test_cokernel_against_quotient_enumeration():
    rng = random.Random(4242)
    tested = 0
    while tested < 12:
        m = rng.randint(1, 3)
        a = tuple(tuple(rng.randint(-5, 5) for _ in range(m)) for _ in range(m))
        det = mat_det(a)
        if det == 0 or abs(det) > 120:
            continue
        tested += 1
        reps, _ = _enumerate_quotient(a)
        free, torsion = cokernel_invariants(a)
        assert free == 0
        assert len(reps) == abs(det)
        assert torsion == invariant_factors_by_enumeration(a)
