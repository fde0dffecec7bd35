"""The library's fast paths against the reference code they replaced.

Every twist application in the library goes through ``mapping.transvect``;
bundle generators are inverted in closed form; ``reduce`` searches over
interned bare class records, finds applicable generators from their
bitmasks, memoises transports by what they read and reads its result off
the fiber rank; the curve census is generated in sorted order; the witness
search meets in the middle, skips words equal to earlier ones and keeps its
walk tables across calls; the integer kernel takes its inner products with
``map``, and ``global_conjugate`` moves cycles through a twist word one
transvection per letter.  These tests
require the results to equal, exactly, those of the code kept in
``reference_kernel``: matrix products and transvections, word evaluation,
bundle inverses, twist products, Hurwitz moves, global conjugation, the
pairing check, the census, boundary subsets, stabilization,
destabilization, reduction, the dense witness walk and the whole-word vector
walk.
"""

from __future__ import annotations

import importlib
import itertools
import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lefschetz.homology as homology
import lefschetz.mapping as mapping
import lefschetz.reduction as reduction
import lefschetz.universality as universality
import lefschetz.witness as witness
import reference_kernel as ref
from lefschetz.curves import (
    Curve,
    CurveClass,
    enumerate_classes,
    nonseparating_curve,
    separating_curve,
    subset_from_class,
)
from lefschetz.errors import InputError, NotApplicable
from lefschetz.fibration import (
    ANNULUS,
    DISK,
    BaseSurface,
    LefschetzFibration,
    MeridianPlan,
    PlanEntry,
    SignedCycle,
    build,
    destabilize,
    global_conjugate,
    hurwitz_move,
    identity_plan,
    p_g,
    pullback,
    reduce,
    stabilize,
    substitution_witness,
    twist_product,
    u_10,
    u_g1,
    universality_report,
)
from lefschetz.homology import (
    SurfaceSpec,
    in_radical,
    mat_identity,
    mat_mul,
    mat_vec,
    preserves_pairing,
    vec_gcd,
)
from lefschetz.mapping import (
    BundleGen,
    Letter,
    MCWord,
    TwistGen,
    act_on_curve,
    boundary_permutation_gen,
    evaluate,
    mcg_surjectivity_oracle,
    perm_inverse,
    symplectic_group_order,
    twist_catalog,
    twist_matrix,
    twist_vector,
    twist_word,
)
from lefschetz.reduction import _forced_split
from lefschetz.serialize import fibration_to_json, plan_to_json
from lefschetz.witness import _alphabet, _half_words, _walk_level, _walk_steps


def _random_surface(rng):
    while True:
        s = SurfaceSpec(rng.randint(0, 3), rng.randint(0, 4))
        if 1 <= s.rank <= 8 and (s.genus >= 1 or s.boundary >= 2):
            return s


def _random_curve(rng, s):
    if s.genus >= 1 and (s.boundary < 2 or rng.random() < 0.75):
        while True:
            v = tuple(rng.randint(-3, 3) for _ in range(s.rank))
            if not in_radical(s, v) and vec_gcd(v) == 1:
                return nonseparating_curve(s, v, "r")
    size = rng.randint(1, s.boundary - 1)
    subset = frozenset(rng.sample(range(1, s.boundary + 1), size))
    g_in = rng.randint(0, s.genus)
    return separating_curve(s, subset, (g_in, s.genus - g_in), "s")


def _random_bundle_gen(rng, s):
    """A twist word followed by a boundary permutation, as one dense generator."""
    perm = list(range(s.boundary))
    rng.shuffle(perm)
    shuffle = boundary_permutation_gen(s, tuple(perm))
    word = MCWord(s, tuple(Letter(TwistGen(_random_curve(rng, s))) for _ in range(2)))
    matrix = mat_mul(ref.evaluate(word).matrix, shuffle.matrix)
    return BundleGen(s, matrix, shuffle.perm, "x")


def _random_word(rng, s, length):
    letters = []
    for _ in range(length):
        if rng.random() < 0.2:
            gen = _random_bundle_gen(rng, s)
        else:
            gen = TwistGen(_random_curve(rng, s), rng.choice(("right", "left")))
        letters.append(Letter(gen, rng.choice((1, -1))))
    return MCWord(s, tuple(letters))


def _random_fibration(rng):
    s = _random_surface(rng)
    cycles = tuple(SignedCycle(_random_curve(rng, s), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 10)))
    return LefschetzFibration(s, DISK, cycles)


def _cycle_data(f):
    """Everything a cycle carries, label included (curve equality ignores it)."""
    return [(c.curve.cls, c.curve.hom, c.curve.label, c.sign) for c in f.cycles]


# ---------------------------------------------------------------------------
# the integer kernel
# ---------------------------------------------------------------------------

ENTRIES = st.integers(-10**9, 10**9)


def _matrices(rows, cols):
    row = st.lists(ENTRIES, min_size=cols, max_size=cols).map(tuple)
    return st.lists(row, min_size=rows, max_size=rows).map(tuple)


def _same_outcome(fn, ref_fn, *args):
    """fn returns what ref_fn returns, or raises the same InputError."""
    try:
        want = ref_fn(*args)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            fn(*args)
        assert str(got.value) == str(exc)
    else:
        assert fn(*args) == want


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(0, 6), k=st.integers(0, 6), k2=st.integers(0, 6),
       n=st.integers(0, 6))
def test_mat_mul_and_mat_vec_match_reference(data, m, k, k2, n):
    # k2 != k is a shape mismatch for both, and so is a vector of length k2
    a = data.draw(_matrices(m, k))
    b = data.draw(_matrices(data.draw(st.sampled_from((k, k2))), n))
    v = data.draw(st.lists(ENTRIES, min_size=k2, max_size=k2).map(tuple))
    _same_outcome(mat_mul, ref.mat_mul, a, b)
    _same_outcome(mat_vec, ref.mat_vec, a, v)


def test_kernel_shapes_match_reference():
    # every empty, 1 x n and n x 1 shape, and each mismatch
    rng = random.Random(16)
    sizes = (0, 1, 3)
    for m, k, k2, n in itertools.product(sizes, repeat=4):
        a = tuple(tuple(rng.randint(-10**9, 10**9) for _ in range(k)) for _ in range(m))
        b = tuple(tuple(rng.randint(-10**9, 10**9) for _ in range(n)) for _ in range(k2))
        v = tuple(rng.randint(-10**9, 10**9) for _ in range(k2))
        _same_outcome(mat_mul, ref.mat_mul, a, b)
        _same_outcome(mat_vec, ref.mat_vec, a, v)
    with pytest.raises(InputError, match="^matrix shapes 2x3 and 2x1 do not compose$"):
        mat_mul(((1, 2, 3), (4, 5, 6)), ((1,), (2,)))
    with pytest.raises(InputError, match="^matrix is 1x2 but vector has length 3$"):
        mat_vec(((1, 2),), (1, 2, 3))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(0, 6), n=st.integers(0, 6), h=st.integers(-3, 3))
def test_transvect_matches_reference(data, m, n, h):
    rows = data.draw(_matrices(m, n))
    a, b = (data.draw(st.lists(ENTRIES, min_size=n, max_size=n).map(tuple)) for _ in "ab")
    assert mapping.transvect(rows, a, b, h) == ref.transvect(rows, a, b, h)


# ---------------------------------------------------------------------------
# words and twist products
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), length=st.integers(0, 8))
def test_evaluate_matches_dense_reference(seed, length):
    rng = random.Random(seed)
    s = _random_surface(rng)
    w = _random_word(rng, s, length)
    for word in (w, w.inverse()):
        got, want = evaluate(word), ref.evaluate(word)
        assert (got.matrix, got.perm) == (want.matrix, want.perm)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_bundle_inverse_matches_gauss_jordan(seed):
    # m = [[S, 0], [C, P]]: S symplectic, C arbitrary, P a boundary permutation
    rng = random.Random(seed)
    while True:
        s = SurfaceSpec(rng.randint(0, 3), rng.randint(1, 4))
        if s.rank <= 8:
            break
    g, d = s.genus, s.boundary - 1
    handles = SurfaceSpec(g, 0)
    sym = ref.evaluate(MCWord(handles, tuple(
        Letter(TwistGen(_random_curve(rng, handles), rng.choice(("right", "left"))))
        for _ in range(rng.randint(0, 4) if g else 0)))).matrix
    perm = list(range(s.boundary))
    rng.shuffle(perm)
    shuffle = boundary_permutation_gen(s, tuple(perm))
    m = tuple(row + (0,) * d for row in sym) + tuple(
        tuple(rng.randint(-3, 3) for _ in range(2 * g)) + row[2 * g:]
        for row in shuffle.matrix[2 * g:])
    gen = BundleGen(s, m, shuffle.perm)
    inv = gen.inverse()
    assert inv.matrix == ref.mat_inverse_unimodular(m)
    assert inv.perm == perm_inverse(gen.perm)
    assert mat_mul(m, inv.matrix) == mat_mul(inv.matrix, m) == mat_identity(s.rank)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_twist_matrix_and_vector_match_dense_reference(seed):
    rng = random.Random(seed)
    s = _random_surface(rng)
    c = _random_curve(rng, s)
    x = tuple(rng.randint(-5, 5) for _ in range(s.rank))
    for handed, h in (("right", 1), ("left", -1)):
        dense = ref.twist_matrix(c, handed)
        assert twist_matrix(c, handed) == dense
        assert twist_vector(x, c, h) == tuple(
            sum(a * b for a, b in zip(row, x)) for row in dense)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_twist_product_matches_dense_reference(seed):
    f = _random_fibration(random.Random(seed))
    assert twist_product(f) == ref.twist_product(f)


def test_large_twist_product_matches_dense_reference():
    rng = random.Random(40)
    s = SurfaceSpec(6, 1)
    cycles = tuple(SignedCycle(_random_curve(rng, s), rng.choice((1, -1)))
                   for _ in range(30))
    f = LefschetzFibration(s, DISK, cycles)
    product = twist_product(f)
    assert product == ref.twist_product(f)
    assert preserves_pairing(s, product)


# ---------------------------------------------------------------------------
# no dense twist on a library path
# ---------------------------------------------------------------------------

def _forbid(monkeypatch, module, name):
    """Rebind ``module.name`` in every lefschetz module that imported it to a
    stub that raises, the way perfbench's tracer rebinds what it wraps.  The
    modules that load on use are imported first, so that they are reached."""
    for lazy in ("universality", "reduction", "witness"):
        importlib.import_module(f"lefschetz.{lazy}")
    original = getattr(module, name)

    def stub(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("lefschetz")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, stub)


def _conjugated_target(u, seed):
    rng = random.Random(seed)
    letters = [Letter(TwistGen(c.curve, h)) for c in u.cycles for h in ("right", "left")]
    return global_conjugate(u, MCWord(u.fiber, tuple(rng.choice(letters) for _ in range(2))))


def _dense_free_results():
    out = []
    for g in (2, 3):
        s = SurfaceSpec(g, 1)
        catalog = twist_catalog(s)
        conj = twist_word(TwistGen(catalog[0]), TwistGen(catalog[2]))
        for curves in (catalog, tuple(act_on_curve(conj, c) for c in catalog)):
            for removed in (0, 1):
                out.append(mcg_surjectivity_oracle([TwistGen(c) for c in curves[removed:]], s))
    # spans only a line mod 3: after the mod-2 chain, obstructed by that line
    s = SurfaceSpec(1, 1)
    out.append(mcg_surjectivity_oracle(
        [TwistGen(nonseparating_curve(s, v, "r")) for v in ((1, 0), (1, 3))], s))
    u = u_g1(2)
    plan = substitution_witness(u, _conjugated_target(u, 1), 2)
    assert plan is not None
    return out + [universality_report(u), pullback(u, identity_plan(u)), plan]


def test_no_library_path_builds_a_dense_twist(monkeypatch):
    want = _dense_free_results()
    _forbid(monkeypatch, mapping, "twist_matrix")
    fulls = []
    group_order = universality._group_order

    def spy(gens, base, act, mul, inv, full):
        fulls.append(full)
        return group_order(gens, base, act, mul, inv, full)

    monkeypatch.setattr(universality, "_group_order", spy)
    assert _dense_free_results() == want
    # chains run, and every one of them at p = 2: none runs at an odd prime
    assert fulls and set(fulls) <= {symplectic_group_order(g, 2) for g in (1, 2, 3)}


def test_mod2_chain_packs_each_twist_without_a_matrix(monkeypatch):
    # the chain's generators come straight from the twists' centers: no
    # identity matrix is built and no transvection is applied to one
    s = SurfaceSpec(3, 1)
    catalog = twist_catalog(s)
    conj = twist_word(TwistGen(catalog[1]), TwistGen(catalog[0]))
    twists = [TwistGen(act_on_curve(conj, c)) for c in catalog[1:]]
    want = mcg_surjectivity_oracle(twists, s, primes=(2,))
    assert want.obstructed
    _forbid(monkeypatch, homology, "mat_identity")
    _forbid(monkeypatch, mapping, "transvect")
    assert mcg_surjectivity_oracle(twists, s, primes=(2,)) == want


@pytest.mark.parametrize("family", [u_g1(2), u_g1(3)], ids=["u_g1(2)", "u_g1(3)"])
def test_pullback_and_witness_need_no_matrix_product(monkeypatch, family):
    targets = [_conjugated_target(family, seed) for seed in range(3)]
    _forbid(monkeypatch, mapping, "twist_matrix")
    _forbid(monkeypatch, homology, "mat_mul")
    assert pullback(family, identity_plan(family)) == family
    for target in targets:
        plan = substitution_witness(family, target, 2)
        assert plan is not None
        assert pullback(family, plan).cycles == target.cycles


def test_pullback_check_catches_a_wrong_transport(monkeypatch):
    u = u_g1(2)
    a1 = u.cycles[2].curve  # pairs to +-1 with b1, the first cycle
    transport = witness.act_on_curve

    def one_twist_too_many(rep, c):
        moved = transport(rep, c)
        return Curve(moved.surface, moved.cls, twist_vector(moved.hom, a1, 1), moved.label)

    monkeypatch.setattr(witness, "act_on_curve", one_twist_too_many)
    with pytest.raises(AssertionError, match="^monodromy does not factor through the source$"):
        pullback(u, identity_plan(u))


# ---------------------------------------------------------------------------
# Hurwitz moves
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), moves=st.integers(1, 20))
def test_hurwitz_moves_match_dense_reference(seed, moves):
    rng = random.Random(seed)
    f = g = _random_fibration(rng)
    for _ in range(moves):
        if f.size < 2:
            break
        i, direction = rng.randint(1, f.size - 1), rng.choice("LR")
        f, g = hurwitz_move(f, i, direction), ref.hurwitz_move(g, i, direction)
        assert _cycle_data(f) == _cycle_data(g)
    assert twist_product(f) == ref.twist_product(g)


def test_hurwitz_move_errors_match_dense_reference():
    f = u_g1(2)
    for i, direction in ((0, "R"), (f.size, "L"), (1, "X")):
        with pytest.raises(InputError) as got:
            hurwitz_move(f, i, direction)
        with pytest.raises(InputError) as want:
            ref.hurwitz_move(f, i, direction)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the pairing check
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(
    ("symplectic", "random", "rows", "cols", "ragged", "empty")))
def test_preserves_pairing_matches_dense_reference(seed, kind):
    rng = random.Random(seed)
    s = SurfaceSpec(rng.randint(0, 3), rng.randint(0, 3))
    r = s.rank
    rows, cols = r, r
    if kind == "rows":
        rows = rng.choice([k for k in range(r + 3) if k != r])
    elif kind == "cols":
        cols = rng.choice([k for k in range(r + 3) if k != r])
    elif kind == "empty":
        rows, cols = rng.randint(0, 2), 0
    if kind == "symplectic" and s.genus >= 1:
        m = ref.evaluate(MCWord(s, tuple(
            Letter(TwistGen(_random_curve(rng, s)), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 4))))).matrix
    else:
        m = tuple(tuple(rng.randint(-1, 1) for _ in range(cols)) for _ in range(rows))
    if kind == "ragged" and m:
        k = rng.randrange(len(m))
        row = m[k][:rng.randrange(len(m[k]))] if m[k] and rng.random() < 0.5 else (
            m[k] + (rng.randint(-1, 1),) * rng.randint(1, 2))
        m = m[:k] + (row,) + m[k + 1:]
    if len(m) == r and all(len(row) == r for row in m):
        assert preserves_pairing(s, m) == ref.preserves_pairing(s, m)
    else:
        with pytest.raises(InputError, match=f"must be {r}x{r}"):
            preserves_pairing(s, m)


def test_preserves_pairing_shapes():
    s = SurfaceSpec(2, 2)
    ident = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))
    assert preserves_pairing(s, ident)
    for bad in (tuple(row[:4] for row in ident), tuple(row + (0,) for row in ident),
                ident[:4], ident[:4] + (ident[4] + (7,),)):
        with pytest.raises(InputError):
            preserves_pairing(s, bad)
    with pytest.raises(InputError):  # a ragged row past the rank was once ignored
        preserves_pairing(SurfaceSpec(1, 1), ((1, 0, 7), (0, 1)))
    swap = tuple(ident[i ^ 1] if i < 4 else ident[i] for i in range(5))
    assert not preserves_pairing(s, swap)


# ---------------------------------------------------------------------------
# global conjugation
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), length=st.integers(0, 5))
def test_global_conjugate_matches_reference(seed, length):
    # over an annulus the bundle generator is conjugated by w, and over a
    # pants each of its two is, on its own; the disk has none.  Three
    # boundary circles make the permutations non-commuting, so the
    # composition order counts.
    rng = random.Random(seed)
    s = SurfaceSpec(rng.randint(1, 2), rng.randint(2, 3))
    cycles = tuple(SignedCycle(_random_curve(rng, s), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 4)))
    w = _random_word(rng, s, length)
    pants = (_random_bundle_gen(rng, s), _random_bundle_gen(rng, s))
    for f in (LefschetzFibration(s, ANNULUS, cycles, (_random_bundle_gen(rng, s),)),
              LefschetzFibration(s, BaseSurface(0, 3), cycles, pants),
              LefschetzFibration(s, DISK, cycles)):
        got, want = global_conjugate(f, w), ref.global_conjugate(f, w)
        assert got == want
        assert fibration_to_json(got) == fibration_to_json(want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), length=st.integers(0, 8))
def test_twist_word_conjugation_matches_reference(seed, length):
    # a twist-only word moves the cycles one transvection per letter
    rng = random.Random(seed)
    while True:
        s = SurfaceSpec(rng.randint(0, 6), rng.randint(0, 13))
        if 1 <= s.rank <= 12 and (s.genus >= 1 or s.boundary >= 2):
            break
    f = LefschetzFibration(s, DISK, tuple(
        SignedCycle(_random_curve(rng, s), rng.choice((1, -1)))
        for _ in range(rng.randint(1, 10))))
    w = MCWord(s, tuple(
        Letter(TwistGen(_random_curve(rng, s), rng.choice(("right", "left"))),
               rng.choice((1, -1)))
        for _ in range(length)))
    got, want = global_conjugate(f, w), ref.global_conjugate(f, w)
    assert got == want
    assert _cycle_data(got) == _cycle_data(want)
    assert fibration_to_json(got) == fibration_to_json(want)


# ---------------------------------------------------------------------------
# the curve census and boundary subsets
# ---------------------------------------------------------------------------

def test_census_matches_reference():
    surfaces = [SurfaceSpec(g, b) for g in range(13) for b in range(21)]
    surfaces += [SurfaceSpec(50, 1), SurfaceSpec(0, 101), SurfaceSpec(25, 51)]
    for s in surfaces:
        assert enumerate_classes(s) == ref.enumerate_classes(s), s


def test_boundary_subsets_match_reference():
    # every vector with entries in {-1, 0, 1, 2}, of the rank and one off it
    for g, b in itertools.product(range(2), range(6)):
        s = SurfaceSpec(g, b)
        for n in range(max(s.rank - 1, 0), s.rank + 2):
            for v in itertools.product((-1, 0, 1, 2), repeat=n):
                assert subset_from_class(s, v) == ref.subset_from_class(s, v), (s, v)


# ---------------------------------------------------------------------------
# stabilization, destabilization and reduce
# ---------------------------------------------------------------------------

def _stabilized(rng, f, most=2):
    """f after 0 to ``most`` random stabilizations; one that does not apply
    is skipped."""
    for _ in range(rng.randint(0, most)):
        try:
            f = stabilize(f, rng.choice(("boundary_up", "genus_up")), rng.choice((1, -1)))
        except (InputError, NotApplicable):
            pass
    return f


def _destabilize_outcome(fn, f, *args):
    """The fibration a move gives, or the type and message of its refusal."""
    try:
        out = fn(f, *args)
    except (InputError, NotApplicable) as exc:
        return type(exc).__name__, str(exc)
    return out.fiber, _cycle_data(out), fibration_to_json(out)


def _separating_fibration(rng):
    """Cycles on F(g <= 3, b <= 5), half of them separating where that is
    possible, with sparse classes so that some generators are crossed once."""
    while True:
        s = SurfaceSpec(rng.randint(0, 3), rng.randint(1, 5))
        if s.genus >= 1 or s.boundary >= 2:
            break
    cycles = []
    for _ in range(rng.randint(1, 6)):
        if s.boundary >= 2 and (s.genus == 0 or rng.random() < 0.5):
            subset = rng.sample(range(1, s.boundary + 1), rng.randint(1, s.boundary - 1))
            g_in = rng.randint(0, s.genus)
            curve = separating_curve(s, subset, (g_in, s.genus - g_in), "s")
        else:
            while True:
                v = tuple(rng.choice((-1, 0, 0, 1)) for _ in range(s.rank))
                if not in_radical(s, v) and vec_gcd(v) == 1:
                    curve = nonseparating_curve(s, v, "n")
                    break
        cycles.append(SignedCycle(curve, rng.choice((1, -1))))
    return LefschetzFibration(s, DISK, tuple(cycles))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), family=st.sampled_from(["u_g1", "p_g"]),
       g=st.integers(2, 9), budget=st.integers(0, 400))
def test_reduce_and_destabilize_match_reference(seed, family, g, budget):
    f = _stabilized(random.Random(seed), build(family, g))
    got, want = reduce(f, budget), ref.reduce(f, budget)
    assert (got.steps, got.exhausted) == (want.steps, want.exhausted)
    assert (got.explored, got.states) == (want.explored, want.states)
    assert got.fibration == want.fibration
    assert _cycle_data(got.fibration) == _cycle_data(want.fibration)
    assert fibration_to_json(got.fibration) == fibration_to_json(want.fibration)
    assert got.explored <= budget and got.states >= 1
    for state in (f, got.fibration):
        for gi in range(state.fiber.rank):
            assert (_destabilize_outcome(destabilize, state, gi)
                    == _destabilize_outcome(ref.destabilize, state, gi))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), family=st.sampled_from(
    ["random", "u_g1", "p_g", "u_11"]))
def test_stabilize_and_destabilize_match_reference(seed, family):
    rng = random.Random(seed)
    if family == "random":
        f = _separating_fibration(rng)
    else:
        g = {"u_g1": rng.randint(2, 4), "p_g": rng.randint(1, 3), "u_11": None}[family]
        f = build(family, g)
    f = _stabilized(rng, f, most=4)
    for mode in ("boundary_up", "genus_up"):
        for sign in (1, -1):
            assert (_destabilize_outcome(stabilize, f, mode, sign)
                    == _destabilize_outcome(ref.stabilize, f, mode, sign))
    for gi in range(f.fiber.rank):
        assert (_destabilize_outcome(destabilize, f, gi)
                == _destabilize_outcome(ref.destabilize, f, gi))


def _same_reduce_and_destabilize(f, budgets=(0, 1, 5, 400)):
    """reduce at each budget and destabilize on every generator agree with the
    reference, labels, signs and refusal messages included."""
    for budget in budgets:
        got, want = reduce(f, budget), ref.reduce(f, budget)
        assert _cycle_data(got.fibration) == _cycle_data(want.fibration)
        assert (got.steps, got.exhausted) == (want.steps, want.exhausted)
        assert (got.explored, got.states) == (want.explored, want.states)
    for gi in range(f.fiber.rank):
        assert (_destabilize_outcome(destabilize, f, gi)
                == _destabilize_outcome(ref.destabilize, f, gi))


def test_closed_fibers_match_reference():
    # no destabilizing arc on a closed fiber: reduce stops at the input, and
    # destabilize refuses every generator crossed once with the closed-fiber
    # message and the others with the not-crossed-once one
    s = SurfaceSpec(2, 0)
    genus_two = LefschetzFibration(s, DISK, tuple(
        SignedCycle(c, sign) for c, sign in zip(mapping.twist_catalog(s), (1, -1, 1, 1, -1))))
    messages = set()
    for f in (u_10(), genus_two):
        _same_reduce_and_destabilize(f)
        assert reduce(f, 400).steps == 0
        messages.update(_destabilize_outcome(destabilize, f, gi)[1] for gi in range(f.fiber.rank))
    assert messages == {
        "a closed fiber admits no destabilizing arc",
        "generator 1 is not crossed exactly once by exactly one cycle",
        "generator 3 is not crossed exactly once by exactly one cycle"}


def test_forced_split_matches_reference():
    for g in range(13):
        for b in range(2, 21):
            for t in range(1, b):
                splits = ref._split_classes(t, g, b)
                want = next(iter(splits)) if len(splits) == 1 else None
                assert _forced_split(t, g, b) == want, (t, g, b)


def test_reduce_keeps_labels_of_equal_cycles():
    # p and q are equal cycles (same class and sign) told apart only by their
    # labels; reduce interns them as one class, and each keeps its own label
    s = SurfaceSpec(1, 2)
    f = LefschetzFibration(s, DISK, (
        SignedCycle(nonseparating_curve(s, (1, 0, 0), "x"), 1),
        SignedCycle(separating_curve(s, {1}, (0, 1), "p"), 1),
        SignedCycle(separating_curve(s, {1}, (0, 1), "q"), 1),
        SignedCycle(nonseparating_curve(s, (0, 1, 1), "y"), -1),
    ))
    _same_reduce_and_destabilize(f)
    for budget in (1, 5):
        assert [c.curve.label for c in reduce(f, budget).fibration.cycles][:2] == ["p", "q"]


def test_reduce_keeps_signs_of_equal_classes():
    # p and q share a class but have different labels and opposite signs:
    # the sign rides with the cycle, not with its class
    s = SurfaceSpec(1, 2)
    f = LefschetzFibration(s, DISK, (
        SignedCycle(nonseparating_curve(s, (1, 0, 0), "x"), 1),
        SignedCycle(separating_curve(s, {1}, (0, 1), "p"), 1),
        SignedCycle(separating_curve(s, {1}, (0, 1), "q"), -1),
        SignedCycle(nonseparating_curve(s, (0, 1, 1), "y"), -1),
        SignedCycle(separating_curve(s, {1}, (0, 1), "r"), -1),
    ))
    _same_reduce_and_destabilize(f)
    got = reduce(f, 400).fibration
    assert [(c.curve.label, c.sign) for c in got.cycles][:3] == [("p", 1), ("q", -1), ("r", -1)]
    # the same classes with the signs swapped make a different fibration
    swapped = LefschetzFibration(s, DISK, tuple(
        SignedCycle(c.curve, -c.sign if c.curve.label in "pq" else c.sign) for c in f.cycles))
    _same_reduce_and_destabilize(swapped)
    assert reduce(swapped, 400).fibration != got


def test_destabilize_refusal_names_its_own_cycle():
    # On F(3, 2), removing the handle of a_1 leaves the equal separating
    # cycles q and p with sides (1, 1) and (2, 1) two ways to split F(2, 3):
    # the refusal names the first of them by its own label, q
    s = SurfaceSpec(3, 2)
    x = nonseparating_curve(s, s.basis_vector(0), "x")
    f = LefschetzFibration(s, DISK, (
        SignedCycle(x, 1),
        SignedCycle(separating_curve(s, {1}, (1, 2), "q"), -1),
        SignedCycle(separating_curve(s, {1}, (1, 2), "p"), 1),
    ))
    _same_reduce_and_destabilize(f)
    with pytest.raises(NotApplicable, match="separating cycle q cannot be transported"):
        destabilize(f, 0)
    # unlabelled, the cycle is named by its class
    bare = LefschetzFibration(s, DISK, (SignedCycle(x, 1), SignedCycle(
        separating_curve(s, {1}, (1, 2)), 1), f.cycles[2]))
    _same_reduce_and_destabilize(bare)
    with pytest.raises(NotApplicable, match=r"separating cycle \(0, 0, 0, 0, 0, 0, 1\) cannot"):
        destabilize(bare, 0)


def test_reduce_keeps_apart_separating_cycles_of_one_class():
    # p and q have the same class d1 but different sides, so they are two
    # records; removing the handle of a_1 sends them to different types
    s = SurfaceSpec(2, 2)
    f = LefschetzFibration(s, DISK, (
        SignedCycle(nonseparating_curve(s, s.basis_vector(0), "x"), 1),
        SignedCycle(separating_curve(s, {1}, (0, 2), "p"), 1),
        SignedCycle(separating_curve(s, {1}, (1, 1), "q"), 1),
    ))
    _same_reduce_and_destabilize(f)
    got = reduce(f, 400).fibration
    assert got.fiber == SurfaceSpec(1, 3)
    assert [c.curve.cls for c in got.cycles] == [
        CurveClass.separating((0, 1), (1, 2)), CurveClass.separating((1, 1), (0, 2))]


def test_reduce_skips_a_generator_crossed_once_with_coefficient_two():
    # a_1 is crossed by x alone, but twice (and b_1 by x and y): only d_1,
    # crossed once by y, destabilizes, and on the F(1, 1) it leaves, x
    # crosses a_1 twice and b_1 three times, so nothing more does
    s = SurfaceSpec(1, 2)
    f = LefschetzFibration(s, DISK, (
        SignedCycle(nonseparating_curve(s, (2, 3, 0), "x"), 1),
        SignedCycle(nonseparating_curve(s, (0, 1, 1), "y"), -1),
    ))
    _same_reduce_and_destabilize(f)
    r = reduce(f, 400)
    assert (r.fibration.fiber, r.steps, r.explored, r.states) == (SurfaceSpec(1, 1), 1, 1, 2)


def _fresh_reduce_table(monkeypatch, records=None):
    """No kept class table for this test, bounded at ``records`` when given."""
    monkeypatch.setattr(reduction, "_table", None)
    if records is not None:
        monkeypatch.setattr(reduction, "REDUCE_TABLE_RECORDS", records)


def _shared_table_calls():
    """(fibration, budget) calls whose inputs share classes: u_g1(g) and p_g(g)
    have the same classes, a stabilized input meets them after one move, and
    its two signs give equal records under different signs."""
    inputs = []
    for g in range(2, 7):
        for f in (u_g1(g), p_g(g)):
            inputs += [f, stabilize(f, "boundary_up", 1), stabilize(f, "boundary_up", -1)]
    return [(f, budget) for f in inputs for budget in (0, 1, 200, 10**6)]


def _reduce_outcome(r):
    return (r.fibration, _cycle_data(r.fibration), r.steps, r.exhausted, r.explored, r.states)


def test_reduce_table_kept_across_calls_matches_reference(monkeypatch):
    # cold, then warm, in both call orders: every result is the reference BFS's
    calls = _shared_table_calls()
    want = [_reduce_outcome(ref.reduce(f, budget)) for f, budget in calls]
    for order in (list(range(len(calls))), list(reversed(range(len(calls))))):
        _fresh_reduce_table(monkeypatch)
        for _ in ("cold", "warm"):
            for i in order:
                assert _reduce_outcome(reduce(*calls[i])) == want[i]
            kept = reduction._table
            assert (len(kept.records) == len(kept.ids) == len(kept.nonzero)
                    <= reduction.REDUCE_TABLE_RECORDS)
        # a warm call adds nothing to the table
        n = len(kept.records)
        reduce(p_g(6), 10**6)
        assert reduction._table is kept and len(kept.records) == n


def test_reduce_table_past_its_bound_is_replaced(monkeypatch):
    _fresh_reduce_table(monkeypatch, 40)
    calls = _shared_table_calls()
    tables = []  # each table kept in turn
    for f, budget in calls:
        assert _reduce_outcome(reduce(f, budget)) == _reduce_outcome(ref.reduce(f, budget))
        kept = reduction._table
        assert kept is None or len(kept.records) <= 40
        if kept is not None and all(kept is not t for t in tables):
            tables.append(kept)
    assert len(tables) > 2
    # under the bound a table is kept and reused
    reduce(u_g1(2), 0)
    kept = reduction._table
    reduce(p_g(2), 0)
    assert reduction._table is kept


@pytest.mark.parametrize("bound", [None, 40], ids=["kept", "replaced"])
def test_reduce_table_shared_by_threads(monkeypatch, bound):
    # more threads than cores, started together and switching often: every
    # result is the reference result, and with the table kept whole each
    # transport was decided once across all threads
    calls = [(f, budget) for f, budget in _shared_table_calls() if budget != 10**6]
    want = [_reduce_outcome(ref.reduce(f, budget)) for f, budget in calls]
    _fresh_reduce_table(monkeypatch, bound)
    decided = []
    transported_class = reduction._transported_class

    def spy(*args):
        decided.append(args)
        return transported_class(*args)

    monkeypatch.setattr(reduction, "_transported_class", spy)
    n = min(8, (os.cpu_count() or 1) + 2)
    start = threading.Barrier(n)
    got = {}

    def run(k):
        start.wait(timeout=60)
        for i, (f, budget) in enumerate(calls):
            got[k, i] = _reduce_outcome(reduce(f, budget))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {(k, i): w for k in range(n) for i, w in enumerate(want)}
    kept = reduction._table
    if bound is None:
        assert len(decided) == len(kept.transports)
    else:
        assert kept is None or len(kept.records) <= bound


# ---------------------------------------------------------------------------
# the witness walk
# ---------------------------------------------------------------------------

def _same_plan(u, target, depth):
    got = substitution_witness(u, target, depth)
    want = ref.substitution_witness(u, target, depth)
    assert type(got) is type(want)
    if want is not None:
        assert plan_to_json(got) == plan_to_json(want)
    return got


def _relabeled(c):
    """The same curve with a primed label: equal to ``c``, named apart."""
    return Curve(c.surface, c.cls, c.hom, c.label + "'")


def test_witness_plans_match_reference_on_ac8_seeds():
    rng = random.Random(888)
    u = u_g1(2)
    letters = [Letter(TwistGen(c.curve, h)) for c in u.cycles for h in ("right", "left")]
    for trial in range(50):
        if trial % 2 == 0:
            w = MCWord(u.fiber, tuple(
                rng.choice(letters) for _ in range(rng.randint(1, 3))))
            target = global_conjugate(u, w)
        else:
            entries = [
                PlanEntry(i, MCWord(u.fiber, tuple(
                    rng.choice(letters) for _ in range(rng.randint(0, 3)))), 1)
                for i in range(u.size)]
            target = pullback(u, MeridianPlan(tuple(entries)))
        assert _same_plan(u, target, 4) is not None, trial


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), depth=st.integers(0, 3))
def test_witness_plans_match_reference_with_flipped_signs(seed, depth):
    # flipped signs force degree -1 entries; short depths leave some unmatched
    rng = random.Random(seed)
    u = u_g1(2)
    letters = [Letter(TwistGen(c.curve, h)) for c in u.cycles for h in ("right", "left")]
    w = MCWord(u.fiber, tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))))
    target = global_conjugate(u, w)
    cycles = tuple(SignedCycle(c.curve, -c.sign if rng.random() < 0.5 else c.sign)
                   for c in target.cycles)
    f = LefschetzFibration(u.fiber, DISK, cycles)
    _same_plan(u, f, depth)
    # every class twice with each sign, one three times: the source order
    # and the sign tiers decide which duplicate a target takes, and letters
    # are named after the first curve of a class, whatever the later labels
    doubled = u.cycles + tuple(SignedCycle(_relabeled(c.curve), -c.sign)
                               for c in u.cycles) + u.cycles[1:2]
    _same_plan(LefschetzFibration(u.fiber, DISK, doubled), f, depth)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), depth=st.integers(0, 3))
def test_witness_plans_match_reference_on_genus_three(seed, depth):
    rng = random.Random(seed)
    u = u_g1(3)
    letters = [Letter(TwistGen(c.curve, h)) for c in u.cycles for h in ("right", "left")]
    w = MCWord(u.fiber, tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))))
    target = global_conjugate(u, w)
    cycles = tuple(SignedCycle(c.curve, -c.sign if rng.random() < 0.3 else c.sign)
                   for c in target.cycles)
    _same_plan(u, LefschetzFibration(u.fiber, DISK, cycles), depth)


def test_unreachable_target_gives_none():
    # a twist about a catalog curve at most triples the largest coordinate of
    # a class, so a coordinate above 3**4 is out of reach within depth 4
    u = u_g1(2)
    cycles = list(u.cycles)
    cycles[2] = SignedCycle(nonseparating_curve(u.fiber, (82, 1, 0, -1), "far"), 1)
    target = LefschetzFibration(u.fiber, DISK, tuple(cycles))
    assert _same_plan(u, target, 4) is None


def test_walk_skips_words_equal_to_earlier_ones():
    # u_g1(2) has 5 curves, 10 letters: 11,111 words of length <= 4, of
    # which the walk visits those with no letter after its inverse and no
    # commuting pair out of order
    u = u_g1(2)
    steps = _walk_steps(_alphabet(u))
    words = []

    def visit(word, matrix):
        words.append(word)
        return False

    for length in range(5):
        assert not _walk_level((), mat_identity(u.fiber.rank), length,
                               range(len(steps)), steps, visit)
    assert len(words) == 2905
    assert len(set(words)) == len(words)
    assert words == sorted(words, key=lambda w: (len(w), w))


def _witness_target(rng, u, flip):
    """A conjugate or a pullback of u (each cycle by its own word), each
    cycle's sign flipped with probability ``flip``."""
    letters = [Letter(TwistGen(c.curve, h)) for c in u.cycles for h in ("right", "left")]

    def word(hi):
        return MCWord(u.fiber, tuple(rng.choice(letters) for _ in range(rng.randint(0, hi))))

    if rng.random() < 0.5:
        target = global_conjugate(u, word(4))
    else:
        target = pullback(u, MeridianPlan(tuple(PlanEntry(i, word(3), 1) for i in range(u.size))))
    return LefschetzFibration(u.fiber, DISK, tuple(
        SignedCycle(c.curve, -c.sign if rng.random() < flip else c.sign) for c in target.cycles))


def _same_whole_word_plan(u, target, depth):
    got = substitution_witness(u, target, depth)
    want = ref.whole_word_witness(u, target, depth)
    assert type(got) is type(want)
    if want is not None:
        assert plan_to_json(got) == plan_to_json(want)
    return got


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), depth=st.integers(0, 5),
       source=st.sampled_from(["u_g1", "doubled", "positive"]))
def test_meet_in_the_middle_matches_whole_word_walk(seed, depth, source):
    # Sources: u_g1(2); u_g1(2) with every cycle again under the opposite
    # sign and one cycle a third time, so the source order and the tiers
    # pick among duplicates; and p_g(2), all positive, whose flipped targets
    # match only at tier 1.  Targets are conjugates or pullbacks of u_g1(2)
    # with some signs flipped, so tier-1 hits found at a shorter length than
    # a tier-0 hit get replaced; at small depths some stay unmatched.
    rng = random.Random(seed)
    u = u_g1(2)
    target = _witness_target(rng, u, 0.4)
    if source == "doubled":
        u = LefschetzFibration(u.fiber, DISK, u.cycles + tuple(
            SignedCycle(_relabeled(c.curve), -c.sign)
            for c in u.cycles) + u.cycles[2:3])
    elif source == "positive":
        u = LefschetzFibration(u.fiber, DISK, tuple(SignedCycle(c.curve, 1) for c in u.cycles))
    _same_whole_word_plan(u, target, depth)


def test_meet_in_the_middle_on_tier_one_and_unreachable_targets():
    # every target cycle negative against the all-positive source: each entry
    # has degree -1; a class out of reach leaves the plan None at every depth
    u = u_g1(2)
    positive = LefschetzFibration(u.fiber, DISK, tuple(SignedCycle(c.curve, 1) for c in u.cycles))
    rng = random.Random(15)
    for depth in range(6):
        target = _witness_target(rng, u, 0.0)
        target = LefschetzFibration(u.fiber, DISK, tuple(SignedCycle(c.curve, -1) for c in target.cycles))
        plan = _same_whole_word_plan(positive, target, depth)
        assert plan is None or {e.local_degree for e in plan.entries} == {-1}
        far = list(target.cycles)
        far[1] = SignedCycle(nonseparating_curve(u.fiber, (3 ** depth + 1, 1, 0, 0), "far"), 1)
        assert _same_whole_word_plan(u, LefschetzFibration(u.fiber, DISK, tuple(far)), depth) is None


@pytest.mark.parametrize("genus, most", [(2, 3), (3, 2)])
def test_half_words_table_the_lex_least_second_half(genus, most):
    # against every word the whole-word walk visits, each evaluated afresh:
    # per vector x, each source class u with the least word w, |w| = m,
    # that sends u to x, sorted by w
    u = u_g1(genus)
    letters = _alphabet(u)
    steps = _walk_steps(letters)
    sources = tuple(dict.fromkeys(c.curve.hom for c in u.cycles))
    for m in range(most + 1):
        words = []
        _walk_level((), (), m, range(len(steps)), steps,
                    lambda word, _: words.append(word) or False)
        least = {}
        for word in words:
            matrix = evaluate(MCWord(u.fiber, tuple(letters[li] for li in word))).matrix
            for v in sources:
                key = (mat_vec(matrix, v), v)
                least[key] = min(least.get(key, word), word)
        want = {}
        for (x, v), word in sorted(least.items(), key=lambda item: item[1]):
            want.setdefault(x, []).append((word, v))
        assert _half_words(steps, sources, m) == want


# ---------------------------------------------------------------------------
# the walk cache and the round trip
# ---------------------------------------------------------------------------

def _fresh_walk_cache(monkeypatch, pairs=None):
    """An empty walk cache for this test, bounded at ``pairs`` when given."""
    monkeypatch.setattr(witness, "_walk_cache", {})
    monkeypatch.setattr(witness, "_walk_cache_pairs", 0)
    if pairs is not None:
        monkeypatch.setattr(witness, "WITNESS_CACHE_PAIRS", pairs)


def _cached_pairs():
    """The pairs the walk cache holds, counted from its entries: a walk step
    list by its steps, a half table by its (word, source class) pairs."""
    return sum(len(e) if isinstance(e, list) else sum(map(len, e.values()))
               for e in witness._walk_cache.values())


def _same_class_sources():
    """Sources on F(2, 1) and F(1, 3), both of rank 4, with one class tuple:
    (1, 0, 1, 0) has covector (0, 1, 0, 1) on the first fiber and (0, 1, 0, 0)
    on the second, so the two walk steps differ."""
    homs = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1))
    return [LefschetzFibration(s, DISK, tuple(
                SignedCycle(nonseparating_curve(s, v, f"c{i}"), -1) for i, v in enumerate(homs)))
            for s in (SurfaceSpec(2, 1), SurfaceSpec(1, 3))]


def test_walk_cache_key_carries_the_fiber(monkeypatch):
    sources = _same_class_sources()
    searches = [(u, _witness_target(random.Random(seed), u, 0.2))
                for u in sources for seed in range(8)]
    for order in (searches, searches[::-1]):
        _fresh_walk_cache(monkeypatch)
        for _ in ("cold", "warm"):
            for u, target in order:
                _same_whole_word_plan(u, target, 4)


def test_walk_cache_plans_carry_their_own_labels(monkeypatch):
    _fresh_walk_cache(monkeypatch)
    u = u_g1(2)
    primed = LefschetzFibration(u.fiber, DISK, tuple(
        SignedCycle(_relabeled(c.curve), c.sign) for c in u.cycles))
    target = global_conjugate(u, MCWord(u.fiber, (Letter(TwistGen(u.cycles[2].curve)),)))
    plans = [_same_whole_word_plan(source, target, 4) for source in (u, primed, u)]
    labels = [{l.gen.curve.label for e in p.entries for l in e.conjugator.letters} for p in plans]
    assert labels[0] == labels[2] == {"a1"} and labels[1] == {"a1'"}


def test_walk_cache_builds_the_shared_work_once(monkeypatch):
    _fresh_walk_cache(monkeypatch)
    calls = []

    def spy(name):
        original = getattr(witness, name)

        def recorded(*args):
            calls.append((name, args[-1] if name == "_half_words" else None))
            return original(*args)

        monkeypatch.setattr(witness, name, recorded)

    for name in ("_half_words", "_walk_steps", "evaluate"):
        spy(name)
    u = u_g1(3)
    rng = random.Random(21)
    built, shared = [], 0
    for _ in range(6):
        target = _witness_target(rng, u, 0.0)
        for attempt in ("cold", "warm"):
            calls.clear()
            plan = substitution_witness(u, target, 4)
            tables = [c for c in calls if c[0] != "evaluate"]
            if attempt == "warm":  # an identical search builds nothing
                assert tables == []
            built += tables
            # the round trip evaluates each distinct conjugator once
            distinct = {e.conjugator for e in plan.entries}
            assert len(calls) - len(tables) == len(distinct)
            shared += len(plan.entries) - len(distinct)
            assert plan_to_json(plan) == plan_to_json(ref.whole_word_witness(u, target, 4))
    # one source: its steps once, and each half length reached once
    assert built.count(("_walk_steps", None)) == 1
    lengths = [m for name, m in built if name == "_half_words"]
    assert lengths == list(range(len(lengths))) and lengths
    assert shared > 0


def test_walk_cache_keeps_at_most_its_bound(monkeypatch):
    # u_g1(2) tables 5, 21 and 105 pairs at half lengths 0 to 2 and has 10
    # walk steps; the 105-pair table is larger than the bound and is not kept
    _fresh_walk_cache(monkeypatch, 60)
    built = []
    half_words = witness._half_words

    def spy(steps, sources, m):
        built.append(m)
        return half_words(steps, sources, m)

    monkeypatch.setattr(witness, "_half_words", spy)
    u2 = u_g1(2)
    # negative targets on a positive source match only at tier 1, so the
    # walk runs to full depth
    positive = LefschetzFibration(u2.fiber, DISK, tuple(SignedCycle(c.curve, 1) for c in u2.cycles))
    target = LefschetzFibration(u2.fiber, DISK, tuple(
        SignedCycle(c.curve, -1) for c in _witness_target(random.Random(5), u2, 0.0).cycles))
    for want in ([0, 1, 2], [2]):
        built.clear()
        assert _same_whole_word_plan(positive, target, 4) is not None
        assert built == want
        assert _cached_pairs() == witness._walk_cache_pairs == 36
    # more sources than the bound holds: the cache is emptied each time a new
    # entry would pass it, and every plan is the reference plan
    u3 = u_g1(3)
    sources = [u3, u2, p_g(2), *_same_class_sources(), LefschetzFibration(
        u3.fiber, DISK, tuple(SignedCycle(c.curve, -c.sign) for c in u3.cycles))]
    rng = random.Random(6)
    for u in sources * 2:
        _same_whole_word_plan(u, _witness_target(rng, u, 0.3), 4)
        assert _cached_pairs() == witness._walk_cache_pairs <= 60


@pytest.mark.parametrize("bound", [None, 60], ids=["kept", "emptied"])
def test_walk_cache_shared_by_threads(monkeypatch, bound):
    # more threads than cores, started together and switching often, with the
    # cache kept whole or emptied again and again: every plan is the reference
    # plan, and the count is that of the entries kept
    _fresh_walk_cache(monkeypatch, bound)
    rng = random.Random(8)
    searches = [(u, _witness_target(rng, u, 0.3))
                for u in (u_g1(2), u_g1(3), *_same_class_sources()) for _ in range(3)]
    want = [plan_to_json(p) if p else None
            for p in (ref.whole_word_witness(u, t, 4) for u, t in searches)]
    n = min(8, (os.cpu_count() or 1) + 2)
    start = threading.Barrier(n)
    got = {}

    def run(k):
        start.wait(timeout=60)
        for i, (u, t) in enumerate(searches):
            p = substitution_witness(u, t, 4)
            got[k, i] = plan_to_json(p) if p else None

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {(k, i): w for k in range(n) for i, w in enumerate(want)}
    assert _cached_pairs() == witness._walk_cache_pairs <= witness.WITNESS_CACHE_PAIRS
