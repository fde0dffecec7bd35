"""Twist transvections, word evaluation, permutation groups, the oracle."""

from __future__ import annotations

import json
import random
import time
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lefschetz.mapping as mapping
import lefschetz.serialize as serialize
import lefschetz.universality as universality
from lefschetz.curves import nonseparating_curve, separating_curve
from lefschetz.errors import CapacityError, InputError
from lefschetz.homology import (
    SurfaceSpec,
    in_radical,
    mat_identity,
    mat_mul,
    mat_vec,
    pairing,
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
    perm_compose,
    perm_group_surjective,
    perm_inverse,
    symplectic_group_order,
    twist_catalog,
    twist_matrix,
    twist_word,
)
from lefschetz.serialize import curve_to_json
from lefschetz.universality import _group_order, _symplectic_order_mod
from reference_orders import _closure, _mod_p_generators, _perm_group_order
from reference_orders import _symplectic_order_mod as _tuple_order_mod


def _random_nonsep(rng, s):
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(s.rank))
        if not in_radical(s, v) and vec_gcd(v) == 1:
            return nonseparating_curve(s, v, "r")


# ---------------------------------------------------------------------------
# transvections
# ---------------------------------------------------------------------------

def test_twist_basis_examples():
    s = SurfaceSpec(1, 1)
    a = nonseparating_curve(s, (1, 0), "a")
    b = nonseparating_curve(s, (0, 1), "b")
    m = twist_matrix(a, "right")
    assert mat_vec(m, b.hom) == (1, 1)  # b + a
    assert mat_vec(m, a.hom) == a.hom
    left = twist_matrix(a, "left")
    assert mat_mul(m, left) == mat_identity(2)


def test_twist_preserves_pairing_random():
    rng = random.Random(5)
    for _ in range(50):
        s = SurfaceSpec(rng.randint(1, 3), rng.randint(0, 3))
        c = _random_nonsep(rng, s)
        for handed in ("right", "left"):
            assert preserves_pairing(s, twist_matrix(c, handed))


def test_twist_fixes_boundary_classes():
    s = SurfaceSpec(1, 3)
    c = nonseparating_curve(s, (1, 2, 1, -1), "c")
    m = twist_matrix(c)
    for j in (1, 2):
        d = s.basis_vector(s.delta_index(j))
        assert mat_vec(m, d) == d


def test_torus_braid_relation_order_six():
    s = SurfaceSpec(1, 1)
    a = TwistGen(nonseparating_curve(s, (1, 0), "a"))
    b = TwistGen(nonseparating_curve(s, (0, 1), "b"))
    rep = evaluate(twist_word(a, b))
    power = rep.matrix
    for _ in range(5):
        power = mat_mul(power, rep.matrix)
    assert power == mat_identity(2)
    assert rep.matrix != mat_identity(2)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def test_evaluate_empty_and_inverse():
    s = SurfaceSpec(2, 2)
    empty = MCWord(s)
    assert evaluate(empty).is_identity
    rng = random.Random(11)
    letters = tuple(
        Letter(TwistGen(_random_nonsep(rng, s)), rng.choice((1, -1))) for _ in range(4)
    )
    w = MCWord(s, letters)
    assert evaluate(w * w.inverse()).is_identity


def test_evaluate_is_homomorphism():
    rng = random.Random(17)
    s = SurfaceSpec(2, 1)
    w1 = MCWord(s, tuple(Letter(TwistGen(_random_nonsep(rng, s))) for _ in range(3)))
    w2 = MCWord(s, tuple(Letter(TwistGen(_random_nonsep(rng, s))) for _ in range(2)))
    assert evaluate(w1 * w2) == evaluate(w1).compose(evaluate(w2))


def test_mixed_surface_letters_rejected():
    a = TwistGen(nonseparating_curve(SurfaceSpec(1, 1), (1, 0)))
    b = TwistGen(nonseparating_curve(SurfaceSpec(1, 2), (1, 0, 0)))
    with pytest.raises(InputError):
        MCWord(SurfaceSpec(1, 1), (Letter(a), Letter(b)))


def test_twist_only_words_fix_boundary_permutation():
    rng = random.Random(23)
    s = SurfaceSpec(1, 3)
    w = MCWord(s, tuple(Letter(TwistGen(_random_nonsep(rng, s))) for _ in range(5)))
    assert evaluate(w).perm == (0, 1, 2)


# ---------------------------------------------------------------------------
# curve transport
# ---------------------------------------------------------------------------

def test_act_identity_and_transvection():
    s = SurfaceSpec(1, 1)
    a = nonseparating_curve(s, (1, 0), "a")
    b = nonseparating_curve(s, (0, 1), "b")
    assert act_on_curve(MCWord(s), b) == b
    moved = act_on_curve(twist_word(TwistGen(a)), b)
    assert moved.hom == (1, 1)
    assert moved.cls == b.cls


def test_act_preserves_class_and_primitivity():
    rng = random.Random(31)
    for _ in range(30):
        s = SurfaceSpec(rng.randint(1, 3), rng.randint(0, 3))
        c = _random_nonsep(rng, s)
        w = MCWord(
            s,
            tuple(
                Letter(TwistGen(_random_nonsep(rng, s)), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 6))
            ),
        )
        out = act_on_curve(w, c)
        assert out.cls == c.cls
        assert vec_gcd(out.hom) == 1


def test_bundle_gen_swap_on_separating_curve():
    s = SurfaceSpec(0, 4)
    swap = boundary_permutation_gen(s, (2, 1, 0, 3), "swap13")
    c = separating_curve(s, {1, 2}, (0, 0), "c")
    out = act_on_curve(MCWord(s, (Letter(swap),)), c)
    assert out.cls == c.cls
    assert out.boundary_subset() == {3, 2}


def test_bundle_gen_validation():
    s = SurfaceSpec(1, 2)
    with pytest.raises(InputError):
        BundleGen(s, mat_identity(3), (1, 0))  # identity matrix but swapped perm
    good = boundary_permutation_gen(s, (1, 0))
    assert mat_vec(good.matrix, (0, 0, 1)) == (0, 0, -1)  # d1 -> d2 = -d1
    rows = [list(r) for r in mat_identity(3)]
    rows[0][0] = 2  # scales a1, violating the pairing
    with pytest.raises(InputError):
        BundleGen(s, tuple(tuple(r) for r in rows), (0, 1))


# ---------------------------------------------------------------------------
# permutation groups
# ---------------------------------------------------------------------------

def test_perm_group_examples():
    assert perm_group_surjective([(1, 0)], 2) is True
    assert perm_group_surjective([(1, 2, 0)], 3) is False
    assert perm_group_surjective([(1, 0, 2), (1, 2, 0)], 3) is True
    assert perm_group_surjective([], 1) is True
    assert perm_group_surjective([], 2) is False


def test_perm_group_medium_degrees():
    cycle7 = tuple(list(range(1, 7)) + [0])
    swap = (1, 0, 2, 3, 4, 5, 6)
    assert perm_group_surjective([cycle7, swap], 7) is True
    # 3-cycle and a disjoint transposition generate an intransitive group
    disjoint = [(1, 2, 0, 3, 4), (0, 1, 2, 4, 3)]
    assert perm_group_surjective(disjoint, 5) is False
    cycle5 = (1, 2, 3, 4, 0)
    assert perm_group_surjective([cycle5, (1, 0, 2, 3, 4)], 5) is True
    assert perm_group_surjective([(1, 2, 0, 3, 4)], 5) is False


def test_perm_group_capacity():
    with pytest.raises(CapacityError):
        perm_group_surjective([tuple(range(11))], 11)
    with pytest.raises(InputError):
        perm_group_surjective([(0, 2)], 2)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_structure():
    for g in range(2, 7):
        s = SurfaceSpec(g, 1)
        curves = twist_catalog(s)
        assert len(curves) == 2 * g + 1
        labels = [c.label for c in curves]
        assert labels[:2] == ["b1", "b2"]
        for c in curves:
            assert c.cls.kind == "nonsep"
            assert vec_gcd(c.hom) == 1
        # classes span the full symplectic lattice
        from lefschetz.homology import cokernel_invariants, mat_from_columns

        a = mat_from_columns([c.hom for c in curves], s.rank)
        assert cokernel_invariants(a) == (0, ())


def catalog_adjacency(surface: SurfaceSpec) -> dict[tuple[str, str], int]:
    """Pairing table of the catalog, keyed by sorted label pairs (nonzero only)."""
    curves = twist_catalog(surface)
    table = {}
    for i, c in enumerate(curves):
        for d in curves[i + 1:]:
            v = pairing(surface, c.hom, d.hom)
            if v != 0:
                table[tuple(sorted((c.label, d.label)))] = v
    return table


def test_catalog_adjacency_pattern():
    for g in (2, 3, 4):
        s = SurfaceSpec(g, 1)
        adj = catalog_adjacency(s)
        expected = {tuple(sorted(("b1", "a1")))}
        expected.add(tuple(sorted(("b2", "a2"))))
        for i in range(1, g):
            expected.add(tuple(sorted((f"a{i}", f"c{i}"))))
            expected.add(tuple(sorted((f"c{i}", f"a{i + 1}"))))
        assert set(adj) == expected
        assert all(v in (1, -1) for v in adj.values())


def test_catalog_no_invariant_quadratic_form_mod2():
    # The single mod-2 dependency among the catalog classes must have odd
    # weight under q(v)=1, else the twists would preserve a quadratic form
    # and could not generate the full symplectic group.
    for g in (2, 3, 4, 5):
        s = SurfaceSpec(g, 1)
        curves = twist_catalog(s)
        b2 = curves[1]
        others = [c for c in curves if c.label != "b2"]
        # b2 = b1 + c1 mod 2: check the dependency and its parity directly
        dep = [c for c in others if c.label in ("b1", "c1")]
        total = tuple(
            (b2.hom[k] + sum(c.hom[k] for c in dep)) % 2 for k in range(s.rank)
        )
        assert total == (0,) * s.rank
        members = [b2] + dep
        qsum = len(members)  # q(v) = 1 for every twist vector
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                qsum += pairing(s, members[i].hom, members[j].hom)
        assert qsum % 2 == 1


def test_catalog_mod2_closure_is_full_for_genus_two():
    s = SurfaceSpec(2, 1)
    twists = [TwistGen(c) for c in twist_catalog(s)]
    closed = _closure(_mod_p_gens(twists, 2, 2), 2, 10_000)
    assert closed is not None
    assert len(closed) == symplectic_group_order(2, 2) == 720
    assert _symplectic_order_mod(twists, 2) == 720


CATALOG_FIXTURE = Path(__file__).parent / "data" / "twist_catalog.json"


def test_packaged_catalog_is_pinned():
    raw = CATALOG_FIXTURE.read_text(encoding="utf-8")
    entries = json.loads(raw)
    by_fiber = {(e["fiber"]["genus"], e["fiber"]["boundary"]): e for e in entries}
    assert set(by_fiber) == {(1, 0), (1, 1)} | {(g, 1) for g in range(2, 7)}
    for (g, b), entry in by_fiber.items():
        generated = [curve_to_json(c) for c in twist_catalog(SurfaceSpec(g, b))]
        assert entry["curves"] == generated
    # bit-exact: the file equals the canonical serialization of its contents
    from lefschetz.serialize import dumps

    assert raw == dumps(json.loads(raw))


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def test_oracle_certifies_catalog_sets():
    for g, b in [(1, 1), (1, 0), (2, 1), (3, 1)]:
        s = SurfaceSpec(g, b)
        twists = [TwistGen(c) for c in twist_catalog(s)]
        assert mcg_surjectivity_oracle(twists, s).certified


def test_oracle_certificate_ignores_handedness_and_order():
    s = SurfaceSpec(2, 1)
    twists = [TwistGen(c, "left") for c in reversed(twist_catalog(s))]
    assert mcg_surjectivity_oracle(twists, s).certified


def test_oracle_obstructs_single_twist_mod2():
    s = SurfaceSpec(2, 1)
    verdict = mcg_surjectivity_oracle(
        [TwistGen(nonseparating_curve(s, (1, 0, 0, 0), "a1"))], s)
    assert verdict.obstructed
    assert "mod-2" in verdict.detail


def test_oracle_obstructs_empty_set_on_torus():
    s = SurfaceSpec(1, 0)
    assert mcg_surjectivity_oracle([], s).obstructed


def test_oracle_unknown_without_certificate():
    s = SurfaceSpec(0, 3)
    c = separating_curve(s, {1}, (0, 0), "d1")
    verdict = mcg_surjectivity_oracle([TwistGen(c)], s)
    assert verdict.status == "unknown"


def test_oracle_trivial_groups_certified():
    assert mcg_surjectivity_oracle([], SurfaceSpec(0, 1)).certified
    assert mcg_surjectivity_oracle([], SurfaceSpec(0, 0)).certified


def test_oracle_refuses_oversized_surface():
    # genus 85: the obstruction's order of Sp(170, 2) is past the
    # int-string digit limit, so formatting it raised ValueError
    with pytest.raises(CapacityError, match="rank 170"):
        mcg_surjectivity_oracle([], SurfaceSpec(85, 1))
    edge = SurfaceSpec(0, mapping.MAX_FIBER_RANK + 1)
    assert mcg_surjectivity_oracle([], edge).status == "unknown"
    with pytest.raises(CapacityError):
        mcg_surjectivity_oracle([], SurfaceSpec(0, mapping.MAX_FIBER_RANK + 2))
    assert serialize.MAX_FIBER_RANK is mapping.MAX_FIBER_RANK


def _moved_catalog(g):
    """The (g, 1) catalog moved by the word t_a1 t_a1 t_b1: its twists still
    generate the mapping class group, but the set is no catalog."""
    s = SurfaceSpec(g, 1)
    catalog = twist_catalog(s)
    a, b = (next(c for c in catalog if c.label in names) for names in (("a", "a1"), ("b", "b1")))
    w = MCWord(s, tuple(Letter(TwistGen(c)) for c in (a, a, b)))
    return s, [TwistGen(act_on_curve(w, c)) for c in catalog]


@pytest.mark.parametrize("g", [1, 2])
def test_oracle_refuses_composite_moduli(g):
    # |Sp(2g, n)| is the full group's order only for n prime: mod 4, 6 and 9
    # the closure of a generating set fell short of it, so the oracle said
    # "obstructed" (at g = 1: "mod-4 symplectic closure has order 48 < 60")
    s, twists = _moved_catalog(g)
    if g == 1:
        assert [t.curve.hom for t in twists] == [(-1, -1), (2, 1)]
    for n in (4, 6, 9):
        with pytest.raises(InputError, match=f"modulus {n} is not a prime"):
            mcg_surjectivity_oracle(twists, s, primes=(2, n))
    for primes in ((2, 3, 5), (2, 3), (2,)):
        assert mcg_surjectivity_oracle(twists, s, primes).status == "unknown"


@pytest.mark.parametrize("modulus", [0, 1, -3, True, False, 2.0, "2", None])
def test_oracle_refuses_moduli_that_are_no_int_prime(modulus):
    # 0 raised ZeroDivisionError; 1, -3 and True returned a verdict
    s, twists = _moved_catalog(1)
    with pytest.raises(InputError, match="modulus"):
        mcg_surjectivity_oracle(twists, s, primes=(modulus,))
    with pytest.raises(InputError, match="modulus"):
        mcg_surjectivity_oracle([TwistGen(c) for c in twist_catalog(s)], s, primes=(modulus,))


def test_oracle_refuses_moduli_past_its_capacity():
    # an odd prime prints no group order, so a prime whose |Sp(2g, p)| is past
    # the int-string digit limit (5,259 digits for |Sp(100, 11)|) decides too
    s = SurfaceSpec(50, 1)
    for p in (7, 11):
        assert mcg_surjectivity_oracle([], s, primes=(p,)) == mapping.SurjectivityVerdict(
            "obstructed", f"mod-{p} image is trivial")
    assert mcg_surjectivity_oracle([], s).obstructed  # the default primes pass at the largest genus
    largest = max(p for p in range(mapping.MAX_MODULUS - 100, mapping.MAX_MODULUS + 1)
                  if all(p % d for d in range(2, int(p ** 0.5) + 1)))
    assert mcg_surjectivity_oracle([], SurfaceSpec(1, 1), primes=(largest,)).obstructed
    for p in (1_000_003, 2 ** 61 - 1, 10 ** 30):  # primes, but primality is not checked this far
        with pytest.raises(CapacityError, match=f"modulus {p} exceeds the bound"):
            mcg_surjectivity_oracle([], SurfaceSpec(1, 1), primes=(p,))


@pytest.mark.parametrize("g, b", [(1, 0), (2, 1)])
def test_oracle_obstructs_empty_set_without_primes(g, b):
    # every essential curve at b <= 1 is non-separating, and no twist realizes it
    verdict = mcg_surjectivity_oracle([], SurfaceSpec(g, b), primes=())
    assert (verdict.status, verdict.detail) == (
        "obstructed", "curve type nonsep is realized by no twist curve")
    single = [TwistGen(nonseparating_curve(SurfaceSpec(g, b), (1,) + (0,) * (2 * g - 1), "a1"))]
    assert mcg_surjectivity_oracle(single, SurfaceSpec(g, b), primes=()).status == "unknown"


@settings(max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_oracle_never_certifies_without_catalog(seed):
    # soundness: random junk never comes back certified
    rng = random.Random(seed)
    s = SurfaceSpec(2, 1)
    twists = [TwistGen(_random_nonsep(rng, s)) for _ in range(rng.randint(1, 3))]
    catalog_keys = {(c.cls, c.hom) for c in twist_catalog(s)}
    have = {(t.curve.cls, t.curve.hom) for t in twists}
    neg = {(cls, tuple(-x for x in hom)) for cls, hom in have}
    if not catalog_keys <= (have | neg):
        assert not mcg_surjectivity_oracle(twists, s).certified


# ---------------------------------------------------------------------------
# the stabilizer chain against the slow reference routines
# ---------------------------------------------------------------------------

# closures larger than this are not listed; the chain must then find more
REFERENCE_CAP = 1_500


def _symplectic_block_mod(m, g, p):
    """The handle block of a dense matrix mod p: applied to ``twist_matrix``,
    the reference for ``reference_orders._mod_p_generators``."""
    return tuple(tuple(m[i][j] % p for j in range(2 * g)) for i in range(2 * g))


def _mod_p_gens(twists, g, p):
    return {_symplectic_block_mod(twist_matrix(t.curve, t.handed), g, p) for t in twists}


def _chain_order(twists, g, p):
    """The library's mod-2 chain on the twists at p = 2; at an odd prime, where
    the library runs no chain, the reference tuple chain on the dense
    reference generators."""
    if p == 2:
        return _symplectic_order_mod(twists, g)
    return _tuple_order_mod(_mod_p_generators(twists, g, p), g, p)


def _assert_matches_closure(twists, g, p):
    order = _chain_order(twists, g, p)
    closed = _closure(_mod_p_gens(twists, g, p), p, REFERENCE_CAP)
    if closed is None:
        assert order > REFERENCE_CAP
    else:
        assert order == len(closed)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), g=st.sampled_from((1, 2)),
       p=st.sampled_from((2, 3)), count=st.integers(0, 4))
def test_chain_order_matches_closure_random_twists(seed, g, p, count):
    rng = random.Random(seed)
    s = SurfaceSpec(g, 1)
    twists = [TwistGen(_random_nonsep(rng, s), rng.choice(("right", "left")))
              for _ in range(count)]
    _assert_matches_closure(twists, g, p)


@settings(max_examples=12, deadline=None)
@given(removed=st.sets(st.integers(0, 6), min_size=1, max_size=6),
       word=st.lists(st.tuples(st.integers(0, 6), st.sampled_from((1, -1))), max_size=4),
       left=st.sets(st.integers(0, 6)))
def test_chain_order_matches_closure_genus_three_mod2(removed, word, left):
    s = SurfaceSpec(3, 1)
    catalog = twist_catalog(s)
    conj = MCWord(s, tuple(Letter(TwistGen(catalog[i]), e) for i, e in word))
    kept = [act_on_curve(conj, c) for i, c in enumerate(catalog) if i not in removed]
    twists = [TwistGen(c, "left" if i in left else "right") for i, c in enumerate(kept)]
    _assert_matches_closure(twists, 3, 2)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_chain_order_matches_reference_permutations(data, n):
    perms = data.draw(st.lists(st.permutations(range(n)).map(tuple), max_size=4))
    order = _group_order(
        perms, range(n), lambda g, i: g[i], perm_compose, perm_inverse, factorial(n))
    assert order == _perm_group_order(list(perms), n)


# ---------------------------------------------------------------------------
# the bit-packed mod-2 chain against the tuple chain
# ---------------------------------------------------------------------------

@st.composite
def _mod2_twist_sets(draw):
    """(twists, surface): random twists at g <= 3, or a conjugated catalog
    with at least one curve removed."""
    g = draw(st.integers(1, 3))
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 10**6)))
        s = SurfaceSpec(g, draw(st.integers(0, 2)))
        return [TwistGen(_random_nonsep(rng, s), rng.choice(("right", "left")))
                for _ in range(draw(st.integers(0, 6)))], s
    s = SurfaceSpec(g, 1)
    catalog = twist_catalog(s)
    k = len(catalog)
    word = draw(st.lists(st.tuples(st.integers(0, k - 1), st.sampled_from((1, -1))),
                         max_size=4))
    removed = draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k))
    conj = MCWord(s, tuple(Letter(TwistGen(catalog[i]), e) for i, e in word))
    return [TwistGen(act_on_curve(conj, c), draw(st.sampled_from(("right", "left"))))
            for i, c in enumerate(catalog) if i not in removed], s


def _reference_mod2_order(twists, g):
    """The reference tuple chain on the reference generators, mod 2."""
    return _tuple_order_mod(_mod_p_generators(twists, g, 2), g, 2)


def _least_reference_bounds(twists, g, mp):
    """The least work bound at which the reference mod-2 chain completes, and
    the bound just below it: there the library's chain must give up, at it
    the library's chain must finish."""
    lo, hi = -1, universality.ORDER_WORK_BOUND
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mp.setattr(universality, "ORDER_WORK_BOUND", mid)
        lo, hi = (lo, mid) if _reference_mod2_order(twists, g) is not None else (mid, hi)
    return [lo, hi]


def _even_center_nonsep(rng, s):
    """A non-separating curve whose handle part is even, so that its twist is
    the identity mod 2; it needs b >= 2, for an odd boundary entry."""
    while True:
        v = (tuple(2 * rng.randint(-2, 2) for _ in range(2 * s.genus))
             + tuple(rng.randint(-3, 3) for _ in range(s.boundary - 1)))
        if not in_radical(s, v) and vec_gcd(v) == 1:
            return nonseparating_curve(s, v, "e")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), g=st.integers(1, 3), b=st.integers(0, 3),
       count=st.integers(0, 6), even=st.integers(0, 2))
@example(seed=0, g=2, b=2, count=3, even=2)
def test_mod2_chain_on_twists_matches_reference_generators(seed, g, b, count, even):
    rng = random.Random(seed)
    s = SurfaceSpec(g, b)
    curves = [_random_nonsep(rng, s) for _ in range(count)]
    curves += [_even_center_nonsep(rng, s) for _ in range(even if b >= 2 else 0)]
    rng.shuffle(curves)
    twists = [TwistGen(c, rng.choice(("right", "left"))) for c in curves]
    twists += rng.sample(twists, rng.randint(0, len(twists)))  # repeats, to deduplicate
    # the reference generators are the dense twists' handle blocks, in order
    dense = [_symplectic_block_mod(twist_matrix(t.curve, t.handed), g, 2) for t in twists]
    assert _mod_p_generators(twists, g, 2) == list(dict.fromkeys(dense))
    with pytest.MonkeyPatch.context() as mp:
        for bound in _least_reference_bounds(twists, g, mp):
            mp.setattr(universality, "ORDER_WORK_BOUND", bound)
            assert _symplectic_order_mod(twists, g) == _reference_mod2_order(twists, g)


@settings(max_examples=30, deadline=None)
@given(case=_mod2_twist_sets(), extra=st.lists(st.integers(0, 3_000), max_size=3))
def test_packed_mod2_chain_matches_tuple_reference(case, extra):
    twists, s = case
    g = s.genus
    assert _symplectic_order_mod(twists, g) == _reference_mod2_order(twists, g)
    with pytest.MonkeyPatch.context() as mp:
        for bound in [*_least_reference_bounds(twists, g, mp), *extra]:
            mp.setattr(universality, "ORDER_WORK_BOUND", bound)
            assert _symplectic_order_mod(twists, g) == _reference_mod2_order(twists, g)
            verdict = mcg_surjectivity_oracle(twists, s, primes=(2,))
            mp.setattr(universality, "_symplectic_order_mod", _reference_mod2_order)
            assert mcg_surjectivity_oracle(twists, s, primes=(2,)) == verdict
            mp.undo()


def test_mod2_chain_on_conjugated_genus_four_catalog():
    s = SurfaceSpec(4, 1)
    catalog = {c.label: c for c in twist_catalog(s)}
    conj = twist_word(TwistGen(catalog["b2"]), TwistGen(catalog["a1"]))
    moved = {label: act_on_curve(conj, c) for label, c in catalog.items()}
    full = [TwistGen(c) for c in moved.values()]
    assert _symplectic_order_mod(full, 4) == symplectic_group_order(4, 2)
    minus_b1 = [TwistGen(c) for label, c in moved.items() if label != "b1"]
    assert _symplectic_order_mod(minus_b1, 4) == 348_364_800


# ---------------------------------------------------------------------------
# odd primes: the invariant subspace against the reference chain
# ---------------------------------------------------------------------------

def _catalog_minus(label, g):
    s = SurfaceSpec(g, 1)
    return [TwistGen(c) for c in twist_catalog(s) if c.label != label], s


# without c1 the catalog's centers span but split in two: few random sets do
@settings(max_examples=40, deadline=None)
@given(case=_mod2_twist_sets(), p=st.sampled_from((3, 5, 7)))
@example(case=_catalog_minus("c1", 2), p=5)
@example(case=_catalog_minus("c1", 3), p=3)
def test_invariant_subspace_agrees_with_the_reference_chain(case, p):
    twists, s = case
    g = s.genus
    p = 3 if g == 3 else p  # the chain to |Sp(6, p)| takes seconds for p >= 5
    # a proper invariant subspace is found exactly when the group is proper
    # (Sp(2g, p) is irreducible; McLaughlin for the converse), that is, when
    # a completed chain falls short of |Sp(2g, p)|
    order = _tuple_order_mod(_mod_p_generators(twists, g, p), g, p)
    if order is None:
        return
    dim = universality._invariant_subspace(twists, g, p)
    verdict = mcg_surjectivity_oracle(twists, s, primes=(p,))
    if order == symplectic_group_order(g, p):
        assert dim is None
        # a full prime decides nothing: the verdict is the one without primes
        assert verdict == mcg_surjectivity_oracle(twists, s, primes=())
    else:
        assert 0 <= dim < 2 * g
        assert verdict.status == "obstructed"


def test_reducible_sets_report_their_invariant_subspace():
    torus = SurfaceSpec(1, 1)
    line = [TwistGen(nonseparating_curve(torus, v, "r")) for v in ((1, 0), (1, 3))]
    assert _tuple_order_mod(_mod_p_generators(line, 1, 3), 1, 3) == 3  # of 24
    assert universality._invariant_subspace(line, 1, 3) == 1  # (1, 3) = (1, 0) mod 3
    assert mcg_surjectivity_oracle(line, torus).detail == (
        "mod-3 image preserves a proper subspace of dimension 1")
    s = SurfaceSpec(2, 1)
    basis = [TwistGen(nonseparating_curve(s, s.basis_vector(i), "e")) for i in range(4)]
    assert _tuple_order_mod(_mod_p_generators(basis, 2, 3), 2, 3) == 576  # of 51,840
    assert universality._invariant_subspace(basis, 2, 3) == 2  # spans, two components
    assert mcg_surjectivity_oracle(basis, s, primes=(3,)).detail == (
        "mod-3 image preserves a proper subspace of dimension 2")
    # nonzero classes whose handle parts vanish mod 3 act trivially on F_3^2
    pants = SurfaceSpec(1, 2)
    zero = [TwistGen(nonseparating_curve(pants, v, "z")) for v in ((3, 0, 1), (0, 3, 1))]
    assert universality._invariant_subspace(zero, 1, 3) == 0
    assert mcg_surjectivity_oracle(zero, pants, primes=(3,)) == mapping.SurjectivityVerdict(
        "obstructed", "mod-3 image is trivial")


@pytest.mark.parametrize("drop, g, primes, dim", [
    ("a1", 4, (3,), 7), ("a1", 5, (3,), 9), ("a1", 8, (3, 5), 15), ("a1", 50, (3, 5), 99),
    (None, 50, (3, 5), 2)])
def test_odd_primes_decide_reducible_sets_quickly(drop, g, primes, dim):
    # the catalog without a1, or the basis twists: the reference chain takes
    # seconds at p = 3 and g = 4, and gives up after a minute at g = 5
    if drop:
        twists, s = _catalog_minus(drop, g)
    else:
        s = SurfaceSpec(g, 1)
        twists = [TwistGen(nonseparating_curve(s, s.basis_vector(i), "e")) for i in range(2 * g)]
    start = time.perf_counter()
    verdict = mcg_surjectivity_oracle(twists, s, primes)
    assert time.perf_counter() - start < 1
    assert verdict == mapping.SurjectivityVerdict(
        "obstructed", f"mod-3 image preserves a proper subspace of dimension {dim}")


def _catalog_conjugated_by_b1_a1(g):
    s = SurfaceSpec(g, 1)
    catalog = {c.label: c for c in twist_catalog(s)}
    rep = evaluate(twist_word(TwistGen(catalog["b1"]), TwistGen(catalog["a1"])))
    return [TwistGen(act_on_curve(rep, c)) for c in catalog.values()], s


def test_recognized_odd_primes_run_no_chain(monkeypatch):
    def no_chain(twists, g):
        raise AssertionError("chain run at an odd prime")

    monkeypatch.setattr(universality, "_symplectic_order_mod", no_chain)
    for g, primes in [(4, (3, 5)), (50, (3,))]:
        twists, s = _catalog_conjugated_by_b1_a1(g)
        assert mcg_surjectivity_oracle(twists, s, primes).status == "unknown"


# ---------------------------------------------------------------------------
# the work bound
# ---------------------------------------------------------------------------

def test_work_bound_makes_a_prime_inconclusive_never_obstructed(monkeypatch):
    s = SurfaceSpec(2, 1)
    twists = [TwistGen(c) for c in twist_catalog(s)[:2] + twist_catalog(s)[3:]]
    exact = mcg_surjectivity_oracle(twists, s, primes=(2,))
    assert exact.detail == "mod-2 symplectic closure has order 48 < 720"
    verdicts = set()
    for bound in range(0, 60):
        monkeypatch.setattr(universality, "ORDER_WORK_BOUND", bound)
        verdict = mcg_surjectivity_oracle(twists, s, primes=(2,))
        # a chain cut short gives up; only a completed one obstructs
        assert verdict in (exact, mapping.SurjectivityVerdict(
            "unknown", "no certificate and no finite obstruction"))
        verdicts.add(verdict.status)
    assert verdicts == {"unknown", "obstructed"}


@pytest.mark.parametrize("g, p, drop, order, least", [
    (2, 2, None, 720, 38), (2, 2, 2, 48, 42), (2, 3, None, 51_840, 132),
    (2, 3, 2, 648, 129), (3, 2, None, 1_451_520, 330), (3, 2, 2, 3_840, 257)])
def test_least_completing_work_bound_is_pinned(monkeypatch, g, p, drop, order, least):
    # the catalog, or the catalog without a1: each chain gives up one unit of
    # work below the pinned bound and finishes at it, so neither the mod-2
    # representation nor the bookkeeping of the orbit-length product may move
    # the work spent (a full chain stops as its last orbit point is stored)
    s = SurfaceSpec(g, 1)
    twists = [TwistGen(c) for i, c in enumerate(twist_catalog(s)) if i != drop]
    monkeypatch.setattr(universality, "ORDER_WORK_BOUND", least - 1)
    assert _chain_order(twists, g, p) is None
    monkeypatch.setattr(universality, "ORDER_WORK_BOUND", least)
    assert _chain_order(twists, g, p) == order


def test_early_full_exit_only_at_the_symplectic_order(monkeypatch):
    s = SurfaceSpec(2, 1)
    twists = [TwistGen(c) for c in twist_catalog(s)]
    full = symplectic_group_order(2, 2)

    def least_bound(target):
        """Smallest work bound at which the chain returns an order."""
        monkeypatch.setattr(universality, "symplectic_group_order", lambda g, p: target)
        for bound in range(0, 10_000, 20):
            monkeypatch.setattr(universality, "ORDER_WORK_BOUND", bound)
            order = _symplectic_order_mod(twists, 2)
            if order is not None:
                assert order == full
                return bound
        raise AssertionError("the chain did not finish")

    # told a larger ambient order, the chain never stops early: it completes
    # and still finds |Sp(4, 2)|, at a cost the early exit avoids
    assert least_bound(full) < least_bound(3 * full)
