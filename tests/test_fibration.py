"""Fibrations: builders, invariants, moves, pullbacks, universality, witnesses."""

from __future__ import annotations

import random

import pytest

from lefschetz import fibration
from lefschetz.curves import (
    CurveClass,
    nonseparating_curve,
    separating_curve,
)
from lefschetz.errors import CapacityError, InputError, NotApplicable, Unsupported
from lefschetz.fibration import (
    ANNULUS,
    DISK,
    BaseSurface,
    LefschetzFibration,
    SignedCycle,
    build,
    global_conjugate,
    hurwitz_move,
    p_g,
    total_space_invariants,
    twist_product,
    u_10,
    u_11,
    u_g1,
)
from lefschetz.homology import MAX_CYCLES, SurfaceSpec, in_radical, mat_mul, vec_gcd
from lefschetz.mapping import (
    Letter,
    MCWord,
    TwistGen,
    boundary_permutation_gen,
    evaluate,
)
from lefschetz.reduction import REDUCE_BUDGET_BOUND, destabilize, reduce, stabilize
from lefschetz.serialize import plan_from_json, plan_to_json
from lefschetz.universality import universality_report
from lefschetz.witness import (
    WITNESS_WORD_BOUND,
    ImmersionWitness,
    MeridianPlan,
    PlanEntry,
    identity_plan,
    pullback,
    substitution_witness,
)


def _random_curve(rng, s):
    separable = s.boundary >= 2
    if s.genus >= 1 and (not separable or rng.random() < 0.75):
        while True:
            v = tuple(rng.randint(-3, 3) for _ in range(s.rank))
            if not in_radical(s, v) and vec_gcd(v) == 1:
                return nonseparating_curve(s, v, "r")
    size = rng.randint(1, s.boundary - 1)
    subset = frozenset(rng.sample(range(1, s.boundary + 1), size))
    g_in = rng.randint(0, s.genus)
    return separating_curve(s, subset, (g_in, s.genus - g_in), "r")


def _random_fibration(rng, max_rank=8, max_cycles=10):
    while True:
        s = SurfaceSpec(rng.randint(0, 3), rng.randint(0, 4))
        if 1 <= s.rank <= max_rank and (s.genus >= 1 or s.boundary >= 2):
            break
    n = rng.randint(1, max_cycles)
    cycles = tuple(
        SignedCycle(_random_curve(rng, s), rng.choice((1, -1))) for _ in range(n)
    )
    return LefschetzFibration(s, DISK, cycles)


def _random_word(rng, s, max_len=2):
    return MCWord(
        s,
        tuple(
            Letter(TwistGen(_random_curve(rng, s)), rng.choice((1, -1)))
            for _ in range(rng.randint(1, max_len))
        ),
    )


def _space_part(report):
    """Total-space fields; the sign multiset is fibration data, not V-data."""
    return (report.euler, report.h1_free_rank, report.h1_torsion, report.h2_rank)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_base_surface():
    assert DISK.free_loop_count == 0
    assert ANNULUS.free_loop_count == 1
    assert BaseSurface(1, 2).free_loop_count == 3
    with pytest.raises(InputError):
        BaseSurface(0, 0)


def test_builders():
    f = u_11()
    assert f.fiber == SurfaceSpec(1, 1)
    assert f.signs() == (1, -1)

    f = u_g1(3)
    assert f.fiber == SurfaceSpec(3, 1)
    assert f.size == 7
    assert f.signs() == (-1, 1, 1, 1, 1, -1, 1)
    assert [c.curve.label for c in f.cycles] == ["b1", "b2", "a1", "a2", "a3", "c1", "c2"]

    f = p_g(2)
    assert f.fiber == SurfaceSpec(2, 1)
    assert f.size == 5
    assert f.signs() == (1, 1, 1, 1, 1)

    f = u_10()
    assert f.fiber == SurfaceSpec(1, 0)
    assert f.signs() == (1, -1)

    assert build("u_g1", 3) == u_g1(3)
    assert build("u_11") == u_11()
    with pytest.raises(InputError):
        u_g1(1)
    with pytest.raises(InputError):
        p_g(0)
    with pytest.raises(InputError):
        build("nope")
    with pytest.raises(InputError):
        build("u_g1")


def test_standard_fibrations_keep_the_positional_sign_rule():
    # the signs were once set by catalog position: u_g1 negative at b1
    # (position 0) and c1 (position g + 2); each fibration also passes the
    # public constructors
    def validated(f):
        cycles = tuple(SignedCycle(c.curve, c.sign) for c in f.cycles)
        return LefschetzFibration(f.fiber, DISK, cycles)

    for g in range(2, 51):
        f = u_g1(g)
        assert [i for i, sign in enumerate(f.signs()) if sign < 0] == [0, g + 2]
        assert f.size == 2 * g + 1 and validated(f) == f
    for g in range(1, 51):
        f = p_g(g)
        assert set(f.signs()) == {1} and validated(f) == f
    for f in (u_11(), u_10()):
        assert f.signs() == (1, -1) and validated(f) == f


def test_bundle_count_enforced():
    f = u_11()
    with pytest.raises(InputError):
        LefschetzFibration(f.fiber, ANNULUS, f.cycles)  # missing bundle generator


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_invariants_standard_families():
    r = total_space_invariants(u_11())
    assert (r.euler, r.h1_free_rank, r.h1_torsion, r.h2_rank) == (1, 0, (), 0)

    r = total_space_invariants(u_g1(3))
    assert (r.euler, r.h1_free_rank, r.h1_torsion, r.h2_rank) == (2, 0, (), 1)

    r = total_space_invariants(u_10())
    assert (r.euler, r.h1_free_rank, r.h1_torsion, r.h2_rank) == (2, 0, (), 1)
    assert (r.positive, r.negative) == (1, 1)

    empty = LefschetzFibration(SurfaceSpec(0, 1), DISK, ())
    r = total_space_invariants(empty)
    assert (r.euler, r.h1_free_rank, r.h1_torsion, r.h2_rank) == (1, 0, (), 0)


def test_invariants_euler_identity():
    rng = random.Random(9)
    for _ in range(20):
        f = _random_fibration(rng)
        r = total_space_invariants(f)
        assert r.euler == f.fiber.euler + f.size


def test_invariants_torsion_case():
    s = SurfaceSpec(1, 1)
    c = nonseparating_curve(s, (2, 1), "c")  # primitive but twists H1
    f = LefschetzFibration(s, DISK, (SignedCycle(c, 1),))
    r = total_space_invariants(f)
    assert r.h1_free_rank == 1 and r.h1_torsion == ()
    two = LefschetzFibration(
        s, DISK, (SignedCycle(c, 1), SignedCycle(nonseparating_curve(s, (0, 1)), 1))
    )
    # columns (2,1),(0,1): determinant 2 quotient
    r = total_space_invariants(two)
    assert (r.h1_free_rank, r.h1_torsion) == (0, (2,))


def test_invariants_need_disk():
    f = u_11()
    swapless = LefschetzFibration(
        f.fiber, ANNULUS, f.cycles, (boundary_permutation_gen(f.fiber, (0,)),))
    with pytest.raises(Unsupported):
        total_space_invariants(swapless)


# ---------------------------------------------------------------------------
# Hurwitz moves, conjugation
# ---------------------------------------------------------------------------

def test_hurwitz_disjoint_is_transposition():
    s = SurfaceSpec(2, 1)
    a1 = nonseparating_curve(s, (1, 0, 0, 0), "a1")
    a2 = nonseparating_curve(s, (0, 0, 1, 0), "a2")
    f = LefschetzFibration(s, DISK, (SignedCycle(a1, 1), SignedCycle(a2, -1)))
    moved = hurwitz_move(f, 1, "R")
    assert moved.cycles == (SignedCycle(a2, -1), SignedCycle(a1, 1))


def test_hurwitz_inverse_pair():
    f = u_g1(2)
    for i in (1, 2, 3, 4):
        assert hurwitz_move(hurwitz_move(f, i, "R"), i, "L") == f
        assert hurwitz_move(hurwitz_move(f, i, "L"), i, "R") == f


def test_hurwitz_transvection_example():
    f = u_11()  # (a+, b-)
    moved = hurwitz_move(f, 1, "R")
    assert moved.cycles[0] == f.cycles[1]
    # new second curve is t_b^{+1}(a): a + <b, a> b = a - b
    assert moved.cycles[1].curve.hom == (1, -1)
    assert moved.cycles[1].sign == 1


def test_hurwitz_index_errors():
    f = u_11()
    with pytest.raises(InputError):
        hurwitz_move(f, 0, "R")
    with pytest.raises(InputError):
        hurwitz_move(f, 2, "R")
    with pytest.raises(InputError):
        hurwitz_move(f, 1, "X")


def test_hurwitz_and_conjugation_invariance_randomized():
    rng = random.Random(1301)
    for _ in range(120):
        f = _random_fibration(rng, max_cycles=6)
        expected = twist_product(f)
        inv0 = total_space_invariants(f)
        for _ in range(rng.randint(1, 8)):
            if f.size >= 2 and rng.random() < 0.7:
                i = rng.randint(1, f.size - 1)
                f = hurwitz_move(f, i, rng.choice("LR"))
            else:
                w = _random_word(rng, f.fiber)
                f = global_conjugate(f, w)
                wm = evaluate(w).matrix
                wi = evaluate(w.inverse()).matrix
                expected = mat_mul(wm, mat_mul(expected, wi))
        assert twist_product(f) == expected
        assert total_space_invariants(f) == inv0


def test_global_conjugate_identity_and_inverse():
    f = u_g1(2)
    assert global_conjugate(f, MCWord(f.fiber)) == f
    rng = random.Random(2)
    w = _random_word(rng, f.fiber, max_len=3)
    assert global_conjugate(global_conjugate(f, w), w.inverse()) == f


def test_global_conjugate_bundle():
    fib = SurfaceSpec(1, 2)
    a = nonseparating_curve(fib, (1, 0, 0), "a")
    swap = boundary_permutation_gen(fib, (1, 0), "swap")
    f = LefschetzFibration(fib, ANNULUS, (SignedCycle(a, 1),), (swap,))
    w = MCWord(fib, (Letter(TwistGen(a)),))
    g = global_conjugate(f, w)
    assert g.bundle[0].perm == (1, 0)
    assert global_conjugate(g, w.inverse()) == f


def test_global_conjugate_evaluates_the_word_once(monkeypatch):
    # three bundle generators are each conjugated by one evaluation of w and
    # its closed-form inverse, not by an evaluation of w g w^-1 apiece, nor
    # by a second evaluation of w^-1
    fib = SurfaceSpec(1, 4)
    a = nonseparating_curve(fib, (1, 0, 0, 0, 0), "a")
    c = nonseparating_curve(fib, (0, 1, 1, 0, 0), "c")
    gens = tuple(boundary_permutation_gen(fib, perm, f"g{k}") for k, perm in
                 enumerate(((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))))
    f = LefschetzFibration(fib, BaseSurface(0, 4), (SignedCycle(a, 1),), gens)
    w = MCWord(fib, (Letter(TwistGen(a)), Letter(TwistGen(c), -1)))
    want = [evaluate(w * MCWord(fib, (Letter(bg),)) * w.inverse()) for bg in gens]
    calls = []

    def spy(word):
        calls.append(word)
        return evaluate(word)

    monkeypatch.setattr(fibration, "evaluate", spy)
    g = global_conjugate(f, w)
    assert calls == [w]
    assert [(bg.matrix, bg.perm, bg.label) for bg in g.bundle] == [
        (rep.matrix, rep.perm, bg.label) for rep, bg in zip(want, gens)]


# ---------------------------------------------------------------------------
# stabilization
# ---------------------------------------------------------------------------

def test_stabilize_boundary_up():
    f = u_11()
    s = stabilize(f, "boundary_up", 1)
    assert s.fiber == SurfaceSpec(1, 2)
    assert s.size == 3
    new = s.cycles[-1]
    assert new.curve.cls == CurveClass.separating((0, 1), (1, 1))
    assert new.curve.hom == (0, 0, 1)
    assert _space_part(total_space_invariants(s)) == _space_part(total_space_invariants(f))


def test_stabilize_genus_up_round_trip():
    f = stabilize(u_11(), "boundary_up", -1)
    s = stabilize(f, "genus_up", 1)
    assert s.fiber == SurfaceSpec(2, 1)
    new = s.cycles[-1]
    assert new.curve.cls == CurveClass.nonseparating()
    assert new.curve.hom == s.fiber.basis_vector(s.fiber.beta_index(2))
    assert _space_part(total_space_invariants(s)) == _space_part(total_space_invariants(f))
    back = destabilize(s, s.fiber.beta_index(2))
    assert back == f


def test_stabilize_destabilize_round_trips_randomized():
    rng = random.Random(55)
    for _ in range(40):
        f = _random_fibration(rng, max_cycles=5)
        if f.fiber.boundary == 0:
            continue  # closed fibers admit no stabilization
        mode = rng.choice(("boundary_up", "genus_up"))
        if mode == "genus_up" and f.fiber.boundary < 2:
            mode = "boundary_up"
        sign = rng.choice((1, -1))
        try:
            s = stabilize(f, mode, sign)
        except NotApplicable:
            continue  # ambiguous separating transport; legitimately refused
        assert _space_part(total_space_invariants(s)) == _space_part(total_space_invariants(f))
        if mode == "boundary_up":
            gen = s.fiber.rank - 1
        else:
            gen = s.fiber.beta_index(s.fiber.genus)
        assert destabilize(s, gen) == f


def test_stabilize_preconditions():
    with pytest.raises(InputError):
        stabilize(u_10(), "boundary_up", 1)  # closed fiber
    with pytest.raises(InputError):
        stabilize(u_11(), "genus_up", 1)  # needs two boundary circles
    with pytest.raises(InputError):
        stabilize(u_11(), "sideways", 1)


def test_destabilize_criterion_failures():
    f = u_g1(2)
    with pytest.raises(NotApplicable):
        destabilize(f, 1)  # beta_1 crossed by b1 and c1
    with pytest.raises(NotApplicable):
        destabilize(u_10(), 0)  # closed fiber: no arc
    with pytest.raises(InputError):
        destabilize(f, 99)


def test_destabilize_chain_u11():
    f = u_11()
    once = destabilize(f, 0)  # remove the a-cycle through alpha_1
    assert once.fiber == SurfaceSpec(0, 2)
    assert once.size == 1
    assert once.cycles[0].curve.cls == CurveClass.separating((0, 1), (0, 1))
    twice = destabilize(once, 0)
    assert twice.fiber == SurfaceSpec(0, 1)
    assert twice.size == 0


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduce_u11():
    r = reduce(u_11())
    assert r.fibration.fiber == SurfaceSpec(0, 1)
    assert r.fibration.size == 0
    assert r.steps == 2
    assert not r.exhausted


def test_reduce_u_g1_endpoints():
    for g in (2, 3, 4, 5):
        r = reduce(u_g1(g))
        f = r.fibration
        assert f.fiber == SurfaceSpec(0, 3)
        assert f.size == 3
        assert sorted(f.signs()) == [-1, -1, 1]
        for c in f.cycles:
            assert c.curve.cls.is_separating
        assert not r.exhausted
        assert _space_part(total_space_invariants(f)) == _space_part(total_space_invariants(u_g1(g)))


def test_reduce_terminal_unchanged():
    f = u_10()
    r = reduce(f)
    assert r.fibration == f and r.steps == 0 and not r.exhausted
    empty = LefschetzFibration(SurfaceSpec(0, 1), DISK, ())
    assert reduce(empty).fibration == empty


def test_reduce_budget_flag():
    r = reduce(u_g1(4), budget=1)
    assert r.exhausted
    with pytest.raises(InputError, match="budget must be >= 0"):
        reduce(u_g1(4), budget=-1)


@pytest.mark.parametrize("value", ["5", None, 2.5, 1.0, True, False], ids=repr)
def test_reduce_and_destabilize_refuse_a_value_that_is_not_an_int(value):
    # refused before any other check: over an annulus too, where the base
    # would be refused next
    f = u_11()
    over_annulus = LefschetzFibration(
        f.fiber, ANNULUS, f.cycles, (boundary_permutation_gen(f.fiber, (0,)),))
    for g in (f, over_annulus):
        with pytest.raises(InputError) as info:
            reduce(g, value)
        assert str(info.value) == "budget must be an int"
        with pytest.raises(InputError) as info:
            destabilize(g, value)
        assert str(info.value) == "generator index must be an int"


def test_reduce_refuses_a_budget_past_its_bound():
    # before any search, over an annulus too: reduce(u_g1(17), 10**9) ran
    # past 90 s; the bound itself is accepted
    f = u_11()
    over_annulus = LefschetzFibration(
        f.fiber, ANNULUS, f.cycles, (boundary_permutation_gen(f.fiber, (0,)),))
    for g in (u_g1(17), over_annulus):
        for budget in (REDUCE_BUDGET_BOUND + 1, 10**9, 10**5000):
            with pytest.raises(CapacityError) as info:
                reduce(g, budget)
            assert str(info.value).endswith(f"exceeds the bound of {REDUCE_BUDGET_BOUND}")
    assert not reduce(f, REDUCE_BUDGET_BOUND).exhausted


def test_reduce_reports_work_done():
    # u_11: one destabilization on each of a1, b1, then each F(0,2) state
    # reaches the same empty F(0,1) state
    r = reduce(u_11())
    assert (r.explored, r.states, r.steps) == (4, 4, 2)
    r = reduce(u_g1(4), budget=1)
    assert r.exhausted and (r.explored, r.states, r.steps) == (1, 2, 1)
    r = reduce(u_g1(4), budget=0)
    assert r.exhausted and (r.explored, r.states, r.steps) == (0, 1, 0)
    # unbounded searches, as in the search benchmark: the differential test
    # against the reference stops at g <= 9 and budget 400
    r = reduce(u_g1(10), 10**6)
    assert not r.exhausted and (r.explored, r.states, r.steps) == (1258, 1049, 18)
    r = reduce(p_g(9), 10**6)
    assert not r.exhausted and (r.explored, r.states, r.steps) == (463, 387, 16)


def test_reduce_budget_runs_out_at_a_last_applicable_generator():
    # The budget counts as if checked at every generator, applicable or not.
    # u_g1(2): the 4th and last destabilization is generator 0 of the third
    # state, F(1, 2), its only applicable one; generators 1 and 2 are still
    # unvisited, so budget 4 is exhausted although nothing more applies.
    r = reduce(u_g1(2), budget=4)
    assert r.exhausted and (r.explored, r.states, r.steps) == (4, 5, 2)
    r = reduce(u_g1(2), budget=5)
    assert not r.exhausted and (r.explored, r.states, r.steps) == (4, 5, 2)
    # u_11: the 3rd destabilization is the last generator of the second
    # state, F(0, 2), and the third state, F(0, 2) again, has a generator
    # left; the 4th is the last generator of that state, and only the
    # rank-0 F(0, 1) follows, so budget 4 is not exhausted.
    r = reduce(u_11(), budget=3)
    assert r.exhausted and (r.explored, r.states, r.steps) == (3, 4, 2)
    r = reduce(u_11(), budget=4)
    assert not r.exhausted and (r.explored, r.states, r.steps) == (4, 4, 2)


# ---------------------------------------------------------------------------
# pullbacks
# ---------------------------------------------------------------------------

def test_pullback_identity_plan():
    u = u_g1(2)
    assert pullback(u, identity_plan(u)) == u


def test_pullback_sign_flip():
    u = u_11()
    plan = MeridianPlan(
        (PlanEntry(0, MCWord(u.fiber), -1), PlanEntry(1, MCWord(u.fiber), 1))
    )
    out = pullback(u, plan)
    assert out.signs() == (-1, -1)
    assert [c.curve for c in out.cycles] == [c.curve for c in u.cycles]


def test_pullback_repeats_and_subsets():
    u = u_11()
    plan = MeridianPlan((PlanEntry(1, MCWord(u.fiber), -1),))
    out = pullback(u, plan)
    assert out.size == 1
    assert out.cycles[0].sign == 1


def test_pullback_matches_global_conjugate():
    rng = random.Random(88)
    u = u_g1(2)
    for _ in range(10):
        w = _random_word(rng, u.fiber, max_len=3)
        target = global_conjugate(u, w)
        plan = MeridianPlan(tuple(PlanEntry(i, w, 1) for i in range(u.size)))
        assert pullback(u, plan) == target


def test_pullback_validation():
    u = u_11()
    empty = MCWord(u.fiber)
    with pytest.raises(InputError):
        pullback(u, MeridianPlan((PlanEntry(5, empty, 1),)))
    wrong = MCWord(SurfaceSpec(2, 1))
    with pytest.raises(InputError):
        pullback(u, MeridianPlan((PlanEntry(0, wrong, 1),)))
    # a bool source was pulled back as source 1; the others raised
    # TypeError or AttributeError
    for make, message in (
        (lambda: PlanEntry(True, empty), "plan source must be an int"),
        (lambda: PlanEntry("x", empty), "plan source must be an int"),
        (lambda: PlanEntry(0, "w"), "plan conjugator must be an MCWord"),
        (lambda: MeridianPlan(("x",)), "plan entry must be a PlanEntry"),
    ):
        with pytest.raises(InputError, match=f"^{message}$"):
            make()
    # refused before any move, as the validating constructor refused it
    plan = MeridianPlan((PlanEntry(0, empty),) * (MAX_CYCLES + 1))
    with pytest.raises(CapacityError, match=f"^{MAX_CYCLES + 1} vanishing cycles exceed "
                                            f"the desk-scale bound {MAX_CYCLES}$"):
        pullback(u, plan)
    assert pullback(u, MeridianPlan(plan.entries[:MAX_CYCLES])).size == MAX_CYCLES


def test_plan_from_json_refuses_malformed_entries():
    u = u_g1(2)
    doc = plan_to_json(identity_plan(u))
    entry = doc["entries"][0]
    for bad in (
        {"entries": 3},
        {"entries": None},
        {"entries": [dict(entry, conjugator=7)]},
        {"entries": [dict(entry, conjugator=[5])]},
        {"entries": [dict(entry, conjugator=["t"])]},
        {"entries": [5]},
    ):
        with pytest.raises(InputError):
            plan_from_json(bad, u.fiber)


# ---------------------------------------------------------------------------
# universality
# ---------------------------------------------------------------------------

def test_universality_standard_families():
    for f in (u_11(), u_g1(2), u_g1(5), u_10()):
        r = universality_report(f)
        assert r.cond_lef.certified
        assert r.cond_perm and r.cond2 and r.cond2strong
        assert r.universal == "yes" and r.strongly_universal == "yes"
    for g in (1, 2, 3):
        r = universality_report(p_g(g))
        assert r.cond_lef.certified
        assert r.cond2 and not r.cond2strong
        assert r.universal == "yes" and r.strongly_universal == "no"


def test_universality_permutation_condition():
    fib = SurfaceSpec(1, 2)
    cyc = (
        SignedCycle(nonseparating_curve(fib, (1, 0, 0), "a"), 1),
        SignedCycle(nonseparating_curve(fib, (0, 1, 0), "b"), -1),
    )
    over_disk = LefschetzFibration(fib, DISK, cyc)
    r = universality_report(over_disk)
    assert not r.cond_perm
    assert r.universal == "no" and r.strongly_universal == "no"

    swap = boundary_permutation_gen(fib, (1, 0), "swap")
    over_annulus = LefschetzFibration(fib, ANNULUS, cyc, (swap,))
    assert universality_report(over_annulus).cond_perm


def test_universality_missing_class():
    # genus-2 catalog twists on F(2,2) miss every separating type
    s = SurfaceSpec(2, 2)
    a1 = nonseparating_curve(s, (1, 0, 0, 0, 0), "a1")
    f = LefschetzFibration(s, DISK, (SignedCycle(a1, 1), SignedCycle(a1, -1)))
    r = universality_report(f)
    assert not r.cond2
    assert r.universal == "no"


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------

def test_witness_identity():
    u = u_g1(2)
    w = substitution_witness(u, u, 2)
    assert isinstance(w, ImmersionWitness)
    assert all(e.source == i and len(e.conjugator) == 0 for i, e in enumerate(w.entries))


def test_witness_conjugated_targets():
    rng = random.Random(606)
    u = u_g1(2)
    alphabet = []
    for c in {cy.curve.hom: cy.curve for cy in u.cycles}.values():
        alphabet.append(Letter(TwistGen(c, "right")))
        alphabet.append(Letter(TwistGen(c, "left")))
    for _ in range(6):
        w = MCWord(u.fiber, tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3))))
        target = global_conjugate(u, w)
        plan = substitution_witness(u, target, 4)
        assert isinstance(plan, ImmersionWitness)
        got = pullback(u, plan)
        assert got == target


def test_witness_needs_degree_minus_one():
    # the only source cycle in the separating class has the opposite sign
    s = SurfaceSpec(1, 2)
    boundary = separating_curve(s, {1}, (0, 1), "d")
    handle = nonseparating_curve(s, (1, 0, 0), "a")
    u = LefschetzFibration(
        s, DISK, (SignedCycle(boundary, -1), SignedCycle(handle, 1)))
    target = LefschetzFibration(s, DISK, (SignedCycle(boundary, 1),))
    plan = substitution_witness(u, target, 2)
    assert plan is not None
    assert not isinstance(plan, ImmersionWitness)
    assert plan.entries[0].local_degree == -1
    assert pullback(u, plan).cycles == target.cycles


def test_witness_unknown_when_unreachable():
    s = SurfaceSpec(0, 4)
    near = separating_curve(s, {1}, (0, 0), "d1")
    far = separating_curve(s, {1, 2}, (0, 0), "d12")
    u = LefschetzFibration(s, DISK, (SignedCycle(near, 1),))
    target = LefschetzFibration(s, DISK, (SignedCycle(far, 1),))
    assert substitution_witness(u, target, 3) is None


def test_witness_fiber_mismatch():
    with pytest.raises(InputError):
        substitution_witness(u_11(), u_g1(2), 2)


@pytest.mark.parametrize("depth", [2.5, "3", None, True], ids=repr)
def test_witness_refuses_a_depth_that_is_not_an_int(depth):
    # before any other check: the fibers differ here too; True ran as depth 1
    for u, f in ((u_g1(2), u_g1(2)), (u_11(), u_g1(2))):
        with pytest.raises(InputError) as info:
            substitution_witness(u, f, depth)
        assert str(info.value) == "depth must be an int"


def test_witness_word_bound():
    # u_g1(3) has 14 letters: depth 5 counts 579,195 words, depth 6 passes
    # the bound; the check comes before the walk, whatever the depth
    u = u_g1(3)
    assert substitution_witness(u, u, 5) == identity_plan(u)
    for depth in (6, 10**9):
        with pytest.raises(CapacityError, match=str(WITNESS_WORD_BOUND)):
            substitution_witness(u, u, depth)
    # an empty alphabet has only the empty word, at any depth
    empty = LefschetzFibration(u.fiber, DISK, ())
    assert substitution_witness(empty, u, 10**9) is None
    assert substitution_witness(empty, empty, 10**9) == ImmersionWitness(())
