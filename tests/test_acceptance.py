"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every comparison is exact integer equality (tolerance 0).
"""

from __future__ import annotations

import random

from lefschetz.curves import (
    class_count,
    enumerate_classes,
    nonseparating_curve,
    separating_curve,
)
from lefschetz.fibration import (
    ANNULUS,
    DISK,
    LefschetzFibration,
    SignedCycle,
    global_conjugate,
    hurwitz_move,
    p_g,
    total_space_invariants,
    twist_product,
    u_10,
    u_11,
    u_g1,
)
from lefschetz.homology import (
    SurfaceSpec,
    in_radical,
    mat_mul,
    preserves_pairing,
    smith_normal_form,
    vec_gcd,
)
from lefschetz.mapping import (
    Letter,
    MCWord,
    TwistGen,
    boundary_permutation_gen,
    evaluate,
    twist_catalog,
    twist_matrix,
)
from lefschetz.reduction import reduce
from lefschetz.universality import mcg_surjectivity_oracle, universality_report
from lefschetz.witness import (
    ImmersionWitness,
    MeridianPlan,
    PlanEntry,
    pullback,
    substitution_witness,
)
from reference_kernel import mat_det
from reference_kernel import smith_normal_form as reference_snf


def _passed(line: str) -> None:
    print(line)


def _space(f):
    r = total_space_invariants(f)
    return (r.euler, r.h1_free_rank, r.h1_torsion, r.h2_rank)


def test_ac1_census():
    for g in range(0, 7):
        for b in range(1, 9):
            s = SurfaceSpec(g, b)
            assert len(enumerate_classes(s)) == class_count(s), (g, b)
    assert class_count(SurfaceSpec(1, 1)) == 1
    assert class_count(SurfaceSpec(0, 4)) == 2
    assert class_count(SurfaceSpec(2, 3)) == 4
    assert class_count(SurfaceSpec(1, 0)) == 1
    _passed("AC-1 PASS: census formula matches enumeration for g<=6, b<=8")


def test_ac2_torus_boundary_model():
    f = u_11()
    assert _space(f) == (1, 0, (), 0)  # the 4-ball
    r = reduce(f)
    assert r.steps == 2
    assert r.fibration.fiber == SurfaceSpec(0, 1)
    assert r.fibration.size == 0
    assert not r.exhausted
    _passed("AC-2 PASS: u_11 has 4-ball invariants and reduces in 2 steps")


def test_ac3_higher_genus_models():
    for g in range(2, 6):
        f = u_g1(g)
        assert _space(f) == (2, 0, (), 1), g  # unknot with framing +1
        r = reduce(f)
        assert r.fibration.fiber == SurfaceSpec(0, 3), g
        assert r.fibration.size == 3, g
        assert sorted(r.fibration.signs()) == [-1, -1, 1], g
        assert not r.exhausted
    _passed("AC-3 PASS: u_g1 (g=2..5) invariants and 3-cycle terminal reduction")


def test_ac4_closed_torus_model():
    assert _space(u_10()) == (2, 0, (), 1)  # 0-framed knot handle
    _passed("AC-4 PASS: u_10 invariants match a 0-framed handle attachment")


def test_ac5_universality_verdicts():
    for f in [u_11(), u_g1(2), u_g1(3), u_g1(4), u_g1(5), u_10()]:
        r = universality_report(f)
        assert r.cond_lef.certified
        assert r.strongly_universal == "yes"
    for g in (1, 2, 3):
        r = universality_report(p_g(g))
        assert r.cond_lef.certified
        assert r.cond2 and not r.cond2strong
        assert r.universal == "yes" and r.strongly_universal == "no"
    assert _space(p_g(1)) == (1, 0, (), 0)
    for g in (2, 3):
        assert _space(p_g(g)) == (2, 0, (), 1)
    _passed("AC-5 PASS: strong universality verdicts and positive-family invariants")


def test_ac6_permutation_condition():
    fib = SurfaceSpec(1, 2)
    cycles = (
        SignedCycle(nonseparating_curve(fib, (1, 0, 0), "a"), 1),
        SignedCycle(nonseparating_curve(fib, (0, 1, 0), "b"), -1),
    )
    over_disk = LefschetzFibration(fib, DISK, cycles)
    assert universality_report(over_disk).cond_perm is False

    swap = boundary_permutation_gen(fib, (1, 0), "swap")
    over_annulus = LefschetzFibration(fib, ANNULUS, cycles, (swap,))
    assert universality_report(over_annulus).cond_perm is True
    _passed("AC-6 PASS: boundary-permutation condition needs the annulus for b=2")


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


def move_trials(count):
    """AC-7's seeded trials, the first ``count`` of them: each yields a random
    fibration after 1-20 random Hurwitz moves and one-letter conjugations,
    its twist product conjugated by each word, and its report before the
    moves."""
    rng = random.Random(170_000)
    for _ in range(count):
        while True:
            s = SurfaceSpec(rng.randint(0, 3), rng.randint(0, 4))
            if 1 <= s.rank <= 8 and (s.genus >= 1 or s.boundary >= 2):
                break
        n = rng.randint(1, 10)
        f = LefschetzFibration(
            s, DISK,
            tuple(SignedCycle(_random_curve(rng, s), rng.choice((1, -1)))
                  for _ in range(n)),
        )
        report0 = total_space_invariants(f)
        expected = twist_product(f)
        for _ in range(rng.randint(1, 20)):
            if f.size >= 2 and rng.random() < 0.8:
                f = hurwitz_move(f, rng.randint(1, f.size - 1), rng.choice("LR"))
            else:
                w = MCWord(
                    s, (Letter(TwistGen(_random_curve(rng, s)), rng.choice((1, -1))),))
                f = global_conjugate(f, w)
                wm = evaluate(w).matrix
                wi = evaluate(w.inverse()).matrix
                expected = mat_mul(wm, mat_mul(expected, wi))
        yield f, expected, report0


def test_ac7_move_invariance():
    for f, expected, report0 in move_trials(1000):
        assert twist_product(f) == expected
        assert total_space_invariants(f) == report0
    _passed("AC-7 PASS: 1000 move/conjugation trials preserve report and product")


def test_ac8_witness_round_trips():
    rng = random.Random(888)
    u = u_g1(2)
    letters = []
    for c in [cy.curve for cy in u.cycles]:
        letters.append(Letter(TwistGen(c, "right")))
        letters.append(Letter(TwistGen(c, "left")))
    for trial in range(50):
        if trial % 2 == 0:
            w = MCWord(
                u.fiber, tuple(rng.choice(letters) for _ in range(rng.randint(1, 3))))
            target = global_conjugate(u, w)
        else:
            entries = []
            for i in range(u.size):
                w = MCWord(
                    u.fiber,
                    tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))))
                entries.append(PlanEntry(i, w, 1))
            target = pullback(u, MeridianPlan(tuple(entries)))
        plan = substitution_witness(u, target, 4)
        assert plan is not None, trial
        # targets are built sign-preservingly, so an immersion must be found
        assert isinstance(plan, ImmersionWitness), trial
        back = pullback(u, plan)
        for got, want in zip(back.cycles, target.cycles):
            assert got.curve.cls == want.curve.cls
            assert got.curve.hom == want.curve.hom
            assert got.sign == want.sign
    _passed("AC-8 PASS: 50 witness searches, immersion plans, exact round trips")


def test_ac9_algebra_kernel():
    rng = random.Random(909)
    for _ in range(100):
        s = SurfaceSpec(rng.randint(1, 3), rng.randint(0, 3))
        while True:
            v = tuple(rng.randint(-4, 4) for _ in range(s.rank))
            if not in_radical(s, v) and vec_gcd(v) == 1:
                break
        c = nonseparating_curve(s, v)
        for handed in ("right", "left"):
            assert preserves_pairing(s, twist_matrix(c, handed))

    for _ in range(10):
        m = rng.randint(1, 20)
        n = rng.randint(1, 20)
        a = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m))
        snf = reference_snf(a)
        assert mat_mul(mat_mul(snf.u, a), snf.v) == snf.d
        assert abs(mat_det(snf.u)) == 1
        assert abs(mat_det(snf.v)) == 1
        diag = snf.diagonal()
        assert smith_normal_form(a) == diag
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x > 0 and y >= 0 and y % x == 0)

    s = SurfaceSpec(2, 1)
    lone = [TwistGen(nonseparating_curve(s, (1, 0, 0, 0), "a1"))]
    verdict = mcg_surjectivity_oracle(lone, s)
    assert verdict.obstructed and "mod-2" in verdict.detail

    for g, b in [(1, 1), (1, 0), (2, 1), (3, 1), (4, 1), (5, 1)]:
        fiber = SurfaceSpec(g, b)
        twists = [TwistGen(c) for c in twist_catalog(fiber)]
        assert mcg_surjectivity_oracle(twists, fiber).certified
    _passed("AC-9 PASS: pairing preservation, SNF identities, mod-p obstruction")
