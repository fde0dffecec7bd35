"""The in-process workloads: ``algebra``, ``oracle`` and ``search``.

Each workload is a closed loop: one caller, one operation at a time.  Its
operations come from the workload seed only.  A run executes the per-run
operations once, then whole rounds of operations until the time is up; every
round has the same composition, so the share of failed and undecided
operations does not depend on the seed or on how many rounds fit.

Library calls go through module attributes (``fib.reduce``, not a bound
name), so the wrappers of :mod:`tracing` see them in traced runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import lefschetz.fibration as fib
import lefschetz.homology as hom
import lefschetz.mapping as mapping
from lefschetz.curves import nonseparating_curve, separating_curve
from lefschetz.fibration import DISK, BaseSurface, LefschetzFibration, SignedCycle
from lefschetz.homology import SurfaceSpec, in_radical, vec_gcd
from lefschetz.mapping import Letter, MCWord, TwistGen


@dataclass
class Op:
    """One timed operation and the checks made on its result, untimed.

    ``undecided`` is None for operations without a budget; otherwise it says
    whether the budgeted call gave up.  ``known_defect`` marks inputs the
    program is known to mishandle today: they still count as failed when
    they fail, but do not make the run incorrect.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    undecided: Callable[[Any], bool] | None = None
    known_defect: bool = False


def round_rng(workload: str, seed: int, k: int | str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _pairing(x, y) -> int:
    """Intersection pairing, written out here so that checks do not rely on
    the library code they check."""
    return sum(x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i]
               for i in range(len(x) // 2))


def random_curve(rng: random.Random, s: SurfaceSpec, spread: int = 3):
    """A seeded essential curve: non-separating when possible, else separating."""
    if s.genus >= 1 and (s.boundary < 2 or rng.random() < 0.75):
        while True:
            v = tuple(rng.randint(-spread, spread) for _ in range(s.rank))
            if not in_radical(s, v) and vec_gcd(v) == 1:
                return nonseparating_curve(s, v, "r")
    size = rng.randint(1, s.boundary - 1)
    subset = frozenset(rng.sample(range(1, s.boundary + 1), size))
    g_in = rng.randint(0, s.genus)
    return separating_curve(s, subset, (g_in, s.genus - g_in), "r")


def conjugated_catalog(rng: random.Random, s: SurfaceSpec, length: int):
    """The catalog curves moved by a random catalog word that does not map
    the catalog classes onto themselves.

    A conjugated catalog that happened to land on the catalog (up to sign)
    would be certified at once; redrawing keeps the cost and the verdict of
    every slot independent of the seed.
    """
    catalog = mapping.twist_catalog(s)
    letters = [Letter(TwistGen(c, h), p)
               for c in catalog for h in ("right", "left") for p in (1, -1)]
    home = {c.hom for c in catalog} | {tuple(-x for x in c.hom) for c in catalog}
    while True:
        w = MCWord(s, tuple(rng.choice(letters) for _ in range(length)))
        rep = mapping.evaluate(w)
        moved = [mapping.act_on_curve(rep, c) for c in catalog]
        if not all(c.hom in home for c in moved):
            return moved


# ---------------------------------------------------------------------------
# algebra: AC-7-style move trials plus large fibrations
# ---------------------------------------------------------------------------

LARGE_PER_RUN = 2
LARGE_GENUS = 20         # fiber F(20, 1), rank 40
LARGE_CYCLES = 200
TRIALS_PER_ROUND = 100


def _trial_input(rng: random.Random):
    while True:
        s = SurfaceSpec(rng.randint(0, 3), rng.randint(0, 4))
        if 1 <= s.rank <= 8 and (s.genus >= 1 or s.boundary >= 2):
            break
    cycles = tuple(SignedCycle(random_curve(rng, s), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 10)))
    moves = []
    for _ in range(rng.randint(1, 20)):
        if len(cycles) >= 2 and rng.random() < 0.8:
            moves.append(("H", rng.randint(1, len(cycles) - 1), rng.choice("LR")))
        else:
            letter = Letter(TwistGen(random_curve(rng, s)), rng.choice((1, -1)))
            moves.append(("C", MCWord(s, (letter,))))
    return s, cycles, moves


def _move_trial(s, cycles, moves):
    f = LefschetzFibration(s, DISK, cycles)
    report0 = fib.total_space_invariants(f)
    expected = fib.twist_product(f)
    for move in moves:
        if move[0] == "H":
            f = fib.hurwitz_move(f, move[1], move[2])
        else:
            w = move[1]
            f = fib.global_conjugate(f, w)
            wm = mapping.evaluate(w).matrix
            wi = mapping.evaluate(w.inverse()).matrix
            expected = hom.mat_mul(wm, hom.mat_mul(expected, wi))
    return report0, expected, fib.twist_product(f), fib.total_space_invariants(f)


def _trial_op(rng: random.Random) -> Op:
    s, cycles, moves = _trial_input(rng)
    return Op(
        "move_trial",
        lambda: _move_trial(s, cycles, moves),
        lambda r: r[0] == r[3] and r[1] == r[2],
    )


def _large_op(rng: random.Random) -> Op:
    """Catalog curves plus random ones on F(20,1).

    The catalog spans H1, so by construction the boundary matrix has full
    rank 40 and no torsion; the twist product is checked against the cycles
    applied one transvection at a time to a random vector.
    """
    s = SurfaceSpec(LARGE_GENUS, 1)
    curves_ = list(mapping.twist_catalog(s))
    while len(curves_) < LARGE_CYCLES:
        v = tuple(rng.randint(-2, 2) for _ in range(s.rank))
        if not in_radical(s, v) and vec_gcd(v) == 1:
            curves_.append(nonseparating_curve(s, v, "r"))
    rng.shuffle(curves_)
    cycles = tuple(SignedCycle(c, rng.choice((1, -1))) for c in curves_)
    f = LefschetzFibration(s, DISK, cycles)
    probe = tuple(rng.randint(-5, 5) for _ in range(s.rank))
    n = len(cycles)
    positive = sum(1 for c in cycles if c.sign > 0)
    want = fib.InvariantReport(
        euler=s.euler + n, h1_free_rank=0, h1_torsion=(), h2_rank=n - s.rank,
        positive=positive, negative=n - positive)

    def check(result) -> bool:
        product, report = result
        x = probe
        for c in reversed(cycles):
            k = c.sign * _pairing(c.curve.hom, x)
            x = tuple(a + k * b for a, b in zip(x, c.curve.hom))
        return (report == want and hom.mat_vec(product, probe) == x
                and hom.preserves_pairing(s, product))

    return Op("large_fibration",
              lambda: (fib.twist_product(f), fib.total_space_invariants(f)), check)


class Algebra:
    name = "algebra"
    trace_rounds = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def per_run_ops(self) -> list[Op]:
        rng = round_rng(self.name, self.seed, "large")
        return [_large_op(rng) for _ in range(LARGE_PER_RUN)]

    def round_ops(self, k: int) -> list[Op]:
        rng = round_rng(self.name, self.seed, k)
        return [_trial_op(rng) for _ in range(TRIALS_PER_ROUND)]


# ---------------------------------------------------------------------------
# oracle: the three-verdict surjectivity oracle and universality reports
# ---------------------------------------------------------------------------

# (genus, catalog positions removed).  The cost of a slot is the order of
# the group its twists generate mod p, which conjugation does not change;
# slots whose closure alone takes seconds are left out, except the one
# full-group g=2 set per run.  The mix puts the median latency inside the
# cluster of g=2 single removals (about 5 ms here) and the 90th percentile
# inside the cluster of g=3 sets of order 720-5040 mod 2 (about 250 ms), so
# that neither sits in a gap between costs.
ORACLE_SLOTS = [
    (1, ()), (1, ()), (1, ()), (1, (0,)), (1, (1,)), (1, (0,)), (1, (1,)),
    (2, (0,)), (2, (1,)), (2, (2,)), (2, (3,)), (2, (4,)), (2, (2,)), (2, (3,)),
    (2, (0, 1)), (2, (1, 3)), (2, (2, 4)), (2, (0, 4)),
    (2, (0, 1, 2)), (2, (2, 3, 4)),
    (3, (3,)), (3, (5,)), (3, (6,)),
    (3, (0, 1)), (3, (1, 4)), (3, (0, 1)), (3, (1, 4)),
    (3, (0, 5)), (3, (2, 3)), (3, (3, 5)),
    (3, (0, 1, 2)), (3, (1, 2, 3)), (3, (2, 4, 6)), (3, (0, 3, 6)),
]

# (base boundary circles, fiber genus, fiber boundary, permutations, all curve types)
UNIVERSALITY_SLOTS = [
    (2, 0, 2, "full", True),
    (2, 1, 2, "full", True),
    (2, 1, 3, "cyclic", True),
    (3, 0, 5, "full", True),
    (3, 1, 6, "full", False),
    (3, 0, 8, "even", True),
    (3, 1, 10, "full", True),
    (3, 0, 10, "fixed", True),
]


def _oracle_op(rng: random.Random, g: int, removed: tuple[int, ...],
               seen: dict, primes=(2, 3, 5)) -> Op:
    s = SurfaceSpec(g, 1)
    moved = conjugated_catalog(rng, s, rng.randint(3, 6))
    twists = [TwistGen(c, rng.choice(("right", "left")))
              for i, c in enumerate(moved) if i not in removed]
    slot = (g, removed, primes)

    def check(v) -> bool:
        # Removed curves: fewer than 2g+1 twists (2 on the torus) never
        # generate the mapping class group (Humphries).  Full catalog: it
        # does, so it is never obstructed.  A slot's verdict depends only on
        # the group orders mod p, which conjugation preserves.
        sound = v.status != ("certified" if removed else "obstructed")
        return sound and seen.setdefault(slot, v.status) == v.status

    return Op("oracle",
              lambda: mapping.mcg_surjectivity_oracle(twists, s, primes),
              check, undecided=lambda v: v.status == "unknown")


def _permutations(rng: random.Random, b: int, kind: str, count: int):
    """Seeded boundary permutations whose group is known by construction."""
    sigma = list(range(b))
    rng.shuffle(sigma)

    def conj(p):  # sigma p sigma^-1
        out = [0] * b
        for i in range(b):
            out[sigma[i]] = sigma[p[i]]
        return tuple(out)

    cycle = tuple((i + 1) % b for i in range(b))
    swap = (1, 0) + tuple(range(2, b))
    if kind == "full":  # a transposition and a b-cycle generate S_b
        perms, full = ([swap, cycle] if count == 2 else [swap]), True
    elif kind == "cyclic":  # one b-cycle, b >= 3: cyclic, not S_b
        perms, full = [cycle], False
    elif kind == "even":  # two 3-cycles: inside A_b
        perms = [(1, 2, 0) + tuple(range(3, b)), (0, 1) + (3, 4, 2) + tuple(range(5, b))]
        full = False
    else:  # "fixed": both fix point 0, so at most S_{b-1}
        rest = tuple(range(1, b))
        perms = [(0, 2, 1) + tuple(range(3, b)), (0,) + rest[1:] + rest[:1]]
        full = False
    return [conj(p) for p in perms], full


def _curve_types(g: int, b: int) -> list:
    """Every curve type of F(g, b), b >= 2: None for the non-separating type,
    (g1, b1) for the separating type with one side of genus g1 and b1 circles."""
    types = [None] if g >= 1 else []
    seen = set()
    for g1 in range(g + 1):
        for b1 in range(1, b):
            key = tuple(sorted(((g1, b1), (g - g1, b - b1))))
            if key not in seen:
                seen.add(key)
                types.append((g1, b1))
    return types


def _universality_op(rng: random.Random, slot) -> Op:
    base_b, g, b, perm_kind, complete = slot
    s = SurfaceSpec(g, b)
    base = BaseSurface(0, base_b)
    perms, perm_full = _permutations(rng, b, perm_kind, base.free_loop_count)
    bundle = tuple(mapping.boundary_permutation_gen(s, p, f"x{i}")
                   for i, p in enumerate(perms))
    types = _curve_types(g, b)
    if not complete:
        types.remove(rng.choice(types))
    curve_list = []
    for t in types:
        if t is None:
            # a and b moved by one seeded word: together they still span
            rep = mapping.evaluate(MCWord(s, tuple(
                Letter(TwistGen(nonseparating_curve(s, s.basis_vector(rng.randint(0, 1)))),
                       rng.choice((1, -1)))
                for _ in range(rng.randint(1, 4)))))
            for k in (0, 1):
                curve_list.append((t, mapping.act_on_curve(
                    rep, nonseparating_curve(s, s.basis_vector(k), "ab"[k]))))
        else:
            g1, b1 = t
            subset = frozenset(rng.sample(range(1, b + 1), b1))
            curve_list.append((t, separating_curve(s, subset, (g1, g - g1), "s")))
    cycles = tuple(SignedCycle(c, rng.choice((1, -1))) for _, c in curve_list)
    f = LefschetzFibration(s, base, cycles, bundle)
    signs: dict = {}
    for (t, _), cyc in zip(curve_list, cycles):
        key = None if t is None else tuple(sorted((t, (g - t[0], b - t[1]))))
        signs.setdefault(key, set()).add(cyc.sign)
    strong = complete and all(v == {1, -1} for v in signs.values())

    def check(r) -> bool:
        if (r.cond_perm, r.cond2, r.cond2strong) != (perm_full, complete, strong):
            return False
        if r.cond_lef.status == "certified":  # the catalog has no b >= 2 entry
            return False
        return r.universal == "no" if not (perm_full and complete) else True

    return Op("universality", lambda: fib.universality_report(f), check,
              undecided=lambda r: r.universal == "unknown")


class Oracle:
    name = "oracle"
    trace_rounds = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.verdicts: dict = {}

    def per_run_ops(self) -> list[Op]:
        rng = round_rng(self.name, self.seed, "full")
        return [_oracle_op(rng, 2, (), self.verdicts, primes=(2, 3))]

    def round_ops(self, k: int) -> list[Op]:
        rng = round_rng(self.name, self.seed, k)
        ops = [_oracle_op(rng, g, removed, self.verdicts) for g, removed in ORACLE_SLOTS]
        ops += [_universality_op(rng, slot) for slot in UNIVERSALITY_SLOTS]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# search: witness search and reduce
# ---------------------------------------------------------------------------

REDUCE_GENERA = range(2, 13)
LARGE_BUDGET = 10**6
WITNESS_DEPTH = 4
# witness searches per round and source genus; they put the median latency
# inside their dense cluster of short searches, away from the sparse reduce costs
WITNESSES = {2: 40, 3: 20}
# (genus of u_g1, depth) for targets with no witness within the depth
UNREACHABLE = [(2, 4), (3, 3)]


def _space(f: LefschetzFibration) -> tuple:
    r = fib.total_space_invariants(f)
    return r.euler, r.h1_free_rank, r.h1_torsion, r.h2_rank


def _reduce_op(f: LefschetzFibration, budget: int | None = None) -> Op:
    def run():
        return fib.reduce(f) if budget is None else fib.reduce(f, budget)

    def check(r) -> bool:
        # destabilization removes cycles, so only the total space is compared
        if _space(r.fibration) != _space(f):
            return False
        # with a large budget the search completes, down to the 3-cycle pants
        return budget is None or (not r.exhausted and r.fibration.fiber == SurfaceSpec(0, 3))

    return Op("reduce", run, check, undecided=lambda r: r.exhausted)


def _same_cycles(a: LefschetzFibration, b: LefschetzFibration) -> bool:
    return [(c.curve.cls, c.curve.hom, c.sign) for c in a.cycles] == [
        (c.curve.cls, c.curve.hom, c.sign) for c in b.cycles]


def random_word(rng: random.Random, u: LefschetzFibration, lo: int, hi: int) -> MCWord:
    """A word of lo..hi twists about the cycles of u, either handedness."""
    letters = [Letter(TwistGen(c.curve, h)) for c in u.cycles for h in ("right", "left")]
    return MCWord(u.fiber, tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi))))


def unreachable_target(rng: random.Random, u: LefschetzFibration, depth: int):
    """u_g1(g) with one cycle replaced by a class no word of length <= depth reaches.

    Every twist about a catalog curve at most triples the largest coordinate
    of a class (catalog classes have at most two nonzero entries, each +-1),
    and every source class has largest coordinate 1; so a class with a
    coordinate above 3**depth is out of reach and the whole word tree is
    enumerated.
    """
    s = u.fiber
    v = [rng.randint(-1, 1) for _ in range(s.rank)]
    big, unit = rng.sample(range(2 * s.genus), 2)
    v[big] = 3 ** depth + 1 + rng.randint(0, 5)
    v[unit] = 1
    cycles = list(u.cycles)
    cycles[rng.randrange(len(cycles))] = SignedCycle(
        nonseparating_curve(s, tuple(v), "far"), rng.choice((1, -1)))
    return LefschetzFibration(s, DISK, tuple(cycles))


def _witness_op(rng: random.Random, u: LefschetzFibration, by_plan: bool) -> Op:
    """A target reachable within the depth: a conjugate or a pullback of u."""
    if by_plan:
        plan = fib.MeridianPlan(tuple(
            fib.PlanEntry(i, random_word(rng, u, 0, 3), 1) for i in range(u.size)))
        target = fib.pullback(u, plan)
    else:
        target = fib.global_conjugate(u, random_word(rng, u, 1, 3))

    def check(plan) -> bool:
        return (isinstance(plan, fib.ImmersionWitness)
                and _same_cycles(fib.pullback(u, plan), target))

    return Op("witness", lambda: fib.substitution_witness(u, target, WITNESS_DEPTH),
              check, undecided=lambda p: p is None)


def _unreachable_op(rng: random.Random, u: LefschetzFibration, depth: int) -> Op:
    target = unreachable_target(rng, u, depth)
    return Op("witness_none", lambda: fib.substitution_witness(u, target, depth),
              lambda p: p is None, undecided=lambda p: p is None)


class Search:
    name = "search"
    trace_rounds = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sources = {g: fib.u_g1(g) for g in (2, 3)}

    def per_run_ops(self) -> list[Op]:
        return []

    def round_ops(self, k: int) -> list[Op]:
        rng = round_rng(self.name, self.seed, k)
        ops = []
        for family in (fib.u_g1, fib.p_g):
            for g in REDUCE_GENERA:
                f = family(g)
                ops.append(_reduce_op(f))
                ops.append(_reduce_op(fib.stabilize(f, "boundary_up", rng.choice((1, -1)))))
        ops.append(_reduce_op(fib.u_g1(10), LARGE_BUDGET))
        ops.append(_reduce_op(fib.p_g(9), LARGE_BUDGET))
        for g, u in self.sources.items():
            for i in range(WITNESSES[g]):
                ops.append(_witness_op(rng, u, by_plan=i % 2 == 1))
        for g, depth in UNREACHABLE:
            ops.append(_unreachable_op(rng, self.sources[g], depth))
        rng.shuffle(ops)
        return ops
