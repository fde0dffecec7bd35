"""Lefschetz fibrations over bounded base surfaces, as monodromy data.

A fibration is (fiber, base, ordered signed vanishing cycles, bundle
generators).  The cycle order is the order of a Hurwitz system of meridians;
the bundle generators are the monodromies of the base's free loops (none over
a disk).  Only allowable fibrations are representable: every cycle class is
essential, which also forces relative minimality.

Total-space invariants come from the handle decomposition: the total space
over a disk is (disk x fiber) with one 2-handle per vanishing cycle, so the
boundary matrix has one column per cycle class, plus one zero column for the
fiber 2-cell when the fiber is closed.

Stabilization attaches a fiber 1-handle together with one new vanishing
cycle crossing it once; destabilization removes both.  At homology
resolution the removable configurations are recognized by a sufficient
coefficient criterion on a single basis generator, documented at
:func:`destabilize`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

from .curves import Curve, CurveClass, enumerate_classes, subset_from_class
from .errors import CapacityError, InputError, NotApplicable, Unsupported
from .homology import (
    Matrix,
    SurfaceSpec,
    Vector,
    check_fiber_rank,
    cokernel_invariants,
    in_radical,
    mat_from_columns,
    mat_identity,
    mat_mul,
    vec_gcd,
)
from .mapping import (
    BundleGen,
    Letter,
    MCWord,
    SurjectivityVerdict,
    TwistGen,
    _pairing_inverse,
    act_on_curve,
    evaluate,
    mcg_surjectivity_oracle,
    perm_compose,
    perm_group_surjective,
    perm_inverse,
    transvect,
    twist_catalog,
    twist_covector,
    twist_right,
    twist_vector,
)


@dataclass(frozen=True)
class BaseSurface:
    """Compact oriented base surface with nonempty boundary."""

    genus: int
    boundary: int

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise InputError("base genus must be >= 0")
        if self.boundary < 1:
            raise InputError("base surfaces must have nonempty boundary")

    @property
    def free_loop_count(self) -> int:
        """Free generators of the fundamental group: 2h + d - 1."""
        return 2 * self.genus + self.boundary - 1


DISK = BaseSurface(0, 1)
ANNULUS = BaseSurface(0, 2)


@dataclass(frozen=True)
class SignedCycle:
    """Vanishing cycle with the sign of its singular point."""

    curve: Curve
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise InputError("cycle sign must be +-1")


@dataclass(frozen=True)
class LefschetzFibration:
    fiber: SurfaceSpec
    base: BaseSurface
    cycles: tuple[SignedCycle, ...]
    bundle: tuple[BundleGen, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycles", tuple(self.cycles))
        object.__setattr__(self, "bundle", tuple(self.bundle))
        for c in self.cycles:
            if c.curve.surface != self.fiber:
                raise InputError("vanishing cycle on the wrong surface")
        if len(self.bundle) != self.base.free_loop_count:
            raise InputError(
                f"base has {self.base.free_loop_count} free loops but "
                f"{len(self.bundle)} bundle generators were given")
        for bg in self.bundle:
            if bg.surface != self.fiber:
                raise InputError("bundle generator on the wrong surface")

    @property
    def size(self) -> int:
        return len(self.cycles)

    def signs(self) -> tuple[int, ...]:
        return tuple(c.sign for c in self.cycles)

    def twist_gens(self) -> list[TwistGen]:
        return [
            TwistGen(c.curve, "right" if c.sign > 0 else "left")
            for c in self.cycles
        ]


def _require_disk(f: LefschetzFibration, what: str) -> None:
    if f.base != DISK:
        raise Unsupported(f"{what} is only implemented over the disk")


def twist_product(f: LefschetzFibration) -> Matrix:
    """Ordered product of the signed twist matrices of the cycles."""
    acc = mat_identity(f.fiber.rank)
    for c in f.cycles:
        acc = twist_right(acc, c.curve, c.sign)
    return acc


# ---------------------------------------------------------------------------
# standard fibrations over the disk
# ---------------------------------------------------------------------------

def _catalog_fibration(fiber: SurfaceSpec, signs: tuple[int, ...]) -> LefschetzFibration:
    check_fiber_rank(fiber)
    curves = twist_catalog(fiber)
    if len(signs) != len(curves):
        raise InputError("sign count does not match the catalog")
    cycles = tuple(SignedCycle(c, s) for c, s in zip(curves, signs))
    return LefschetzFibration(fiber, DISK, cycles)


def u_g1(g: int) -> LefschetzFibration:
    """The (2g+1)-cycle fibration over the disk with fiber of genus g, one
    boundary circle, and signs (-, +, +...+, -, +...+) on the catalog
    configuration (b1 and c1 negative)."""
    if g < 2:
        raise InputError("u_g1 needs genus >= 2; use u_11 for genus one")
    signs = [1] * (2 * g + 1)
    signs[0] = -1          # b1
    signs[g + 2] = -1      # c1
    return _catalog_fibration(SurfaceSpec(g, 1), tuple(signs))


def u_11() -> LefschetzFibration:
    """Two cycles (a+, b-) on the one-holed torus."""
    return _catalog_fibration(SurfaceSpec(1, 1), (1, -1))


def u_10() -> LefschetzFibration:
    """Two cycles (a+, b-) on the closed torus."""
    return _catalog_fibration(SurfaceSpec(1, 0), (1, -1))


def p_g(g: int) -> LefschetzFibration:
    """All-positive twists on the catalog configuration (fiber F_{g,1})."""
    if g < 1:
        raise InputError("p_g needs genus >= 1")
    fiber = SurfaceSpec(g, 1)
    count = 2 if g == 1 else 2 * g + 1
    return _catalog_fibration(fiber, (1,) * count)


_BUILDERS = {
    "u_11": lambda g: u_11(),
    "u_10": lambda g: u_10(),
    "u_g1": lambda g: u_g1(_need_g("u_g1", g)),
    "p_g": lambda g: p_g(_need_g("p_g", g)),
}


def _need_g(name: str, g: int | None) -> int:
    if g is None:
        raise InputError(f"builder {name} needs a genus parameter")
    return g


def build(name: str, g: int | None = None) -> LefschetzFibration:
    """Construct a named standard fibration ("u_11", "u_10", "u_g1", "p_g").

    A fiber of H1 rank above MAX_FIBER_RANK is refused with CapacityError
    before its catalog is built.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise InputError(f"unknown fibration name {name!r}") from None
    return builder(g)


# ---------------------------------------------------------------------------
# total-space invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantReport:
    """Algebraic invariants of the total space of a fibration over the disk."""

    euler: int
    h1_free_rank: int
    h1_torsion: tuple[int, ...]
    h2_rank: int
    positive: int
    negative: int
    allowable: bool = True


def total_space_invariants(f: LefschetzFibration) -> InvariantReport:
    """Euler characteristic and H1, H2 of the total space over a disk.

    The boundary matrix of the 2-handles has one column per cycle class; a
    closed fiber contributes one extra zero column for its top cell.
    """
    _require_disk(f, "total_space_invariants")
    fiber = f.fiber
    cols: list[Vector] = [c.curve.hom for c in f.cycles]
    if fiber.boundary == 0:
        cols.append(fiber.zero())
    free, torsion = cokernel_invariants(mat_from_columns(cols, fiber.rank))
    report = InvariantReport(
        euler=fiber.euler + len(f.cycles),
        h1_free_rank=free,
        h1_torsion=torsion,
        h2_rank=len(cols) - (fiber.rank - free),
        positive=sum(1 for c in f.cycles if c.sign > 0),
        negative=sum(1 for c in f.cycles if c.sign < 0),
    )
    assert report.h2_rank >= 0
    return report


# ---------------------------------------------------------------------------
# Hurwitz moves and global conjugation
# ---------------------------------------------------------------------------

def hurwitz_move(f: LefschetzFibration, i: int, direction: str) -> LefschetzFibration:
    """Elementary change of Hurwitz system at position i (1-based, i < n).

    R:  (c_i^e, c_{i+1}^d)  ->  (c_{i+1}^d, (t_{c_{i+1}}^{-d}(c_i))^e)
    L is the inverse move.  Either way the evaluated product of the signed
    twist matrices is unchanged.  The moved class is the neighbor's twist
    applied to it directly, one transvection.
    """
    if direction not in ("L", "R"):
        raise InputError(f"direction must be 'L' or 'R', not {direction!r}")
    n = f.size
    if not 1 <= i < n:
        raise InputError(f"move position {i} out of range 1..{n - 1}")
    cyc = list(f.cycles)
    left, right = cyc[i - 1], cyc[i]
    if direction == "R":
        # conjugate by the inverse twist of the right neighbor
        twist, h, moving = right, -right.sign, left
    else:
        twist, h, moving = left, left.sign, right
    c = moving.curve
    moved = SignedCycle(
        Curve(c.surface, c.cls, twist_vector(c.hom, twist.curve, h), c.label), moving.sign)
    cyc[i - 1], cyc[i] = (right, moved) if direction == "R" else (moved, left)
    return replace(f, cycles=tuple(cyc))


def global_conjugate(f: LefschetzFibration, w: MCWord) -> LefschetzFibration:
    """Transport every cycle by w and conjugate the bundle generators.

    The inverse of w is taken in closed form from its evaluation, and only
    when there are bundle generators to conjugate (none over the disk).
    """
    if w.surface != f.fiber:
        raise InputError("conjugating word on the wrong surface")
    rep = evaluate(w)
    cycles = tuple(SignedCycle(act_on_curve(rep, c.curve), c.sign) for c in f.cycles)
    if not f.bundle:
        return LefschetzFibration(f.fiber, f.base, cycles)
    inv_matrix = _pairing_inverse(f.fiber, rep.matrix, rep.perm)
    inv_perm = perm_inverse(rep.perm)
    bundle = tuple(
        BundleGen(
            f.fiber,
            mat_mul(rep.matrix, mat_mul(bg.matrix, inv_matrix)),
            perm_compose(rep.perm, perm_compose(bg.perm, inv_perm)),
            bg.label,
        )
        for bg in f.bundle
    )
    return LefschetzFibration(f.fiber, f.base, cycles, bundle)


# ---------------------------------------------------------------------------
# stabilization and destabilization
# ---------------------------------------------------------------------------

def _away(curve: Curve) -> int:
    """Boundary circles on the side of a separating curve away from the last one."""
    return sum(map(abs, curve.hom[2 * curve.surface.genus:]))


def _forced_split(t: int, g: int, b: int) -> CurveClass | None:
    """The one type of a separating curve cutting t of the b boundary circles
    off a genus-g surface, or None when its genus split is ambiguous: only
    g == 0, and g == 1 with two equal sides, leave one split."""
    if g == 0 or (g == 1 and 2 * t == b):
        return CurveClass.separating((0, t), (g, b - t))
    return None


def _transport_curve(curve: Curve, new_surface: SurfaceSpec, new_hom: Vector) -> Curve:
    """Re-coordinatized curve after a handle move, with reclassification.

    A class outside the boundary lattice is non-separating.  A separating
    curve keeps its side away from the last boundary circle, which no handle
    move touches: a recorded side (p_g, p_b) qualifies when p_b counts the
    old circles away from the last one, p_g <= G and p_b < B on the new
    fiber F(G, B), whose remainder (G - p_g, B - p_b) is the other side.  A
    non-separating curve whose class falls into the boundary lattice has
    become separating and may take any genus split of its boundary subset.
    The move is refused unless exactly one type qualifies (see
    :func:`_forced_split` for a newly separating curve).
    """
    if not in_radical(new_surface, new_hom):
        if vec_gcd(new_hom) != 1:
            raise NotApplicable("transported class is imprimitive")
        return Curve(new_surface, CurveClass.nonseparating(), new_hom, curve.label)
    G, B = new_surface.genus, new_surface.boundary
    if curve.cls.is_separating:
        away = _away(curve)
        candidates = {
            CurveClass.separating((p_g, p_b), (G - p_g, B - p_b))
            for p_g, p_b in curve.cls.sides if p_b == away and p_g <= G and p_b < B
        }
        if len(candidates) != 1:
            raise NotApplicable(
                f"side data of separating cycle {curve.label or curve.hom} "
                "cannot be transported unambiguously at homology resolution")
        cls = candidates.pop()
    else:
        subset = subset_from_class(new_surface, new_hom)
        if subset is None:
            raise NotApplicable(
                "transported class is boundary-type but not a subset class")
        cls = _forced_split(len(subset), G, B)
        if cls is None:
            raise NotApplicable("genus split of a newly separating cycle is ambiguous")
    return Curve(new_surface, cls, new_hom, curve.label)


def stabilize(f: LefschetzFibration, mode: str, sign: int = 1) -> LefschetzFibration:
    """Attach a fiber 1-handle and one new cycle crossing it once.

    boundary_up: both handle feet on the last boundary circle, which splits;
    the fiber goes (g, b) -> (g, b+1) and the new cycle is parallel to the
    split-off circle (class d_{b}, a separating curve).

    genus_up: feet on the last two boundary circles, which merge; the fiber
    goes (g, b) -> (g+1, b-1) and the new cycle is the new handle's
    longitude (class b_{g+1}).  Requires b >= 2.

    The total space is unchanged either way.
    """
    _require_disk(f, "stabilize")
    if sign not in (1, -1):
        raise InputError("sign must be +-1")
    g, b = f.fiber.genus, f.fiber.boundary
    if mode == "boundary_up":
        if b < 1:
            raise InputError("boundary_up needs a fiber with boundary")
        new_surface = SurfaceSpec(g, b + 1)

        def remap(v: Vector) -> Vector:
            return v + (0,)

        new_hom = new_surface.basis_vector(new_surface.rank - 1)
        new_cls = CurveClass.separating((0, 1), (g, b))
    elif mode == "genus_up":
        if b < 2:
            raise InputError("genus_up merges two boundary circles; need b >= 2")
        new_surface = SurfaceSpec(g + 1, b - 1)
        last_delta = 2 * g + (b - 2)
        for c in f.cycles:
            if c.curve.cls.is_separating and c.curve.hom[last_delta] != 0:
                # The merged circles sit on opposite sides, so the cycle
                # becomes non-separating.  Allowed only when the matching
                # destabilization can reclassify it unambiguously.
                if _forced_split(_away(c.curve), g, b) != c.curve.cls:
                    raise NotApplicable(
                        f"cycle {c.curve.label or c.curve.hom} separates the "
                        "two circles being merged and could not be recovered")

        def remap(v: Vector) -> Vector:
            return v[: 2 * g] + (v[last_delta], 0) + v[2 * g: last_delta]

        new_hom = new_surface.basis_vector(new_surface.beta_index(g + 1))
        new_cls = CurveClass.nonseparating()
    else:
        raise InputError(f"unknown stabilization mode {mode!r}")

    cycles = [
        SignedCycle(_transport_curve(c.curve, new_surface, remap(c.curve.hom)), c.sign)
        for c in f.cycles
    ]
    cycles.append(SignedCycle(Curve(new_surface, new_cls, new_hom, "stab"), sign))
    return LefschetzFibration(new_surface, DISK, tuple(cycles))


def destabilize(f: LefschetzFibration, generator_index: int) -> LefschetzFibration:
    """Remove a cancelling handle pair recognized on one basis generator.

    Applicability criterion (sufficient, not necessary): exactly one cycle
    has coefficient +-1 on the designated generator and every other cycle
    has coefficient 0 there.  That cycle is removed.  If the generator is an
    a_i/b_i the fiber loses the handle, (g, b) -> (g-1, b+1), and the
    surviving partner generator becomes the new last boundary class; if it
    is a d_j the j-th boundary circle merges with the last one,
    (g, b) -> (g, b-1).  Surviving classes are re-coordinatized by the
    inverse of the corresponding stabilization map, which leaves the
    total-space invariants unchanged.

    Raises NotApplicable when the criterion fails, when the fiber is closed
    (no destabilizing arc exists), or when a surviving separating cycle's
    side data cannot be transported unambiguously.
    """
    _require_disk(f, "destabilize")
    rank = f.fiber.rank
    if not 0 <= generator_index < rank:
        raise InputError(f"generator index {generator_index} out of range 0..{rank - 1}")
    table = _ClassTable()
    ids = tuple(map(table.intern, (c.curve for c in f.cycles)))
    removed = table.crossings(ids, rank)[generator_index]
    surface, child = _destabilized(f.fiber, ids, generator_index, removed, table, f.cycles)
    return table.fibration(surface, child, f.cycles[:removed] + f.cycles[removed + 1:])


class _ClassTable:
    """One call's cycle classes, interned as ids of curves up to their label,
    and ``moves``: generator -> class id -> child's id, None if refused."""

    def __init__(self) -> None:
        self.curves, self.ids, self.moves, self.transports = [], {}, {}, {}

    def intern(self, curve: Curve) -> int:
        cid = self.ids.setdefault(curve, len(self.curves))
        if cid == len(self.curves):
            self.curves.append(curve)
        return cid

    def crossings(self, ids: tuple[int, ...], rank: int) -> list[int | None]:
        """Per generator, the one cycle with a nonzero coefficient there, if +-1."""
        out: list[int | None] = [None] * rank
        for gi, col in enumerate(zip(*(self.curves[cid].hom for cid in ids))):
            if col.count(0) == len(ids) - 1:
                out[gi] = col.index(1) if 1 in col else col.index(-1) if -1 in col else None
        return out

    def transport(self, cid: int, new_surface: SurfaceSpec, new_hom: Vector) -> int | None:
        """The child's id by :func:`_transport_curve`, keyed on all it reads bar the label a
        refusal names: type, circles away from the last one if separating, new fiber, class."""
        c = self.curves[cid]
        key = (c.cls, c.cls.is_separating and _away(c), new_surface, new_hom)
        if key not in self.transports:
            try:
                self.transports[key] = self.intern(_transport_curve(c, new_surface, new_hom))
            except NotApplicable:
                self.transports[key] = None
        return self.transports[key]

    def fibration(self, surface: SurfaceSpec, ids: tuple[int, ...],
                  origins: tuple[SignedCycle, ...]) -> LefschetzFibration:
        return LefschetzFibration(surface, DISK, tuple(
            SignedCycle(replace(self.curves[cid], label=o.curve.label), o.sign)
            for cid, o in zip(ids, origins)))


def _destabilized(surface: SurfaceSpec, ids: tuple[int, ...], generator_index: int,
                  removed: int | None, table: _ClassTable,
                  cycles: tuple[SignedCycle, ...] = ()) -> tuple[SurfaceSpec, tuple[int, ...]]:
    """The kernel of :func:`destabilize` and :func:`reduce`: the new fiber and
    surviving class ids, given the generator's entry of the state's crossings,
    or NotApplicable, named after the refusing one of ``cycles`` if given."""
    if removed is None:
        raise NotApplicable(
            f"generator {generator_index} is not crossed exactly once by "
            "exactly one cycle")
    g, b = surface.genus, surface.boundary
    if generator_index < 2 * g:
        if b < 1:
            raise NotApplicable("a closed fiber admits no destabilizing arc")
        a = generator_index & ~1  # the handle's a_i; the partner stays as the new d_b
        new_surface = SurfaceSpec(g - 1, b + 1)

        def remap(v: Vector) -> Vector:
            return v[:a] + v[a + 2:] + (v[generator_index ^ 1],)
    else:
        j = generator_index - 2 * g + 1  # 1-based boundary class number
        new_surface = SurfaceSpec(g, b - 1)

        def remap(v: Vector) -> Vector:
            vb = v[2 * g + b - 2]  # the last stored boundary class
            return v[: 2 * g] + tuple(
                -vb if k == j else v[2 * g + k - 1] - vb for k in range(1, b - 1))

    row = table.moves.setdefault(generator_index, {})
    kept = ids[:removed] + ids[removed + 1:]
    for k, cid in enumerate(kept):
        if cid not in row:
            row[cid] = table.transport(cid, new_surface, remap(table.curves[cid].hom))
        if row[cid] is None:
            if cycles:  # repeat it on the cycle itself, whose label the message names
                c = cycles[k + (k >= removed)].curve
                _transport_curve(c, new_surface, remap(c.hom))
            raise NotApplicable("a surviving cycle cannot be transported")
    return new_surface, tuple(map(row.__getitem__, kept))


@dataclass(frozen=True)
class ReduceResult:
    """Outcome of :func:`reduce`.

    ``explored`` counts the successful destabilizations tried, which the
    budget bounds; ``states`` counts the distinct fibrations discovered,
    the input included.
    """

    fibration: LefschetzFibration
    steps: int
    exhausted: bool
    explored: int = 0
    states: int = 1


def reduce(f: LefschetzFibration, budget: int = 200) -> ReduceResult:
    """Deterministic search for a maximally destabilized fibration.

    Breadth-first over the states reachable by applicable destabilizations,
    expanding generator indices in ascending order (a greedy chain alone can
    dead-end: removing a middle handle may leave two cycles sharing the new
    boundary class).  Each destabilization lowers the fiber rank and the
    cycle count by one, so the first state found at the deepest level has
    minimal rank, then minimal cycle count; it is returned, and ``steps``
    is the rank it lost.  The budget bounds the number of successful
    destabilizations explored; if it runs out the best state found so far
    is returned flagged ``exhausted``.

    A state is its fiber, its cycles' class ids (see :class:`_ClassTable`)
    and each cycle's input position, which fixes its sign and label.  Each
    transport is computed once per call, memoised by what it reads; the
    results are those of calling :func:`destabilize` on every state.  A
    negative budget is refused with InputError before any other check.
    """
    if budget < 0:
        raise InputError("budget must be >= 0")
    if f.fiber.rank > 0 and budget > 0:
        _require_disk(f, "destabilize")  # raised by the first destabilization
    table = _ClassTable()
    signs = f.signs()
    ids = tuple(map(table.intern, (c.curve for c in f.cycles)))
    seen = {(f.fiber.genus, f.fiber.boundary, tuple(zip(ids, signs)))}
    queue = [(f.fiber, ids, tuple(range(f.size)))]
    edges, exhausted = 0, False
    for surface, ids, origins in queue:  # the queue grows while it is walked
        if exhausted:
            break
        for gi, removed in enumerate(table.crossings(ids, surface.rank)):
            if edges >= budget:
                exhausted = True
                break
            if removed is None:
                continue
            try:
                new_surface, child = _destabilized(surface, ids, gi, removed, table)
            except NotApplicable:
                continue
            edges += 1
            kept = origins[:removed] + origins[removed + 1:]
            key = (new_surface.genus, new_surface.boundary,
                   tuple(zip(child, map(signs.__getitem__, kept))))
            if key not in seen:
                seen.add(key)
                queue.append((new_surface, child, kept))
    # depth is the rank lost and never falls along the queue: the last is deepest
    deepest = queue[-1][0].rank
    surface, ids, origins = next(state for state in queue if state[0].rank == deepest)
    steps = f.fiber.rank - surface.rank
    fibration = table.fibration(surface, ids, tuple(f.cycles[o] for o in origins)) if steps else f
    return ReduceResult(fibration, steps, exhausted, edges, len(queue))


# ---------------------------------------------------------------------------
# pullbacks along meridian plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanEntry:
    """One target meridian: source cycle, conjugating word, local degree."""

    source: int
    conjugator: MCWord
    local_degree: int = 1

    def __post_init__(self) -> None:
        if self.local_degree not in (1, -1):
            raise InputError("local degree must be +-1")


@dataclass(frozen=True)
class MeridianPlan:
    """Combinatorial u-regular map of the disk, one entry per target cycle."""

    entries: tuple[PlanEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def is_immersion(self) -> bool:
        return all(e.local_degree == 1 for e in self.entries)


@dataclass(frozen=True)
class ImmersionWitness(MeridianPlan):
    """A meridian plan with every local degree +1 (orientation-preserving)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.is_immersion:
            raise InputError("an immersion witness needs all local degrees +1")


def identity_plan(u: LefschetzFibration) -> ImmersionWitness:
    empty = MCWord(u.fiber)
    return ImmersionWitness(tuple(PlanEntry(i, empty, 1) for i in range(u.size)))


def pullback(u: LefschetzFibration, plan: MeridianPlan) -> LefschetzFibration:
    """Pull back along the map encoded by the plan.

    Target cycle i is the source cycle plan[i].source transported by the
    conjugator, with sign multiplied by the local degree.  The monodromy
    factors through the source at the implemented resolution: with rep the
    conjugator, the twist about each transported curve satisfies
    T_{rep(c)} rep == rep T_c, which is asserted as two rank-1 updates of
    rep, one on its rows and one on its columns.
    """
    _require_disk(u, "pullback")
    cycles = []
    for e in plan.entries:
        if not 0 <= e.source < u.size:
            raise InputError(f"plan source {e.source} out of range")
        if e.conjugator.surface != u.fiber:
            raise InputError("plan conjugator on the wrong surface")
        src = u.cycles[e.source]
        rep = evaluate(e.conjugator)
        moved = act_on_curve(rep, src.curve)
        cols = transvect(tuple(zip(*rep.matrix)), twist_covector(moved), moved.hom, 1)
        if tuple(zip(*cols)) != twist_right(rep.matrix, src.curve, 1):
            raise AssertionError("monodromy does not factor through the source")
        cycles.append(SignedCycle(moved, e.local_degree * src.sign))
    return LefschetzFibration(u.fiber, DISK, tuple(cycles))


# ---------------------------------------------------------------------------
# universality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniversalityReport:
    """Condition flags and overall verdicts ("yes" / "no" / "unknown")."""

    cond_perm: bool
    cond_lef: SurjectivityVerdict
    cond2: bool
    cond2strong: bool
    universal: str
    strongly_universal: str


def _verdict(cond_perm: bool, lef: SurjectivityVerdict, cond_cls: bool) -> str:
    if not cond_perm or not cond_cls or lef.obstructed:
        return "no"
    if lef.certified:
        return "yes"
    return "unknown"


def universality_report(u: LefschetzFibration) -> UniversalityReport:
    """Check the characterization conditions on a fibration.

    cond_perm: the bundle generators' permutations generate the full
    symmetric group on the fiber's boundary circles (trivially true for
    b <= 1).  cond_lef: the three-verdict surjectivity oracle on the twist
    set.  cond2: every curve type of the fiber occurs among the cycles;
    cond2strong: with both signs.  A verdict is affirmative only when the
    oracle certifies, negative when any necessary condition fails, and
    unknown otherwise.
    """
    b = u.fiber.boundary
    if b <= 1:
        cond_perm = True
    else:
        cond_perm = perm_group_surjective([bg.perm for bg in u.bundle], b)
    cond_lef = mcg_surjectivity_oracle(u.twist_gens(), u.fiber)
    required = enumerate_classes(u.fiber)
    by_class: dict[CurveClass, set[int]] = {}
    for c in u.cycles:
        by_class.setdefault(c.curve.cls, set()).add(c.sign)
    cond2 = all(cls in by_class for cls in required)
    cond2strong = all(by_class.get(cls, set()) == {1, -1} for cls in required)
    return UniversalityReport(
        cond_perm=cond_perm,
        cond_lef=cond_lef,
        cond2=cond2,
        cond2strong=cond2strong,
        universal=_verdict(cond_perm, cond_lef, cond2),
        strongly_universal=_verdict(cond_perm, cond_lef, cond2 and cond2strong),
    )


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------

# Most words a witness search may enumerate, counted before pruning: the sum
# over lengths L <= depth of len(alphabet)**L.  u_g1(3) at depth 5 counts
# 579,195.
WITNESS_WORD_BOUND = 1_000_000
WITNESS_DEPTH = 4  # default depth of substitution_witness and `lefschetz witness`


def _alphabet(u: LefschetzFibration) -> list[Letter]:
    """Twist letters over the source's distinct cycle curves, right then left;
    curves equal up to their label share letters named after the first."""
    return [Letter(TwistGen(c, hand))
            for c in dict.fromkeys(c.curve for c in u.cycles) for hand in ("right", "left")]


def substitution_witness(
    u: LefschetzFibration,
    f: LefschetzFibration,
    depth: int = WITNESS_DEPTH,
) -> MeridianPlan | None:
    """Search for a meridian plan realizing f as a pullback of u.

    For each target cycle, conjugating words over the source's own twist
    letters (and inverses) are enumerated in deterministic length-then-lex
    order up to ``depth``, looking for an exact (type, class) match with a
    source cycle.  Sign-matching sources are preferred (local degree +1);
    otherwise an opposite-sign source is used with local degree -1.  The
    returned plan is verified by a pullback round trip and is an
    ImmersionWitness when every local degree is +1.  Returns None when some
    cycle stays unmatched within the depth bound.

    The walk skips words that equal a word earlier in that order (see
    :func:`_walk_steps`); the first match is never such a word, so the plans
    are those of the full enumeration.  It carries w^-1 t for each target
    class t instead of w's matrix: w is invertible, so w u_j = t exactly when
    u_j = w^-1 t, and a source is matched by one dictionary lookup.  Before
    any search, CapacityError is raised when the unpruned word count passes
    WITNESS_WORD_BOUND.
    """
    if u.fiber != f.fiber:
        raise InputError("witness search needs a common fiber")
    _require_disk(u, "substitution_witness")
    _require_disk(f, "substitution_witness")
    if depth < 0:
        raise InputError("depth must be >= 0")

    letters = _alphabet(u)
    words, level = 0, 1
    for _ in range(depth + 1):
        words += level
        if words > WITNESS_WORD_BOUND:
            raise CapacityError(
                f"witness search over {len(letters)} letters to depth {depth} "
                f"exceeds the bound of {WITNESS_WORD_BOUND} words")
        level *= len(letters)
        if not level:
            break  # an empty alphabet has only the empty word
    steps = _walk_steps(letters)
    # Per target: source hom -> (tier, j), sign-matching sources (tier 0)
    # before opposite-sign ones (tier 1), the first j winning within a tier.
    tables = []
    for t in f.cycles:
        table: dict[Vector, tuple[int, int]] = {}
        for tier in (0, 1):
            for j, s in enumerate(u.cycles):
                if s.curve.cls == t.curve.cls and (s.sign == t.sign) == (tier == 0):
                    table.setdefault(s.curve.hom, (tier, j))
        tables.append(table)
    found: list[tuple[int, tuple[int, ...], int] | None] = [None] * len(tables)

    def visit(word: tuple[int, ...], preimages: Matrix) -> bool:
        # a tier-1 hit is kept until a tier-0 one replaces it
        for i, p in enumerate(preimages):
            hit = tables[i].get(p)
            if hit is not None and (found[i] is None or hit[0] < found[i][0]):
                found[i] = (hit[0], word, hit[1])
        return all(x is not None and x[0] == 0 for x in found)

    # Length-lexicographic: all words of length L before any of length L+1.
    start = tuple(c.curve.hom for c in f.cycles)
    for length in range(depth + 1 if letters else 1):
        if _walk_level((), start, length, range(len(steps)), steps, visit):
            break

    if None in found:
        return None
    entries = [PlanEntry(j, MCWord(u.fiber, tuple(letters[li] for li in word)),
                         -1 if tier else 1)
               for tier, word, j in found]
    plan_cls = ImmersionWitness if all(e.local_degree == 1 for e in entries) else MeridianPlan
    plan = plan_cls(tuple(entries))

    if pullback(u, plan).cycles != f.cycles:  # compared up to labels
        raise AssertionError("witness failed the pullback round trip")
    return plan


def _walk_steps(letters: list[Letter]) -> list[tuple[Vector, Vector, int, tuple[int, ...]]]:
    """Per twist letter: its step (class, covector, hand) and the letters the
    walk may put after it.

    Letter l is not put after p when it undoes p (the same class with the
    other hand), or when l < p and the two classes pair to 0: such
    transvections commute, so swapping them gives a lex-smaller word with
    the same matrix.  Either way the word equals one that comes earlier in
    length-then-lex order.
    """
    base = [(l.gen.curve.hom, twist_covector(l.gen.curve), l.gen.sign) for l in letters]
    steps = []
    for p, (cp, wp, hp) in enumerate(base):
        after = tuple(
            l for l, (cl, _, hl) in enumerate(base)
            if not (cl == cp and hl == -hp)
            and not (l < p and sum(map(operator.mul, wp, cl)) == 0))
        steps.append((cp, wp, hp, after))
    return steps


def _walk_level(word, preimages, remaining, allowed, steps, visit) -> bool:
    """Visit the words of exactly ``remaining`` more letters drawn from
    ``allowed`` and then each letter's followers, in lex order, carrying
    w^-1 t for each target class t: appending letter l applies T_l^-1, one
    rank-1 update.  True once ``visit`` reports every target matched."""
    if remaining == 0:
        return visit(word, preimages)
    for li in allowed:
        c, w, h, after = steps[li]
        if _walk_level(word + (li,), transvect(preimages, w, c, -h), remaining - 1,
                       after, steps, visit):
            return True
    return False
