"""Stabilization, destabilization and the reduction search over a disk base.

Stabilization attaches a fiber 1-handle together with one new vanishing
cycle crossing it once; destabilization removes both.  At homology
resolution the removable configurations are recognized by a sufficient
coefficient criterion on a single basis generator, documented at
:func:`destabilize`.  :func:`reduce` searches the destabilizations
breadth-first for a fibration of least fiber rank.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

from .curves import Curve, CurveClass, subset_from_class
from .errors import InputError, NotApplicable
from .fibration import DISK, LefschetzFibration, SignedCycle, require_disk
from .homology import Record, SurfaceSpec, Vector, in_radical, vec_gcd


def _away(hom: Vector, genus: int) -> int:
    """Boundary circles on the side of a separating class away from the last one."""
    return sum(map(abs, hom[2 * genus:]))


def _forced_split(t: int, g: int, b: int) -> CurveClass | None:
    """The one type of a separating curve cutting t of the b boundary circles
    off a genus-g surface, or None when its genus split is ambiguous: only
    g == 0, and g == 1 with two equal sides, leave one split."""
    if g == 0 or (g == 1 and 2 * t == b):
        return CurveClass.separating((0, t), (g, b - t))
    return None


_NONSEP = CurveClass.nonseparating()


def _transported_class(cls: CurveClass, away: int, new_surface: SurfaceSpec,
                       new_hom: Vector, name: object) -> CurveClass:
    """The type of a cycle of type ``cls`` after a handle move gives it the
    class ``new_hom`` on ``new_surface``; ``away`` counts the old circles
    away from the last one when ``cls`` is separating, and ``name`` is what
    a refusal calls the cycle.

    A class outside the boundary lattice is non-separating.  A separating
    curve keeps its side away from the last boundary circle, which no handle
    move touches: a recorded side (p_g, p_b) qualifies when p_b == away,
    p_g <= G and p_b < B on the new fiber F(G, B), whose remainder
    (G - p_g, B - p_b) is the other side.  A non-separating curve whose class
    falls into the boundary lattice has become separating and may take any
    genus split of its boundary subset.  NotApplicable is raised unless
    exactly one type qualifies (see :func:`_forced_split` for a newly
    separating curve).
    """
    if not in_radical(new_surface, new_hom):
        if vec_gcd(new_hom) != 1:
            raise NotApplicable("transported class is imprimitive")
        return _NONSEP
    G, B = new_surface.genus, new_surface.boundary
    if cls.is_separating:
        candidates = {
            CurveClass.separating((p_g, p_b), (G - p_g, B - p_b))
            for p_g, p_b in cls.sides if p_b == away and p_g <= G and p_b < B
        }
        if len(candidates) != 1:
            raise NotApplicable(
                f"side data of separating cycle {name} "
                "cannot be transported unambiguously at homology resolution")
        return candidates.pop()
    subset = subset_from_class(new_surface, new_hom)
    if subset is None:
        raise NotApplicable(
            "transported class is boundary-type but not a subset class")
    new_cls = _forced_split(len(subset), G, B)
    if new_cls is None:
        raise NotApplicable("genus split of a newly separating cycle is ambiguous")
    return new_cls


def _transport_curve(curve: Curve, new_surface: SurfaceSpec, new_hom: Vector) -> Curve:
    """Re-coordinatized curve after a handle move, reclassified by
    :func:`_transported_class`; a refusal names the curve by its label, or
    by its class when it has none."""
    away = curve.cls.is_separating and _away(curve.hom, curve.surface.genus)
    cls = _transported_class(curve.cls, away, new_surface, new_hom, curve.label or curve.hom)
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
    require_disk(f, "stabilize")
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
                if _forced_split(_away(c.curve.hom, g), g, b) != c.curve.cls:
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
    has coefficient 0 there.  That cycle is removed, and the fiber changes
    as :func:`_destabilizing_map` says.  Each surviving cycle is moved by
    :func:`_transport_curve`, as :func:`stabilize` moves its cycles, which
    leaves the total-space invariants unchanged.

    Raises NotApplicable when the criterion fails, when the fiber is closed
    (no destabilizing arc exists), or when a surviving cycle cannot be
    transported; the last names the first such cycle by its label, or by
    its class when it has none.
    """
    require_disk(f, "destabilize")
    rank = f.fiber.rank
    if not 0 <= generator_index < rank:
        raise InputError(f"generator index {generator_index} out of range 0..{rank - 1}")
    removed = _lone_unit(tuple(c.curve.hom[generator_index] for c in f.cycles))
    if removed is None:
        raise NotApplicable(
            f"generator {generator_index} is not crossed exactly once by "
            "exactly one cycle")
    move = _destabilizing_map(f.fiber, generator_index)
    if move is None:
        raise NotApplicable("a closed fiber admits no destabilizing arc")
    new_surface, remap = move
    cycles = tuple(
        SignedCycle(_transport_curve(c.curve, new_surface, remap(c.curve.hom)), c.sign)
        for c in f.cycles[:removed] + f.cycles[removed + 1:])
    return LefschetzFibration(new_surface, DISK, cycles)


def _lone_unit(col: tuple[int, ...]) -> int | None:
    """The position of the one nonzero entry of col when it is +-1, else None."""
    if col.count(0) != len(col) - 1:
        return None
    return col.index(1) if 1 in col else col.index(-1) if -1 in col else None


def _destabilizing_map(surface: SurfaceSpec, generator_index: int,
                       ) -> tuple[SurfaceSpec, Callable[[Vector], Vector]] | None:
    """The new fiber and the class map of destabilizing along a generator,
    or None on a closed fiber, where no destabilizing arc exists.

    On an a_i/b_i the fiber loses the handle, (g, b) -> (g-1, b+1), and the
    surviving partner generator becomes the new last boundary class; on a
    d_j the j-th boundary circle merges with the last one, (g, b) -> (g, b-1).
    Either map inverts the corresponding stabilization map.
    """
    g, b = surface.genus, surface.boundary
    if generator_index < 2 * g:
        if b < 1:
            return None
        a = generator_index & ~1  # the handle's a_i; the partner stays as the new d_b

        def remap(v: Vector) -> Vector:
            return v[:a] + v[a + 2:] + (v[generator_index ^ 1],)
        return SurfaceSpec(g - 1, b + 1), remap
    j = generator_index - 2 * g + 1  # 1-based boundary class number

    def remap(v: Vector) -> Vector:
        vb = v[2 * g + b - 2]  # the last stored boundary class
        return v[: 2 * g] + tuple(
            -vb if k == j else v[2 * g + k - 1] - vb for k in range(1, b - 1))
    return SurfaceSpec(g, b - 1), remap


class _ClassTable:
    """The cycle classes :func:`reduce` has met, as bare records.

    A record is (fiber, type, class) with no label and no ``Curve`` around
    it: ``intern`` gives each distinct record an id, and with it ``nonzero``
    and ``units``, bitmasks of the generators its class crosses and crosses
    with coefficient +-1, and ``away``, :func:`_away` of a separating class.
    ``moves`` memoises :func:`_destabilizing_map` per (genus, boundary,
    generator), with a row that maps a class id to its child's id and the
    set of class ids whose transport :func:`_transported_class` refuses;
    underneath, ``transports`` memoises that class rule on all it reads.
    Every entry is a pure function of its key and no id is ever ordered, so
    one table serves any number of calls: nothing in it reads a sign, a
    label, a budget or another cycle.  Move rows and refused sets hold ids,
    so a table is only ever dropped whole, never cleared in part.  Every
    record that ``intern`` is given satisfies ``Curve``'s checks: the
    input's records come from curves, and a transport keeps a nonzero,
    primitive class off the boundary lattice or a boundary-subset class
    whose sides it sets.  So ``Curve``s are built, and checked, only for the
    returned fibration.
    """

    def __init__(self) -> None:
        self.records, self.ids, self.moves, self.transports = [], {}, {}, {}
        self.nonzero, self.units, self.away = [], [], []

    def intern(self, surface: SurfaceSpec, cls: CurveClass, hom: Vector) -> int:
        key = (surface.genus, surface.boundary, cls.sides, hom)
        cid = self.ids.get(key)
        if cid is None:
            cid = self.ids[key] = len(self.records)
            self.records.append((surface, cls, hom))
            nonzero = units = 0
            for i, x in enumerate(hom):
                if x:
                    nonzero |= 1 << i
                    if x == 1 or x == -1:
                        units |= 1 << i
            self.nonzero.append(nonzero)
            self.units.append(units)
            self.away.append(cls.is_separating and _away(hom, surface.genus))
        return cid

    def crossings(self, ids: tuple[int, ...]) -> list[tuple[int, int]]:
        """(generator, position) for each generator that exactly one of the
        cycles ``ids`` crosses, with coefficient +-1, in generator order."""
        once = twice = units = 0
        for cid in ids:
            nz = self.nonzero[cid]
            twice |= once & nz
            once |= nz
            units |= self.units[cid]
        lone = once & ~twice & units
        out = []
        for k, cid in enumerate(ids):
            bits = self.nonzero[cid] & lone
            while bits:
                low = bits & -bits
                out.append((low.bit_length() - 1, k))
                bits ^= low
        out.sort()
        return out

    def destabilized(self, surface: SurfaceSpec, ids: tuple[int, ...], generator_index: int,
                     removed: int) -> tuple[SurfaceSpec, tuple[int, ...]] | None:
        """:func:`destabilize` on a state: the new fiber and the surviving
        class ids, given the one cycle crossing the generator, or None when
        the fiber is closed or a survivor's transport is refused.

        A refused id was a survivor of this move before, so it has
        coefficient 0 on the generator and is never the removed cycle: a
        state holding one is refused by one set test."""
        key = (surface.genus, surface.boundary, generator_index)
        if key not in self.moves:
            move = _destabilizing_map(surface, generator_index)
            self.moves[key] = None if move is None else (*move, {}, set())
        move = self.moves[key]
        if move is None:
            return None
        new_surface, remap, row, refused = move
        if not refused.isdisjoint(ids):
            return None
        kept = ids[:removed] + ids[removed + 1:]
        children = tuple(map(row.get, kept))
        if None in children:  # first visits: transport in order up to a refusal
            for cid, child in zip(kept, children):
                if child is None:
                    child = self._transport(cid, new_surface, remap)
                    if child == -1:
                        refused.add(cid)
                        return None
                    row[cid] = child
            children = tuple(map(row.__getitem__, kept))
        return new_surface, children

    def _transport(self, cid: int, new_surface: SurfaceSpec,
                   remap: Callable[[Vector], Vector]) -> int:
        """The id of class ``cid``'s child on ``new_surface``, or -1 when the
        class rule refuses it."""
        _, cls, hom = self.records[cid]
        new_hom = remap(hom)
        # keyed on all the class rule reads: new fiber and class, old type, away
        key = (new_surface.genus, new_surface.boundary, cls.sides, self.away[cid], new_hom)
        child = self.transports.get(key)
        if child is None:
            try:
                new_cls = _transported_class(cls, self.away[cid], new_surface, new_hom, hom)
            except NotApplicable:
                child = -1
            else:
                child = self.intern(new_surface, new_cls, new_hom)
            self.transports[key] = child
        return child


# Most records the class table keeps across reduce calls: at about 1 KiB a
# record with its transports and move rows, a few MB.  A call that leaves
# more drops the table whole, and the next call starts from an empty one.
REDUCE_TABLE_RECORDS = 4_000

_table: _ClassTable | None = None  # the class table that reduce calls reuse
# held for a whole search, so threads take the table in turn and intern's
# appends never interleave
_table_lock = threading.Lock()


class ReduceResult(Record):
    """Outcome of :func:`reduce`.

    ``explored`` counts the successful destabilizations tried, which the
    budget bounds; ``states`` counts the distinct fibrations discovered,
    the input included.
    """

    __slots__ = ("fibration", "steps", "exhausted", "explored", "states")

    def __init__(self, fibration: LefschetzFibration, steps: int, exhausted: bool,
                 explored: int = 0, states: int = 1) -> None:
        object.__setattr__(self, "fibration", fibration)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "exhausted", exhausted)
        object.__setattr__(self, "explored", explored)
        object.__setattr__(self, "states", states)


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

    A state is its fiber, its cycles' record ids (see :class:`_ClassTable`),
    their signs and each cycle's input position, which fixes its label; two
    states are the same when (genus, boundary, ids, signs) are.  A state's
    applicable generators come from the records' bitmasks, each transport
    is computed once while the module's table is kept (across calls, up to
    REDUCE_TABLE_RECORDS records), and a refused destabilization is skipped,
    by one set test once one of its surviving classes has been refused.
    These are exact: the states, their order, ``explored``, ``states`` and
    the result are those of calling :func:`destabilize` on every generator
    of every state.  The budget is checked as if at every generator, so
    ``exhausted`` is set when the budget is spent while a generator of a
    positive-rank state is still unvisited.  A negative budget is refused
    with InputError before any other check.
    """
    if budget < 0:
        raise InputError("budget must be >= 0")
    if f.fiber.rank > 0 and budget > 0:
        require_disk(f, "destabilize")  # raised by the first destabilization
    global _table
    with _table_lock:
        # out of the module while in use: a search cut short by an exception
        # leaves no half-made entry behind
        table, _table = _table or _ClassTable(), None
        ids = tuple(table.intern(c.curve.surface, c.curve.cls, c.curve.hom) for c in f.cycles)
        seen = {(f.fiber.genus, f.fiber.boundary, ids, f.signs())}
        queue = [(f.fiber, ids, tuple(range(f.size)), f.signs())]
        edges, exhausted = 0, False
        for surface, ids, origins, signs in queue:  # the queue grows while it is walked
            if edges >= budget:
                if surface.rank:  # a generator is left unvisited
                    exhausted = True
                    break
                continue
            for gi, removed in table.crossings(ids):
                move = table.destabilized(surface, ids, gi, removed)
                if move is None:
                    continue
                new_surface, child = move
                edges += 1
                child_signs = signs[:removed] + signs[removed + 1:]
                key = (new_surface.genus, new_surface.boundary, child, child_signs)
                if key not in seen:
                    seen.add(key)
                    queue.append((new_surface, child, origins[:removed] + origins[removed + 1:],
                                  child_signs))
                if edges >= budget:
                    exhausted = gi < surface.rank - 1
                    break
            if exhausted:
                break
        if len(table.records) <= REDUCE_TABLE_RECORDS:
            _table = table
    # records are only ever appended, so those read below stay put
    # depth is the rank lost and never falls along the queue: the last is deepest
    deepest = queue[-1][0].rank
    surface, ids, origins, _ = next(state for state in queue if state[0].rank == deepest)
    steps = f.fiber.rank - surface.rank
    if steps:  # each cycle takes the sign and label of its input position
        f = LefschetzFibration(surface, DISK, tuple(
            SignedCycle(Curve(*table.records[cid], f.cycles[o].curve.label), f.cycles[o].sign)
            for cid, o in zip(ids, origins)))
    return ReduceResult(f, steps, exhausted, edges, len(queue))
