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

Three parts of the calculus are built on this module, each in a module of
its own: stabilization and reduction in :mod:`lefschetz.reduction`,
pullbacks and the witness search in :mod:`lefschetz.witness`, and the
universality report in :mod:`lefschetz.universality`.  Their public names
still resolve from here, on use (PEP 562), so importing this module loads
none of them.
"""

from __future__ import annotations

from importlib import import_module

from .curves import Curve
from .errors import InputError, Unsupported, clipped
from .homology import (
    Matrix,
    Record,
    SurfaceSpec,
    Vector,
    check_cycle_count,
    check_int,
    check_str,
    check_unit,
    cokernel_invariants,
    mat_from_columns,
    mat_identity,
)
from .mapping import (
    BundleGen,
    MCWord,
    TwistGen,
    evaluate,
    twist_catalog,
    twist_classes,
    word_action,
)

# public names that this module used to define -> the module that defines them
_MOVED = {
    **dict.fromkeys(("stabilize", "destabilize", "ReduceResult", "reduce"), "reduction"),
    **dict.fromkeys(("PlanEntry", "MeridianPlan", "ImmersionWitness", "identity_plan",
                     "pullback", "WITNESS_WORD_BOUND", "WITNESS_DEPTH",
                     "substitution_witness"), "witness"),
    **dict.fromkeys(("UniversalityReport", "universality_report"), "universality"),
}


def __getattr__(name: str):
    """A moved public name, looked up afresh in the module that defines it."""
    if name in _MOVED:
        return getattr(import_module(f"{__package__}.{_MOVED[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class BaseSurface(Record):
    """Compact oriented base surface with nonempty boundary."""

    __slots__ = ("genus", "boundary")

    def __init__(self, genus: int, boundary: int) -> None:
        check_int(genus, "base genus")
        check_int(boundary, "base boundary")
        if genus < 0:
            raise InputError("base genus must be >= 0")
        if boundary < 1:
            raise InputError("base surfaces must have nonempty boundary")
        self._store(genus, boundary)

    @property
    def free_loop_count(self) -> int:
        """Free generators of the fundamental group: 2h + d - 1."""
        return 2 * self.genus + self.boundary - 1


DISK = BaseSurface(0, 1)
ANNULUS = BaseSurface(0, 2)


class SignedCycle(Record):
    """Vanishing cycle with the sign of its singular point."""

    __slots__ = ("curve", "sign")

    def __init__(self, curve: Curve, sign: int) -> None:
        if not isinstance(curve, Curve):
            raise InputError("cycle curve must be a Curve")
        check_unit(sign, "cycle sign")
        self._store(curve, sign)


class LefschetzFibration(Record):
    __slots__ = ("fiber", "base", "cycles", "bundle")

    def __init__(self, fiber: SurfaceSpec, base: BaseSurface,
                 cycles: tuple[SignedCycle, ...], bundle: tuple[BundleGen, ...] = ()) -> None:
        if not isinstance(base, BaseSurface):
            raise InputError("fibration base must be a BaseSurface")
        cycles = tuple(cycles)
        bundle = tuple(bundle)
        check_cycle_count(len(cycles))
        for c in cycles:
            if not isinstance(c, SignedCycle):
                raise InputError("vanishing cycle must be a SignedCycle")
            if c.curve.surface != fiber:
                raise InputError("vanishing cycle on the wrong surface")
        if len(bundle) != base.free_loop_count:
            raise InputError(
                f"base has {clipped(base.free_loop_count)} free loops but "
                f"{len(bundle)} bundle generators were given")
        for bg in bundle:
            if not isinstance(bg, BundleGen):
                raise InputError("bundle entry must be a BundleGen")
            if bg.surface != fiber:
                raise InputError("bundle generator on the wrong surface")
        self._store(fiber, base, cycles, bundle)

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


def require_disk(f: LefschetzFibration, what: str) -> None:
    """Refuse, with Unsupported, an operation implemented only over the disk."""
    if f.base != DISK:
        raise Unsupported(f"{what} is only implemented over the disk")


def twist_product(f: LefschetzFibration) -> Matrix:
    """Ordered product of the signed twist matrices of the cycles: the basis
    moved by the last cycle's twist first, transposed."""
    columns = mat_identity(f.fiber.rank)
    for c in reversed(f.cycles):
        columns = twist_classes(columns, c.curve, c.sign)
    return tuple(zip(*columns))


# ---------------------------------------------------------------------------
# standard fibrations over the disk
# ---------------------------------------------------------------------------

def _catalog_fibration(fiber: SurfaceSpec, negative: tuple[str, ...] = ()) -> LefschetzFibration:
    """Catalog twists, negative on the labels in ``negative``, stored trusted."""
    cycles = tuple(SignedCycle._trusted(c, -1 if c.label in negative else 1)
                   for c in twist_catalog(fiber))
    return LefschetzFibration._trusted(fiber, DISK, cycles, ())


def u_g1(g: int) -> LefschetzFibration:
    """The (2g+1)-cycle fibration over the disk with fiber of genus g, one
    boundary circle, and the catalog configuration with b1 and c1 negative."""
    check_int(g, "surface genus")
    if g < 2:
        raise InputError("u_g1 needs genus >= 2; use u_11 for genus one")
    return _catalog_fibration(SurfaceSpec(g, 1), ("b1", "c1"))


def u_11() -> LefschetzFibration:
    """Two cycles (a+, b-) on the one-holed torus."""
    return _catalog_fibration(SurfaceSpec(1, 1), ("b",))


def u_10() -> LefschetzFibration:
    """Two cycles (a+, b-) on the closed torus."""
    return _catalog_fibration(SurfaceSpec(1, 0), ("b",))


def p_g(g: int) -> LefschetzFibration:
    """All-positive twists on the catalog configuration (fiber F_{g,1})."""
    check_int(g, "surface genus")
    if g < 1:
        raise InputError("p_g needs genus >= 1")
    return _catalog_fibration(SurfaceSpec(g, 1))


_BUILDERS = {"u_11": u_11, "u_10": u_10, "u_g1": u_g1, "p_g": p_g}


def build(name: str, g: int | None = None) -> LefschetzFibration:
    """Construct a named standard fibration ("u_11", "u_10", "u_g1", "p_g").

    u_g1 and p_g need the genus g; u_11 and u_10 have a fixed fiber and
    refuse one with InputError.  A fiber of H1 rank above MAX_FIBER_RANK is
    refused with CapacityError by ``twist_catalog``, before it builds a curve.
    """
    check_str(name, "fibration name")
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise InputError(f"unknown fibration name {clipped(repr(name))}") from None
    if name in ("u_11", "u_10"):
        if g is not None:
            raise InputError(f"builder {name} takes no genus parameter")
        return builder()
    if g is None:
        raise InputError(f"builder {name} needs a genus parameter")
    return builder(g)


# ---------------------------------------------------------------------------
# total-space invariants
# ---------------------------------------------------------------------------

class InvariantReport(Record):
    """Algebraic invariants of the total space of a fibration over the disk."""

    __slots__ = ("euler", "h1_free_rank", "h1_torsion", "h2_rank", "positive", "negative")

    def __init__(self, euler: int, h1_free_rank: int, h1_torsion: tuple[int, ...],
                 h2_rank: int, positive: int, negative: int) -> None:
        self._store(euler, h1_free_rank, h1_torsion, h2_rank, positive, negative)


def total_space_invariants(f: LefschetzFibration) -> InvariantReport:
    """Euler characteristic and H1, H2 of the total space over a disk.

    The boundary matrix of the 2-handles has one column per cycle class; a
    closed fiber contributes one extra zero column for its top cell.
    """
    require_disk(f, "total_space_invariants")
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
    applied to it directly, one transvection; a twist is a homeomorphism,
    so the moved curve and the new fibration are stored without validation.
    A position that is not an int (a bool included) or is out of range
    raises InputError, which shows at most 20 characters of it.
    """
    if direction not in ("L", "R"):
        raise InputError(f"direction must be 'L' or 'R', not {clipped(repr(direction))}")
    check_int(i, "move position")
    n = f.size
    if not 1 <= i < n:
        raise InputError(f"move position {clipped(i)} out of range 1..{n - 1}")
    cyc = list(f.cycles)
    left, right = cyc[i - 1], cyc[i]
    if direction == "R":
        # conjugate by the inverse twist of the right neighbor
        twist, h, moving = right, -right.sign, left
    else:
        twist, h, moving = left, left.sign, right
    c = moving.curve
    (hom,) = twist_classes((c.hom,), twist.curve, h)
    moved = SignedCycle._trusted(Curve._trusted(c.surface, c.cls, hom, c.label), moving.sign)
    cyc[i - 1], cyc[i] = (right, moved) if direction == "R" else (moved, left)
    return LefschetzFibration._trusted(f.fiber, f.base, tuple(cyc), f.bundle)


def global_conjugate(f: LefschetzFibration, w: MCWord) -> LefschetzFibration:
    """Transport every cycle by w and replace each bundle generator g by
    w g w^-1 (there are none over the disk).

    The cycle classes move together through :func:`word_action`; each curve
    keeps its type and label, as in :func:`act_on_curve`.  When there are
    bundle generators, w is evaluated once, and each generator is composed
    between it and its closed-form inverse.  w is a homeomorphism, so the
    moved cycles, the conjugated bundle generators and the new fibration
    are stored without validation.
    """
    if w.surface != f.fiber:
        raise InputError("conjugating word on the wrong surface")
    homs = word_action(w, tuple(c.curve.hom for c in f.cycles))
    cycles = tuple(
        SignedCycle._trusted(
            Curve._trusted(c.curve.surface, c.curve.cls, hom, c.curve.label), c.sign)
        for c, hom in zip(f.cycles, homs))
    bundle = []
    if f.bundle:
        rep = evaluate(w)
        inv = rep.inverse()
        for bg in f.bundle:
            conj = rep.compose(bg).compose(inv)
            bundle.append(BundleGen._trusted(f.fiber, conj.matrix, conj.perm, bg.label))
    return LefschetzFibration._trusted(f.fiber, f.base, cycles, tuple(bundle))
