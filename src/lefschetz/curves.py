"""Topological types of essential simple closed curves, and curves themselves.

Up to orientation-preserving homeomorphism, a homologically essential simple
closed curve on a surface of genus g with b boundary circles is either

  * non-separating (one type, needs g >= 1), or
  * separating, classified by the unordered pair of (genus, boundary-count)
    data of its two complementary sides.  Both sides must contain at least
    one boundary circle of the ambient surface, otherwise the curve bounds
    and is null-homologous.

A concrete curve is carried at the resolution (type, homology class, label).
Non-separating curves have primitive classes with nonzero symplectic part;
separating curves have the class of a boundary subset: the sum of the d_j
over the circles on one side.
"""

from __future__ import annotations

from .errors import InputError, clipped
from .homology import (
    Record,
    SurfaceSpec,
    Vector,
    check_fiber_rank,
    in_radical,
    is_essential,
    vec_gcd,
)


class CurveClass(Record):
    """Homeomorphism type of an essential simple closed curve.

    ``kind`` is "nonsep" or "sep"; separating types carry the normalized
    unordered pair of sides, ``sides[0] <= sides[1]`` lexicographically.
    """

    __slots__ = ("kind", "sides")

    def __init__(self, kind: str,
                 sides: tuple[tuple[int, int], tuple[int, int]] | None = None) -> None:
        if kind == "nonsep":
            if sides is not None:
                raise InputError("non-separating type carries no side data")
        elif kind == "sep":
            if sides is None:
                raise InputError("separating type needs side data")
            (g1, b1), (g2, b2) = sides
            if min(g1, g2) < 0 or min(b1, b2) < 1:
                raise InputError(
                    f"separating sides {clipped(sides)}: each side needs >= 1 "
                    "boundary circle (else the curve is null-homologous)")
            if sides[0] > sides[1]:
                raise InputError("separating sides must be normalized")
        else:
            raise InputError(f"unknown curve kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sides", sides)

    @staticmethod
    def nonseparating() -> "CurveClass":
        return CurveClass("nonsep")

    @staticmethod
    def separating(side_a: tuple[int, int], side_b: tuple[int, int]) -> "CurveClass":
        lo, hi = sorted((tuple(side_a), tuple(side_b)))
        return CurveClass("sep", (lo, hi))

    @property
    def is_separating(self) -> bool:
        return self.kind == "sep"

    def validate_for(self, surface: SurfaceSpec) -> None:
        if self.kind == "nonsep":
            if surface.genus < 1:
                raise InputError(f"no non-separating curve on {surface}")
            return
        (g1, b1), (g2, b2) = self.sides
        if g1 + g2 != surface.genus or b1 + b2 != surface.boundary:
            raise InputError(f"sides {clipped(self.sides)} do not split {clipped(surface)}")

    def sort_key(self) -> tuple:
        if self.kind == "nonsep":
            return (0,)
        return (1, self.sides)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind == "nonsep":
            return "nonsep"
        (g1, b1), (g2, b2) = self.sides
        return f"sep[({g1},{b1})|({g2},{b2})]"


def enumerate_classes(surface: SurfaceSpec) -> tuple[CurveClass, ...]:
    """All curve types on the surface, duplicate-free, canonically sorted.

    A surface of H1 rank above MAX_FIBER_RANK is refused with CapacityError.
    """
    check_fiber_rank(surface)
    g, b = surface.genus, surface.boundary
    out = [CurveClass.nonseparating()] if g >= 1 else []
    # one class per side (g1, b1) <= its complement: lexicographic, as sort_key
    return tuple(out + [
        CurveClass("sep", ((g1, b1), (g - g1, b - b1)))
        for g1 in range(g + 1) for b1 in range(1, b) if (g1, b1) <= (g - g1, b - b1)])


def class_count(surface: SurfaceSpec) -> int:
    """Closed-form size of the curve-type census.

    For b >= 1 this is floor(b/2) when g = 0 and floor((gb - g + b)/2) + 1
    when g >= 1.  A closed surface has a single type when g >= 1 (the
    non-separating one; every separating curve bounds) and none on a sphere.
    """
    g, b = surface.genus, surface.boundary
    if b == 0:
        return 1 if g >= 1 else 0
    if g == 0:
        return b // 2
    return (g * b - g + b) // 2 + 1


# ---------------------------------------------------------------------------
# boundary subsets and their classes
# ---------------------------------------------------------------------------

def boundary_subset_class(surface: SurfaceSpec, subset: frozenset[int]) -> Vector:
    """Class of the sum of boundary circles in ``subset`` (1-based numbers).

    This is the homology class of a curve that separates off exactly those
    circles.  The subset must be proper and nonempty.
    """
    b = surface.boundary
    if not subset or not subset <= frozenset(range(1, b + 1)):
        raise InputError(f"bad boundary subset {sorted(subset)} for {surface}")
    if len(subset) == b:
        raise InputError("a curve bounding all of the boundary is null-homologous")
    coords = [0] * surface.rank
    for j in subset:
        if j < b:
            coords[surface.delta_index(j)] += 1
        else:
            for k in range(1, b):
                coords[surface.delta_index(k)] -= 1
    return tuple(coords)


def subset_from_class(surface: SurfaceSpec, hom: Vector) -> frozenset[int] | None:
    """Recover the boundary subset whose class is ``hom``, or None.

    Only radical classes of indicator shape qualify: entries all in {0, 1}
    (last circle outside the subset) or all in {0, -1} (last circle inside).
    """
    if len(hom) != surface.rank or not in_radical(surface, hom):
        return None
    b = surface.boundary
    tail = hom[2 * surface.genus:]  # empty when b < 2
    vals = set(tail)
    if vals <= {0, 1} and 1 in vals:
        return frozenset(j for j in range(1, b) if tail[j - 1] == 1)
    if vals <= {0, -1} and -1 in vals:
        return frozenset(j for j in range(1, b) if tail[j - 1] == 0) | {b}
    return None


class Curve(Record):
    """Simple closed curve at (type, homology) resolution.

    Labels are provenance metadata and are ignored by equality.
    """

    __slots__ = ("surface", "cls", "hom", "label")
    _compare = ("surface", "cls", "hom")

    def __init__(self, surface: SurfaceSpec, cls: CurveClass, hom: Vector,
                 label: str = "") -> None:
        hom = tuple(hom)
        if len(hom) != surface.rank:
            raise InputError(
                f"class of length {len(hom)} on {surface} (rank {surface.rank})")
        if not is_essential(hom):
            raise InputError("curve class must be essential (nonzero)")
        cls.validate_for(surface)
        if cls.kind == "nonsep":
            if vec_gcd(hom) != 1:
                raise InputError("non-separating curves have primitive class")
            if in_radical(surface, hom):
                raise InputError(
                    "a curve with boundary-type class cannot be non-separating")
        else:
            subset = subset_from_class(surface, hom)
            if subset is None:
                raise InputError(f"separating class {clipped(hom)} is not a boundary-subset class")
            (g1, b1), (g2, b2) = cls.sides
            t = len(subset)
            if sorted((t, surface.boundary - t)) != sorted((b1, b2)):
                raise InputError(f"subset size {t} inconsistent with sides {cls.sides}")
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "hom", hom)
        object.__setattr__(self, "label", label)

    def boundary_subset(self) -> frozenset[int] | None:
        """For separating curves, the circles on the side the class sums over."""
        return subset_from_class(self.surface, self.hom)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        name = self.label or "curve"
        return f"{name}:{self.cls}{list(self.hom)}"


def nonseparating_curve(surface: SurfaceSpec, hom: Vector, label: str = "") -> Curve:
    return Curve(surface, CurveClass.nonseparating(), hom, label)


def separating_curve(
    surface: SurfaceSpec,
    subset: frozenset[int] | set[int],
    genus_split: tuple[int, int],
    label: str = "",
) -> Curve:
    """Separating curve cutting off ``subset`` with the given genus on that side."""
    subset = frozenset(subset)
    hom = boundary_subset_class(surface, subset)
    g_in, g_out = genus_split
    cls = CurveClass.separating(
        (g_in, len(subset)), (g_out, surface.boundary - len(subset)))
    return Curve(surface, cls, hom, label)
