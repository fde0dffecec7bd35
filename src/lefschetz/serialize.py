"""Stable JSON wire format for fibrations, reports and witness plans.

All documents are UTF-8 JSON with sorted keys and integers only, so equal
values serialize to identical bytes.  Unknown fields are rejected on load
and every structural invariant is re-validated through the ordinary
constructors.

Boundary-circle permutations are written 1-based ("perm": [2, 1] swaps the
two circles); in memory they are 0-based tuples.

A fibration file whose fiber has H1 rank above ``MAX_FIBER_RANK``, or that
lists more than ``MAX_CYCLES`` cycles (both defined in
:mod:`lefschetz.homology`), is refused with CapacityError before any curve
is built.

Only the surface and curve-class writers run at every import; each function
that builds or reads a fibration, a bundle generator, a report or a plan
imports that class's module when it runs, so ``lefschetz census`` loads no
mapping class code.
"""

from __future__ import annotations

import json

from .curves import Curve, CurveClass
from .errors import InputError, clipped
from .homology import (  # noqa: F401  (MAX_FIBER_RANK re-exported)
    MAX_FIBER_RANK,
    SurfaceSpec,
    check_cycle_count,
    check_fiber_rank,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # the classes named only in annotations
    from .fibration import BaseSurface, InvariantReport, LefschetzFibration
    from .mapping import BundleGen, Letter
    from .universality import UniversalityReport
    from .witness import MeridianPlan


def dumps(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _expect_keys(obj: dict, required: set[str], optional: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    keys = set(obj)
    unknown = keys - required - optional
    if unknown:
        raise InputError(f"{what} has unknown fields {clipped(sorted(unknown))}")
    missing = required - keys
    if missing:
        raise InputError(f"{what} is missing fields {sorted(missing)}")


def _int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer")
    return value


# -- surfaces ---------------------------------------------------------------

def surface_to_json(s: SurfaceSpec | BaseSurface) -> dict:
    return {"genus": s.genus, "boundary": s.boundary}


def surface_from_json(obj: object, what: str = "surface",
                      cls: type = SurfaceSpec) -> SurfaceSpec | BaseSurface:
    """A (genus, boundary) object as a ``cls``: a SurfaceSpec or a BaseSurface."""
    _expect_keys(obj, {"genus", "boundary"}, set(), what)
    return cls(_int(obj["genus"], "genus"), _int(obj["boundary"], "boundary"))


# -- curves -----------------------------------------------------------------

def curve_class_to_json(cls: CurveClass) -> object:
    if cls.kind == "nonsep":
        return "nonsep"
    return {"sep": [list(cls.sides[0]), list(cls.sides[1])]}


def curve_class_from_json(obj: object) -> CurveClass:
    if obj == "nonsep":
        return CurveClass.nonseparating()
    if isinstance(obj, dict) and set(obj) == {"sep"}:
        sides = obj["sep"]
        if (not isinstance(sides, list) or len(sides) != 2
                or any(not isinstance(s, list) or len(s) != 2 for s in sides)):
            raise InputError("separating class needs two [genus, boundary] sides")
        (g1, b1), (g2, b2) = sides
        return CurveClass.separating(
            (_int(g1, "side genus"), _int(b1, "side boundary")),
            (_int(g2, "side genus"), _int(b2, "side boundary")))
    raise InputError(f"bad curve class {clipped(repr(obj))}")


def curve_to_json(c: Curve) -> dict:
    return {
        "class": curve_class_to_json(c.cls),
        "hom": list(c.hom),
        "label": c.label,
    }


def curve_from_json(obj: object, surface: SurfaceSpec) -> Curve:
    _expect_keys(obj, {"class", "hom"}, {"label"}, "curve")
    hom = obj["hom"]
    if not isinstance(hom, list):
        raise InputError("curve hom must be a list of integers")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise InputError("curve label must be a string")
    return Curve(
        surface,
        curve_class_from_json(obj["class"]),
        tuple(_int(x, "hom entry") for x in hom),
        label,
    )


# -- bundle generators ------------------------------------------------------

def bundle_gen_to_json(bg: BundleGen) -> dict:
    return {
        "matrix": [list(row) for row in bg.matrix],
        "perm": [bg.perm[i] + 1 for i in range(len(bg.perm))],
        "label": bg.label,
    }


def bundle_gen_from_json(obj: object, surface: SurfaceSpec) -> BundleGen:
    from .mapping import BundleGen
    _expect_keys(obj, {"matrix", "perm"}, {"label"}, "bundle generator")
    matrix = obj["matrix"]
    if not isinstance(matrix, list) or any(not isinstance(r, list) for r in matrix):
        raise InputError("bundle matrix must be a list of rows")
    perm_1based = obj["perm"]
    if not isinstance(perm_1based, list):
        raise InputError("bundle perm must be a list")
    perm = tuple(_int(x, "perm entry") - 1 for x in perm_1based)
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise InputError("bundle label must be a string")
    return BundleGen(
        surface,
        tuple(tuple(_int(x, "matrix entry") for x in row) for row in matrix),
        perm,
        label,
    )


# -- fibrations -------------------------------------------------------------

def fibration_to_json(f: LefschetzFibration) -> dict:
    return {
        "fiber": surface_to_json(f.fiber),
        "base": surface_to_json(f.base),
        "cycles": [
            {"sign": c.sign, "curve": curve_to_json(c.curve)} for c in f.cycles
        ],
        "bundle": [bundle_gen_to_json(bg) for bg in f.bundle],
    }


def fibration_from_json(obj: object) -> LefschetzFibration:
    from .fibration import BaseSurface, LefschetzFibration, SignedCycle
    _expect_keys(obj, {"fiber", "base", "cycles", "bundle"}, set(), "fibration")
    fiber = surface_from_json(obj["fiber"], "fiber")
    check_fiber_rank(fiber)
    base = surface_from_json(obj["base"], "base", BaseSurface)
    if not isinstance(obj["cycles"], list) or not isinstance(obj["bundle"], list):
        raise InputError("cycles and bundle must be lists")
    check_cycle_count(len(obj["cycles"]))
    cycles = []
    for entry in obj["cycles"]:
        _expect_keys(entry, {"sign", "curve"}, set(), "cycle")
        sign = _int(entry["sign"], "sign")
        cycles.append(SignedCycle(curve_from_json(entry["curve"], fiber), sign))
    bundle = [bundle_gen_from_json(bg, fiber) for bg in obj["bundle"]]
    return LefschetzFibration(fiber, base, tuple(cycles), tuple(bundle))


def fibration_dumps(f: LefschetzFibration) -> str:
    return dumps(fibration_to_json(f))


def fibration_loads(text: str) -> LefschetzFibration:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from None
    except (RecursionError, ValueError) as exc:  # nesting depth, int-string digit limit
        raise InputError(f"JSON input exceeds a parser limit: {exc}") from None
    return fibration_from_json(obj)


# -- reports ----------------------------------------------------------------

def invariant_report_to_json(r: InvariantReport) -> dict:
    return {
        "euler": r.euler,
        "h1_free_rank": r.h1_free_rank,
        "h1_torsion": list(r.h1_torsion),
        "h2_rank": r.h2_rank,
        "signs": {"positive": r.positive, "negative": r.negative},
        "allowable": r.allowable,
    }


def universality_report_to_json(r: UniversalityReport) -> dict:
    return {
        "cond_perm": r.cond_perm,
        "cond_lef": {"status": r.cond_lef.status, "detail": r.cond_lef.detail},
        "cond2": r.cond2,
        "cond2strong": r.cond2strong,
        "universal": r.universal,
        "strongly_universal": r.strongly_universal,
    }


# -- witness plans ----------------------------------------------------------

def _letter_to_json(letter: Letter) -> dict:
    from .mapping import TwistGen
    gen = letter.gen
    if not isinstance(gen, TwistGen):
        raise InputError("only twist letters are serialized in plans")
    return {
        "curve": curve_to_json(gen.curve),
        "handed": gen.handed,
        "power": letter.power,
    }


def _letter_from_json(obj: object, surface: SurfaceSpec) -> Letter:
    from .mapping import Letter, TwistGen
    _expect_keys(obj, {"curve", "handed"}, {"power"}, "plan letter")
    power = _int(obj.get("power", 1), "letter power")
    return Letter(TwistGen(curve_from_json(obj["curve"], surface), obj["handed"]), power)


def plan_to_json(plan: MeridianPlan) -> dict:
    return {
        "entries": [
            {
                "source": e.source,
                "conjugator": [_letter_to_json(l) for l in e.conjugator.letters],
                "local_degree": e.local_degree,
            }
            for e in plan.entries
        ],
        "immersion": plan.is_immersion,
    }


def plan_from_json(obj: object, surface: SurfaceSpec) -> MeridianPlan:
    from .mapping import MCWord
    from .witness import ImmersionWitness, MeridianPlan, PlanEntry
    _expect_keys(obj, {"entries"}, {"immersion"}, "plan")
    if not isinstance(obj["entries"], list):
        raise InputError("plan entries must be a list")
    entries = []
    for e in obj["entries"]:
        _expect_keys(e, {"source", "conjugator", "local_degree"}, set(), "plan entry")
        if not isinstance(e["conjugator"], list):
            raise InputError("plan conjugator must be a list of letters")
        letters = tuple(_letter_from_json(l, surface) for l in e["conjugator"])
        entries.append(
            PlanEntry(
                _int(e["source"], "source"),
                MCWord(surface, letters),
                _int(e["local_degree"], "local degree"),
            )
        )
    plan = MeridianPlan(tuple(entries))
    if plan.is_immersion:
        return ImmersionWitness(plan.entries)
    return plan
