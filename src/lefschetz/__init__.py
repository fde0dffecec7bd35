"""Monodromy calculus for allowable Lefschetz fibrations over bounded surfaces.

Everything is exact integer arithmetic over a fixed homology basis; see
:mod:`lefschetz.homology` for the conventions.  The names in ``__all__`` are
resolved on use (PEP 562), so ``import lefschetz`` alone loads no module.
"""

from importlib import import_module

__version__ = "0.1.0"

# dependency order: the first of these that binds a public name defines it
_MODULES = ("errors", "homology", "curves", "mapping", "fibration",
            "universality", "reduction", "witness")

__all__ = [
    "ANNULUS",
    "BaseSurface",
    "BundleGen",
    "CapacityError",
    "Curve",
    "CurveClass",
    "DISK",
    "HomPermRep",
    "ImmersionWitness",
    "InputError",
    "InvariantReport",
    "LefschetzFibration",
    "Letter",
    "MCWord",
    "MeridianPlan",
    "NotApplicable",
    "PlanEntry",
    "ReduceResult",
    "SignedCycle",
    "SurfaceSpec",
    "SurjectivityVerdict",
    "TwistGen",
    "UniversalityReport",
    "Unsupported",
    "act_on_curve",
    "boundary_permutation_gen",
    "build",
    "class_count",
    "cokernel_invariants",
    "destabilize",
    "enumerate_classes",
    "evaluate",
    "global_conjugate",
    "hurwitz_move",
    "identity_plan",
    "is_essential",
    "mcg_surjectivity_oracle",
    "nonseparating_curve",
    "p_g",
    "pairing",
    "pairing_matrix",
    "perm_group_surjective",
    "pullback",
    "reduce",
    "separating_curve",
    "smith_normal_form",
    "stabilize",
    "substitution_witness",
    "total_space_invariants",
    "twist_catalog",
    "twist_matrix",
    "twist_product",
    "twist_word",
    "u_10",
    "u_11",
    "u_g1",
    "universality_report",
]


def __getattr__(name: str):
    """A library module, or a public name looked up afresh in its module."""
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name in __all__:
        for module in _MODULES:
            namespace = vars(import_module(f"{__name__}.{module}"))
            if name in namespace:
                return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
