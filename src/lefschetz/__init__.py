"""Monodromy calculus for allowable Lefschetz fibrations over bounded surfaces.

Everything is exact integer arithmetic over a fixed homology basis; see
:mod:`lefschetz.homology` for the conventions.  The names in ``__all__`` are
resolved on use (PEP 562), so ``import lefschetz`` alone loads no module.
"""

from importlib import import_module

__version__ = "0.1.0"

# public names by the library module that defines them, in dependency order
_PUBLIC = {
    "errors": ("CapacityError", "InputError", "NotApplicable", "Unsupported"),
    "homology": ("SurfaceSpec", "cokernel_invariants", "is_essential", "pairing",
                 "pairing_matrix", "smith_normal_form"),
    "curves": ("Curve", "CurveClass", "class_count", "enumerate_classes",
               "nonseparating_curve", "separating_curve"),
    "mapping": ("BundleGen", "HomPermRep", "Letter", "MCWord", "TwistGen", "act_on_curve",
                "boundary_permutation_gen", "evaluate", "twist_catalog", "twist_matrix",
                "twist_word"),
    "fibration": ("ANNULUS", "BaseSurface", "DISK", "InvariantReport", "LefschetzFibration",
                  "SignedCycle", "build", "global_conjugate", "hurwitz_move", "p_g",
                  "total_space_invariants", "twist_product", "u_10", "u_11", "u_g1"),
    "universality": ("SurjectivityVerdict", "UniversalityReport", "mcg_surjectivity_oracle",
                     "perm_group_surjective", "universality_report"),
    "reduction": ("ReduceResult", "destabilize", "reduce", "stabilize"),
    "witness": ("ImmersionWitness", "MeridianPlan", "PlanEntry", "identity_plan", "pullback",
                "substitution_witness"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A library module, or a public name looked up afresh in its module."""
    if name in _PUBLIC:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_PUBLIC})
