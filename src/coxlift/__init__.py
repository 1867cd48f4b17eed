"""Exact-arithmetic lifting of multigraded modules on toric charts.

Given a cone through its primitive ray forms, modules graded by the
character lattice are lifted degree by degree to the Cox degree lattice
as inverse limits over shifted up-sets, entirely in exact rational
arithmetic.  The package also checks the structural identities of the
construction on concrete instances: adjunction round trips,
left-exactness, preservation of torsion-freeness, the filtration
intersection formula for reflexive data, and derived limits over finite
posets.

``import coxlift`` loads no layer.  Each name in ``__all__`` resolves on
first use (``from coxlift import Cone``, ``coxlift.roos_limits``) by
importing the layer that defines it, so a program pays only for the
layers it reads.
"""

import importlib

__version__ = "0.1.0"

_LAYER_NAMES = {
    "cones": ("Cone", "leq_sigma", "minimal_common_upper_bounds", "minimal_elements",
              "strict_interior_point"),
    "derived": ("CanonicalSequence", "FinitePosetDiagram", "RoosResult",
                "connecting_cokernel", "equalizer_limit_dim", "ideal_sequence",
                "order_complex_cohomology", "roos_limits", "truncated_lift_oracle"),
    "fans": ("FanData", "class_group"),
    "klyachko": ("filtration_lift_component", "realized_components", "verify_equivalence"),
    "lattice": ("LatticeQuotient", "SnfResult", "reduce_by_sublattice",
                "smith_normal_form"),
    "lifting": ("Box", "ColimitResult", "LiftComponent", "LiftTable", "colimit",
                "colimit_of_lift", "counit_matrix", "lift_action", "lift_component",
                "lift_morphism", "lift_table", "minimal_generators_in_box", "unit_map"),
    "modules": ("DirectSumModule", "FiltrationModule", "FinitelyPresentedModule",
                "GradedModule", "GradedMorphism", "IndicatorModule", "ReflexiveDescription",
                "ShiftModule", "ShiftedCoxRule", "codivisorial_module",
                "maximal_ideal_module", "morphism", "simple_module", "structure_module"),
}
_HOME = {name: layer for layer, names in _LAYER_NAMES.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
