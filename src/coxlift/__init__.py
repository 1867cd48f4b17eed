"""Exact-arithmetic lifting of multigraded modules on toric charts.

Given a cone through its primitive ray forms, modules graded by the
character lattice are lifted degree by degree to the Cox degree lattice
as inverse limits over shifted up-sets, entirely in exact rational
arithmetic.  The package also checks the structural identities of the
construction on concrete instances: adjunction round trips,
left-exactness, preservation of torsion-freeness, the filtration
intersection formula for reflexive data, and derived limits over finite
posets.
"""

from .cones import (
    Cone,
    leq_sigma,
    minimal_common_upper_bounds,
    minimal_elements,
    strict_interior_point,
)
from .derived import (
    CanonicalSequence,
    FinitePosetDiagram,
    RoosResult,
    connecting_cokernel,
    equalizer_limit_dim,
    ideal_sequence,
    order_complex_cohomology,
    roos_limits,
    truncated_lift_oracle,
)
from .fans import ChartData, FanData, affine_chart, class_group, global_reflexive_lift
from .klyachko import filtration_lift_component, realized_components, verify_equivalence
from .lattice import (
    LatticeQuotient,
    SnfResult,
    lattice_membership,
    reduce_by_sublattice,
    smith_normal_form,
)
from .lifting import (
    Box,
    ColimitResult,
    LiftComponent,
    LiftTable,
    ShiftedCoxRule,
    colimit,
    colimit_of_lift,
    counit_matrix,
    lift_action,
    lift_component,
    lift_morphism,
    lift_table,
    minimal_generators_in_box,
    unit_map,
)
from .modules import (
    DirectSumModule,
    FiltrationModule,
    FinitelyPresentedModule,
    GradedModule,
    GradedMorphism,
    IndicatorModule,
    ReflexiveDescription,
    ShiftModule,
    codivisorial_module,
    maximal_ideal_module,
    morphism,
    simple_module,
    structure_module,
)

__version__ = "0.1.0"
