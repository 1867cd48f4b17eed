"""Reflexive modules from full filtrations and the intersection formula.

A reflexive description is a family of full per-ray filtrations of a
fixed ambient space.  The datum, ``ReflexiveDescription``, and the
module it defines, ``FiltrationModule(cone, desc)``, live in
``modules``, where the description is validated once, in its
constructor; both are importable from here too.  The lift at a Cox
degree ``c`` is simply the intersection of the ray spaces at levels
``c_rho``, which the description memoizes (``space``); this module
verifies, degree by degree, that the general limit machinery produces
the same subspaces.  It also compares the
subspace arrangements realized on the base against those realized by
the lift (the lift realizes every intersection; the base need not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cones import Cone
from .lattice import int_vector
from .lifting import Box, LiftComponent, lift_component
from .linalg import (
    Mat,
    Vector,
    matrix_in_basis,
    row_space_basis,
    subspace_eq,
    subspace_le,
)
from .modules import (
    FiltrationModule,
    GradedMorphism,
    ReflexiveDescription,
    intersect_ray_spaces,
)

IntVector = tuple[int, ...]


def filtration_lift_component(desc: ReflexiveDescription, c: Sequence[int]) -> tuple[Vector, ...]:
    """Direct intersection of the ray spaces at levels c_rho."""
    c = int_vector(c)
    if len(c) != len(desc.filtrations):
        raise ValueError("degree length differs from filtration count")
    return desc.space(c)


def lift_subspace_in_ambient(module: FiltrationModule,
                             comp: LiftComponent) -> tuple[Vector, ...]:
    """Embed a lift component of a filtration module into the ambient space.

    Transports of filtration modules are inclusions, so every block of a
    limit vector expands to the same ambient vector; all nonzero blocks
    are expanded and checked for agreement.
    """
    ambient_dim = module.description.ambient_dim
    out = []
    for vec in comp.basis:
        ambient: Optional[list] = None
        for i, m in enumerate(comp.minimal_points):
            if comp.block_dims[i] == 0:
                continue
            basis = module.subspace(m)
            coords = list(vec[comp.block_slice(i)])
            value = [sum(c * row[j] for c, row in zip(coords, basis))
                     for j in range(ambient_dim)]
            if ambient is None:
                ambient = value
            elif ambient != value:
                raise AssertionError("limit blocks disagree in the ambient space")
        if ambient is None:
            raise AssertionError("nonzero limit vector with all blocks zero")
        out.append(ambient)
    return row_space_basis(out, ambient_dim)


@dataclass
class EquivalenceReport:
    ok: bool
    degrees_checked: int
    first_mismatch: Optional[IntVector]
    roundtrip_checked: int


def verify_equivalence(cone: Cone, desc: ReflexiveDescription, box: Box) -> EquivalenceReport:
    """Limit machinery versus direct intersection, as subspaces, over a box.

    Also confirms the round trip: at degrees ``c = L(m)`` in the image
    of the grading map, the module's component at m equals the
    intersection of the raw filtrations at the levels ``<m, rho_i> = c_i``,
    built afresh rather than read from the description's memo, which the
    module reads too.
    """
    module = FiltrationModule(cone, desc)
    checked = 0
    for c in box.degrees():
        comp = lift_component(cone, module, c)
        via_limit = lift_subspace_in_ambient(module, comp)
        direct = filtration_lift_component(desc, c)
        if not subspace_eq(via_limit, direct):
            return EquivalenceReport(False, checked, tuple(c), 0)
        checked += 1
    roundtrip = 0
    for c in box.degrees():
        m = cone.smith.preimage(c)
        if m is None:
            continue
        fresh = intersect_ray_spaces(zip((rf for _, rf in desc.filtrations), c),
                                     desc.ambient_dim)
        if not subspace_eq(module.subspace(m), fresh):
            return EquivalenceReport(False, checked, tuple(c), roundtrip)
        roundtrip += 1
    return EquivalenceReport(True, checked, None, roundtrip)


@dataclass
class RealizedReport:
    """Subspace arrangements realized on the base and by the lift."""

    base_realized: tuple[tuple[Vector, ...], ...]
    lift_realized: tuple[tuple[Vector, ...], ...]
    unrealized_on_base: tuple[tuple[Vector, ...], ...]


def realized_components(cone: Cone, desc: ReflexiveDescription, box: Box) -> RealizedReport:
    """Compare base-realized intersections against all lift intersections.

    The base set is always contained in the lift set; the difference is
    reported (the lift's arrangement is intersection-complete).
    """
    base: dict[tuple, tuple[Vector, ...]] = {}
    lift: dict[tuple, tuple[Vector, ...]] = {}
    for c in box.degrees():
        space = filtration_lift_component(desc, c)
        lift[space] = space
        if cone.smith.preimage(c) is not None:
            base[space] = space
    unrealized = tuple(sorted((s for key, s in lift.items() if key not in base),
                              key=lambda b: (len(b), b)))
    return RealizedReport(
        tuple(sorted(base.values(), key=lambda b: (len(b), b))),
        tuple(sorted(lift.values(), key=lambda b: (len(b), b))),
        unrealized,
    )


def induced_morphism(cone: Cone, src: ReflexiveDescription,
                     tgt: ReflexiveDescription, matrix: Mat):
    """The graded morphism a filtration-respecting linear map induces.

    The matrix must send each source ray space into the matching target
    ray space; it then restricts to every intersection, giving a natural
    degree-wise map between the two filtration modules.
    """
    if not respects_filtrations(matrix, src, tgt):
        raise ValueError("the map does not respect the filtrations")
    src_mod = FiltrationModule(cone, src)
    tgt_mod = FiltrationModule(cone, tgt)

    def rule(m):
        return matrix_in_basis(tgt_mod.subspace(m),
                               (matrix.vec(v) for v in src_mod.subspace(m)))

    return GradedMorphism(src_mod, tgt_mod, rule)


def respects_filtrations(matrix: Mat, src: ReflexiveDescription,
                         tgt: ReflexiveDescription) -> bool:
    """Whether a linear map sends each source ray space into the target one."""
    if len(src.filtrations) != len(tgt.filtrations):
        return False
    for (_, rf), (_, rg) in zip(src.filtrations, tgt.filtrations):
        for level in sorted({st.level for st in rf.steps + rg.steps}):
            image = [matrix.vec(list(v)) for v in rf.space_at(level)]
            if not subspace_le(row_space_basis(image, matrix.nrows), rg.space_at(level)):
                return False
    return True
