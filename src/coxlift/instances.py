"""Canonical cones, closed-form dimension laws, and randomized instances.

The named check suites and the test suite draw on the same pool: the
smooth orthant, a two-dimensional cone with a torsion class group, and
the three-dimensional cone over a square whose lifts have closed-form
dimension laws.  Randomized modules and filtration descriptions are
generated from seeded ``random.Random`` instances so every run sees the
same data.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .cones import Cone, minimal_common_upper_bounds
from .linalg import Mat, rank
from .modules import (
    FiltrationModule,
    FinitelyPresentedModule,
    GradedModule,
    IndicatorConstraint,
    IndicatorModule,
    ReflexiveDescription,
    Relation,
    ShiftModule,
    maximal_ideal_module,
    ray_filtration,
    simple_module,
    structure_module,
)

ORTHANT2 = Cone(2, ((1, 0), (0, 1)))
QUOTIENT2 = Cone(2, ((0, 1), (2, -1)))  # class group Z/2
CONE_OVER_SQUARE = Cone(3, ((1, 0, 0), (0, 1, 0), (-1, 1, 1), (0, 0, 1)))

TEST_CONES = (ORTHANT2, QUOTIENT2, CONE_OVER_SQUARE)


def simple_lift_law(c: Sequence[int]) -> int:
    """Closed-form dims of the lifted simple module on the cone over a square."""
    c1, c2, c3, c4 = c
    if c1 <= 0 and c3 <= 0 and c2 == 0 and c4 == 0:
        return 1
    if c1 == 0 and c3 == 0 and c2 <= 0 and c4 <= 0:
        return 1
    return 0


def structure_lift_law(c: Sequence[int]) -> int:
    """dim 1 exactly on the nonnegative orthant of Cox degrees."""
    return 1 if all(x >= 0 for x in c) else 0


def ideal_lift_law(c: Sequence[int]) -> int:
    """The monomial ideal generated by the Cox variables."""
    return 1 if all(x >= 0 for x in c) and any(x > 0 for x in c) else 0


def codivisorial_lift_law(c1: int, c3: int) -> int:
    """Lift dims of the codivisorial quotient at degrees (c1, 0, c3, 0)."""
    return 1 - c1 - c3 if c1 + c3 <= 0 else 0


def random_subspace_chain(rng: random.Random, ambient: int, length: int) -> list[list[list[int]]]:
    """Nested spanning sets: prefixes of the rows of a random invertible matrix."""
    while True:
        mat = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(ambient)]
        if rank(Mat.from_rows(mat, ncols=ambient)) == ambient:
            break
    dims = sorted(rng.randint(0, ambient) for _ in range(length - 1)) + [ambient]
    return [[row[:] for row in mat[:d]] for d in dims]


def random_reflexive_description(cone: Cone, rng: random.Random,
                                 max_ambient: int = 3) -> ReflexiveDescription:
    ambient = rng.randint(1, max_ambient)
    filts = []
    for ray in range(cone.ray_count):
        njumps = rng.randint(1, 3)
        levels = sorted(rng.sample(range(-2, 3), njumps))
        chain = random_subspace_chain(rng, ambient, njumps)
        filts.append((ray, ray_filtration(list(zip(levels, chain)), ambient)))
    return ReflexiveDescription(ambient, tuple(filts))


def random_module(cone: Cone, rng: random.Random) -> GradedModule:
    kind = rng.choice(["structure", "ideal", "simple", "sub_indicator",
                       "quot_indicator", "filtration", "fp", "shift"])
    if kind == "structure":
        return structure_module(cone)
    if kind == "ideal":
        return maximal_ideal_module(cone)
    if kind == "simple":
        return simple_module(cone)
    if kind == "sub_indicator":
        rays = rng.sample(range(cone.ray_count), rng.randint(1, cone.ray_count))
        cons = tuple(IndicatorConstraint(r, ">=", rng.randint(0, 2)) for r in rays)
        return IndicatorModule(cone, "submodule", cons)
    if kind == "quot_indicator":
        rays = rng.sample(range(cone.ray_count), rng.randint(1, cone.ray_count))
        cons = tuple(IndicatorConstraint(r, "<=", rng.randint(-1, 2)) for r in rays)
        return IndicatorModule(cone, "quotient", cons)
    if kind == "filtration":
        return FiltrationModule(cone, random_reflexive_description(cone, rng, 2))
    if kind == "fp":
        d = cone.lattice_rank
        gens = tuple(tuple(rng.randint(-2, 2) for _ in range(d))
                     for _ in range(rng.randint(1, 3)))
        rels = []
        for _ in range(rng.randint(0, 2)):
            touched = rng.sample(range(len(gens)), rng.randint(1, len(gens)))
            top = gens[touched[0]]
            for t in touched[1:]:
                top = minimal_common_upper_bounds(cone, top, gens[t]).elements[0]
            coeffs = [Fraction(0)] * len(gens)
            for t in touched:
                coeffs[t] = Fraction(rng.choice([-2, -1, 1, 2]))
            rels.append(Relation(top, tuple(coeffs)))
        return FinitelyPresentedModule(cone, gens, tuple(rels))
    base = random_module(cone, rng)
    while isinstance(base, ShiftModule):
        base = random_module(cone, rng)
    by = tuple(rng.randint(-1, 1) for _ in range(cone.lattice_rank))
    return ShiftModule(base, by)


def generic_plane_description(ray_count: int) -> ReflexiveDescription:
    """Rank-3 description whose pairwise plane meets are in general position."""
    planes = {
        0: [[1, 0, 0], [0, 1, 0]],
        1: [[1, 0, 1], [0, 1, 1]],
        2: [[1, 0, 2], [0, 1, 3]],
        3: [[1, 0, 5], [0, 1, 7]],
    }
    full = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    filts = tuple(
        (i, ray_filtration([(0, planes[i % 4]), (1, full)], 3))
        for i in range(ray_count)
    )
    return ReflexiveDescription(3, filts)


def all_variant_modules(cone: Cone) -> list[GradedModule]:
    """One module per variant, for the smooth-chart re-indexing checks."""
    rng = random.Random(7)

    fp = FinitelyPresentedModule(
        cone,
        generators=((0,) * cone.lattice_rank, tuple(1 if i == 0 else 0 for i in range(cone.lattice_rank))),
        relations=(),
    )
    return [
        structure_module(cone),
        maximal_ideal_module(cone),
        simple_module(cone),
        fp,
        FiltrationModule(cone, random_reflexive_description(cone, rng, 2)),
        ShiftModule(simple_module(cone), (1,) * cone.lattice_rank),
    ]
