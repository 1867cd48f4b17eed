"""Fans, class groups, and global lifting of reflexive data.

A fan is stored as a global ray matrix plus the ray index sets of its
maximal cones.  The class group is the cokernel of the grading map
M -> Z^rays, split via Smith normal form; the global lift of a
reflexive description at a Cox degree is the intersection of all ray
spaces, with per-chart sections given by the sub-intersections.

Validation is exact: strict convexity per maximal cone (no nonzero
nonnegative relation among its rays) and a separating functional for
each pair of maximal cones, decided by Motzkin's transposition theorem.
Global lifting is implemented only for reflexive descriptions, where the
intersection formula makes chart gluing automatic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cones import Cone, minimal_nonneg_solutions, positive_relation_exists
from .lattice import (
    IntMatrix,
    IntVector,
    LatticeQuotient,
    int_kernel_basis,
    int_matrix,
    rational_rank,
    reduce_by_sublattice,
)
from .linalg import Mat, Vector, solve
from .klyachko import ReflexiveDescription, filtration_lift_component
from .modules import intersect_ray_spaces


@dataclass(frozen=True)
class FanData:
    """Global ray matrix plus maximal cones as ray index tuples."""

    lattice_rank: int
    rays: IntMatrix
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rays = int_matrix(self.rays)
        object.__setattr__(self, "rays", rays)
        cones = tuple(tuple(sorted(int(i) for i in mc)) for mc in self.max_cones)
        object.__setattr__(self, "max_cones", cones)
        n = len(rays)
        for row in rays:
            if len(row) != self.lattice_rank:
                raise ValueError("ray length differs from lattice rank")
        for mc in cones:
            if not mc:
                raise ValueError("empty maximal cone")
            if any(i < 0 or i >= n for i in mc):
                raise ValueError("maximal cone has an out-of-range ray index")
            if positive_relation_exists([rays[i] for i in mc]):
                raise ValueError(f"cone {mc} is not strictly convex")
        _check_shared_faces(rays, cones)

    @property
    def ray_count(self) -> int:
        return len(self.rays)


def _check_shared_faces(rays: IntMatrix, cones) -> None:
    """Find a separating functional for each pair of maximal cones.

    Cones a and b are separated by m with <m, ray> = 0 on the shared rays,
    positive on the rest of a and negative on the rest of b.  By Motzkin's
    transposition theorem no such m exists exactly when a nonnegative
    relation among the columns r_i (i only in a), -r_j (j only in b) and
    +r_k, -r_k (k shared) puts weight on some r_i or -r_j.  Every such
    relation is a sum of minimal ones, so the minimal relations decide.
    """
    for a in range(len(cones)):
        for b in range(a + 1, len(cones)):
            common = [i for i in cones[a] if i in cones[b]]
            only_a = [i for i in cones[a] if i not in common]
            only_b = [i for i in cones[b] if i not in common]
            if not only_a and not only_b:
                raise ValueError(f"maximal cones {cones[a]} and {cones[b]} coincide")
            columns = ([rays[i] for i in only_a]
                       + [tuple(-x for x in rays[j]) for j in only_b + common]
                       + [rays[k] for k in common])
            strict = len(only_a) + len(only_b)
            if any(any(sol[:strict]) for sol in minimal_nonneg_solutions(columns)):
                raise ValueError(
                    f"no separating functional for cones {cones[a]} and {cones[b]}")

@dataclass(frozen=True)
class ClassGroupData:
    """Cokernel of the grading map with an explicit degree map."""

    free_rank: int
    torsion: tuple[int, ...]
    quotient: LatticeQuotient

    def degree(self, c: Sequence[int]) -> tuple[IntVector, IntVector]:
        return self.quotient.project(c)


def class_group(fan: FanData) -> ClassGroupData:
    """Z^rays modulo the image of the character lattice, split via SNF."""
    if rational_rank(fan.rays) != fan.lattice_rank:
        raise ValueError("rays do not span the lattice; class group undefined")
    columns = [[fan.rays[i][j] for i in range(fan.ray_count)]
               for j in range(fan.lattice_rank)]
    quot = reduce_by_sublattice(fan.ray_count, columns)
    return ClassGroupData(quot.free_rank, quot.torsion_moduli, quot)


@dataclass(frozen=True)
class ChartReduction:
    """Projection data for a chart whose cone is not full-dimensional."""

    kernel_basis: tuple[IntVector, ...]
    projection: IntMatrix  # rows of the map onto the reduced lattice
    reduced_cone: Cone


@dataclass(frozen=True)
class ChartData:
    cone: Cone
    reduction: Optional[ChartReduction]


def affine_chart(fan: FanData, cone_index: int) -> ChartData:
    """Chart cone for a maximal cone, with a reduction recipe when degenerate.

    Ray order inside the chart follows the sorted ray index tuple, so
    chart Cox degrees index that order.  Degenerate charts come with the
    quotient of the lattice by the common kernel of the chart's forms;
    the reduced cone is full-dimensional and drives the lift machinery.
    """
    if not 0 <= cone_index < len(fan.max_cones):
        raise ValueError("cone index out of range")
    idx = fan.max_cones[cone_index]
    rows = tuple(fan.rays[i] for i in idx)
    cone = Cone(fan.lattice_rank, rows)
    if cone.full_dimensional:
        return ChartData(cone, None)
    kernel = int_kernel_basis(rows)
    quot = reduce_by_sublattice(fan.lattice_rank, kernel)
    if quot.torsion:
        raise AssertionError("kernel lattice quotient acquired torsion")
    projection = quot.free_rows
    proj_t = Mat.from_rows(projection).transpose()  # d x d'
    reduced_rows = []
    for row in rows:
        sol = solve(proj_t, list(row))  # the unique l' with l' . projection = l
        if sol is None:
            raise AssertionError("ray does not factor through the reduction")
        reduced_rows.append(tuple(int(x) for x in sol))
    reduced = Cone(len(projection), tuple(reduced_rows))
    return ChartData(cone, ChartReduction(tuple(kernel), projection, reduced))


def global_reflexive_lift(fan: FanData, desc: ReflexiveDescription,
                          c: Sequence[int]) -> tuple[Vector, ...]:
    """Intersection of all ray spaces at levels c_rho over the whole fan."""
    if desc.rays() != tuple(range(fan.ray_count)):
        raise ValueError("description rays do not match the fan rays")
    c = tuple(int(x) for x in c)
    if len(c) != fan.ray_count:
        raise ValueError("degree length differs from ray count")
    return filtration_lift_component(desc, c)


def chart_section(fan: FanData, desc: ReflexiveDescription, cone_index: int,
                  m: Sequence[int]) -> tuple[Vector, ...]:
    """Sections over one chart at lattice point m: the sub-intersection."""
    if not 0 <= cone_index < len(fan.max_cones):
        raise ValueError("cone index out of range")
    m = tuple(int(x) for x in m)
    filt = dict(desc.filtrations)
    return intersect_ray_spaces(
        ((filt[i], sum(a * b for a, b in zip(fan.rays[i], m)))
         for i in fan.max_cones[cone_index]),
        desc.ambient_dim)
