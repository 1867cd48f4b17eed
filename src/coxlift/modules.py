"""Degree-wise models of multigraded modules on an affine toric chart.

A module is a functor from the character lattice with the dual-cone
order to finite-dimensional rational vector spaces: a component per
degree plus a transport matrix per comparable pair, composing along
chains.  Variants:

* ``FinitelyPresentedModule`` - cokernel of a relation matrix between
  shifted free modules, evaluated degree by degree.
* ``IndicatorModule`` - zero/one-dimensional components cut out by ray
  inequalities; covers the structure ring, its maximal ideal, simple
  quotients and codivisorial quotients.
* ``FiltrationModule`` - a cone plus a ``ReflexiveDescription``, the
  one representation of per-ray filtration data, validated once in its
  constructor; components are intersections of the filtration steps in
  force inside the ambient space, transports are inclusions.
* ``ShiftModule`` / ``DirectSumModule`` - degree shifts and sums.

Everything is immutable and hashable, so evaluation is pure and results
may be cached or shipped to worker processes freely.

Caching.  The module classes hash once, at construction (``HashOnce``),
so a cache lookup costs a stored integer; equality stays structural, so
equal modules share entries however they were built.  Per process and
without bound, as the other module-keyed caches:

* ``_fp_quotient_data``: the reduced relations of a finitely presented
  module, keyed by ``(module, m)``;
* ``_filtration_subspace``: the component of a filtration module, keyed
  by ``(module, step index per ray)``, the filtration steps in force at
  ``L(m)`` (-1 below the first jump): at most the product over the rays
  of one plus the number of steps;
* ``_filtration_transport``: the inclusion between two such components,
  ``matrix_in_basis(target, source)``, keyed by the pair of step keys.

A cached transport is the very ``Mat`` that every later ``action`` call
returns: callers read it and must not mutate it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .cones import Cone, HashOnce, leq_sigma
from .lattice import int_vector, plain_int
from .linalg import (
    Mat,
    Vector,
    block_diagonal,
    frac_vector,
    intersect_row_spaces,
    matrix_in_basis,
    reduce_by_rref,
    rref,
    row_space_basis,
    subspace_le,
)

IntVector = tuple[int, ...]


@dataclass(frozen=True)
class Component:
    """A graded component, known by its dimension."""

    dim: int


def _add(m: Sequence[int], by: Sequence[int]) -> IntVector:
    return tuple(a + b for a, b in zip(m, by))


class GradedModule:
    """Common interface; concrete variants implement the two hooks."""

    cone: Cone

    def component(self, m: Sequence[int]) -> Component:
        m = int_vector(m)
        if len(m) != self.cone.lattice_rank:
            raise ValueError("degree length differs from lattice rank")
        return self._component(m)

    def action(self, m: Sequence[int], m_prime: Sequence[int]) -> Mat:
        m = int_vector(m)
        m_prime = int_vector(m_prime)
        if not leq_sigma(self.cone, m, m_prime):
            raise ValueError(f"{m} is not below {m_prime} in the dual-cone order")
        return self._action(m, m_prime)

    def _component(self, m: IntVector) -> Component:
        raise NotImplementedError

    def _action(self, m: IntVector, m_prime: IntVector) -> Mat:
        raise NotImplementedError


# --------------------------------------------------------------------------
# indicator modules


@dataclass(frozen=True)
class IndicatorConstraint:
    ray: int
    op: str  # "<=" or ">="
    bound: int

    def __post_init__(self):
        if self.op not in ("<=", ">="):
            raise ValueError(f"unknown op {self.op!r}")
        object.__setattr__(self, "ray", plain_int(self.ray))
        object.__setattr__(self, "bound", plain_int(self.bound))

    def holds(self, value: int) -> bool:
        return value <= self.bound if self.op == "<=" else value >= self.bound


@dataclass(frozen=True, eq=False)
class IndicatorModule(HashOnce, GradedModule):
    """Support cut out by ray inequalities; identity transports inside.

    ``style`` records the intended structure: submodule-style supports
    are up-closed, quotient-style supports are order-convex (transports
    leaving the support are zero).  Both give the same matrices; the
    style is validated separately by :func:`validate_indicator_style`.
    """

    cone: Cone
    style: str
    constraints: tuple[IndicatorConstraint, ...]
    exclude: tuple[IntVector, ...] = ()

    def __post_init__(self):
        if self.style not in ("submodule", "quotient"):
            raise ValueError("style must be 'submodule' or 'quotient'")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for c in self.constraints:
            if not 0 <= c.ray < self.cone.ray_count:
                raise ValueError("constraint ray index out of range")
        object.__setattr__(
            self, "exclude", tuple(int_vector(p) for p in self.exclude)
        )
        super().__post_init__()

    def in_support(self, m: Sequence[int]) -> bool:
        m = int_vector(m)
        values = self.cone.evaluate(m)
        if not all(c.holds(values[c.ray]) for c in self.constraints):
            return False
        return m not in self.exclude

    def _component(self, m: IntVector) -> Component:
        return Component(int(self.in_support(m)))

    def _action(self, m: IntVector, m_prime: IntVector) -> Mat:
        return Mat.ones(int(self.in_support(m_prime)), int(self.in_support(m)))


def structure_module(cone: Cone) -> IndicatorModule:
    """The chart's coordinate ring as a module over itself."""
    cons = tuple(IndicatorConstraint(i, ">=", 0) for i in range(cone.ray_count))
    return IndicatorModule(cone, "submodule", cons)


def maximal_ideal_module(cone: Cone) -> IndicatorModule:
    """The maximal homogeneous ideal: the monoid minus the origin."""
    cons = tuple(IndicatorConstraint(i, ">=", 0) for i in range(cone.ray_count))
    return IndicatorModule(cone, "submodule", cons, ((0,) * cone.lattice_rank,))


def simple_module(cone: Cone) -> IndicatorModule:
    """One-dimensional quotient concentrated in degree zero."""
    cons = tuple(IndicatorConstraint(i, op, 0)
                 for i in range(cone.ray_count) for op in ("<=", ">="))
    return IndicatorModule(cone, "quotient", cons)


def codivisorial_module(cone: Cone, c: Sequence[int], rays: Sequence[int]) -> IndicatorModule:
    """Quotient supported on {m : l_rho(m) <= -c_rho for rho in rays}."""
    c = int_vector(c)
    if len(c) != cone.ray_count:
        raise ValueError("degree length differs from ray count")
    cons = tuple(IndicatorConstraint(r, "<=", -c[plain_int(r)]) for r in rays)
    return IndicatorModule(cone, "quotient", cons)


def validate_indicator_style(module: IndicatorModule, radius: int = 2) -> None:
    """Check the style rule on all comparable pairs within a cube.

    Submodule-style supports must be up-closed; quotient-style supports
    must be order-convex (the closure condition that makes the
    identity-inside/zero-outside transports compose).
    """
    pts = [tuple(p) for p in product(range(-radius, radius + 1),
                                     repeat=module.cone.lattice_rank)]
    inside = [p for p in pts if module.in_support(p)]
    if module.style == "submodule":
        for m in inside:
            for m2 in pts:
                if leq_sigma(module.cone, m, m2) and not module.in_support(m2):
                    raise ValueError(f"support not up-closed: {m} <= {m2}")
    else:
        for m in inside:
            for m2 in inside:
                if not leq_sigma(module.cone, m, m2):
                    continue
                for mid in pts:
                    if (leq_sigma(module.cone, m, mid)
                            and leq_sigma(module.cone, mid, m2)
                            and not module.in_support(mid)):
                        raise ValueError(
                            f"support not order-convex at {m} <= {mid} <= {m2}")


# --------------------------------------------------------------------------
# finitely presented modules


@dataclass(frozen=True)
class Relation:
    degree: IntVector
    coeffs: tuple[Fraction, ...]


@dataclass(frozen=True, eq=False)
class FinitelyPresentedModule(HashOnce, GradedModule):
    """Cokernel of relations between generators at fixed degrees.

    A relation at degree e with coefficient vector a identifies
    sum_i a_i * (generator i transported to e) with zero; it may only
    touch generators whose degree lies below e.
    """

    cone: Cone
    generators: tuple[IntVector, ...]
    relations: tuple[Relation, ...] = ()

    def __post_init__(self):
        gens = tuple(int_vector(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        rels = []
        for rel in self.relations:
            deg = int_vector(rel.degree)
            coeffs = frac_vector(rel.coeffs)
            if len(coeffs) != len(gens):
                raise ValueError("relation coefficient count differs from generators")
            for g, a in zip(gens, coeffs):
                if a and not leq_sigma(self.cone, g, deg):
                    raise ValueError(
                        f"relation at {deg} touches generator {g} outside its cone")
            rels.append(Relation(deg, coeffs))
        object.__setattr__(self, "relations", tuple(rels))
        super().__post_init__()

    def _data(self, m: IntVector):
        return _fp_quotient_data(self, m)

    def _component(self, m: IntVector) -> Component:
        return Component(len(self._data(m)[2]))

    def _action(self, m: IntVector, m_prime: IntVector) -> Mat:
        active_s, _, free_s = self._data(m)
        active_t, red_t, free_t = self._data(m_prime)
        pos = {g: i for i, g in enumerate(active_t)}
        cols = []
        for f in free_s:
            vec = [Fraction(0)] * len(active_t)
            vec[pos[active_s[f]]] = Fraction(1)
            rest = reduce_by_rref(red_t, vec)[1]
            cols.append([rest[g] for g in free_t])
        return Mat(len(free_s), len(free_t), cols).transpose()


@lru_cache(maxsize=None)
def _fp_quotient_data(module: FinitelyPresentedModule, m: IntVector):
    active = tuple(i for i, g in enumerate(module.generators)
                   if leq_sigma(module.cone, g, m))
    rows = []
    for rel in module.relations:
        if leq_sigma(module.cone, rel.degree, m):
            rows.append([rel.coeffs[i] for i in active])
    red, pivots = rref(Mat.from_rows(rows, ncols=len(active)))
    red_rows = tuple(tuple(red.rows[i]) for i in range(len(pivots)))
    pivot_set = set(pivots)
    free = tuple(i for i in range(len(active)) if i not in pivot_set)
    return active, red_rows, free


# --------------------------------------------------------------------------
# filtration modules


@dataclass(frozen=True)
class FiltrationStep:
    level: int
    basis: tuple[Vector, ...]


@dataclass(frozen=True)
class RayFiltration:
    """Nondecreasing step function of subspaces with finitely many jumps."""

    steps: tuple[FiltrationStep, ...]

    def space_at(self, level: int) -> tuple[Vector, ...]:
        levels = [s.level for s in self.steps]
        idx = bisect_right(levels, level) - 1
        if idx < 0:
            return ()
        return self.steps[idx].basis


def ray_filtration(jumps: Sequence[tuple[int, Sequence[Sequence]]], ambient: int) -> RayFiltration:
    """Build a filtration from (level, spanning vectors) jump data."""
    steps = []
    for level, vectors in sorted(jumps, key=lambda j: j[0]):
        steps.append(FiltrationStep(plain_int(level), row_space_basis(vectors, ambient)))
    out = []
    for st in steps:
        if out and st.level == out[-1].level:
            out[-1] = st
        else:
            out.append(st)
    return RayFiltration(tuple(out))


def intersect_ray_spaces(levels: Iterable[tuple[RayFiltration, int]],
                         ambient: int) -> tuple[Vector, ...]:
    """Intersection of each filtration's space at its level, inside the ambient space."""
    current = row_space_basis(
        [[1 if i == j else 0 for j in range(ambient)] for i in range(ambient)], ambient)
    for rf, level in levels:
        current = intersect_row_spaces(current, rf.space_at(level), ambient)
        if not current:
            return ()
    return current


def full_at(level: int, ambient: int) -> RayFiltration:
    return ray_filtration([(level, [[1 if i == j else 0 for j in range(ambient)]
                                    for i in range(ambient)])], ambient)


@dataclass(frozen=True)
class ReflexiveDescription:
    """Ambient dimension plus one full filtration per ray index 0..n-1.

    The one home of per-ray filtration data, validated here: the ray
    indices are 0..n-1, each given once, and each filtration is zero
    below its first jump, nested, and the whole ambient space at its top
    jump.  ``filtrations`` is stored sorted by ray, so entry ``i`` is ray
    ``i``'s.
    """

    ambient_dim: int
    filtrations: tuple[tuple[int, RayFiltration], ...]

    def __post_init__(self):
        ambient = plain_int(self.ambient_dim)
        filts = sorted(((plain_int(ray), rf) for ray, rf in self.filtrations),
                       key=lambda pair: pair[0])
        if [ray for ray, _ in filts] != list(range(len(filts))):
            raise ValueError("filtration rays must be 0..n-1, each given once")
        for ray, rf in filts:
            if not rf.steps:
                raise ValueError(f"ray {ray}: empty filtration")
            if any(a.level >= b.level for a, b in zip(rf.steps, rf.steps[1:])):
                raise ValueError(f"ray {ray}: filtration levels are not increasing")
            prev: tuple[Vector, ...] = ()
            for st in rf.steps:
                for v in st.basis:
                    if len(v) != ambient:
                        raise ValueError("basis vector length differs from ambient dim")
                if not subspace_le(prev, st.basis):
                    raise ValueError(f"ray {ray}: filtration is not nondecreasing")
                prev = st.basis
            if len(rf.steps[-1].basis) != ambient:
                raise ValueError(f"ray {ray}: filtration is not full")
        object.__setattr__(self, "filtrations", tuple(filts))


@dataclass(frozen=True, eq=False)
class FiltrationModule(HashOnce, GradedModule):
    """Components are intersections of per-ray filtration spaces.

    The filtration data is a ``ReflexiveDescription``, with one
    filtration per cone ray.  A component depends on m only through the
    step in force on each ray, so components and transports are cached
    by those step indices.
    """

    cone: Cone
    description: ReflexiveDescription

    def __post_init__(self):
        if len(self.description.filtrations) != self.cone.ray_count:
            raise ValueError("exactly one filtration per cone ray is required")
        object.__setattr__(self, "_levels", tuple(tuple(st.level for st in rf.steps)
                                                  for _, rf in self.description.filtrations))
        super().__post_init__()

    def _steps(self, m: Sequence[int]) -> IntVector:
        """Per ray, the index of the step in force at L(m); -1 below the first jump."""
        return tuple(bisect_right(levels, v) - 1
                     for levels, v in zip(self._levels, self.cone.evaluate(m)))

    def subspace(self, m: Sequence[int]) -> tuple[Vector, ...]:
        """Canonical basis of the component inside the ambient space."""
        return _filtration_subspace(self, self._steps(int_vector(m)))

    def _component(self, m: IntVector) -> Component:
        return Component(len(_filtration_subspace(self, self._steps(m))))

    def _action(self, m: IntVector, m_prime: IntVector) -> Mat:
        return _filtration_transport(self, self._steps(m), self._steps(m_prime))


@lru_cache(maxsize=None)
def _filtration_subspace(module: FiltrationModule, steps: IntVector) -> tuple[Vector, ...]:
    if min(steps) < 0:
        return ()  # some ray is below its first jump
    desc = module.description
    return intersect_ray_spaces(((rf, rf.steps[i].level)
                                 for (_, rf), i in zip(desc.filtrations, steps)),
                                desc.ambient_dim)


@lru_cache(maxsize=None)
def _filtration_transport(module: FiltrationModule, source: IntVector,
                          target: IntVector) -> Mat:
    return matrix_in_basis(_filtration_subspace(module, target),
                           _filtration_subspace(module, source))


# --------------------------------------------------------------------------
# shifts and sums


@dataclass(frozen=True, eq=False)
class ShiftModule(HashOnce, GradedModule):
    base: GradedModule
    by: IntVector

    def __post_init__(self):
        object.__setattr__(self, "by", int_vector(self.by))
        if len(self.by) != self.base.cone.lattice_rank:
            raise ValueError("shift length differs from lattice rank")
        super().__post_init__()

    @property
    def cone(self) -> Cone:
        return self.base.cone

    def _component(self, m: IntVector) -> Component:
        return self.base.component(_add(m, self.by))

    def _action(self, m: IntVector, m_prime: IntVector) -> Mat:
        return self.base.action(_add(m, self.by), _add(m_prime, self.by))


@dataclass(frozen=True, eq=False)
class DirectSumModule(HashOnce, GradedModule):
    parts: tuple[GradedModule, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("empty direct sum")
        cone = self.parts[0].cone
        if any(p.cone != cone for p in self.parts):
            raise ValueError("direct sum parts live on different cones")
        super().__post_init__()

    @property
    def cone(self) -> Cone:
        return self.parts[0].cone

    def _component(self, m: IntVector) -> Component:
        return Component(sum(p.component(m).dim for p in self.parts))

    def _action(self, m: IntVector, m_prime: IntVector) -> Mat:
        return block_diagonal([p.action(m, m_prime) for p in self.parts])


# --------------------------------------------------------------------------
# morphisms


class GradedMorphism:
    """Degree-preserving morphism given by a per-degree matrix rule."""

    def __init__(self, source: GradedModule, target: GradedModule,
                 rule: Callable[[IntVector], Mat]):
        if source.cone != target.cone:
            raise ValueError("morphism endpoints live on different cones")
        self.source = source
        self.target = target
        self._rule = rule

    def matrix(self, m: Sequence[int]) -> Mat:
        m = int_vector(m)
        out = self._rule(m)
        want = (self.target.component(m).dim, self.source.component(m).dim)
        if (out.nrows, out.ncols) != want:
            raise ValueError(f"morphism matrix at {m} has shape "
                             f"{(out.nrows, out.ncols)}, expected {want}")
        return out


def morphism(source: GradedModule, target: GradedModule,
             rule: Callable[[IntVector], Mat],
             validate_radius: Optional[int] = 2) -> GradedMorphism:
    """Wrap a matrix rule, checking naturality on a sampled cube."""
    f = GradedMorphism(source, target, rule)
    if validate_radius is not None:
        d = source.cone.lattice_rank
        pts = [tuple(p) for p in product(range(-validate_radius, validate_radius + 1),
                                         repeat=d)]
        for m in pts:
            fm = f.matrix(m)
            for m2 in pts:
                if m2 == m or not leq_sigma(source.cone, m, m2):
                    continue
                lhs = target.action(m, m2).mul(fm)
                rhs = f.matrix(m2).mul(source.action(m, m2))
                if lhs != rhs:
                    raise ValueError(f"naturality fails on {m} <= {m2}")
    return f


def identity_morphism(module: GradedModule) -> GradedMorphism:
    return GradedMorphism(module, module,
                          lambda m: Mat.identity(module.component(m).dim))


def indicator_morphism(source: GradedModule, target: GradedModule) -> GradedMorphism:
    """Identity wherever both components are nonzero, zero elsewhere.

    Natural between indicator modules whose supports make it so, such as
    a submodule included into the structure ring or a quotient of it.
    """
    return GradedMorphism(source, target,
                          lambda m: Mat.ones(target.component(m).dim, source.component(m).dim))


def structure_to_simple(cone: Cone) -> GradedMorphism:
    """Canonical quotient from the structure ring onto the simple module."""
    return indicator_morphism(structure_module(cone), simple_module(cone))


def ideal_to_structure(cone: Cone) -> GradedMorphism:
    """Canonical inclusion of the maximal ideal into the structure ring."""
    return indicator_morphism(maximal_ideal_module(cone), structure_module(cone))
