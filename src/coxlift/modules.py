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
* ``SheafifiedModule`` - a Cox rule (a ``dim`` and an ``act`` per Cox
  degree) read off at ``L(m)``.  ``FiltrationModule`` is the one of a
  ``ReflexiveDescription``, the one representation of per-ray
  filtration data, validated once in its constructor, the one place
  that rules on levels (a level given twice is rejected); its component
  at c is the intersection of the filtration steps in force at c, its
  transports are inclusions.
* ``ShiftModule`` / ``DirectSumModule`` - degree shifts and sums.

Reading.  The public methods and the constructors read each point or
Cox degree once, through ``Cone.point``, ``Cone.degree`` or
``CoxRule._degree`` (all ``cones._fixed_length``); a transport also
checks its order.  The hooks under them (``_component``, ``_action``,
``_dim``, ``_act``, ``_space``, ``_in_support``, ``GradedMorphism._matrix``)
take values so read and check nothing again; a module looks up the Cox
coordinates of a read point through ``Cone._cox``, and shifts, sums,
the lift and ``derived`` call hooks.

Everything is immutable and hashable, with structural equality, so
evaluation is pure.

Memos.  An object that memoizes keeps its memos on itself, so they live
exactly as long as it does:

* ``FinitelyPresentedModule``: the reduced relations at each point m;
* ``ReflexiveDescription``: the intersection of the ray spaces by step
  key, the number of filtration jumps at or below each ray's level (0
  below the first jump), at most the product over the rays of one plus
  the number of steps; and the inclusion between two such intersections
  (``act``), ``matrix_in_basis(target, source)``, by the pair of step
  keys.  Every module over the description, and
  ``klyachko.filtration_lift_component``, read these.

A memoized inclusion is the very ``Mat`` that every later ``action``
call returns, and every 0/1 transport (``Mat.ones``) is one of four
shared matrices: callers read them and must not mutate them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import attrgetter, ge
from typing import Callable, Iterable, Sequence

from .cones import Cone, _fixed_length, _leq, cox_le
from .lattice import index_in, nonnegative_int, plain_int
from .linalg import (
    ONE,
    ZERO,
    Mat,
    Vector,
    _pair,
    _sequence,
    block_diagonal,
    frac_vector,
    intersect_row_spaces,
    matrix_in_basis,
    rref,
    row_space_basis,
    subspace_le,
)

IntVector = tuple[int, ...]

# half-width of the cube on which the sampled checks (``morphism``,
# ``validate_indicator_style``) test their condition
SAMPLE_RADIUS = 2


def _sample_cube(d: int) -> list[IntVector]:
    return list(product(range(-SAMPLE_RADIUS, SAMPLE_RADIUS + 1), repeat=d))


def _add(m: Sequence[int], by: Sequence[int]) -> IntVector:
    return tuple(a + b for a, b in zip(m, by))


class GradedModule:
    """Common interface; concrete variants implement the two hooks.

    The public methods read each point once, through ``Cone.point``, and
    check it; the hooks ``_component`` and ``_action`` take points so read
    (of the lattice rank, and ``m <= m'`` for ``_action``) and check
    nothing again.
    """

    cone: Cone

    def component(self, m: Sequence[int]) -> int:
        """The dimension of the component at m."""
        return self._component(self.cone.point(m))

    def action(self, m: Sequence[int], m_prime: Sequence[int]) -> Mat:
        """The transport from m to m', for m below m' in the dual-cone order."""
        m, m_prime = self.cone.point(m), self.cone.point(m_prime)
        if not _leq(self.cone, m, m_prime):
            raise ValueError(f"{m} is not below {m_prime} in the dual-cone order")
        return self._action(m, m_prime)

    def _component(self, m: IntVector) -> int:
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


@dataclass(frozen=True)
class IndicatorModule(GradedModule):
    """Support cut out by ray inequalities; identity transports inside.

    ``style`` records the intended structure: submodule-style supports
    are up-closed, quotient-style supports are order-convex (transports
    leaving the support are zero).  Both give the same matrices.  No
    constructor and no command checks the style: nothing in the library
    calls :func:`validate_indicator_style`, sampled evidence on a cube.
    """

    cone: Cone
    style: str
    constraints: tuple[IndicatorConstraint, ...]
    exclude: tuple[IntVector, ...] = ()

    def __post_init__(self):
        if self.style not in ("submodule", "quotient"):
            raise ValueError("style must be 'submodule' or 'quotient'")
        object.__setattr__(self, "constraints", tuple(_sequence(self.constraints)))
        for c in self.constraints:
            index_in(c.ray, self.cone.ray_count, "constraint ray")
        object.__setattr__(self, "exclude", tuple(
            self.cone.point(p, "excluded point") for p in _sequence(self.exclude)))

    def in_support(self, m: Sequence[int]) -> bool:
        return self._in_support(self.cone.point(m))

    def _in_support(self, m: IntVector) -> bool:
        values = self.cone._cox(m)
        if not all(c.holds(values[c.ray]) for c in self.constraints):
            return False
        return m not in self.exclude

    def _component(self, m: IntVector) -> int:
        return int(self._in_support(m))

    def _action(self, m: IntVector, m_prime: IntVector) -> Mat:
        return Mat.ones(int(self._in_support(m_prime)), int(self._in_support(m)))


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
    c = cone.degree(c)
    rays = tuple(index_in(r, cone.ray_count, "ray index") for r in _sequence(rays))
    cons = tuple(IndicatorConstraint(r, "<=", -c[r]) for r in rays)
    return IndicatorModule(cone, "quotient", cons)


def validate_indicator_style(module: IndicatorModule) -> None:
    """Check the style rule on all comparable pairs within a cube.

    Submodule-style supports must be up-closed; quotient-style supports
    must be order-convex (the closure condition that makes the
    identity-inside/zero-outside transports compose).  This is sampled
    evidence, not a decision: only points of the cube
    ``[-SAMPLE_RADIUS, SAMPLE_RADIUS]^d`` are tested, so a violation
    outside it passes.
    """
    cone = module.cone
    pts = _sample_cube(cone.lattice_rank)
    inside = [p for p in pts if module._in_support(p)]
    if module.style == "submodule":
        for m in inside:
            for m2 in pts:
                if _leq(cone, m, m2) and not module._in_support(m2):
                    raise ValueError(f"support not up-closed: {m} <= {m2}")
    else:
        for m in inside:
            for m2 in inside:
                if not _leq(cone, m, m2):
                    continue
                for mid in pts:
                    if _leq(cone, m, mid) and _leq(cone, mid, m2) and not module._in_support(mid):
                        raise ValueError(
                            f"support not order-convex at {m} <= {mid} <= {m2}")


# --------------------------------------------------------------------------
# finitely presented modules


@dataclass(frozen=True)
class Relation:
    degree: IntVector
    coeffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class FinitelyPresentedModule(GradedModule):
    """Cokernel of relations between generators at fixed degrees.

    A relation at degree e with coefficient vector a identifies
    sum_i a_i * (generator i transported to e) with zero; it may only
    touch generators whose degree lies below e.
    """

    cone: Cone
    generators: tuple[IntVector, ...]
    relations: tuple[Relation, ...] = ()

    def __post_init__(self):
        gens = tuple(self.cone.point(g, "generator") for g in _sequence(self.generators))
        object.__setattr__(self, "generators", gens)
        rels = []
        for rel in _sequence(self.relations):
            deg = self.cone.point(rel.degree, "relation degree")
            coeffs = frac_vector(rel.coeffs)
            if len(coeffs) != len(gens):
                raise ValueError("relation coefficient count differs from generators")
            for g, a in zip(gens, coeffs):
                if a and not _leq(self.cone, g, deg):
                    raise ValueError(
                        f"relation at {deg} touches generator {g} outside its cone")
            rels.append(Relation(deg, coeffs))
        object.__setattr__(self, "relations", tuple(rels))
        object.__setattr__(self, "_quotients", {})

    def _data(self, m: IntVector):
        """``(active generators, reduced relation row by pivot, free columns)`` at m."""
        out = self._quotients.get(m)
        if out is None:
            cox, top = self.cone._cox, self.cone._cox(m)
            active = tuple(i for i, g in enumerate(self.generators)
                           if cox_le(cox(g), top))
            rows = [[rel.coeffs[i] for i in active] for rel in self.relations
                    if cox_le(cox(rel.degree), top)]
            red, pivots = rref(Mat(len(rows), len(active), rows))
            pivot_rows = {p: tuple(red.rows[i]) for i, p in enumerate(pivots)}
            free = tuple(i for i in range(len(active)) if i not in pivot_rows)
            out = self._quotients[m] = active, pivot_rows, free
        return out

    def _component(self, m: IntVector) -> int:
        return len(self._data(m)[2])

    def _action(self, m: IntVector, m_prime: IntVector) -> Mat:
        active_s, _, free_s = self._data(m)
        active_t, pivot_rows, free_t = self._data(m_prime)
        pos = {g: i for i, g in enumerate(active_t)}
        rows = [[] for _ in free_t]
        # in RREF a unit vector is reduced at a free column, and minus its row at a pivot
        for f in free_s:
            p = pos[active_s[f]]
            row = pivot_rows.get(p)
            for out, g in zip(rows, free_t):
                out.append((ONE if g == p else ZERO) if row is None else -row[g])
        return Mat(len(free_t), len(free_s), rows)


# --------------------------------------------------------------------------
# Cox-degree rules (Z^n-graded data), sheafification and filtrations


class CoxRule:
    """Protocol for Z^rays-graded data: a dim and an action per degree pair.

    As in ``GradedModule``, the public methods read each degree once and
    check it; the hooks ``_dim`` and ``_act`` take degrees so read (one
    entry per ray, and ``c <= c'`` componentwise for ``_act``), and the
    rules implement only the hooks.
    """

    ray_count: int

    def _degree(self, c: Sequence[int], what: str = "degree") -> IntVector:
        """``c`` read as a Cox degree: one plain integer per ray."""
        return _fixed_length(c, self.ray_count, what, "the ray count")

    def dim(self, c: Sequence[int]) -> int:
        """The dimension of the component at Cox degree c."""
        return self._dim(self._degree(c))

    def act(self, c: Sequence[int], c_prime: Sequence[int]) -> Mat:
        """The transport from c to c', for c below c' componentwise."""
        c, c_prime = self._degree(c), self._degree(c_prime)
        if not cox_le(c, c_prime):
            raise ValueError(f"{c} is not below {c_prime} componentwise")
        return self._act(c, c_prime)

    def _dim(self, c: IntVector) -> int:
        raise NotImplementedError

    def _act(self, c: IntVector, c_prime: IntVector) -> Mat:
        """``Mat.ones``, the transport of the 0/1 rules; larger rules override it."""
        return Mat.ones(self._dim(c_prime), self._dim(c))


@dataclass(frozen=True)
class ShiftedCoxRule(CoxRule):
    """Rule of the shifted Cox ring: dim 1 exactly when c + shift >= 0."""

    ray_count: int
    shift: IntVector

    def __post_init__(self):
        object.__setattr__(self, "shift", self._degree(self.shift, "shift"))
        # the least degree of dim 1, -shift, read once here
        object.__setattr__(self, "_floor", tuple(-s for s in self.shift))

    def _dim(self, c: IntVector) -> int:
        return 1 if all(map(ge, c, self._floor)) else 0


@dataclass(frozen=True)
class SpikeRule(CoxRule):
    """One-dimensional component at a single Cox degree, zero transports."""

    ray_count: int
    degree: IntVector

    def __post_init__(self):
        object.__setattr__(self, "degree", self._degree(self.degree))

    def _dim(self, c: IntVector) -> int:
        return 1 if c == self.degree else 0


@dataclass(frozen=True)
class DirectSumRule(CoxRule):
    parts: tuple[CoxRule, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(_sequence(self.parts)))
        if not self.parts:
            raise ValueError("empty direct sum")
        if len({p.ray_count for p in self.parts}) > 1:
            raise ValueError("direct sum parts have different ray counts")

    @property
    def ray_count(self) -> int:  # type: ignore[override]
        return self.parts[0].ray_count

    def _dim(self, c: IntVector) -> int:
        return sum(p._dim(c) for p in self.parts)

    def _act(self, c: IntVector, c_prime: IntVector) -> Mat:
        return block_diagonal([p._act(c, c_prime) for p in self.parts])


@dataclass(frozen=True)
class SheafifiedModule(GradedModule):
    """The graded module read off a Cox rule along the grading map.

    Component at m is the rule's component at L(m); only degrees in the
    image of L are visible.
    """

    cone: Cone
    rule: CoxRule

    def __post_init__(self):
        if self.rule.ray_count != self.cone.ray_count:
            raise ValueError(f"the Cox rule has {self.rule.ray_count} rays, "
                             f"but the cone has {self.cone.ray_count}")

    def _component(self, m: IntVector) -> int:
        return self.rule._dim(self.cone._cox(m))

    def _action(self, m: IntVector, m_prime: IntVector) -> Mat:
        # L keeps the order, and the rule has one entry per cone ray
        return self.rule._act(self.cone._cox(m), self.cone._cox(m_prime))


@dataclass(frozen=True)
class FiltrationStep:
    level: int
    basis: tuple[Vector, ...]


@dataclass(frozen=True)
class RayFiltration:
    """Nondecreasing step function of subspaces with finitely many jumps."""

    steps: tuple[FiltrationStep, ...]

    def space_at(self, level: int) -> tuple[Vector, ...]:
        idx = bisect_right(self.steps, level, key=attrgetter("level"))
        return self.steps[idx - 1].basis if idx else ()


def ray_filtration(jumps: Sequence[tuple[int, Sequence[Sequence]]], ambient: int) -> RayFiltration:
    """Build a filtration from (level, spanning vectors) jump data, sorted by
    level once each level is read."""
    ambient = nonnegative_int(ambient, "ambient dimension")
    jumps = (_pair(j, "filtration jump") for j in _sequence(jumps))
    read = [(plain_int(level), vectors) for level, vectors in jumps]
    return RayFiltration(tuple(
        FiltrationStep(level, row_space_basis(vectors, ambient))
        for level, vectors in sorted(read, key=lambda j: j[0])))


def intersect_ray_spaces(levels: Iterable[tuple[RayFiltration, int]],
                         ambient: int) -> tuple[Vector, ...]:
    """Intersection of each filtration's space at its level, inside the ambient space."""
    current = tuple(map(tuple, Mat.identity(ambient).rows))
    for rf, level in levels:
        current = intersect_row_spaces(current, rf.space_at(level), ambient)
        if not current:
            return ()
    return current


def full_at(level: int, ambient: int) -> RayFiltration:
    return ray_filtration([(level, Mat.identity(ambient).rows)], ambient)


@dataclass(frozen=True)
class ReflexiveDescription(CoxRule):
    """Ambient dimension plus one full filtration per ray index 0..n-1.

    The one home of per-ray filtration data, validated here: the ray
    indices are 0..n-1, each given once, and each filtration is zero
    below its first jump, nested, and the whole ambient space at its top
    jump.  ``filtrations`` is stored sorted by ray, so entry ``i`` is ray
    ``i``'s.  As a Cox rule, its component at c is ``space(c)``.
    """

    ambient_dim: int
    filtrations: tuple[tuple[int, RayFiltration], ...]

    def __post_init__(self):
        ambient = nonnegative_int(self.ambient_dim, "ambient dimension")
        entries = (_pair(e, "filtration entry") for e in _sequence(self.filtrations))
        filts = sorted(((plain_int(ray), rf) for ray, rf in entries), key=lambda pair: pair[0])
        if [ray for ray, _ in filts] != list(range(len(filts))):
            raise ValueError("filtration rays must be 0..n-1, each given once")
        for ray, rf in filts:
            if not isinstance(rf, RayFiltration):
                raise ValueError(f"ray {ray}: {rf!r} is not a RayFiltration")
            steps = tuple(_sequence(rf.steps))
            if not steps:
                raise ValueError(f"ray {ray}: empty filtration")
            for st in steps:
                if not isinstance(st, FiltrationStep):
                    raise ValueError(f"ray {ray}: {st!r} is not a FiltrationStep")
                plain_int(st.level)
            if any(a.level >= b.level for a, b in zip(steps, steps[1:])):
                raise ValueError(f"ray {ray}: filtration levels are not increasing")
            prev: tuple[Vector, ...] = ()
            for st in steps:
                # ``subspace_le`` here and ``klyachko`` read a step's basis as RREF
                basis = row_space_basis(st.basis, ambient)
                if basis != tuple(map(frac_vector, st.basis)):
                    raise ValueError(f"ray {ray}: the basis at level {st.level} is not "
                                     f"the reduced row echelon basis of its span")
                if not subspace_le(prev, basis):
                    raise ValueError(f"ray {ray}: filtration is not nondecreasing")
                prev = basis
            if len(prev) != ambient:
                raise ValueError(f"ray {ray}: filtration is not full")
        object.__setattr__(self, "filtrations", tuple(filts))
        object.__setattr__(self, "_levels", tuple(tuple(st.level for st in rf.steps)
                                                  for _, rf in filts))
        object.__setattr__(self, "_spaces", {})
        object.__setattr__(self, "_inclusions", {})

    @property
    def ray_count(self) -> int:  # type: ignore[override]
        return len(self._levels)

    def _steps(self, levels: IntVector) -> IntVector:
        """Per ray, the number of jumps at or below its level: 0 below the first jump."""
        return tuple(map(bisect_right, self._levels, levels))

    def space(self, levels: Sequence[int]) -> tuple[Vector, ...]:
        """Canonical basis of the intersection of the ray spaces, ray i at ``levels[i]``."""
        return self._space(self._degree(levels))

    def _space(self, levels: IntVector) -> tuple[Vector, ...]:
        key = self._steps(levels)
        out = self._spaces.get(key)
        if out is None:
            # some ray below its first jump: nothing to intersect
            out = self._spaces[key] = () if 0 in key else intersect_ray_spaces(
                zip((rf for _, rf in self.filtrations), levels), self.ambient_dim)
        return out

    def _dim(self, levels: IntVector) -> int:
        return len(self._space(levels))

    def _act(self, levels: IntVector, levels_prime: IntVector) -> Mat:
        """The inclusion: ``space(levels)`` written in the basis of
        ``space(levels_prime)``."""
        key = (self._steps(levels), self._steps(levels_prime))
        out = self._inclusions.get(key)
        if out is None:
            out = self._inclusions[key] = matrix_in_basis(self._space(levels_prime),
                                                          self._space(levels))
        return out


class FiltrationModule(SheafifiedModule):
    """The sheafification of a ``ReflexiveDescription``, with one
    filtration per cone ray: the component at m is its space at the
    levels L(m), and a transport is its inclusion between two of them.
    """

    @property
    def description(self) -> ReflexiveDescription:
        return self.rule

    def subspace(self, m: Sequence[int]) -> tuple[Vector, ...]:
        """Canonical basis of the component inside the ambient space."""
        return self.rule._space(self.cone.evaluate(m))


# --------------------------------------------------------------------------
# shifts and sums


@dataclass(frozen=True)
class ShiftModule(GradedModule):
    base: GradedModule
    by: IntVector

    def __post_init__(self):
        object.__setattr__(self, "by", self.base.cone.point(self.by, "shift"))

    @property
    def cone(self) -> Cone:
        return self.base.cone

    # a translation keeps the order, so the base's hooks take the moved points
    def _component(self, m: IntVector) -> int:
        return self.base._component(_add(m, self.by))

    def _action(self, m: IntVector, m_prime: IntVector) -> Mat:
        return self.base._action(_add(m, self.by), _add(m_prime, self.by))


@dataclass(frozen=True)
class DirectSumModule(GradedModule):
    parts: tuple[GradedModule, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(_sequence(self.parts)))
        if not self.parts:
            raise ValueError("empty direct sum")
        cone = self.parts[0].cone
        if any(p.cone != cone for p in self.parts):
            raise ValueError("direct sum parts live on different cones")

    @property
    def cone(self) -> Cone:
        return self.parts[0].cone

    # the parts share one cone, so their hooks take the points as read
    def _component(self, m: IntVector) -> int:
        return sum(p._component(m) for p in self.parts)

    def _action(self, m: IntVector, m_prime: IntVector) -> Mat:
        return block_diagonal([p._action(m, m_prime) for p in self.parts])


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
        return self._matrix(self.source.cone.point(m))

    def _matrix(self, m: IntVector) -> Mat:
        """The matrix at a point already read, checked against the two components."""
        out = self._rule(m)
        want = (self.target._component(m), self.source._component(m))
        if (out.nrows, out.ncols) != want:
            raise ValueError(f"morphism matrix at {m} has shape "
                             f"{(out.nrows, out.ncols)}, expected {want}")
        return out


def morphism(source: GradedModule, target: GradedModule,
             rule: Callable[[IntVector], Mat]) -> GradedMorphism:
    """Wrap a matrix rule, checking naturality on a sampled cube.

    The check is sampled evidence, not a decision: naturality is tested
    only on comparable pairs within ``[-SAMPLE_RADIUS, SAMPLE_RADIUS]^d``,
    so a rule that fails outside the cube is accepted.
    """
    f = GradedMorphism(source, target, rule)
    pts = _sample_cube(source.cone.lattice_rank)
    for m in pts:
        fm = f._matrix(m)
        for m2 in pts:
            if m2 == m or not _leq(source.cone, m, m2):
                continue
            lhs = target._action(m, m2).mul(fm)
            rhs = f._matrix(m2).mul(source._action(m, m2))
            if lhs != rhs:
                raise ValueError(f"naturality fails on {m} <= {m2}")
    return f


def identity_morphism(module: GradedModule) -> GradedMorphism:
    return GradedMorphism(module, module,
                          lambda m: Mat.identity(module._component(m)))


def indicator_morphism(source: GradedModule, target: GradedModule) -> GradedMorphism:
    """Identity wherever both components are nonzero, zero elsewhere.

    Natural between indicator modules whose supports make it so, such as
    a submodule included into the structure ring or a quotient of it.
    """
    return GradedMorphism(source, target,
                          lambda m: Mat.ones(target._component(m), source._component(m)))

