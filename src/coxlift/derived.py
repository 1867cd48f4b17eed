"""Derived inverse limits over finite posets.

The right derived limits of a diagram of vector spaces over a finite
poset are the cohomology of the cochain complex on strictly increasing
chains (the combinatorial analog of the Cech complex going back to
Roos): C^p collects the space at the top of every p-chain, and the
differential alternates face deletions, transporting along the last
arrow when the top is dropped.  H^0 is the limit.

For the infinite up-sets behind the lift, the module is truncated to a
finite sub-poset by a 1-norm bound on the Cox coordinates.  The
truncated limit is certified equal to the true lift component once the
truncation contains every minimal point and every pairwise minimal
common upper bound (transports factor through the truncation); higher
truncated limits are reported as evidence only, never certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .cones import Cone, minimal_common_upper_bounds, minimal_elements
from .lattice import int_vector, plain_int, smith_normal_form
from .lifting import lift_component, lift_morphism
from .linalg import Mat, rank, sparse_rank
from .modules import GradedModule, GradedMorphism

IntVector = tuple[int, ...]


def transitive_closure(pairs: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    """Strict pairs ``(a, b)``, ``a != b``, of the transitive closure of a relation."""
    succ: dict[int, set[int]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    out = set()
    for a, direct in succ.items():
        seen: set[int] = set()
        stack = list(direct)
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(succ.get(b, ()))
        out.update((a, b) for b in seen if b != a)
    return out


class FinitePosetDiagram:
    """A finite poset with a space per element and a transport per relation."""

    def __init__(self, elements: Sequence, relation: set[tuple[int, int]],
                 dims: Sequence[int],
                 map_provider: Callable[[int, int], Mat]):
        self.elements = tuple(elements)
        n = len(self.elements)
        self.relation = frozenset(relation) | {(i, i) for i in range(n)}
        succ: list[set[int]] = [set() for _ in range(n)]
        for i, j in self.relation:
            if (j, i) in self.relation and i != j:
                raise ValueError("relation is not antisymmetric")
            if i != j:
                succ[i].add(j)
        self._succ = [sorted(s) for s in succ]
        for i in range(n):
            for j in self._succ[i]:
                missing = succ[j] - succ[i]
                if missing:
                    raise ValueError(f"relation is not transitive: it holds {(i, j)} and "
                                     f"{(j, min(missing))} but not {(i, min(missing))}")
        self.dims = int_vector(dims)
        if len(self.dims) != n:
            raise ValueError(f"{len(self.dims)} dimensions for {n} elements")
        for e, d in zip(self.elements, self.dims):
            if d < 0:
                raise ValueError(f"element {e!r} has negative dimension {d}")
        self._provider = map_provider
        self._cache: dict[tuple[int, int], Mat] = {}

    def le(self, i: int, j: int) -> bool:
        return (i, j) in self.relation

    def transport(self, i: int, j: int) -> Mat:
        if i == j:
            return Mat.identity(self.dims[i])
        key = (i, j)
        out = self._cache.get(key)
        if out is None:
            out = self._provider(i, j)
            if (out.nrows, out.ncols) != (self.dims[j], self.dims[i]):
                raise ValueError(f"transport {i}->{j} has the wrong shape")
            self._cache[key] = out
        return out

    def strict_successors(self, i: int) -> list[int]:
        return self._succ[i]

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs: minimal strict successors, found by up-count order."""
        out = []
        n = len(self.elements)
        upsize = [len(self.strict_successors(i)) for i in range(n)]
        for i in range(n):
            lowest: list[int] = []
            # a successor with more elements above it sits lower in the order
            for j in sorted(self.strict_successors(i), key=lambda j: -upsize[j]):
                if not any(self.le(s, j) for s in lowest):
                    lowest.append(j)
            out.extend((i, j) for j in lowest)
        return out

    def validate_composition(self) -> None:
        n = len(self.elements)
        for i in range(n):
            for j in self.strict_successors(i):
                for k in self.strict_successors(j):
                    lhs = self.transport(j, k).mul(self.transport(i, j))
                    if lhs != self.transport(i, k):
                        raise ValueError(
                            f"transports fail to compose on {i} <= {j} <= {k}")

    @classmethod
    def from_maps(cls, elements: Sequence, pairs: Sequence[tuple[int, int]],
                  dims: Sequence[int],
                  maps: dict[tuple[int, int], Mat]) -> "FinitePosetDiagram":
        """Build from explicit relation pairs and matrices.

        The relation is closed transitively, and every given map must lie
        on a strict pair of it and have the shape its two dimensions fix.
        A missing map i -> j is the composite along given maps, leaving i
        by its lowest-numbered given map that still lies below j, so it
        does not depend on the order in which transports are asked for;
        then the whole square grid of compositions is validated.
        """
        rel = transitive_closure((plain_int(i), plain_int(j)) for i, j in pairs)
        filled = dict(maps)
        given: dict[int, list[int]] = {}
        for i, k in sorted(maps):
            if (i, k) not in rel:
                raise ValueError(f"map {elements[i]}->{elements[k]} is given, but "
                                 f"{elements[i]} < {elements[k]} is not in the relation")
            given.setdefault(i, []).append(k)

        def provider(i: int, j: int) -> Mat:
            path = [i]
            while (path[-1], j) not in filled:
                step = next((k for k in given.get(path[-1], ()) if (k, j) in rel), None)
                if step is None:
                    raise ValueError(f"no transport data for {i} -> {j}")
                path.append(step)
            out = filled[(path[-1], j)]
            for a, k in zip(path[-2::-1], path[:0:-1]):
                out = out.mul(filled[(a, k)])
                filled[(a, j)] = out
            return out

        diagram = cls(elements, rel, dims, provider)
        for (i, k), mat in sorted(maps.items()):
            want = (diagram.dims[k], diagram.dims[i])
            if (mat.nrows, mat.ncols) != want:
                raise ValueError(f"map {elements[i]}->{elements[k]} has shape "
                                 f"{mat.nrows}x{mat.ncols}, expected {want[0]}x{want[1]} "
                                 f"(dim {elements[k]} x dim {elements[i]})")
        diagram.validate_composition()
        return diagram

    @classmethod
    def from_module(cls, cone: Cone, module: GradedModule,
                    points: Sequence[IntVector]) -> "FinitePosetDiagram":
        """The module on the given points, ordered by their Cox coordinates:
        p <= q exactly when L(p) <= L(q) componentwise."""
        points = [int_vector(p) for p in points]
        if len(set(points)) < len(points):
            raise ValueError("the points of a diagram must be distinct")
        values = [cone.evaluate(p) for p in points]
        rel = {(i, j) for i, a in enumerate(values) for j, b in enumerate(values)
               if i != j and all(x <= y for x, y in zip(a, b))}
        dims = [module.component(p).dim for p in points]
        return cls(points, rel, dims,
                   lambda i, j: module.action(points[i], points[j]))


@dataclass(frozen=True)
class RoosResult:
    """Derived limit dimensions plus the cochain bookkeeping behind them."""

    limit_dims: tuple[int, ...]
    cochain_dims: tuple[int, ...]
    differential_ranks: tuple[int, ...]


def _strict_chains(diagram: FinitePosetDiagram, length: int) -> list[tuple[int, ...]]:
    """All strictly increasing chains with ``length`` elements."""
    if length == 0:
        return []
    chains: list[tuple[int, ...]] = [(i,) for i in range(len(diagram.elements))]
    for _ in range(length - 1):
        nxt = []
        for ch in chains:
            for j in diagram.strict_successors(ch[-1]):
                nxt.append(ch + (j,))
        chains = nxt
    return chains


def roos_limits(diagram: FinitePosetDiagram, imax: int) -> RoosResult:
    """Dimensions of the derived limits lim^0 .. lim^imax."""
    if imax < 0:
        raise ValueError(f"imax must be nonnegative, got {imax}")
    chain_levels = [_strict_chains(diagram, p + 1) for p in range(imax + 2)]
    offsets_per_level: list[dict[tuple[int, ...], int]] = []
    cochain_dims = []
    for chains in chain_levels:
        offs: dict[tuple[int, ...], int] = {}
        total = 0
        for ch in chains:
            offs[ch] = total
            total += diagram.dims[ch[-1]]
        offsets_per_level.append(offs)
        cochain_dims.append(total)

    # the faces of a strict chain are distinct, so their column blocks are
    # disjoint and every entry of a row is written once
    ranks = []
    for p in range(imax + 1):
        rows: list[dict] = []
        src_offs = offsets_per_level[p]
        for tau in chain_levels[p + 1]:
            faces = [src_offs[tau[:drop] + tau[drop + 1:]] for drop in range(p + 1)]
            base = src_offs[tau[:-1]]
            mat = diagram.transport(tau[-2], tau[-1])
            for r in range(diagram.dims[tau[-1]]):
                row = {col0 + r: -1 if drop % 2 else 1 for drop, col0 in enumerate(faces)}
                for cc, v in enumerate(mat.rows[r]):
                    if v:
                        row[base + cc] = -v if p % 2 == 0 else v
                rows.append(row)
        ranks.append(sparse_rank(rows))

    limit_dims = []
    for p in range(imax + 1):
        below = ranks[p - 1] if p >= 1 else 0
        limit_dims.append(cochain_dims[p] - ranks[p] - below)
    return RoosResult(tuple(limit_dims), tuple(cochain_dims), tuple(ranks))


def equalizer_limit_dim(diagram: FinitePosetDiagram) -> int:
    """The limit computed independently: kernel of the cover-difference map."""
    offs = []
    total = 0
    for d in diagram.dims:
        offs.append(total)
        total += d
    rows: list[dict] = []
    for (i, j) in diagram.covers():
        mat = diagram.transport(i, j)
        for r in range(diagram.dims[j]):
            row = {offs[j] + r: -1}
            row.update((offs[i] + c, v) for c, v in enumerate(mat.rows[r]) if v)
            rows.append(row)
    return total - sparse_rank(rows)


def order_complex_cohomology(n_elements: int, strict_pairs: set[tuple[int, int]],
                             imax: int) -> tuple[int, ...]:
    """Simplicial cohomology of the order complex with rational coefficients.

    Independent cross-check for constant diagrams: simplices are the
    strict chains, boundary signs come from vertex positions.
    """
    simplices: dict[int, list[tuple[int, ...]]] = {0: [(i,) for i in range(n_elements)]}
    for p in range(1, imax + 2):
        prev = simplices[p - 1]
        cur = []
        for s in prev:
            for j in range(n_elements):
                if (s[-1], j) in strict_pairs:
                    cur.append(s + (j,))
        simplices[p] = cur

    index = {p: {s: i for i, s in enumerate(simplices[p])} for p in simplices}
    ranks = []
    for p in range(imax + 1):
        rows = [{index[p][s[:drop] + s[drop + 1:]]: -1 if drop % 2 else 1
                 for drop in range(p + 2)} for s in simplices[p + 1]]
        ranks.append(sparse_rank(rows))
    out = []
    for p in range(imax + 1):
        below = ranks[p - 1] if p >= 1 else 0
        out.append(len(simplices[p]) - ranks[p] - below)
    return tuple(out)


# --------------------------------------------------------------------------
# truncated approximations of the lift


@dataclass(frozen=True)
class TruncationReport:
    """Derived limits over a finite truncation of the degree up-set.

    ``certified`` means the truncation contains every minimal point and
    every pairwise minimal common upper bound, which makes lim^0 equal
    to the true lift component.  Entries beyond lim^0 are uncertified
    truncation evidence.
    """

    degree: IntVector
    bound: int
    limit_dims: tuple[int, ...]
    certified: bool
    certification_bound: int
    point_count: int


def truncation_points(cone: Cone, c: IntVector, bound: int) -> list[IntVector]:
    """Lattice points of P_c whose Cox coordinates are within ``bound`` in 1-norm."""
    n = cone.ray_count
    snf = smith_normal_form(cone.rays)
    points = []

    def rec(prefix: list[int], remaining: int, idx: int):
        if idx == n:
            m = snf.preimage(tuple(u + x for u, x in zip(prefix, c)))
            if m is not None:
                points.append(m)
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, idx + 1)

    rec([], bound, 0)
    return sorted(set(points))


def certification_bound(cone: Cone, c: IntVector) -> int:
    """1-norm bound that brings all minimal points and their pairwise bounds inside."""
    mins = minimal_elements(cone, c).elements
    worst = 0
    for m in mins:
        worst = max(worst, sum(v - x for v, x in zip(cone.evaluate(m), c)))
    for i in range(len(mins)):
        for j in range(i + 1, len(mins)):
            for u in minimal_common_upper_bounds(cone, mins[i], mins[j]).elements:
                worst = max(worst, sum(v - x for v, x in zip(cone.evaluate(u), c)))
    return worst


def truncated_lift_oracle(cone: Cone, module: GradedModule, c: Sequence[int],
                          bound: int, imax: int = 1) -> TruncationReport:
    """Derived limits of the module over the truncated up-set.

    Independent of the minimal-point presentation: lim^0 comes from the
    cover-difference kernel on the truncation, higher limits from the
    chain complex.
    """
    c = int_vector(c)
    if plain_int(bound) < 0:
        raise ValueError("bound must be nonnegative")
    points = truncation_points(cone, c, bound)
    diagram = FinitePosetDiagram.from_module(cone, module, points)
    dims = [equalizer_limit_dim(diagram)]
    if imax >= 1:
        roos = roos_limits(diagram, imax)
        if roos.limit_dims[0] != dims[0]:
            raise AssertionError("chain-complex limit disagrees with the equalizer")
        dims = list(roos.limit_dims)
    cert = certification_bound(cone, c)
    return TruncationReport(c, bound, tuple(dims), bound >= cert, cert, len(points))


# --------------------------------------------------------------------------
# canonical short exact sequences and connecting cokernels


@dataclass
class CanonicalSequence:
    """A degree-wise short exact sequence 0 -> sub -> mid -> quot -> 0."""

    sub: GradedModule
    mid: GradedModule
    quot: GradedModule
    include: GradedMorphism
    project: GradedMorphism


def ideal_sequence(cone: Cone) -> CanonicalSequence:
    """0 -> maximal ideal -> structure ring -> simple module -> 0."""
    from .modules import (ideal_to_structure, maximal_ideal_module, simple_module,
                          structure_module, structure_to_simple)

    return CanonicalSequence(
        sub=maximal_ideal_module(cone),
        mid=structure_module(cone),
        quot=simple_module(cone),
        include=ideal_to_structure(cone),
        project=structure_to_simple(cone),
    )


def indicator_sequence(cone: Cone, ray: int, threshold: int = 1) -> CanonicalSequence:
    """0 -> {l_ray >= threshold} -> structure ring -> quotient slab -> 0."""
    from .modules import (IndicatorConstraint, IndicatorModule, indicator_morphism,
                          structure_module)

    sub = IndicatorModule(
        cone, "submodule",
        tuple(IndicatorConstraint(i, ">=", threshold if i == ray else 0)
              for i in range(cone.ray_count)))
    mid = structure_module(cone)
    quot = IndicatorModule(
        cone, "quotient",
        tuple(IndicatorConstraint(i, ">=", 0) for i in range(cone.ray_count))
        + (IndicatorConstraint(ray, "<=", threshold - 1),))

    return CanonicalSequence(
        sub=sub, mid=mid, quot=quot,
        include=indicator_morphism(sub, mid),
        project=indicator_morphism(mid, quot),
    )


def connecting_cokernel(cone: Cone, seq: CanonicalSequence, c: Sequence[int]) -> int:
    """dim coker(lift(mid)_c -> lift(quot)_c).

    By the long exact sequence this embeds into the first derived lift
    of the submodule at degree c; a nonzero value is a lower-bound
    witness there.
    """
    c = int_vector(c)
    g = lift_morphism(cone, seq.project, c)
    return lift_component(cone, seq.quot, c).dim - rank(g)
