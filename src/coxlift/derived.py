"""Derived inverse limits over finite posets.

The right derived limits of a diagram of vector spaces over a finite
poset are the cohomology of the cochain complex on strictly increasing
chains (the combinatorial analog of the Cech complex going back to
Roos): C^p collects the space at the top of every p-chain, and the
differential alternates face deletions, transporting along the last
arrow when the top is dropped.  H^0 is the limit.  The chains of each
length extend those one shorter, and the differentials, tall and very
sparse, are ranked by ``sparse_rank`` along their shorter side, sparsest
lines first; ``RoosResult.differential_ranks`` holds those ranks.
``order_complex_cohomology`` walks the same successors with chains and a
coboundary of its own, and reads no space or transport.
``FinitePosetDiagram`` is built on strict successor bitmasks, unchecked;
``from_maps`` and ``from_module`` are its two checked doors, and every
transport, given or composed, is kept in the diagram's one memo.

For the infinite up-sets behind the lift, the module is truncated to a
finite sub-poset by a 1-norm bound on the Cox coordinates.  The points
are enumerated in M (``cones.truncation_points``) over the box that
every basis of ray forms cuts out exactly, by the scan the minimal-point
search uses, with no lattice equation solved; ``from_module`` orders
them from per-form bitmasks of the points at or above each value.  It
and ``certification_bound`` read their values once, then call hooks.  The
truncated limit is certified equal to the true lift component once the
truncation contains every minimal point and every pairwise minimal
common upper bound (transports factor through the truncation); higher
truncated limits are reported as evidence only, never certified.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations, groupby
from typing import Callable, Optional, Sequence

from .cones import Cone, _minimal_elements, _minimal_upper_bounds, truncation_points
from .lattice import index_in, int_vector, nonnegative_int
from .lifting import _lifted_morphism, lift_component
from .linalg import Mat, _sequence, rank, sparse_rank
from .modules import (
    GradedModule,
    GradedMorphism,
    IndicatorConstraint,
    IndicatorModule,
    ideal_to_structure,
    indicator_morphism,
    maximal_ideal_module,
    simple_module,
    structure_module,
    structure_to_simple,
)

IntVector = tuple[int, ...]


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _index_pair(n: int, pair: tuple[int, int], what: str) -> tuple[int, int]:
    """``pair`` read as two indices, each in ``0..n-1``."""
    pair = tuple(_sequence(pair))
    if len(pair) != 2:
        raise ValueError(f"{what} {pair} is not a pair")
    return index_in(pair[0], n, what), index_in(pair[1], n, what)


class FinitePosetDiagram:
    """A finite poset with a space per element and a transport per relation.

    The constructor is the internal one, as ``Mat``'s is: it takes the
    strict successor bitmasks (bit j of ``up[i]`` set when i < j), the
    dimensions and the provider as given.  Transports are memoized in
    ``_cache``, which a provider may fill beyond what it is asked for.
    """

    def __init__(self, elements: Sequence, up: list[int], dims: Sequence[int],
                 map_provider: Callable[[int, int], Mat]):
        self.elements = tuple(elements)
        self._up = up
        self._succ = [_bits(mask) for mask in up]
        self.dims = dims
        self._provider = map_provider
        self._cache: dict[tuple[int, int], Mat] = {}

    def transport(self, i: int, j: int) -> Mat:
        if i == j:
            return Mat.identity(self.dims[i])
        out = self._cache.get((i, j))
        if out is None:
            out = self._cache[(i, j)] = self._provider(i, j)
        return out

    def strict_successors(self, i: int) -> list[int]:
        return self._succ[i]

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs ``(i, j)``, sorted: the strict successors j of i
        that lie above no other strict successor of i."""
        out = []
        for i, succ in enumerate(self._succ):
            above = 0
            for j in succ:
                above |= self._up[j]
            out.extend((i, j) for j in _bits(self._up[i] & ~above))
        return out

    def validate_composition(self) -> None:
        """Check ``T(j,k) T(i,j) = T(i,k)`` on every chain ``i < j < k``.

        Only the chains whose first step is a cover ``i ⋖ j`` are read;
        the rest follow by induction on the length of ``i -> j``: with a
        cover ``i ⋖ i' < j``, ``T(j,k) T(i',j) T(i,i') = T(i',k) T(i,i')
        = T(i,k)``.
        """
        for i, j in self.covers():
            for k in self.strict_successors(j):
                lhs = self.transport(j, k).mul(self.transport(i, j))
                if lhs != self.transport(i, k):
                    e = self.elements
                    raise ValueError(f"transports fail to compose on {e[i]} <= {e[j]} <= {e[k]}")

    @classmethod
    def from_maps(cls, elements: Sequence, pairs: Sequence[tuple[int, int]],
                  dims: Sequence[int],
                  maps: dict[tuple[int, int], Mat]) -> "FinitePosetDiagram":
        """Build from explicit relation pairs and matrices, checking each once.

        ``maps`` maps index pairs to ``Mat``s; its keys and the relation
        pairs share one rule (``_index_pair``).  The relation is closed on
        bitmasks (Warshall); a cycle shows on the closure's diagonal.
        Every given map must lie on a strict pair of the closure, with the
        shape its two dimensions fix, and seeds the memo.  A missing map
        i -> j is the composite along given maps, leaving i by its
        lowest-numbered given map still below j, so it does not depend on
        the order transports are asked for; each composite met goes into
        the memo.  Then compositions are validated.
        """
        elements = tuple(_sequence(elements))
        n = len(elements)
        up = [0] * n
        for pair in _sequence(pairs):
            i, j = _index_pair(n, pair, "relation pair")
            if i != j:
                up[i] |= 1 << j
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        if any(up[i] >> i & 1 for i in range(n)):
            raise ValueError("relation is not antisymmetric")
        dims = int_vector(dims)
        if len(dims) != n:
            raise ValueError(f"{len(dims)} dimensions for {n} elements")
        for e, d in zip(elements, dims):
            if d < 0:
                raise ValueError(f"element {e!r} has negative dimension {d}")
        if not isinstance(maps, Mapping):
            raise ValueError(f"maps must map index pairs to matrices, got {maps!r}")
        maps = {_index_pair(n, key, "map key"): mat for key, mat in maps.items()}
        given: dict[int, list[int]] = {}
        for (i, k), mat in sorted(maps.items()):
            if not isinstance(mat, Mat):
                raise ValueError(f"map {elements[i]}->{elements[k]} is not a Mat: {mat!r}")
            if not up[i] >> k & 1:
                raise ValueError(f"map {elements[i]}->{elements[k]} is given, but "
                                 f"{elements[i]} < {elements[k]} is not in the relation")
            if (mat.nrows, mat.ncols) != (dims[k], dims[i]):
                raise ValueError(f"map {elements[i]}->{elements[k]} has shape "
                                 f"{mat.nrows}x{mat.ncols}, expected {dims[k]}x{dims[i]} "
                                 f"(dim {elements[k]} x dim {elements[i]})")
            given.setdefault(i, []).append(k)

        def provider(i: int, j: int) -> Mat:
            memo = diagram._cache
            path = [i]
            while (path[-1], j) not in memo:
                step = next((k for k in given.get(path[-1], ()) if up[k] >> j & 1), None)
                if step is None:
                    raise ValueError(f"no transport data for {elements[i]} -> {elements[j]}")
                path.append(step)
            out = memo[(path[-1], j)]
            for a, k in zip(path[-2::-1], path[:0:-1]):
                out = memo[(a, j)] = out.mul(memo[(a, k)])
            return out

        diagram = cls(elements, up, dims, provider)
        diagram._cache.update(maps)
        diagram.validate_composition()
        return diagram

    @classmethod
    def from_module(cls, cone: Cone, module: GradedModule,
                    points: Sequence[IntVector]) -> "FinitePosetDiagram":
        """The module on the given points, ordered by their Cox coordinates:
        p <= q exactly when L(p) <= L(q) componentwise.

        The points must have distinct Cox coordinates, so the order is
        antisymmetric.  For each ray form, the points sorted by its value
        give the bitmask of the points at or above each value; the points
        above p are the AND of p's masks over the forms, without p itself.
        """
        if module.cone != cone:
            raise ValueError("the module lives on another cone")
        points = [cone.point(p) for p in _sequence(points)]
        n = len(points)
        values = [cone._cox(p) for p in points]
        if len(set(values)) < n:
            raise ValueError("the points of a diagram must have distinct Cox coordinates")
        up = [(1 << n) - 1] * n
        for k in range(cone.ray_count):
            mask = 0
            order = sorted(range(n), key=lambda i: -values[i][k])
            for _, group in groupby(order, key=lambda i: values[i][k]):
                group = list(group)
                for i in group:
                    mask |= 1 << i
                for i in group:
                    up[i] &= mask
        up = [mask & ~(1 << i) for i, mask in enumerate(up)]
        dims = tuple(module._component(p) for p in points)
        return cls(points, up, dims, lambda i, j: module._action(points[i], points[j]))


@dataclass(frozen=True)
class RoosResult:
    """Derived limit dimensions plus the cochain bookkeeping behind them."""

    limit_dims: tuple[int, ...]
    cochain_dims: tuple[int, ...]
    differential_ranks: tuple[int, ...]


def _chain_levels(diagram: FinitePosetDiagram, count: int) -> list[list[tuple[int, ...]]]:
    """The strictly increasing chains with 1, ..., ``count`` elements, one
    list per length, ``count >= 1``.  Each level extends the one below it,
    so once a level is empty no successors are read for the levels above."""
    levels = [[(i,) for i in range(len(diagram.elements))]]
    while len(levels) < count:
        levels.append([ch + (j,) for ch in levels[-1] for j in diagram.strict_successors(ch[-1])])
    return levels


def roos_limits(diagram: FinitePosetDiagram, imax: int) -> RoosResult:
    """Dimensions of the derived limits lim^0 .. lim^imax."""
    imax = nonnegative_int(imax, "imax")
    chain_levels = _chain_levels(diagram, imax + 2)
    offsets_per_level: list[dict[tuple[int, ...], int]] = []
    cochain_dims = []
    for chains in chain_levels[:-1]:
        offs: dict[tuple[int, ...], int] = {}
        total = 0
        for ch in chains:
            offs[ch] = total
            total += diagram.dims[ch[-1]]
        offsets_per_level.append(offs)
        cochain_dims.append(total)
    # the top level's chains index only rows of the last differential, never
    # columns, so it needs no offsets: only its total is read
    cochain_dims.append(sum(diagram.dims[ch[-1]] for ch in chain_levels[-1]))

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


def order_complex_cohomology(diagram: FinitePosetDiagram, imax: int) -> tuple[int, ...]:
    """Simplicial cohomology of the order complex with rational coefficients.

    Independent cross-check for constant diagrams: simplices are the strict
    chains over ``diagram.strict_successors``, boundary signs come from
    vertex positions, and no space or transport is read.
    """
    imax = nonnegative_int(imax, "imax")
    simplices = [[(i,) for i in range(len(diagram.elements))]]
    for _ in range(imax + 1):
        simplices.append([s + (j,) for s in simplices[-1]
                          for j in diagram.strict_successors(s[-1])])
    ranks = [0]
    for p in range(imax + 1):
        index = {s: i for i, s in enumerate(simplices[p])}
        ranks.append(sparse_rank([{index[s[:drop] + s[drop + 1:]]: -1 if drop % 2 else 1
                                   for drop in range(p + 2)} for s in simplices[p + 1]]))
    return tuple(len(simplices[p]) - ranks[p + 1] - ranks[p] for p in range(imax + 1))


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


def certification_bound(cone: Cone, c: Sequence[int]) -> int:
    """1-norm bound that brings all minimal points and their pairwise bounds inside."""
    c = cone.degree(c)
    mins = [cone._cox(m) for m in _minimal_elements(cone, c)]
    uppers = [cone._cox(u) for a, b in combinations(mins, 2)
              for u in _minimal_upper_bounds(cone, a, b)]
    # each of these points lies in P_c, so its 1-norm distance to c is sum L(u) - sum c
    return max(map(sum, mins + uppers), default=sum(c)) - sum(c)


def truncated_lift_oracle(cone: Cone, module: GradedModule, c: Sequence[int],
                          bound: Optional[int] = None, imax: int = 1) -> TruncationReport:
    """Derived limits of the module over the truncated up-set.

    Independent of the minimal-point presentation: lim^0 comes from the
    cover-difference kernel on the truncation, higher limits from the
    chain complex.  ``bound`` defaults to the certification bound; a
    larger one gives more truncation evidence.
    """
    c = cone.degree(c)
    imax = nonnegative_int(imax, "imax")
    cert = certification_bound(cone, c)
    if bound is None:
        bound = cert
    points = truncation_points(cone, c, bound)
    diagram = FinitePosetDiagram.from_module(cone, module, points)
    dims = [equalizer_limit_dim(diagram)]
    if imax >= 1:
        roos = roos_limits(diagram, imax)
        if roos.limit_dims[0] != dims[0]:
            raise AssertionError("chain-complex limit disagrees with the equalizer")
        dims = list(roos.limit_dims)
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
    return CanonicalSequence(
        sub=maximal_ideal_module(cone),
        mid=structure_module(cone),
        quot=simple_module(cone),
        include=ideal_to_structure(cone),
        project=structure_to_simple(cone),
    )


def indicator_sequence(cone: Cone, ray: int) -> CanonicalSequence:
    """0 -> {l_ray >= 1} -> structure ring -> quotient slab {l_ray = 0} -> 0."""
    sub = IndicatorModule(
        cone, "submodule",
        tuple(IndicatorConstraint(i, ">=", int(i == ray)) for i in range(cone.ray_count)))
    mid = structure_module(cone)
    quot = IndicatorModule(
        cone, "quotient",
        tuple(IndicatorConstraint(i, ">=", 0) for i in range(cone.ray_count))
        + (IndicatorConstraint(ray, "<=", 0),))

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
    c = cone.degree(c)
    mid, quot = lift_component(cone, seq.mid, c), lift_component(cone, seq.quot, c)
    return quot.dim - rank(_lifted_morphism(seq.project, mid, quot))
