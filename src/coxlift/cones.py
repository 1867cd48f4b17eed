"""Cones over the character lattice and the dual-cone order.

A cone is stored through the primitive linear forms of its rays, acting
on the character lattice M = Z^d.  The order ``m <= m'`` holds when every
ray form is nondecreasing, and for each Cox degree vector ``c`` the set
``P_c = {m : L(m) >= c componentwise}`` is an up-set whose finitely many
minimal points drive every limit computation downstream.

Minimal points are enumerated in M itself.  For a full-dimensional cone
the ray matrix L has full column rank, so ``{x : Lx >= c}`` is a pointed
polyhedron ``conv(V) + dual``, with V its vertices and ``dual`` the cone
``{x : Lx >= 0}``.  By Caratheodory a minimal point is
``m = q + sum_i lambda_i r_i`` with q in conv(V) and the r_i at most d
linearly independent primitive extreme rays of the dual cone.  Were some
``lambda_i >= 1``, ``m - r_i`` would lie in P_c strictly below m; so every
``lambda_i < 1``, and with it

- each coordinate of m lies in the vertex range widened by the d largest
  positive (or negative) parts of the extreme rays in that coordinate;
- ``l_k(m) < max_V l_k + S_k`` when ``S_k > 0`` and ``l_k(m) <= max_V l_k``
  when ``S_k = 0``, where ``S_k`` is the sum of the d largest values of
  ``l_k`` on the extreme rays.

Per cone, every d-subset T of forms with ``L_T`` invertible keeps its
integer adjugate and determinant; the columns of these adjugates on which
no form is negative are the extreme rays.  Per degree, in integers only:
the vertex of T is ``adj c_T / det`` and is feasible iff
``L(adj c_T) >= det c`` (no feasible vertex: P_c is empty); the first
d-1 coordinates are scanned over the box, the last is solved as an
interval against both bounds of every form, and the points are filtered
in order of ``sum_k l_k(m)``, which is positive on the nonzero points of
the dual cone, so every dominating point is met first.  Torsion in the
class group needs no special case, because the scan never leaves M.

The Contejean-Devie completion ``minimal_nonneg_solutions`` stays for the
fan checks; a completion-based search and the brute-force
``box_minimal_oracle`` check the enumeration in the tests.

Results are memoized per process with no locks: in a worker pool each
worker keeps its own cache, and cached values agree across workers
because every output here is deterministic.  Each cone memoizes its
Cox coordinates ``L(m)`` by point, and ``leq_sigma`` compares two of
them: ``m <= m'`` exactly when ``L(m) <= L(m')`` componentwise, since L
is linear.  Cones and the module and rule classes that key the caches
hash once (``HashOnce``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import combinations, product
from typing import Optional, Sequence

from .lattice import (
    IntMatrix,
    IntVector,
    imat_vec,
    int_matrix,
    int_vector,
    plain_int,
    rational_rank,
)


class HashOnce:
    """Mixin for the frozen dataclasses that key the caches: hash once.

    Declare the dataclass with ``eq=False`` and end its ``__post_init__``
    with ``super().__post_init__()``, which hashes the tuple of fields
    once.  Equality stays structural, field by field as the generated
    one, with the stored hashes compared first.  A pickle holds only the
    fields, and unpickling runs the constructor again: neither the hash,
    which depends on the hash seed through ``str`` fields, nor a memo on
    the instance travels to another process.
    """

    def _fields(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self._fields()))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._fields() == other._fields()

    def __reduce__(self):
        return self.__class__, self._fields()


@dataclass(frozen=True, eq=False)
class Cone(HashOnce):
    """Ray data of a polyhedral cone: one primitive integer form per ray."""

    lattice_rank: int
    rays: IntMatrix

    def __post_init__(self):
        object.__setattr__(self, "lattice_rank", plain_int(self.lattice_rank))
        rays = int_matrix(self.rays)
        object.__setattr__(self, "rays", rays)
        for row in rays:
            if len(row) != self.lattice_rank:
                raise ValueError("ray length differs from lattice rank")
            if all(x == 0 for x in row):
                raise ValueError("zero ray")
            if math.gcd(*[abs(x) for x in row]) != 1:
                raise ValueError(f"ray {row} is not primitive")
        object.__setattr__(self, "_values", {})
        super().__post_init__()

    @property
    def ray_count(self) -> int:
        return len(self.rays)

    @property
    def full_dimensional(self) -> bool:
        return _cone_rank(self) == self.lattice_rank

    def evaluate(self, m: Sequence[int]) -> IntVector:
        """The Cox coordinates L(m), memoized by point for the life of the cone."""
        m = tuple(m)
        out = self._values.get(m)
        if out is None:
            if len(m) != self.lattice_rank:
                raise ValueError("vector length differs from lattice rank")
            out = self._values[m] = tuple(sum(r * x for r, x in zip(row, m))
                                          for row in self.rays)
        return out


@dataclass(frozen=True)
class MinimalElements:
    """A complete antichain of order-minimal lattice points of P_c."""

    elements: tuple[IntVector, ...]
    for_degree: IntVector


@lru_cache(maxsize=None)
def _cone_rank(cone: Cone) -> int:
    return rational_rank(cone.rays)


def leq_sigma(cone: Cone, m: Sequence[int], m_prime: Sequence[int]) -> bool:
    """Dual-cone order: every ray form nondecreasing from m to m_prime."""
    return all(a <= b for a, b in zip(cone.evaluate(m), cone.evaluate(m_prime)))


def minimal_nonneg_solutions(
    columns: Sequence[Sequence[int]],
    caps: Optional[dict[int, int]] = None,
    max_level: int = 512,
) -> list[IntVector]:
    """Minimal nonzero nonnegative solutions of sum_i x_i * columns[i] = 0.

    Breadth-first frontier from the unit vectors; a node ``x`` extends
    along coordinate ``i`` only when <Ax, Ae_i> < 0, nodes dominating a
    recorded solution are dropped, and levels advance one unit of the
    1-norm at a time so every surfaced solution is minimal.  Read by
    ``fans._check_shared_faces`` and ``positive_relation_exists``.
    """
    q = len(columns)
    cols = [tuple(int(x) for x in col) for col in columns]
    caps = caps or {}

    def add(value: tuple[int, ...], col: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(a + b for a, b in zip(value, col))

    minimal: list[tuple[int, ...]] = []
    frontier: dict[tuple[int, ...], tuple[int, ...]] = {}
    for i in range(q):
        if caps.get(i, max_level) < 1:
            continue
        node = tuple(1 if j == i else 0 for j in range(q))
        frontier[node] = cols[i]

    level = 1
    while frontier:
        if level > max_level:
            raise RuntimeError("completion search exceeded the level bound")
        nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
        for node, value in frontier.items():
            if not any(value):
                minimal.append(node)
                continue
            for i in range(q):
                if node[i] >= caps.get(i, max_level):
                    continue
                if sum(v * c for v, c in zip(value, cols[i])) >= 0:
                    continue
                child = list(node)
                child[i] += 1
                child_t = tuple(child)
                if child_t not in nxt:
                    nxt[child_t] = add(value, cols[i])
        frontier = {
            node: value
            for node, value in nxt.items()
            if not any(all(a >= b for a, b in zip(node, sol)) for sol in minimal)
        }
        level += 1
    return minimal


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Integer determinant by cofactor expansion (the matrices here are tiny)."""
    if not rows:
        return 1
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


@dataclass(frozen=True)
class _SearchData:
    """What the minimal-point search keeps per cone.

    ``bases`` lists every d-subset T of ray forms with L_T invertible as
    ``(T, adj, det)``: the integer adjugate and determinant of L_T, signs
    flipped so that ``det > 0``.  Over the primitive extreme rays r of the
    dual cone, ``ray_slack[k]`` is the sum of the d largest values l_k(r),
    and ``coord_up[j]`` / ``coord_down[j]`` the sums of the d largest
    positive / negative parts of r_j.
    """

    bases: tuple[tuple[tuple[int, ...], IntMatrix, int], ...]
    ray_slack: IntVector
    coord_up: IntVector
    coord_down: IntVector


@lru_cache(maxsize=None)
def _search_data(cone: Cone) -> _SearchData:
    d = cone.lattice_rank
    bases = []
    extreme = set()
    for idx in combinations(range(cone.ray_count), d):
        rows = [cone.rays[i] for i in idx]
        adj = tuple(tuple((-1) ** (i + j) * _det([r[:i] + r[i + 1:]
                                                  for k, r in enumerate(rows) if k != j])
                          for j in range(d)) for i in range(d))
        det = sum(x * adj[j][0] for j, x in enumerate(rows[0]))
        if det == 0:
            continue
        if det < 0:
            adj, det = tuple(tuple(-x for x in row) for row in adj), -det
        bases.append((idx, adj, det))
        # column j of adj vanishes on T minus its j-th form and is positive
        # on that form: it spans an edge of the dual cone when no form is
        # negative on it
        for col in zip(*adj):
            if min(cone.evaluate(col)) >= 0:
                g = math.gcd(*col)
                extreme.add(tuple(x // g for x in col))

    def top(values) -> int:
        return sum(sorted(values, reverse=True)[:d])

    values = [cone.evaluate(r) for r in extreme]
    return _SearchData(
        tuple(bases),
        tuple(top(v[k] for v in values) for k in range(cone.ray_count)),
        tuple(top(max(r[j], 0) for r in extreme) for j in range(d)),
        tuple(top(max(-r[j], 0) for r in extreme) for j in range(d)),
    )


def _minimal_points(cone: Cone, c: IntVector) -> tuple[IntVector, ...]:
    """Minimal points of P_c by enumeration in the box the module docstring derives."""
    data = _search_data(cone)
    rays, n, d = cone.rays, cone.ray_count, cone.lattice_rank
    vertices = []
    for idx, adj, det in data.bases:
        w = tuple(sum(a * c[i] for a, i in zip(row, idx)) for row in adj)
        values = imat_vec(rays, w)
        if all(v >= det * b for v, b in zip(values, c)):
            vertices.append((w, values, det))
    if not vertices:
        return ()
    # l_k(m) < max_v l_k(v) + S_k when S_k > 0, else l_k(m) <= max_v l_k(v)
    upper = tuple(
        max(-(-vals[k] // det) for _, vals, det in vertices) + data.ray_slack[k] - 1
        if data.ray_slack[k] else max(vals[k] // det for _, vals, det in vertices)
        for k in range(n))
    low = [min(w[j] // det for w, _, det in vertices) - data.coord_down[j] for j in range(d)]
    high = [max(-(-w[j] // det) for w, _, det in vertices) + data.coord_up[j] for j in range(d)]

    # forms whose last nonzero coefficient sits in column j are settled once
    # the first j+1 coordinates are chosen; the rest bound the last one
    last_nonzero = [max(j for j in range(d) if row[j]) for row in rays]
    heads: list[tuple[IntVector, IntVector]] = [((), (0,) * n)]
    for j in range(d - 1):
        column = [row[j] for row in rays]
        settled = [k for k in range(n) if last_nonzero[k] == j]
        heads = [
            (head + (x,), vals)
            for head, partial in heads
            for x in range(low[j], high[j] + 1)
            for vals in [tuple(p + a * x for p, a in zip(partial, column))]
            if all(c[k] <= vals[k] <= upper[k] for k in settled)
        ]
    column = [row[-1] for row in rays]
    bounding = [(k, column[k]) for k in range(n) if column[k]]
    found = []
    for head, partial in heads:
        lo, hi = low[-1], high[-1]
        for k, a in bounding:
            p = partial[k]
            if a > 0:
                lo, hi = max(lo, -((p - c[k]) // a)), min(hi, (upper[k] - p) // a)
            else:
                lo, hi = max(lo, -((upper[k] - p) // -a)), min(hi, (p - c[k]) // -a)
        for x in range(lo, hi + 1):
            vals = tuple(p + a * x for p, a in zip(partial, column))
            found.append((sum(vals), vals, head + (x,)))
    # a dominating point has a strictly smaller value sum, so it comes first
    found.sort()
    kept: list[tuple[IntVector, IntVector]] = []
    for _, vals, m in found:
        if not any(all(a <= b for a, b in zip(k, vals)) for k, _ in kept):
            kept.append((vals, m))
    return tuple(sorted(m for _, m in kept))


@lru_cache(maxsize=None)
def _minimal_elements_cached(cone: Cone, c: IntVector) -> MinimalElements:
    if not cone.full_dimensional:
        raise ValueError("cone must be full-dimensional; reduce degenerate cones first")
    return MinimalElements(_minimal_points(cone, c), c)


def minimal_elements(cone: Cone, c: Sequence[int]) -> MinimalElements:
    """The complete finite antichain of order-minimal points of P_c."""
    c = int_vector(c)
    if len(c) != cone.ray_count:
        raise ValueError("degree length differs from ray count")
    return _minimal_elements_cached(cone, c)


def minimal_common_upper_bounds(
    cone: Cone, m: Sequence[int], m_prime: Sequence[int]
) -> MinimalElements:
    """Minimal points dominating both arguments in the dual-cone order."""
    top = tuple(max(a, b) for a, b in zip(cone.evaluate(m), cone.evaluate(m_prime)))
    return minimal_elements(cone, top)


def strict_interior_point(cone: Cone) -> IntVector:
    """Some m with every ray form at least one: an interior dual-cone point."""
    points = minimal_elements(cone, (1,) * cone.ray_count).elements
    if not points:
        raise ValueError("the dual cone has no interior lattice point: "
                         "the cone is not strictly convex")
    return points[0]


def box_minimal_oracle(cone: Cone, c: Sequence[int], radius: int) -> tuple[IntVector, ...]:
    """Brute-force oracle: minimal points of P_c within the cube [-radius, radius]^d.

    Independent of the bounded enumeration; used to certify its output on
    small instances.
    """
    c = int_vector(c)
    points = []
    for m in product(range(-radius, radius + 1), repeat=cone.lattice_rank):
        if all(v >= b for v, b in zip(cone.evaluate(m), c)):
            points.append(m)
    out = []
    for m in points:
        if any(p != m and leq_sigma(cone, p, m) for p in points):
            continue
        out.append(m)
    return tuple(sorted(out))


def positive_relation_exists(rows: Sequence[Sequence[int]]) -> bool:
    """Whether a nonzero nonnegative combination of the rows vanishes.

    True exactly when the cone spanned by the rows is not strictly convex.
    """
    cols = [tuple(int(x) for x in row) for row in rows]
    return bool(minimal_nonneg_solutions(cols))
