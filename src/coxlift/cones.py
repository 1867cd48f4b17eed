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

The box scan (``_box_points``) is shared with ``truncation_points``,
the points of P_c within a 1-norm bound of c.  There the box is exact:
through each basis T, ``m = adj (c_T + y) / det`` with ``y >= 0`` of
1-norm at most the bound, which bounds every coordinate of m; the scan
runs over the intersection of these boxes, against ``c <= L(m) <= c +
bound``, and keeps the points whose ``sum_k l_k(m)`` is in range.

The search runs once per class of ``Cl = Z^n / L(M)``, the grading
group of the homogeneous coordinate ring.  For every ``h`` in M,
``P_{c + L(h)} = P_c + h``, and the dual-cone order is translation
invariant, so the minimal points at ``c + L(h)`` are those at ``c``
moved by ``h``; translation keeps their lexicographic order.  With the
Smith form ``U L V = D`` of the ray matrix, ``y = U c`` and
``q_i = y_i // D_ii`` for ``i < d``, the degree ``c0 = c - L(V q)`` has
``(U c0)_i = y_i mod D_ii`` for ``i < d`` and ``y_i`` beyond, so it is the
same for every degree in the class of c and serves as its key.

Each cone memoizes what it computes about itself, for as long as it
lives: its Cox coordinates ``L(m)`` by point, whether it is
full-dimensional (the rank of its rays, read off their Smith form), its
search data, the Smith form of its ray matrix (``Cone.smith``), the
minimal points of each class by its key ``c0``, and its minimal points
by degree.

Reading.  Each public function reads its values once, through
``Cone.point`` (a lattice point) or ``Cone.degree`` (a Cox degree),
which share ``_fixed_length``, the one check of a length; the private
hooks under them take values so read: ``_cox`` (under ``evaluate``),
``_leq`` (under ``leq_sigma``: ``m <= m'`` exactly when ``L(m) <= L(m')``
componentwise, since L is linear), ``_minimal_elements`` and
``_minimal_upper_bounds``, which takes the Cox coordinates of two points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import le, mul
from typing import Sequence

from .lattice import (
    IntMatrix,
    IntVector,
    SnfResult,
    imat_vec,
    int_matrix,
    int_vector,
    nonnegative_int,
    plain_int,
    smith_normal_form,
)


@dataclass(frozen=True)
class Cone:
    """Ray data of a polyhedral cone: one primitive integer form per ray.

    Equality and hash are structural, over the two fields; the memos
    are not fields.
    """

    lattice_rank: int
    rays: IntMatrix

    def __post_init__(self):
        object.__setattr__(self, "lattice_rank", plain_int(self.lattice_rank))
        rays = int_matrix(self.rays)
        object.__setattr__(self, "rays", rays)
        # int_matrix gave every ray one width: one ray checks it
        _fixed_length(rays[0], self.lattice_rank, "ray", "the lattice rank")
        for row in rays:
            if all(x == 0 for x in row):
                raise ValueError("zero ray")
            if math.gcd(*[abs(x) for x in row]) != 1:
                raise ValueError(f"ray {row} is not primitive")
        object.__setattr__(self, "_values", {})
        object.__setattr__(self, "_classes", {})
        object.__setattr__(self, "_minimal", {})

    @property
    def ray_count(self) -> int:
        return len(self.rays)

    @cached_property
    def full_dimensional(self) -> bool:
        return self.smith.rank == self.lattice_rank

    @cached_property
    def _search(self) -> _SearchData:
        return _search_data(self)

    @cached_property
    def smith(self) -> SnfResult:
        """Smith form of the rays: ``smith.preimage(c)`` is an m with L(m) = c, or None."""
        return smith_normal_form(self.rays)

    def point(self, m: Sequence[int], what: str = "point") -> IntVector:
        """``m`` read as a lattice point; ``what`` names it in an error."""
        return _fixed_length(m, self.lattice_rank, what, "the lattice rank")

    def degree(self, c: Sequence[int]) -> IntVector:
        """``c`` read as a Cox degree."""
        return _fixed_length(c, self.ray_count, "degree", "the ray count")

    def evaluate(self, m: Sequence[int]) -> IntVector:
        """The Cox coordinates L(m), memoized by point for the life of the cone.

        The point is read first, memoized or not: ``1.0`` and ``True`` hash like ``1``.
        """
        return self._cox(self.point(m))

    def _cox(self, m: IntVector) -> IntVector:
        """L(m) of a point already read: the memo, or the product, memoized."""
        out = self._values.get(m)
        if out is None:
            out = self._values[m] = tuple(sum(map(mul, row, m)) for row in self.rays)
        return out


def _fixed_length(values: Sequence[int], n: int, what: str, unit: str) -> IntVector:
    """``values`` read through ``int_vector``, of length ``n`` (``unit``)."""
    v = int_vector(values)
    if len(v) != n:
        raise ValueError(f"{what} {v} has length {len(v)}, not {unit} {n}")
    return v


def cox_le(c: Sequence[int], c_prime: Sequence[int]) -> bool:
    """The componentwise order on Cox degrees of one length."""
    return all(map(le, c, c_prime))


def leq_sigma(cone: Cone, m: Sequence[int], m_prime: Sequence[int]) -> bool:
    """Dual-cone order: every ray form nondecreasing from m to m_prime."""
    return _leq(cone, cone.point(m), cone.point(m_prime))


def _leq(cone: Cone, m: IntVector, m_prime: IntVector) -> bool:
    """``leq_sigma`` on points already read."""
    return cox_le(cone._cox(m), cone._cox(m_prime))


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
            if min(cone._cox(col)) >= 0:
                g = math.gcd(*col)
                extreme.add(tuple(x // g for x in col))

    def top(values) -> int:
        return sum(sorted(values, reverse=True)[:d])

    values = [cone._cox(r) for r in extreme]
    return _SearchData(
        tuple(bases),
        tuple(top(v[k] for v in values) for k in range(cone.ray_count)),
        tuple(top(max(r[j], 0) for r in extreme) for j in range(d)),
        tuple(top(max(-r[j], 0) for r in extreme) for j in range(d)),
    )


def _box_points(cone: Cone, c: IntVector, upper: IntVector,
               low: Sequence[int], high: Sequence[int]) -> list[tuple[int, IntVector, IntVector]]:
    """``(sum L(m), L(m), m)`` for every m in the box ``low <= m <= high``
    with ``c <= L(m) <= upper``, in lexicographic order of m."""
    rays, n, d = cone.rays, cone.ray_count, cone.lattice_rank
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
    return found


def _minimal_points(cone: Cone, c: IntVector) -> tuple[IntVector, ...]:
    """Minimal points of P_c by enumeration in the box the module docstring derives."""
    data = cone._search
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
    found = _box_points(cone, c, upper, low, high)
    # a dominating point has a strictly smaller value sum, so it comes first
    found.sort()
    kept: list[tuple[IntVector, IntVector]] = []
    for _, vals, m in found:
        if not any(all(map(le, k, vals)) for k, _ in kept):
            kept.append((vals, m))
    return tuple(sorted(m for _, m in kept))


def _require_full_dimensional(cone: Cone) -> None:
    if not cone.full_dimensional:
        raise ValueError("cone must be full-dimensional")


def _class_shift(cone: Cone, c: IntVector) -> tuple[IntVector, IntVector]:
    """``(c0, h)`` with ``c = c0 + L(h)``, where c0 is the same for every
    degree in the class of c in ``Z^n / L(M)``."""
    snf = cone.smith
    y = imat_vec(snf.U, c)
    h = imat_vec(snf.V, [y[i] // snf.D[i][i] for i in range(cone.lattice_rank)])
    return tuple(a - b for a, b in zip(c, imat_vec(cone.rays, h))), h


def minimal_elements(cone: Cone, c: Sequence[int]) -> tuple[IntVector, ...]:
    """The complete finite antichain of order-minimal points of P_c, sorted.

    Since ``P_{c + L(h)} = P_c + h`` for every h in M, the search runs
    once per divisor class, at its key c0, and its points are moved by h
    to every degree ``c0 + L(h)`` of the class.  Both are memoized for
    the life of the cone: the points of each class by c0, the result by
    degree.
    """
    return _minimal_elements(cone, cone.degree(c))


def _minimal_elements(cone: Cone, c: IntVector) -> tuple[IntVector, ...]:
    """``minimal_elements`` at a degree already read."""
    out = cone._minimal.get(c)
    if out is None:
        _require_full_dimensional(cone)
        c0, h = _class_shift(cone, c)
        base = cone._classes.get(c0)
        if base is None:
            base = cone._classes[c0] = _minimal_points(cone, c0)
        out = cone._minimal[c] = tuple(tuple(a + b for a, b in zip(m, h)) for m in base)
    return out


def truncation_points(cone: Cone, c: Sequence[int], bound: int) -> list[IntVector]:
    """The lattice points m of P_c with ``|L(m) - c|_1 <= bound``, sorted.

    The points are enumerated in M, with no lattice preimage solved, by
    the box scan of the minimal-point search.  For each basis
    ``(T, adj, det)``, ``m = adj (c_T + y) / det`` with ``y = L_T(m) - c_T``
    nonnegative of 1-norm at most ``bound``, so ``m_j`` lies between
    ``(adj_j c_T + bound min(0, min adj_j)) / det`` and
    ``(adj_j c_T + bound max(0, max adj_j)) / det``; the scan runs over
    the intersection of these ranges over all bases.
    """
    c = cone.degree(c)
    bound = nonnegative_int(bound, "bound")
    _require_full_dimensional(cone)
    bases = cone._search.bases
    low, high = [], []
    for j in range(cone.lattice_rank):
        lows, highs = [], []
        for idx, adj, det in bases:
            row = adj[j]
            w = sum(a * c[i] for a, i in zip(row, idx))
            lows.append(-(-(w + bound * min(0, *row)) // det))
            highs.append((w + bound * max(0, *row)) // det)
        low.append(max(lows))
        high.append(min(highs))
    limit = sum(c) + bound
    return sorted(m for total, _, m in
                  _box_points(cone, c, tuple(x + bound for x in c), low, high)
                  if total <= limit)


def minimal_common_upper_bounds(
    cone: Cone, m: Sequence[int], m_prime: Sequence[int]
) -> tuple[IntVector, ...]:
    """Minimal points dominating both arguments in the dual-cone order."""
    return _minimal_upper_bounds(cone, cone.evaluate(m), cone.evaluate(m_prime))


def _minimal_upper_bounds(cone: Cone, a: IntVector, b: IntVector) -> tuple[IntVector, ...]:
    """The minimal points above two points of Cox coordinates a and b: of P_max(a, b)."""
    return _minimal_elements(cone, tuple(map(max, a, b)))


def strict_interior_point(cone: Cone) -> IntVector:
    """Some m with every ray form at least one: an interior dual-cone point."""
    points = _minimal_elements(cone, (1,) * cone.ray_count)
    if not points:
        raise ValueError("the dual cone has no interior lattice point: "
                         "the cone is not strictly convex")
    return points[0]
