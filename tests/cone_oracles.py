"""Independent oracles for the cone and fan algorithms, used only by the tests.

* ``minimal_nonneg_solutions``: the Contejean-Devie completion, the
  minimal nonzero nonnegative solutions of a homogeneous integer system.
* ``completion_minimal_elements``: minimal points of ``P_c`` through the
  completion, an oracle for ``cones.minimal_elements``.
* ``box_minimal_oracle``: minimal points of ``P_c`` by brute force in a
  cube, an oracle for the same.
* ``preimage_truncation_points``: the points of ``P_c`` within a 1-norm
  bound of ``c``, one lattice preimage per composition of the bound, an
  oracle for ``cones.truncation_points``.
* ``positive_relation_exists`` and ``completion_separable``: strict
  convexity and separation of cones through the completion, oracles for
  the feasibility tests of ``fans.FanData``.

The completion is a search: past ``max_level`` levels of the 1-norm it
raises ``RuntimeError``, which a test must read as "no verdict".
"""

from itertools import product
from typing import Optional, Sequence

from coxlift.cones import Cone, leq_sigma
from coxlift.lattice import (
    int_vector,
    reduce_by_sublattice,
    smith_normal_form,
)


def minimal_nonneg_solutions(
    columns: Sequence[Sequence[int]],
    caps: Optional[dict[int, int]] = None,
    max_level: int = 512,
) -> list[tuple[int, ...]]:
    """Minimal nonzero nonnegative solutions of sum_i x_i * columns[i] = 0.

    Breadth-first frontier from the unit vectors; a node ``x`` extends
    along coordinate ``i`` only when <Ax, Ae_i> < 0, nodes dominating a
    recorded solution are dropped, and levels advance one unit of the
    1-norm at a time so every surfaced solution is minimal.  ``caps``
    bounds single coordinates.
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


def completion_minimal_elements(cone: Cone, c, max_level: int = 512):
    """Minimal points of P_c by a Contejean-Devie completion.

    Writing ``u = L(m) - c``, the coset constraint ``u + c in L(M)`` is
    homogenized with an auxiliary coordinate capped at one, each torsion
    factor of the class group gets a pair of slack columns, and the
    minimal nonnegative solutions with auxiliary coordinate one give the
    minimal points.  Raises ``RuntimeError`` past ``max_level``.
    """
    n = cone.ray_count
    # the class group: Z^rays modulo the image of M
    quot = reduce_by_sublattice(n, [[row[j] for row in cone.rays]
                                    for j in range(cone.lattice_rank)])
    free, torsion = quot.free_rows, quot.torsion
    height = len(free) + len(torsion)

    def value_of(vec):
        return (tuple(sum(r * x for r, x in zip(row, vec)) for row in free)
                + tuple(sum(r * x for r, x in zip(row, vec)) for row, _ in torsion))

    columns = [value_of([int(i == j) for j in range(n)]) for i in range(n)]
    columns.append(value_of(c))
    for j, (_, d) in enumerate(torsion):
        for sign in (-1, 1):
            col = [0] * height
            col[len(free) + j] = sign * d
            columns.append(tuple(col))
    sols = minimal_nonneg_solutions(columns, caps={n: 1}, max_level=max_level)
    us = sorted({sol[:n] for sol in sols if sol[n] == 1})
    snf = smith_normal_form(cone.rays)
    out = []
    for u in us:
        if any(w != u and all(a <= b for a, b in zip(w, u)) for w in us):
            continue
        m = snf.preimage(tuple(a + b for a, b in zip(u, c)))
        assert m is not None, "coset solution left the image lattice"
        out.append(m)
    return tuple(sorted(out))


def box_minimal_oracle(cone: Cone, c: Sequence[int], radius: int) -> tuple[tuple[int, ...], ...]:
    """Minimal points of P_c within the cube [-radius, radius]^d, by brute force."""
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


def preimage_truncation_points(cone: Cone, c: Sequence[int], bound: int) -> list[tuple[int, ...]]:
    """Lattice points of P_c whose Cox coordinates are within ``bound`` of c in 1-norm.

    Every ``u >= 0`` with ``|u|_1 <= bound`` is tried: ``c + u`` is kept
    when the Smith form finds it a preimage in M.
    """
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


def positive_relation_exists(rows: Sequence[Sequence[int]], max_level: int = 512) -> bool:
    """Whether a nonzero nonnegative combination of the rows vanishes.

    True exactly when the cone spanned by the rows is not strictly convex.
    """
    return bool(minimal_nonneg_solutions(rows, max_level=max_level))


def completion_separable(rays, a, b, max_level: int = 512) -> bool:
    """Whether some m is positive on the rays only in a, negative on the
    rays only in b and zero on the rays in both.

    By Motzkin's transposition theorem no such m exists exactly when a
    nonnegative relation among r_i (i only in a), -r_j (j only in b) and
    +r_k, -r_k (k in both) puts weight on some r_i or -r_j.  Every such
    relation is a sum of minimal ones, so the minimal relations decide.
    """
    common = [i for i in a if i in b]
    only_a = [i for i in a if i not in common]
    only_b = [j for j in b if j not in common]
    columns = ([rays[i] for i in only_a]
               + [tuple(-x for x in rays[j]) for j in only_b + common]
               + [rays[k] for k in common])
    strict = len(only_a) + len(only_b)
    return not any(any(sol[:strict])
                   for sol in minimal_nonneg_solutions(columns, max_level=max_level))
