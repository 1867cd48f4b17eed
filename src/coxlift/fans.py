"""Fans and their class groups.

A fan is stored as a global ray matrix plus the ray index sets of its
maximal cones.  The class group is the cokernel of the grading map
M -> Z^rays, split via Smith normal form.  A reflexive description's
global lift at a Cox degree is its own ``ReflexiveDescription.space``.

Validation is exact.  Every ray is primitive and listed by some maximal
cone; each maximal cone lists distinct rays, is strictly convex and has
each of its rays as an edge; no maximal cone lists only rays of another
(separation would make it a face); each pair of maximal cones has a
separating functional.  Each geometric condition asks for an m that is
positive on some rays, negative on others and zero on the rest, and
``_feasible`` decides it exactly, with no search bound: one ``solve``
per subset of rank-many rows of the system.  The system has one or two rows per ray involved, so
for n rays in rank d that is at most C(2n, d) solves; the fans here have
a handful of rays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .cones import Cone
from .lattice import IntMatrix, LatticeQuotient, index_in, reduce_by_sublattice
from .linalg import Mat, _sequence, rank, solve


@dataclass(frozen=True)
class FanData:
    """Global ray matrix plus maximal cones as ray index tuples."""

    lattice_rank: int
    rays: IntMatrix
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cone = Cone(self.lattice_rank, self.rays)
        object.__setattr__(self, "lattice_rank", cone.lattice_rank)
        object.__setattr__(self, "rays", cone.rays)
        n = cone.ray_count
        cones = tuple(tuple(sorted(index_in(i, n, "ray index") for i in _sequence(mc)))
                      for mc in _sequence(self.max_cones))
        object.__setattr__(self, "max_cones", cones)
        for mc in cones:
            if not mc:
                raise ValueError("empty maximal cone")
            if len(set(mc)) < len(mc):
                raise ValueError(f"maximal cone {mc} repeats a ray index")
            if not _separable(self.rays, mc, ()):
                raise ValueError(f"cone {mc} is not strictly convex")
            for i in mc:
                if not _separable(self.rays, mc, (i,)):
                    raise ValueError(f"ray {i} is not an edge of cone {mc}")
        unused = sorted(set(range(n)).difference(*cones))
        if unused:
            raise ValueError(f"rays {unused} lie in no maximal cone")
        _check_shared_faces(self.rays, cones)

    @property
    def ray_count(self) -> int:
        return len(self.rays)


def _feasible(system: Sequence[tuple[Sequence[int], int]]) -> bool:
    """Whether ``{x : <row, x> >= bound for every (row, bound)}`` has a rational point.

    A nonempty polyhedron ``{Ax >= b}`` has a minimal face
    ``{x : A_S x = b_S}`` for some rank(A) independent rows S, and every
    point of that affine space lies in the polyhedron.  So one ``solve``
    per subset of rank(A) rows, its solution checked against every row,
    decides exactly.  With rank 0 the one subset is empty, its solution is
    x = 0, and the test reads every bound <= 0.
    """
    rows = [row for row, _ in system]
    for subset in combinations(system, rank(Mat.from_rows(rows))):
        x = solve(Mat.from_rows([row for row, _ in subset], len(rows[0])),
                  [bound for _, bound in subset])
        if x is not None and all(sum(a * v for a, v in zip(row, x)) >= bound
                                 for row, bound in system):
            return True
    return False


def _separable(rays: IntMatrix, a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether some m has <m, ray> >= 1 on the rays only in a, <= -1 on
    the rays only in b and 0 on the rays in both.

    With b empty this is strict convexity of a; with b = (i,) for i in a
    it says that ray i spans an edge of a.
    """
    system = []
    for i in sorted(set(a) | set(b)):
        ray, neg = rays[i], tuple(-x for x in rays[i])
        if i not in b:
            system.append((ray, 1))
        elif i not in a:
            system.append((neg, 1))
        else:
            system += [(ray, 0), (neg, 0)]
    return _feasible(system)


def _check_shared_faces(rays: IntMatrix, cones) -> None:
    """Find a separating functional for each pair of maximal cones, and
    reject a pair where one lists only rays of the other.

    Cones a and b meet in a common face exactly when some m is zero on the
    shared rays, positive on the rest of a and negative on the rest of b.
    Each pair is one ``_feasible`` test: one ``solve`` per subset of
    rank-many rows of its system, a handful for the small fans here.
    """
    for a, b in combinations(cones, 2):
        if a == b:
            raise ValueError(f"maximal cones {a} and {b} coincide")
        # separation would make the smaller cone a face of the larger one
        for face, cone in ((a, b), (b, a)):
            if set(face) <= set(cone):
                raise ValueError(f"maximal cone {face} is a face of maximal cone {cone}")
        if not _separable(rays, a, b):
            raise ValueError(f"no separating functional for cones {a} and {b}")


def class_group(fan: FanData) -> LatticeQuotient:
    """Z^rays modulo the image of the character lattice, split via SNF:
    ``project`` sends a Cox degree to its class."""
    try:
        return reduce_by_sublattice(fan.ray_count, list(zip(*fan.rays)))
    except ValueError:  # the columns are dependent
        raise ValueError("rays do not span the lattice; class group undefined") from None

