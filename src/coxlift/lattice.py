"""Exact integer matrix algorithms.

Smith normal form by row/column reduction with pivot-norm minimization,
exact preimages under a Smith form (``SnfResult.preimage``), and
quotient-lattice projections with the torsion part split off; ranks are
read off the Smith form (``SnfResult.rank``).  All arithmetic is in
Python's arbitrary-precision integers; the layer forms no rationals.

All functions here are pure and safe to call from concurrent workers,
and none memoizes: a caller that solves against one matrix many times
keeps its Smith form, as a cone keeps that of its rays (``Cone.smith``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

from .linalg import _pair, _sequence

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def plain_int(x) -> int:
    """``x`` if it is a plain integer; booleans, floats and strings are
    rejected with ``ValueError``, never truncated."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def nonnegative_int(x, name: str) -> int:
    """``x`` if it is a plain integer and not negative; ``name`` labels the error."""
    if plain_int(x) < 0:
        raise ValueError(f"{name} must be nonnegative, got {x}")
    return x


def index_in(x, n: int, what: str) -> int:
    """``x`` if it is a plain integer in ``0..n-1``; ``what`` labels the error."""
    if not 0 <= plain_int(x) < n:
        raise ValueError(f"{what} {x} is outside 0..{n - 1}")
    return x


_INT = frozenset((int,))


def int_vector(values: Sequence[int]) -> IntVector:
    """``values`` as a tuple of plain integers, each one checked by ``plain_int``."""
    t = tuple(_sequence(values))
    if _INT.issuperset(map(type, t)):
        return t
    return tuple(plain_int(x) for x in t)


def int_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Normalize and validate a rectangular integer matrix."""
    out = []
    width = None
    for row in _sequence(rows):
        t = int_vector(row)
        if width is None:
            width = len(t)
        elif len(t) != width:
            raise ValueError("ragged matrix")
        out.append(t)
    if not out or width == 0:
        raise ValueError("matrix must be nonempty")
    return tuple(out)


def imat_vec(a: IntMatrix, v: Sequence[int]) -> IntVector:
    if len(v) != len(a[0]):
        raise ValueError("vector length differs from column count")
    return tuple(sum(map(mul, row, v)) for row in a)


def i_identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class SnfResult:
    """Decomposition U*A*V = D with U, V unimodular and D diagonal.

    The diagonal is nonnegative and each entry divides the next;
    ``invariant_factors`` lists the full min(rows, cols) diagonal.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        """The rank of A over the rationals: its nonzero invariant factors."""
        return sum(1 for d in self.invariant_factors if d)

    def preimage(self, v: Sequence[int]) -> Optional[IntVector]:
        """An integer ``x`` with ``A @ x == v``, or None; ``v`` is read
        through ``int_vector`` and must have one entry per row of A."""
        v = int_vector(v)
        m, n = len(self.U), len(self.V)
        if len(v) != m:
            raise ValueError(f"vector {v} has length {len(v)}, the matrix has {m} rows")
        y = imat_vec(self.U, v)
        z = [0] * n
        for i in range(min(m, n)):
            d = self.D[i][i]
            if d:
                if y[i] % d:
                    return None
                z[i] = y[i] // d
            elif y[i]:
                return None
        for i in range(min(m, n), m):
            if y[i]:
                return None
        return imat_vec(self.V, z)


def smith_normal_form(a: IntMatrix) -> SnfResult:
    a = int_matrix(a)
    m, n = len(a), len(a[0])
    A = [list(row) for row in a]
    U = [list(row) for row in i_identity(m)]
    V = [list(row) for row in i_identity(n)]

    def row_op(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j
        A[i] = [x - q * y for x, y in zip(A[i], A[j])]
        U[i] = [x - q * y for x, y in zip(U[i], U[j])]

    def col_op(i: int, j: int, q: int) -> None:
        # col_i -= q * col_j
        for row in A:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def swap_rows(i: int, j: int) -> None:
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i: int, j: int) -> None:
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    k = 0
    limit = min(m, n)
    while k < limit:
        piv = None
        best = None
        for i in range(k, m):
            for j in range(k, n):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(k, piv[0])
        swap_cols(k, piv[1])

        while True:
            dirty = False
            for i in range(k + 1, m):
                if A[i][k]:
                    q = A[i][k] // A[k][k]
                    if q:
                        row_op(i, k, q)
                    if A[i][k]:
                        swap_rows(k, i)
                        dirty = True
            for j in range(k + 1, n):
                if A[k][j]:
                    q = A[k][j] // A[k][k]
                    if q:
                        col_op(j, k, q)
                    if A[k][j]:
                        swap_cols(k, j)
                        dirty = True
            if dirty:
                continue
            if all(A[i][k] == 0 for i in range(k + 1, m)) and all(
                A[k][j] == 0 for j in range(k + 1, n)
            ):
                break

        p = A[k][k]
        offender = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if A[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(k, offender, -1)  # adds the offending row, reduction restarts
            continue
        k += 1

    for i in range(limit):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]

    D = tuple(tuple(row) for row in A)
    return SnfResult(
        U=tuple(tuple(row) for row in U),
        D=D,
        V=tuple(tuple(row) for row in V),
        invariant_factors=tuple(D[i][i] for i in range(limit)),
    )


@dataclass(frozen=True)
class LatticeQuotient:
    """Projection of Z^ambient_rank onto the quotient by a sublattice.

    ``free_rows`` give the torsion-free coordinates; ``torsion`` pairs a
    projection row with its modulus.  ``project`` is surjective with
    kernel exactly the sublattice.  The constructor reads every field:
    rows of the ambient length, moduli at least 2.
    """

    ambient_rank: int
    free_rows: IntMatrix
    torsion: tuple[tuple[IntVector, int], ...]

    def __post_init__(self):
        n = nonnegative_int(self.ambient_rank, "ambient rank")
        free = tuple(map(int_vector, _sequence(self.free_rows)))
        torsion = tuple((int_vector(r), plain_int(d)) for r, d in
                        (_pair(t, "torsion entry") for t in _sequence(self.torsion)))
        for row in free + tuple(r for r, _ in torsion):
            if len(row) != n:
                raise ValueError(f"row {row} has length {len(row)}, the ambient rank is {n}")
        for _, d in torsion:
            if d < 2:
                raise ValueError(f"torsion modulus {d} is below 2")
        object.__setattr__(self, "free_rows", free)
        object.__setattr__(self, "torsion", torsion)

    @property
    def free_rank(self) -> int:
        return len(self.free_rows)

    @property
    def torsion_moduli(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.torsion)

    def project(self, v: Sequence[int]) -> tuple[IntVector, IntVector]:
        v = int_vector(v)
        if len(v) != self.ambient_rank:
            raise ValueError("vector length differs from ambient rank")
        free = tuple(sum(r * x for r, x in zip(row, v)) for row in self.free_rows)
        tor = tuple(sum(r * x for r, x in zip(row, v)) % d for row, d in self.torsion)
        return free, tor


def reduce_by_sublattice(ambient_rank: int, generators: Sequence[Sequence[int]]) -> LatticeQuotient:
    """Quotient of Z^ambient_rank by the span of independent generators."""
    ambient_rank = nonnegative_int(ambient_rank, "ambient rank")
    gens = tuple(int_vector(g) for g in _sequence(generators))
    for g in gens:
        if len(g) != ambient_rank:
            raise ValueError("generator length differs from ambient rank")
    if not gens:
        return LatticeQuotient(ambient_rank, i_identity(ambient_rank), ())
    if len(gens) > ambient_rank:
        raise ValueError(f"dependent generators: {len(gens)} of them in rank {ambient_rank}")
    cols = int_matrix([[g[i] for g in gens] for i in range(ambient_rank)])
    k = len(gens)
    snf = smith_normal_form(cols)
    if snf.rank != k:
        raise ValueError("dependent generators")
    free_rows = tuple(snf.U[i] for i in range(k, ambient_rank))
    torsion = tuple(
        (snf.U[i], snf.D[i][i]) for i in range(k) if snf.D[i][i] != 1
    )
    return LatticeQuotient(ambient_rank, free_rows, torsion)
