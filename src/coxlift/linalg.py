"""Exact linear algebra over the rationals.

Every vector-space computation in the package runs through this module:
ranks, reduced row echelon forms, kernels, coordinate solving, and
canonical row-space bases.  Matrices, vectors and results are
``fractions.Fraction`` at every interface.  There is one Gaussian
elimination, the sparse pivot table of ``_pivot_table``, and it is
fraction-free: each row is scaled to integers once, a row is cleared by
an integer combination ``a*row - f*pivot``, and stored rows are primitive
(content 1, positive leading entry), which keeps the integers small.
It reads its rows lazily, one at a time.  Ranks (``sparse_rank``, which
``rank`` calls) count its pivots; they read the whole matrix and
eliminate its shorter side, sparsest lines first, since the rank does
not depend on that order.  Reduced forms back-substitute the table of
the rows as given and divide each row once by its leading entry.
Kernels (``sparse_kernel_basis``, which ``kernel_basis`` calls) take
the rows in order too, and stop pulling them once the table holds a
pivot in every column, so rows after full rank are never built.  Each
kernel vector ends in the 1 at its free column, and no other kernel
vector is nonzero there: read with its columns in reverse order, the
basis, listed in reverse, is the RREF basis of the kernel.  So a caller
that numbers its columns from the right (``lifting.lift_component``)
gets the RREF kernel from this one elimination.  An
intersection of two subspaces is one RREF too (``intersect_row_spaces``).
There is one change of basis, ``matrix_in_basis``: every map between
components (transports, restriction maps, lifted morphisms, unit and
counit) writes its images in the target's RREF basis there.  A matrix
has exactly one RREF, so every pivot list, kernel, solution and row-space
basis read from it is fixed by the input whatever order the elimination
runs in: equal subspaces get identical bases, and output is reproducible
bit for bit.

Matrices carry explicit shape (``Mat``) because zero-dimensional blocks
are everywhere in graded-module arithmetic and bare lists of rows lose
the column count.

Every entry point reads the rationals it is given through ``_fraction``
(``Mat.from_rows``, ``Mat.vec``, ``solve``, ``row_space_basis``,
``matrix_in_basis`` and ``subspace_le``, basis rows included, once per
call): an integer, a ``Fraction`` or ``"p/q"`` text is read exactly, and
a float or a boolean raises ``ValueError``.  Only the internal
constructor ``Mat(nrows, ncols, rows)`` takes its rows as given.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def _fraction(x) -> Fraction:
    """``x`` as an exact rational: an integer, a ``Fraction`` or rational
    text such as ``"2/3"``; floats and booleans are rejected with
    ``ValueError``, never rounded."""
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    if isinstance(x, bool):
        raise ValueError("booleans are not numbers here")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise ValueError(f"cannot read {x!r} as an exact rational")


def _sequence(values: Iterable) -> Iterable:
    """``values`` if it iterates over entries; a number, a string or a
    mapping raises ``ValueError`` naming it."""
    if type(values) not in (tuple, list) and (isinstance(values, (str, Mapping))
                                              or not hasattr(values, "__iter__")):
        raise ValueError(f"expected a sequence, got {values!r}")
    return values


def _pair(values: Iterable, what: str) -> tuple:
    """``values`` as exactly two entries, read by ``_sequence``; ``what`` labels the error."""
    t = tuple(_sequence(values))
    if len(t) != 2:
        raise ValueError(f"{what} {t} is not a pair")
    return t


def frac_vector(values: Iterable) -> Vector:
    return tuple(map(_fraction, _sequence(values)))


class Mat:
    """Dense rational matrix with explicit shape.

    The constructor is the internal one: it checks the shape and keeps
    ``rows`` as given.  ``Mat.from_rows`` is the checked one.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Optional[list] = None):
        if rows is None:
            rows = [[ZERO] * ncols for _ in range(nrows)]
        if len(rows) != nrows or not set(map(len, rows)) <= {ncols}:
            raise ValueError("matrix shape mismatch")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], ncols: Optional[int] = None) -> "Mat":
        rows = [list(frac_vector(row)) for row in _sequence(rows)]
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(rows[0])
        elif isinstance(ncols, bool) or not isinstance(ncols, int) or ncols < 0:
            raise ValueError(f"expected a nonnegative integer column count, got {ncols!r}")
        return cls(len(rows), ncols, rows)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Mat":
        return cls(nrows, ncols)

    @classmethod
    def ones(cls, nrows: int, ncols: int) -> "Mat":
        """All entries 1: between spaces of dimension at most one, the
        identity where both are nonzero and the zero map otherwise.

        One of four shared matrices (0x0, 0x1, 1x0, 1x1), built once: as
        with a memoized inclusion, callers read it and must not mutate it.
        A side above 1 raises ``ValueError``.
        """
        out = _ONES.get((nrows, ncols))
        if out is None:
            raise ValueError(f"Mat.ones is shared for sides 0 and 1 only, got {nrows}x{ncols}")
        return out

    def mul(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")
        out = [[ZERO] * other.ncols for _ in range(self.nrows)]
        for i, row in enumerate(self.rows):
            orow = out[i]
            for k, a in enumerate(row):
                if a:
                    brow = other.rows[k]
                    for j, b in enumerate(brow):
                        if b:
                            orow[j] += a * b
        return Mat(self.nrows, other.ncols, out)

    def vec(self, v: Sequence) -> list:
        v = frac_vector(v)
        if len(v) != self.ncols:
            raise ValueError("vector length differs from column count")
        return [sum([a * x for a, x in zip(row, v) if a], ZERO) for row in self.rows]

    def col(self, j: int) -> list:
        return [row[j] for row in self.rows]

    def transpose(self) -> "Mat":
        return Mat(self.ncols, self.nrows,
                   [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def hstack(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows:
            raise ValueError("row counts differ")
        return Mat(self.nrows, self.ncols + other.ncols,
                   [self.rows[i] + other.rows[i] for i in range(self.nrows)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mat) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols}, {self.rows!r})"


_ONES = {(r, c): Mat(r, c, [[ONE] * c for _ in range(r)]) for r in (0, 1) for c in (0, 1)}


def block_diagonal(blocks: Sequence[Mat]) -> Mat:
    """The direct sum of matrices: each block on the diagonal, zeros elsewhere."""
    out = Mat.zero(sum(b.nrows for b in blocks), sum(b.ncols for b in blocks))
    r = c = 0
    for b in blocks:
        for i in range(b.nrows):
            out.rows[r + i][c:c + b.ncols] = b.rows[i]
        r += b.nrows
        c += b.ncols
    return out


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the pivot column list.

    The back-substituted rows of the pivot table are divided once by
    their leading entries.  The pivot rows come first in column order,
    then zero rows up to ``m.nrows``.
    """
    table = _back_substitute(_pivot_table(_sparse_rows(m)))
    pivots = sorted(table)
    rows = []
    for p in pivots:
        row = table[p]
        dense = [ZERO] * m.ncols
        lead = row[p]
        for c, v in row.items():
            dense[c] = Fraction(v, lead)
        rows.append(dense)
    rows += [[ZERO] * m.ncols for _ in range(m.nrows - len(pivots))]
    return Mat(m.nrows, m.ncols, rows), pivots


def rank(m: Mat) -> int:
    """Number of pivots, by ``sparse_rank``."""
    return sparse_rank(_sparse_rows(m))


def kernel_basis(m: Mat) -> list[Vector]:
    """Canonical basis of the right kernel, one vector per free column."""
    return sparse_kernel_basis(_sparse_rows(m), m.ncols)


def sparse_kernel_basis(rows: Iterable[dict], ncols: int) -> list[Vector]:
    """Canonical basis of the right kernel of sparse rows ``col -> value``.

    One vector per free column ``f``, in column order: 1 at ``f`` and, at
    each pivot column, minus the entry at ``f`` of that pivot's reduced
    row, which is nonzero only at pivot columns left of ``f``.  Rows are pulled one at a time, and none once the table holds
    ``ncols`` pivots: the kernel is then zero, and the rest of a lazy
    iterable is never built.
    """
    table = _pivot_table(rows, ncols)
    if len(table) == ncols:
        return []
    free = {f: [ZERO] * ncols for f in range(ncols) if f not in table}
    for p, row in _back_substitute(table).items():
        lead = row[p]
        for c, v in row.items():
            if c != p:
                free[c][p] = Fraction(-v, lead)
    for f, v in free.items():
        v[f] = ONE
    return [tuple(v) for v in free.values()]


def solve(m: Mat, b: Sequence) -> Optional[list]:
    """One solution of ``m x = b``, or None when inconsistent."""
    aug = m.hstack(Mat(m.nrows, 1, [[x] for x in frac_vector(b)]))
    red, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    x = [ZERO] * m.ncols
    for i, p in enumerate(pivots):
        x[p] = red.rows[i][m.ncols]
    return x


def row_space_basis(vectors: Iterable[Sequence], ambient: int) -> tuple[Vector, ...]:
    """Canonical (RREF) basis of the span of vectors, each of length ``ambient``."""
    rows = [frac_vector(v) for v in _sequence(vectors)]
    for v in rows:
        if len(v) != ambient:
            raise ValueError(f"vector ({', '.join(map(str, v))}) has length {len(v)}, "
                             f"the ambient dimension is {ambient}")
    if not rows:
        return ()
    red, pivots = rref(Mat(len(rows), ambient, rows))
    return tuple(tuple(red.rows[i]) for i in range(len(pivots)))


def _reducer(basis: Sequence[Sequence]) -> Callable[[Sequence], tuple[list, list]]:
    """Reduction by a fixed RREF basis, read through ``_fraction`` once, here,
    and kept as its rows' nonzero entries: ``reduce(v)`` returns the multiple
    of each row taken off (the entry of ``v`` at its pivot) and the remainder,
    zero exactly when ``v`` lies in the span.  ``matrix_in_basis`` and
    ``subspace_le`` are its two doors."""
    rows = [frac_vector(row) for row in basis]
    widths = set(map(len, rows))
    entries = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    if not all(entries):
        raise ValueError("zero row has no leading index")

    def reduce(v: Sequence) -> tuple[list, list]:
        work = list(frac_vector(v))
        if not widths <= {len(work)}:
            raise ValueError("basis row length differs from vector length")
        coeffs = []
        for row in entries:
            c = work[row[0][0]]
            coeffs.append(c)
            if c:
                for j, r in row:
                    work[j] -= c * r
        return coeffs, work

    return reduce


def matrix_in_basis(basis: Sequence[Vector], images: Iterable[Sequence]) -> Mat:
    """The matrix whose column j holds the coordinates of ``images[j]`` in an RREF basis.

    The one place vectors are written in a basis; the basis is read once
    per call.  Raises ``AssertionError`` when an image leaves the span.
    """
    reduce = _reducer(basis)
    rows = [[] for _ in basis]
    ncols = 0
    for v in images:
        coeffs, rest = reduce(v)
        if any(rest):
            raise AssertionError("image left the span of the target basis")
        for row, x in zip(rows, coeffs):
            row.append(x)
        ncols += 1
    return Mat(len(rows), ncols, rows)


def subspace_le(inner: Sequence[Vector], outer: Sequence[Vector]) -> bool:
    reduce = _reducer(outer)
    return all(not any(reduce(v)[1]) for v in inner)


def subspace_eq(a: Sequence[Vector], b: Sequence[Vector]) -> bool:
    return subspace_le(a, b) and subspace_le(b, a)


def intersect_row_spaces(a: Sequence[Vector], b: Sequence[Vector], ambient: int) -> tuple[Vector, ...]:
    """Canonical basis of span(a) ∩ span(b), by one RREF (Zassenhaus).

    The rows ``(u | u)``, u in a, and ``(v | 0)``, v in b, span the
    ``(s + t | s)`` with s in span(a), t in span(b); those with left half
    0 have ``s = -t`` in both.  They are the RREF rows with a pivot in the
    right half, whose right halves are the RREF basis of the intersection.
    """
    if not a or not b:
        return ()
    zero = [ZERO] * ambient
    rows = [[*u, *u] for u in a] + [[*v, *zero] for v in b]
    red, pivots = rref(Mat(len(rows), 2 * ambient, rows))
    return tuple(tuple(row[ambient:]) for row, p in zip(red.rows, pivots) if p >= ambient)


def is_injective(m: Mat) -> bool:
    return rank(m) == m.ncols


def is_isomorphism(m: Mat) -> bool:
    return m.nrows == m.ncols and rank(m) == m.nrows


def sparse_rank(rows: Iterable[dict]) -> int:
    """Rank of a sparse rational matrix given as dicts ``col -> value``.

    Counts pivots without back-substitution.  The rank does not depend
    on the order of elimination, so the matrix is eliminated along its
    shorter side (its columns when there are fewer of them than nonzero
    rows) and its lines are fed to the pivot table sparsest first, in a
    stable order.  On the tall, very sparse differentials of cochain
    complexes this keeps the fill-in small.
    """
    lines: list[dict] = []
    cols: dict[int, dict] = {}
    for r in rows:
        line = {}
        for c, v in r.items():
            if v:
                line[c] = v
                cols.setdefault(c, {})[len(lines)] = v
        if line:
            lines.append(line)
    if len(cols) < len(lines):
        lines = list(cols.values())
    return len(_pivot_table(sorted(lines, key=len)))


def _pivot_table(rows: Iterable[dict],
                 full_rank: Optional[int] = None) -> dict[int, dict[int, int]]:
    """Forward elimination: pivot column -> primitive integer pivot row.

    Each sparse rational row ``col -> value`` is scaled by the lcm of its
    denominators; its leading entry is then cleared against the stored
    pivot rows until it vanishes or leads at a new column, where it is
    stored with content 1 and a positive leading entry.  Stored rows hold
    nonzero entries only.  With ``full_rank`` given, no row is pulled
    once the table holds that many pivots.
    """
    pivots: dict[int, dict[int, int]] = {}
    if full_rank == 0:
        return pivots
    for r in rows:
        den = lcm(*(v.denominator for v in r.values()))
        row = {c: v.numerator * (den // v.denominator) for c, v in r.items() if v}
        while row:
            c = min(row)
            if c in pivots:
                _clear(row, c, pivots[c])
            else:
                pivots[c] = _primitive(row)
                if len(pivots) == full_rank:
                    return pivots
                break
    return pivots


def _back_substitute(table: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """Reduce a pivot table in place, highest pivot column first, so each
    row vanishes at every other pivot column; rows stay primitive."""
    for p in sorted(table, reverse=True):
        row = table[p]
        # the rows above are reduced and vanish at every other pivot column
        for q in [q for q in row if q != p and q in table]:
            _clear(row, q, table[q])
        table[p] = _primitive(row)
    return table


def _sparse_rows(m: Mat):
    return ({c: x for c, x in enumerate(row) if x} for row in m.rows)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by its content, signed so the leading entry is positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _clear(row: dict[int, int], c: int, prow: dict[int, int]) -> None:
    """Clear ``row`` at ``c`` with ``prow``: ``row`` becomes ``a*row - f*prow``.

    ``a`` and ``f`` are the entries of ``prow`` and ``row`` at ``c``
    divided by their gcd; ``a`` is positive, as ``prow`` leads with a
    positive entry at ``c``.
    """
    f = row.pop(c)
    a = prow[c]
    g = gcd(a, f)
    a //= g
    f //= g
    if a != 1:
        for cc in row:
            row[cc] *= a
    for cc, vv in prow.items():
        if cc == c:
            continue
        nv = row.get(cc, 0) - f * vv
        if nv:
            row[cc] = nv
        else:
            row.pop(cc, None)
