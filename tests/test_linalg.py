from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coxlift import linalg
from coxlift.linalg import (
    Mat,
    intersect_row_spaces,
    kernel_basis,
    matrix_in_basis,
    rank,
    reduce_by_rref,
    row_space_basis,
    rref,
    solve,
    sparse_kernel_basis,
    sparse_rank,
    subspace_contains,
    subspace_eq,
    subspace_le,
)


def test_fraction_reads_a_json_rational():
    assert linalg._fraction("3/2") == Fraction(3, 2)
    assert linalg._fraction(-4) == Fraction(-4)
    with pytest.raises(ValueError):
        linalg._fraction(True)


def dense_rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reference oracle: dense Gauss-Jordan elimination, column by column."""
    rows = [row[:] for row in m.rows]
    pivots: list[int] = []
    r = 0
    for c in range(m.ncols):
        piv = None
        for i in range(r, m.nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m.nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return Mat(m.nrows, m.ncols, rows), pivots


def dense_kernel(m: Mat) -> list[tuple]:
    """Reference oracle: one vector per free column of ``dense_rref``."""
    red, pivots = dense_rref(m)
    kernel = []
    for f in (c for c in range(m.ncols) if c not in pivots):
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red.rows[i][f]
        kernel.append(tuple(v))
    return kernel


def fraction_pivot_table(rows) -> dict[int, dict]:
    """Reference oracle: forward elimination on ``Fraction`` rows.

    Pivot column -> sparse pivot row with leading 1; each row's leading
    entry is cleared against the stored pivots until the row vanishes or
    leads at a new column.
    """
    pivots: dict[int, dict] = {}
    for r in rows:
        row = {c: Fraction(v) for c, v in r.items() if v}
        while row:
            c = min(row)
            if c not in pivots:
                f = row[c]
                pivots[c] = {cc: vv / f for cc, vv in row.items()}
                break
            f = row.pop(c)
            for cc, vv in pivots[c].items():
                if cc != c:
                    nv = row.get(cc, Fraction(0)) - f * vv
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
    return pivots


small_matrix = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-4, 4), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
)


@given(small_matrix)
def test_kernel_vectors_annihilate(rows):
    m = Mat.from_rows(rows)
    for v in kernel_basis(m):
        assert all(x == 0 for x in m.vec(list(v)))


@given(small_matrix)
def test_rank_nullity(rows):
    m = Mat.from_rows(rows)
    assert rank(m) + len(kernel_basis(m)) == m.ncols


@given(small_matrix)
def test_rref_pivots_are_unit_columns(rows):
    m = Mat.from_rows(rows)
    red, pivots = rref(m)
    for i, p in enumerate(pivots):
        col = [red.rows[r][p] for r in range(red.nrows)]
        assert col[i] == 1
        assert all(x == 0 for r, x in enumerate(col) if r != i)


@given(small_matrix, st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_solve_consistency(rows, x):
    m = Mat.from_rows(rows)
    x = (x * 4)[: m.ncols]
    b = m.vec(x)
    sol = solve(m, b)
    assert sol is not None
    assert m.vec(sol) == b


def test_solve_inconsistent():
    m = Mat.from_rows([[1, 0], [1, 0]])
    assert solve(m, [1, 2]) is None


@given(small_matrix)
def test_row_space_basis_is_canonical(rows):
    m = Mat.from_rows(rows)
    basis = row_space_basis(rows, m.ncols)
    again = row_space_basis(list(basis) + rows, m.ncols)
    assert basis == again
    for row in rows:
        assert subspace_contains(basis, row)


def test_coords_reconstruct():
    basis = row_space_basis([[1, 0, 2], [0, 1, 3]], 3)
    v = [2, -1, 1]
    coords = matrix_in_basis(basis, [v]).col(0)
    rebuilt = [sum(c * row[j] for c, row in zip(coords, basis)) for j in range(3)]
    assert rebuilt == [Fraction(x) for x in v]
    with pytest.raises(AssertionError):
        matrix_in_basis(basis, [[0, 0, 1]])


def test_intersection_of_planes():
    a = row_space_basis([[1, 0, 0], [0, 1, 0]], 3)
    b = row_space_basis([[1, 0, 1], [0, 1, 1]], 3)
    meet = intersect_row_spaces(a, b, 3)
    assert len(meet) == 1
    assert subspace_le(meet, a) and subspace_le(meet, b)
    assert subspace_eq(meet, row_space_basis([[1, -1, 0]], 3))


@given(small_matrix)
def test_sparse_rank_matches_dense(rows):
    m = Mat.from_rows(rows)
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    assert sparse_rank(sparse) == len(dense_rref(m)[1])


# about half zeros, with some whole zero rows and zero columns, shapes 0x0 to 6x6
entry = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def sparse_rational_matrix(draw):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    zero_rows = draw(st.sets(st.integers(0, 5), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 5), max_size=2))
    rows = [[Fraction(0) if i in zero_rows or j in zero_cols else draw(entry)
             for j in range(ncols)] for i in range(nrows)]
    return Mat(nrows, ncols, rows)


@given(sparse_rational_matrix(), st.data())
def test_reduced_forms_match_dense_oracle(m, data):
    red, pivots = dense_rref(m)
    assert rref(m) == (red, pivots)
    assert rank(m) == len(pivots)
    assert sparse_rank([{j: v for j, v in enumerate(row) if v} for row in m.rows]) \
        == len(pivots)
    assert kernel_basis(m) == dense_kernel(m)

    b = data.draw(st.lists(entry, min_size=m.nrows, max_size=m.nrows))
    aug, aug_pivots = dense_rref(m.hstack(Mat(m.nrows, 1, [[x] for x in b])))
    if m.ncols in aug_pivots:
        expected = None
    else:
        expected = [Fraction(0)] * m.ncols
        for i, p in enumerate(aug_pivots):
            expected[p] = aug.rows[i][m.ncols]
    assert solve(m, b) == expected


@given(sparse_rational_matrix(), st.data())
def test_matrix_in_basis_recovers_coefficients(m, data):
    # the RREF basis of a random row space, possibly empty, and k coefficient
    # columns, some of them zero; the images are the combinations they encode
    basis = row_space_basis(m.rows, m.ncols)
    k = data.draw(st.integers(0, 4))
    zero_cols = data.draw(st.sets(st.integers(0, 3), max_size=2))
    coeffs = [[Fraction(0) if j in zero_cols else data.draw(entry) for j in range(k)]
              for _ in basis]
    images = [[sum((coeffs[i][j] * b[x] for i, b in enumerate(basis)), Fraction(0))
               for x in range(m.ncols)] for j in range(k)]
    assert matrix_in_basis(basis, images) == Mat(len(basis), k, coeffs)

    # a unit vector at a non-pivot column, added to an image, leaves the span
    pivots = {next(j for j, x in enumerate(b) if x) for b in basis}
    free = [j for j in range(m.ncols) if j not in pivots]
    if free:
        outside = list(images[0]) if images else [Fraction(0)] * m.ncols
        outside[data.draw(st.sampled_from(free))] += 1
        with pytest.raises(AssertionError):
            matrix_in_basis(basis, images + [outside])


def kernel_intersection(a, b, ambient: int) -> tuple:
    """Reference oracle: span(a) ∩ span(b) by a kernel and a second elimination.

    The kernel of the ``ambient x (|a| + |b|)`` matrix with columns
    ``a_i`` and ``-b_j`` holds the coefficients with ``sum x_i a_i =
    sum y_j b_j``; the recombined ``sum x_i a_i`` span the intersection,
    and their RREF is its canonical basis.
    """
    if not a or not b:
        return ()
    cols = [[v[j] for v in a] + [-v[j] for v in b] for j in range(ambient)]
    vectors = [[sum((x * u[j] for x, u in zip(k, a)), Fraction(0)) for j in range(ambient)]
               for k in dense_kernel(Mat(ambient, len(a) + len(b), cols))]
    red, pivots = dense_rref(Mat(len(vectors), ambient, vectors))
    return tuple(tuple(red.rows[i]) for i in range(len(pivots)))


@st.composite
def subspace_pairs(draw):
    """Spanning sets of two subspaces of Q^ambient, ambient 1 to 5: random
    spans, each side now and then empty or the full space, and now and
    then the second the first again."""
    ambient = draw(st.integers(1, 5))
    full = [tuple(Fraction(int(i == j)) for j in range(ambient)) for i in range(ambient)]
    span = st.one_of(
        st.lists(st.tuples(*[entry] * ambient), max_size=ambient + 1), st.just([]), st.just(full))
    a = draw(span)
    b = draw(st.one_of(span, st.just(a)))
    return a, b, ambient


@given(subspace_pairs())
def test_intersection_matches_the_kernel_oracle(pair):
    a, b, ambient = pair
    meet = intersect_row_spaces(a, b, ambient)
    assert meet == kernel_intersection(a, b, ambient)
    red, pivots = dense_rref(Mat(len(meet), ambient, [list(v) for v in meet]))
    assert len(pivots) == len(meet) and red.rows == [list(v) for v in meet]


def test_intersection_eliminates_once(monkeypatch):
    a = row_space_basis([[1, 0, 0], [0, 1, 0]], 3)
    b = row_space_basis([[1, 0, 1], [0, 1, 1]], 3)
    calls = []

    def counting(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for name in ("rref", "kernel_basis", "sparse_kernel_basis", "row_space_basis"):
        monkeypatch.setattr(linalg, name, counting(name, getattr(linalg, name)))
    assert linalg.intersect_row_spaces(a, b, 3) == ((1, -1, 0),)
    assert calls == ["rref"]


@st.composite
def tall_sparse_rows(draw):
    """Up to 24x12, about half zeros, large numerators over small denominators.

    Some rows hold plain ``int`` values; some are combinations of two
    earlier rows, so wide matrices lose rank too.
    """
    nrows, ncols = draw(st.integers(0, 24)), draw(st.integers(0, 12))
    value = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 12))
    rows: list[list] = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("int", "fraction", "combination")))
        if kind == "combination" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(value), draw(value)
            rows.append([s * x + t * y for x, y in zip(a, b)])
            continue
        zero = [draw(st.booleans()) for _ in range(ncols)]
        if kind == "int":
            rows.append([0 if z else draw(st.integers(-10**6, 10**6)) for z in zero])
        else:
            rows.append([Fraction(0) if z else draw(value) for z in zero])
    return ncols, rows


@given(tall_sparse_rows())
def test_fraction_free_elimination_matches_oracles(shape_rows):
    ncols, rows = shape_rows
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    table = fraction_pivot_table(sparse)
    m = Mat.from_rows(rows, ncols)
    red, pivots = dense_rref(m)
    assert sorted(table) == pivots
    assert sparse_rank(sparse) == rank(m) == len(pivots)
    assert rref(m) == (red, pivots)


@st.composite
def wide_or_tall_rows(draw):
    """Up to 10x10, wide or tall, about half zeros, and a reordering of the
    rows; some rows are zero and some are combinations of two earlier
    rows, so both sides lose rank."""
    nrows, ncols = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    rows: list[list] = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("random", "zero", "combination")))
        if kind == "combination" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entry), draw(entry)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif kind == "zero":
            rows.append([Fraction(0)] * ncols)
        else:
            rows.append([draw(entry) for _ in range(ncols)])
    return ncols, rows, draw(st.permutations(range(nrows)))


@given(wide_or_tall_rows(), st.booleans())
@example((3, [list(map(Fraction, row)) for row in
             ([1, 0, 0], [0, 0, 0], [2, 0, 0], [0, 1, 0], [1, 1, 0])], [4, 2, 0, 3, 1]), True)
def test_sparse_rank_ignores_side_and_order(shape_rows, keep_zeros):
    # the rows, their transpose and a permutation of them have one rank,
    # with or without explicit Fraction(0) entries in the dicts
    ncols, rows, order = shape_rows

    def sparse(matrix):
        return [{j: v for j, v in enumerate(row) if v or keep_zeros} for row in matrix]

    expected = len(dense_rref(Mat(len(rows), ncols, rows))[1])
    transpose = [[row[j] for row in rows] for j in range(ncols)]
    assert sparse_rank(sparse(rows)) == expected
    assert sparse_rank(sparse(transpose)) == expected
    assert sparse_rank(iter(sparse([rows[i] for i in order]))) == expected
    assert rank(Mat(len(rows), ncols, rows)) == expected


def rows_until_full_rank(rows: list[dict], ncols: int):
    """Yield the rows in order; a pull past the row that completes rank
    ``ncols`` (by the ``Fraction`` oracle) raises instead."""
    full = next((k for k in range(len(rows) + 1)
                 if len(fraction_pivot_table(rows[:k])) == ncols), None)
    for k in range(len(rows) + 1):
        if k == full:
            raise AssertionError(f"row {k} pulled after full rank")
        if k == len(rows):
            return
        yield rows[k]


@given(tall_sparse_rows())
@example((2, [[1, 0], [2, 1], [0, 5], [3, 0]]))
@example((0, [[]]))
def test_sparse_kernel_streams_to_full_rank(shape_rows):
    ncols, rows = shape_rows
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    assert (sparse_kernel_basis(rows_until_full_rank(sparse, ncols), ncols)
            == dense_kernel(Mat.from_rows(rows, ncols)))


def test_zero_dimensional_shapes():
    z = Mat.zero(0, 3)
    assert rank(z) == 0
    assert len(kernel_basis(z)) == 3
    z2 = Mat.zero(3, 0)
    assert rank(z2) == 0
    assert kernel_basis(z2) == []
    assert Mat.zero(0, 2).mul(Mat.zero(2, 5)).ncols == 5


ONE, ZERO = Fraction(1), Fraction(0)

# each public entry point that reads rationals, handed x as one entry of a
# valid call; every entry it reads goes through ``_fraction``
ENTRY_POINTS = {
    "Mat.from_rows": lambda x: Mat.from_rows([[x, 1]]).rows,
    "Mat.vec": lambda x: Mat.identity(2).vec([x, 1]),
    "row_space_basis": lambda x: row_space_basis([[1, x]], 2),
    "solve": lambda x: solve(Mat.from_rows([[1]]), [x]),
    "reduce_by_rref": lambda x: reduce_by_rref([(ONE, ZERO)], [x, 1]),
    "matrix_in_basis": lambda x: matrix_in_basis([(ONE, ZERO), (ZERO, ONE)], [[x, 1]]).rows,
    "subspace_contains": lambda x: subspace_contains([(ONE, ZERO)], [x, 0]),
    # x in a basis row, which was read unchecked: at x = 0.5 the first returned
    # the remainder [0, 0.5], and at x = True the last returned True
    "reduce_by_rref basis": lambda x: reduce_by_rref([(ONE, x)], [1, 1]),
    "matrix_in_basis basis": lambda x: matrix_in_basis([(ONE, ZERO), (ZERO, x)],
                                                       [[1, 0]]).rows,
    "subspace_contains basis": lambda x: subspace_contains([(ONE, x)], [1, 1]),
}


@pytest.mark.parametrize("x", [0.5, 2.0, True, False, None])
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_entry_points_reject_floats_and_booleans(call, x):
    with pytest.raises(ValueError):
        call(x)


@pytest.mark.parametrize("x", [2, Fraction(2, 3), "2/3", "-4"])
def test_entry_points_read_rationals_exactly(x):
    q = Fraction(x)
    expected = {
        "Mat.from_rows": [[q, ONE]],
        "Mat.vec": [q, ONE],
        "row_space_basis": ((ONE, q),),
        "solve": [q],
        "reduce_by_rref": ([q], [ZERO, ONE]),
        "matrix_in_basis": [[q], [ONE]],
        "subspace_contains": True,
        "reduce_by_rref basis": ([ONE], [ZERO, ONE - q]),
        "matrix_in_basis basis": [[ONE], [ZERO]],
        "subspace_contains basis": False,
    }
    for name, call in ENTRY_POINTS.items():
        # equal reprs: the same values, every entry a Fraction
        assert repr(call(x)) == repr(expected[name]), name


def dense_reduce(basis, v):
    """Reference: reduce ``v`` by each RREF row over every entry, zeros included."""
    work = [Fraction(x) for x in v]
    coeffs = []
    for row in basis:
        c = work[next(j for j, x in enumerate(row) if x)]
        coeffs.append(c)
        if c:
            work = [w - c * r for w, r in zip(work, row)]
    return coeffs, work


@given(sparse_rational_matrix(), st.data())
def test_reduce_and_vec_match_the_dense_formulas(m, data):
    # bases and vectors with many zeros, in and out of the span
    basis = row_space_basis(m.rows, m.ncols)
    v = data.draw(st.lists(entry, min_size=m.ncols, max_size=m.ncols))
    got = reduce_by_rref(basis, v)
    assert got == dense_reduce(basis, v)
    assert all(type(x) is Fraction for part in got for x in part)
    assert subspace_contains(basis, v) == (not any(dense_reduce(basis, v)[1]))

    out = m.vec(v)
    assert out == [sum((a * Fraction(x) for a, x in zip(row, v)), ZERO) for row in m.rows]
    assert all(type(x) is Fraction for x in out)


def test_reduce_by_rref_rejects_a_basis_of_another_length():
    with pytest.raises(ValueError, match="basis row length"):
        reduce_by_rref([(ONE, ZERO, ZERO)], [1, 1])
    with pytest.raises(ValueError, match="basis row length"):
        subspace_contains([(ONE,)], [1, 1])


@given(st.integers(0, 4), st.integers(0, 4), st.integers(-1, 1), st.data())
def test_mat_shape_check(nrows, ncols, surplus, data):
    # zero rows or columns, one row too few or too many, one row of a drawn length
    lengths = [ncols] * max(0, nrows + surplus)
    if lengths and data.draw(st.booleans()):
        lengths[data.draw(st.integers(0, len(lengths) - 1))] = data.draw(st.integers(0, 5))
    rows = [[ZERO] * n for n in lengths]
    well_shaped = len(rows) == nrows and all(len(r) == ncols for r in rows)
    if well_shaped:
        assert Mat(nrows, ncols, rows).rows is rows
    else:
        with pytest.raises(ValueError, match="matrix shape mismatch"):
            Mat(nrows, ncols, rows)
