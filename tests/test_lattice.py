from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coxlift.lattice import (
    imat_mul,
    imat_vec,
    int_kernel_basis,
    int_matrix,
    int_vector,
    lattice_membership,
    plain_int,
    rational_rank,
    reduce_by_sublattice,
    smith_normal_form,
    unimodular_inverse,
)

L_SQUARE = ((1, 0, 0), (0, 1, 0), (-1, 1, 1), (0, 0, 1))

int_mat = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-5, 5), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
)


def _det(a):
    n = len(a)
    rows = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for i in range(col + 1, n):
            f = rows[i][col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return det


def test_identity_snf():
    snf = smith_normal_form(((1, 0), (0, 1)))
    assert snf.invariant_factors == (1, 1)
    assert snf.D == ((1, 0), (0, 1))


def test_single_entry_snf():
    snf = smith_normal_form(((2,),))
    assert snf.D == ((2,),)
    assert snf.invariant_factors == (2,)


def test_square_cone_matrix_snf():
    snf = smith_normal_form(L_SQUARE)
    assert snf.invariant_factors == (1, 1, 1)
    # cokernel of rank one, detected by x1 - x2 + x3 - x4
    quot = reduce_by_sublattice(4, [[row[j] for row in L_SQUARE] for j in range(3)])
    assert quot.free_rank == 1
    assert quot.torsion_moduli == ()
    row = quot.free_rows[0]
    assert tuple(row) in ((1, -1, 1, -1), (-1, 1, -1, 1))


@given(int_mat)
def test_snf_invariants(rows):
    a = int_matrix(rows)
    snf = smith_normal_form(a)
    assert imat_mul(imat_mul(snf.U, a), snf.V) == snf.D
    assert abs(_det(snf.U)) == 1
    assert abs(_det(snf.V)) == 1
    factors = snf.invariant_factors
    assert all(f >= 0 for f in factors)
    for x, y in zip(factors, factors[1:]):
        if x:
            assert y % x == 0
        else:
            assert y == 0
    assert sum(1 for f in factors if f) == rational_rank(a)
    # off-diagonal zero
    for i, row in enumerate(snf.D):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0


@given(int_mat)
def test_snf_reconstruction(rows):
    a = int_matrix(rows)
    snf = smith_normal_form(a)
    u_inv = unimodular_inverse(snf.U)
    v_inv = unimodular_inverse(snf.V)
    assert imat_mul(imat_mul(u_inv, snf.D), v_inv) == a


def test_membership_examples():
    assert lattice_membership(L_SQUARE, (1, -1, 0, 0)) is None
    assert lattice_membership(L_SQUARE, (1, 0, 0, 1)) == (1, 0, 1)
    ident = ((1, 0), (0, 1))
    assert lattice_membership(ident, (4, -7)) == (4, -7)


@given(int_mat, st.lists(st.integers(-4, 4), min_size=5, max_size=5))
def test_membership_roundtrip(rows, m):
    b = int_matrix(rows)
    m = tuple(m[: len(b[0])])
    v = imat_vec(b, m)
    pre = lattice_membership(b, v)
    assert pre is not None
    assert imat_vec(b, pre) == v


def test_membership_dimension_error():
    with pytest.raises(ValueError):
        lattice_membership(L_SQUARE, (1, 2, 3))


def test_reduce_trivial_sublattice():
    quot = reduce_by_sublattice(3, [])
    assert quot.free_rank == 3
    assert quot.project((5, -2, 7))[0] == (5, -2, 7)


def test_reduce_single_column():
    quot = reduce_by_sublattice(2, [(0, 1)])
    assert quot.free_rank == 1
    assert quot.torsion_moduli == ()
    free, tor = quot.project((3, 9))
    assert tor == ()
    assert abs(free[0]) == 3


def test_reduce_torsion():
    quot = reduce_by_sublattice(1, [(2,)])
    assert quot.free_rank == 0
    assert quot.torsion_moduli == (2,)
    assert quot.project((3,)) != quot.project((0,))
    assert quot.project((4,)) == quot.project((0,))


def test_reduce_dependent_generators():
    with pytest.raises(ValueError):
        reduce_by_sublattice(2, [(1, 1), (2, 2)])


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=1, max_size=2),
       st.lists(st.integers(-4, 4), min_size=3, max_size=3),
       st.lists(st.integers(-4, 4), min_size=3, max_size=3),
       st.lists(st.integers(-2, 2), min_size=2, max_size=2))
def test_quotient_classes_match_cosets(gens, v, w, coeffs):
    if rational_rank(int_matrix([[g[i] for g in gens] for i in range(3)])) != len(gens):
        return
    quot = reduce_by_sublattice(3, gens)
    shift = [0, 0, 0]
    for c, g in zip(coeffs, gens):
        shift = [s + c * x for s, x in zip(shift, g)]
    assert quot.same_class(v, tuple(a + b for a, b in zip(v, shift)))
    cols = int_matrix([[g[i] for g in gens] for i in range(3)])
    diff = tuple(a - b for a, b in zip(v, w))
    assert quot.same_class(v, w) == (lattice_membership(cols, diff) is not None)


def test_int_kernel():
    kern = int_kernel_basis(((1, 1, 0),))
    assert len(kern) == 2
    for v in kern:
        assert v[0] + v[1] == 0
    # kernel spans the full rank-two solution lattice
    assert rational_rank(int_matrix(kern)) == 2


class Sign(IntEnum):
    MINUS = -1
    PLUS = 1


def generator_int_vector(values):
    """Reference: the fast test written as a generator over the entries."""
    t = tuple(values)
    if all(type(x) is int for x in t):
        return t
    return tuple(plain_int(x) for x in t)


def _outcome(f, values):
    try:
        out = f(values)
    except ValueError as exc:
        return "raises", str(exc)
    return "returns", repr(out)


odd_entry = st.sampled_from([True, False, 0.0, 1.5, "1", Sign.MINUS, Sign.PLUS, None])


@given(st.lists(st.one_of(st.integers(-5, 5), odd_entry), max_size=6))
@example([])
@example([Sign.PLUS, 0])
@example([0, 0, True])
def test_int_vector_matches_its_generator_form(values):
    assert _outcome(int_vector, values) == _outcome(generator_int_vector, values)
