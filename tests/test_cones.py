import math
from itertools import product

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from coxlift import cones
from coxlift.cones import (
    Cone,
    leq_sigma,
    minimal_common_upper_bounds,
    minimal_elements,
    strict_interior_point,
)
from coxlift.instances import CONE_OVER_SQUARE, ORTHANT2, QUOTIENT2, TEST_CONES
from coxlift.lattice import reduce_by_sublattice
from coxlift.lifting import colimit
from coxlift.modules import structure_module

from cone_oracles import box_minimal_oracle, completion_minimal_elements, positive_relation_exists

HEXAGON = Cone(3, ((1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)))
NOT_STRICTLY_CONVEX = Cone(2, ((1, 0), (-1, 0), (0, 1)))


def test_cone_validation():
    with pytest.raises(ValueError):
        Cone(2, ((2, 4),))  # not primitive
    with pytest.raises(ValueError):
        Cone(2, ((0, 0),))  # zero ray
    with pytest.raises(ValueError):
        Cone(3, ((1, 0),))  # wrong length


def test_flags():
    assert CONE_OVER_SQUARE.full_dimensional
    line = Cone(2, ((1, 0),))
    assert not line.full_dimensional
    with pytest.raises(ValueError):
        minimal_elements(line, (0,))


def test_leq_examples():
    assert leq_sigma(ORTHANT2, (0, 0), (1, 1))
    assert not leq_sigma(CONE_OVER_SQUARE, (-1, 0, 0), (0, 0, 0))
    assert leq_sigma(CONE_OVER_SQUARE, (1, 2, 3), (1, 2, 3))
    with pytest.raises(ValueError):
        leq_sigma(ORTHANT2, (0, 0, 0), (1, 1))


c_vectors = st.lists(st.integers(-3, 3), min_size=4, max_size=4)
m_vectors = st.lists(st.integers(-4, 4), min_size=3, max_size=3)


@given(m_vectors, m_vectors, m_vectors)
def test_order_is_a_partial_order(a, b, c):
    cone = CONE_OVER_SQUARE
    assert leq_sigma(cone, a, a)
    if leq_sigma(cone, a, b) and leq_sigma(cone, b, c):
        assert leq_sigma(cone, a, c)
    if leq_sigma(cone, a, b) and leq_sigma(cone, b, a):
        assert tuple(a) == tuple(b)


def test_minimal_elements_examples():
    got = minimal_elements(CONE_OVER_SQUARE, (-1, 0, -1, 0))
    assert got == ((-1, 0, 0), (0, 0, 0), (1, 0, 0))
    got = minimal_elements(CONE_OVER_SQUARE, (-1, 0, 0, 0))
    assert got == ((-1, 0, 0), (0, 0, 0))


def test_minimal_elements_edge_cases():
    line = Cone(1, ((1,), (-1,)))  # every point of P_c is minimal
    assert minimal_elements(line, (2, -3)) == ((2,), (3,))
    assert minimal_elements(line, (2, -1)) == ()
    assert minimal_elements(NOT_STRICTLY_CONVEX, (1, 0, 0)) == ()


def test_orthant_single_minimum():
    for c in [(0, 0), (3, -2), (-1, -1)]:
        assert minimal_elements(ORTHANT2, c) == (c,)


def test_quotient_cone_minimal_elements():
    # class group Z/2: even-sum degrees are hit exactly, odd ones split
    assert minimal_elements(QUOTIENT2, (0, 0)) == ((0, 0),)
    got = minimal_elements(QUOTIENT2, (1, 0))
    assert got == ((1, 1), (1, 2))


def test_mcub_examples():
    got = minimal_common_upper_bounds(CONE_OVER_SQUARE, (0, 0, 0), (-1, 0, 0))
    assert got == ((0, 0, 1), (0, 1, 0))
    got = minimal_common_upper_bounds(CONE_OVER_SQUARE, (1, 0, 1), (1, 1, 0))
    assert got == ((1, 1, 1), (2, 1, 1))
    got = minimal_common_upper_bounds(ORTHANT2, (2, -1), (0, 3))
    assert got == ((2, 3),)


@given(c_vectors)
def test_minimal_elements_antichain_and_complete(c):
    cone = CONE_OVER_SQUARE
    mins = minimal_elements(cone, c)
    for a in mins:
        assert all(v >= b for v, b in zip(cone.evaluate(a), c))
        for b in mins:
            if a != b:
                assert not leq_sigma(cone, a, b)
    # oracle: every box point of P_c dominates a returned element
    for p in box_minimal_oracle(cone, c, 4):
        assert any(leq_sigma(cone, a, p) for a in mins)


@given(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_minimal_elements_oracle_quotient_cone(c):
    cone = QUOTIENT2
    mins = minimal_elements(cone, c)
    box = box_minimal_oracle(cone, c, 5)
    for p in box:
        assert any(leq_sigma(cone, a, p) for a in mins)
    for a in mins:
        if all(abs(x) <= 5 for x in a):
            assert a in box


@st.composite
def cones_and_degrees(draw):
    """Full-dimensional cones in rank 2 or 3, up to d+3 small primitive rays,
    with a degree in [-2, 2]^rays."""
    d = draw(st.sampled_from((2, 3)))
    row = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    rows = draw(st.lists(row, min_size=d, max_size=d + 3))
    cone = Cone(d, tuple(tuple(x // math.gcd(*r) for x in r) for r in rows))
    assume(cone.full_dimensional)
    return cone, tuple(draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows))))


# the box oracle filters pairwise, so its cube stays small
BOX_RADIUS = {1: 8, 2: 8, 3: 3}


@given(cones_and_degrees())
@example((Cone(1, ((1,), (-1,))), (2, -3)))
@example((Cone(1, ((1,), (-1,))), (2, -1)))
@example((NOT_STRICTLY_CONVEX, (1, 0, 0)))  # P_c empty
@example((QUOTIENT2, (1, 0)))  # class group with torsion
def test_minimal_elements_match_oracles(case):
    cone, c = case
    got = minimal_elements(cone, c)
    try:
        assert got == completion_minimal_elements(cone, c, max_level=12)
    except RuntimeError:  # past the level cap the box oracle alone checks the draw
        pass
    assert_agrees_with_box_oracle(cone, c, got)


def assert_agrees_with_box_oracle(cone, c, got):
    radius = min(BOX_RADIUS[cone.lattice_rank], max((abs(x) for m in got for x in m), default=1))
    box = box_minimal_oracle(cone, c, radius)
    inside = tuple(m for m in got if max(map(abs, m)) <= radius)
    assert set(inside) <= set(box)
    assert all(any(leq_sigma(cone, a, p) for a in got) for p in box)
    if inside == got:
        assert box == got


@given(cones_and_degrees(), st.lists(st.integers(-2, 2), min_size=3, max_size=3))
@example((QUOTIENT2, (1, 0)), [1, -2, 0])  # class group Z/2
@example((QUOTIENT2, (0, 1)), [2, 1, 0])
@example((Cone(1, ((1,), (-1,))), (2, -3)), [2, 0, 0])  # a line: every point is minimal
@example((NOT_STRICTLY_CONVEX, (1, 0, 0)), [1, 1, 0])  # P_c empty
def test_minimal_points_move_with_the_degree_in_its_class(case, shift):
    """``P_{c + L(h)} = P_c + h``: the memoized class search, moved by h,
    is the search at ``c + L(h)`` itself and agrees with the box oracle."""
    cone, c = case
    h = tuple(shift[:cone.lattice_rank])
    moved = tuple(a + b for a, b in zip(c, cone.evaluate(h)))
    base = minimal_elements(cone, c)
    got = minimal_elements(cone, moved)
    assert got == tuple(tuple(a + b for a, b in zip(m, h)) for m in base)
    assert got == cones._minimal_points(cone, moved)
    assert_agrees_with_box_oracle(cone, c, base)
    assert_agrees_with_box_oracle(cone, moved, got)


@pytest.mark.parametrize("rays, radius, classes", [
    (CONE_OVER_SQUARE.rays, 2, 17),  # Cl = Z by c1 - c2 + c3 - c4
    (QUOTIENT2.rays, 3, 2),  # Cl = Z/2
    (HEXAGON.rays, 1, 347),  # Cl = Z^3
], ids=("square", "quotient2", "hexagon"))
def test_minimal_points_are_searched_once_per_class(monkeypatch, rays, radius, classes):
    searched = []
    search = cones._minimal_points

    def counting(cone, c):
        searched.append(c)
        return search(cone, c)

    monkeypatch.setattr(cones, "_minimal_points", counting)
    cone = Cone(len(rays[0]), rays)
    quotient = reduce_by_sublattice(cone.ray_count, list(zip(*rays)))
    box = list(product(range(-radius, radius + 1), repeat=cone.ray_count))
    for c in box:
        minimal_elements(cone, c)
    assert len(searched) == len({quotient.project(c) for c in box}) == classes


# minimal points on the hexagon cone, recorded with the completion search
HEXAGON_POINTS = {
    (3, -3, 3, -3, 3, -3): (
        (-6, -6, 9), (-6, 12, 9), (-5, -5, 8), (-5, 10, 8), (-4, -4, 7), (-4, 8, 7),
        (-3, -3, 6), (-3, 6, 6), (-2, -2, 5), (-2, 4, 5), (-1, -1, 4), (-1, 2, 4),
        (0, 0, 3), (2, -1, 4), (4, -2, 5), (6, -3, 6), (8, -4, 7), (10, -5, 8),
        (12, -6, 9)),
    (1, 0, 0, 1, 0, 0): ((0, -1, 1), (0, 0, 1), (0, 1, 1)),
    (1, 0, 0, 1, 0, 1): ((0, -1, 1), (0, 0, 1), (1, 1, 2)),
}
HEXAGON_UPPER_BOUNDS = {
    ((0, -1, 1), (0, 0, 1)): ((-1, 0, 2), (0, -1, 2), (0, 0, 2), (1, -1, 2)),
    ((0, -1, 1), (0, 1, 1)): ((-2, 1, 3), (0, 0, 2), (2, -1, 3)),
    ((0, 0, 1), (0, 1, 1)): ((-1, 1, 2), (0, 0, 2), (0, 1, 2), (1, 0, 2)),
    ((0, -1, 1), (1, 1, 2)): ((0, 1, 3), (1, 0, 3), (3, -1, 4)),
    ((0, 0, 1), (1, 1, 2)): ((0, 1, 3), (0, 2, 3), (1, 0, 3), (1, 1, 3), (2, 0, 3)),
}


def test_hexagon_minimal_points_are_pinned():
    for c, points in HEXAGON_POINTS.items():
        assert minimal_elements(HEXAGON, c) == points
    for (a, b), points in HEXAGON_UPPER_BOUNDS.items():
        assert minimal_common_upper_bounds(HEXAGON, a, b) == points


@given(m_vectors, m_vectors)
def test_mcub_dominates_and_symmetric(a, b):
    cone = CONE_OVER_SQUARE
    ab = minimal_common_upper_bounds(cone, a, b)
    ba = minimal_common_upper_bounds(cone, b, a)
    assert ab == ba
    for u in ab:
        assert leq_sigma(cone, a, u) and leq_sigma(cone, b, u)


def test_strict_interior_point():
    for cone in TEST_CONES:
        w = strict_interior_point(cone)
        assert all(v >= 1 for v in cone.evaluate(w))


def test_strict_interior_point_needs_a_strictly_convex_cone():
    with pytest.raises(ValueError, match="no interior lattice point"):
        strict_interior_point(NOT_STRICTLY_CONVEX)
    with pytest.raises(ValueError, match="no interior lattice point"):
        colimit(NOT_STRICTLY_CONVEX, structure_module(NOT_STRICTLY_CONVEX))


def test_positive_relation():
    assert positive_relation_exists(((1, 0), (-1, 0)))
    assert not positive_relation_exists(((1, 0), (0, 1)))
    assert not positive_relation_exists(CONE_OVER_SQUARE.rays)


def primitive_rows(rows):
    return [r for r in rows if any(r) and math.gcd(*r) == 1]


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=1, max_size=5),
    st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=2, max_size=6))))
def test_cached_evaluate_and_order_match_the_dot_products(case):
    rows, points = case
    rows = primitive_rows(rows)
    assume(rows)
    cone = Cone(len(points[0]), rows)
    for _ in range(2):  # the second round reads the memo
        for m in points:
            assert cone.evaluate(m) == tuple(sum(r * x for r, x in zip(row, m)) for row in rows)
            assert cone.evaluate(tuple(m)) == cone.evaluate(list(m))
        for m in points:
            for m2 in points:
                diff = [b - a for a, b in zip(m, m2)]
                want = all(sum(r * x for r, x in zip(row, diff)) >= 0 for row in rows)
                assert leq_sigma(cone, m, m2) == want
    with pytest.raises(ValueError):
        cone.evaluate(points[0] + [0])
