import math
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coxlift import derived, linalg
from coxlift.cones import Cone, minimal_elements
from coxlift.derived import (
    FinitePosetDiagram,
    certification_bound,
    connecting_cokernel,
    equalizer_limit_dim,
    ideal_sequence,
    indicator_sequence,
    order_complex_cohomology,
    roos_limits,
    truncated_lift_oracle,
    truncation_points,
)
from coxlift.instances import TEST_CONES, random_module
from coxlift.lifting import lift_component, lift_morphism
from coxlift.linalg import Mat, rank
from coxlift.modules import (codivisorial_module, maximal_ideal_module, simple_module,
                             structure_module)

from cone_oracles import preimage_truncation_points


def constant_diagram(n, rel):
    return FinitePosetDiagram.from_maps(list(range(n)), sorted(rel), [1] * n,
                                        {pair: Mat.identity(1) for pair in rel})


def up_masks(n, rel):
    """The strict successor bitmasks of the relation ``rel`` on ``range(n)``."""
    return [sum(1 << j for a, j in rel if a == i) for i in range(n)]


def test_minimum_element_poset():
    rel = [(0, 1), (0, 2), (1, 2)]
    diag = FinitePosetDiagram.from_maps(["x", "y", "z"], rel, [2, 2, 2],
                                        {pair: Mat.identity(2) for pair in rel})
    res = roos_limits(diag, 2)
    assert res.limit_dims == (2, 0, 0)


def test_crown_circle_cohomology():
    crown = constant_diagram(4, {(0, 2), (0, 3), (1, 2), (1, 3)})
    res = roos_limits(crown, 2)
    assert res.limit_dims == (1, 1, 0)
    assert equalizer_limit_dim(crown) == 1


def test_two_incomparable_points():
    disc = constant_diagram(2, set())
    assert roos_limits(disc, 1).limit_dims == (2, 0)


def test_order_complex_matches_roos_on_random_posets(rng):
    for _ in range(10):
        n = rng.randint(3, 10)
        rel = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
        # from_maps closes the relation and composes the identities
        diag = constant_diagram(n, rel)
        assert roos_limits(diag, 2).limit_dims == order_complex_cohomology(diag, 2)


def test_order_complex_reads_only_the_successors():
    # the crown 0, 1 < 2, 3 is a circle: H^0 = H^1 = Q; no dimension or
    # transport of the diagram is ever read
    def provider(i, j):
        raise AssertionError(f"transport {i} -> {j} read")

    crown = FinitePosetDiagram(range(4), up_masks(4, {(0, 2), (0, 3), (1, 2), (1, 3)}),
                               None, provider)
    assert order_complex_cohomology(crown, 2) == (1, 1, 0)


def test_chain_levels_stop_at_the_height_of_the_poset():
    # height 3: 0 < 2 < 3 and 1 < 2 < 3; past imax 2 every cochain group is 0
    diag = constant_diagram(4, {(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)})
    calls = []
    successors = diag.strict_successors

    def counting(i):
        calls.append(i)
        return successors(i)

    diag.strict_successors = counting
    counts = []
    for imax in (2, 3, 10, 200):
        calls.clear()
        assert roos_limits(diag, imax).limit_dims == (1,) + (0,) * imax
        counts.append(len(calls))
    # one call per chain of each length 1, 2, 3: 4 + 5 + 2
    assert counts == [11] * 4


def test_roos_differentials_clear_few_entries(csq, monkeypatch):
    # the maximal ideal on the up-set of (-1,0,-1,0), truncated at 1-norm 9;
    # eliminating the rows of each differential in the order given took
    # 3084 clears at imax 1 (d^1 is 344 x 201 of rank 170)
    points = truncation_points(csq, (-1, 0, -1, 0), 9)
    diag = FinitePosetDiagram.from_module(csq, maximal_ideal_module(csq), points)
    assert len(points) == 50
    calls = []
    clear = linalg._clear

    def counting(row, c, prow):
        calls.append(c)
        clear(row, c, prow)

    monkeypatch.setattr(linalg, "_clear", counting)
    res = roos_limits(diag, 1)
    assert res.limit_dims == (0, 2)
    assert res.differential_ranks == (29, 170)
    assert len(calls) <= 3084 // 5
    assert roos_limits(diag, 2).limit_dims == (0, 2, 0)


def test_equalizer_matches_roos_on_module_diagrams(rng):
    for _ in range(6):
        cone = TEST_CONES[rng.randrange(len(TEST_CONES))]
        module = random_module(cone, rng)
        c = tuple(rng.randint(-1, 1) for _ in range(cone.ray_count))
        pts = truncation_points(cone, c, 3)
        diag = FinitePosetDiagram.from_module(cone, module, pts)
        assert equalizer_limit_dim(diag) == roos_limits(diag, 0).limit_dims[0]


def test_diagram_validation_rejects_bad_composition():
    maps = {(0, 1): Mat.identity(1), (1, 2): Mat.identity(1),
            (0, 2): Mat.from_rows([[2]])}
    with pytest.raises(ValueError):
        FinitePosetDiagram.from_maps(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)],
                                     [1, 1, 1], maps)


def full_grid_composes(diagram) -> bool:
    """Reference oracle: ``T(j,k) T(i,j) = T(i,k)`` on every chain ``i < j < k``."""
    return all(diagram.transport(j, k).mul(diagram.transport(i, j)) == diagram.transport(i, k)
               for i in range(len(diagram.elements))
               for j in diagram.strict_successors(i)
               for k in diagram.strict_successors(j))


def _warshall(n, pairs):
    reach = [[(i, j) in pairs for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    # a pair (i, i) is read only off a cycle through i
    return {(i, j) for i in range(n) for j in range(n) if reach[i][j]}


@st.composite
def corrupted_diagrams(draw):
    """A random poset on up to 7 elements, ordered compatibly with their
    indices, with the composing transports ``T(i,j) = B_j B_i^-1`` of
    invertible upper triangular ``B_i``, and one strict pair's transport
    changed in one entry.  The change breaks composition exactly when the
    pair lies on a chain of three elements."""
    n = draw(st.integers(2, 7))
    d = draw(st.integers(1, 2))
    rel = _warshall(n, {(i, j) for i in range(n) for j in range(i + 1, n)
                        if draw(st.booleans())})
    unit = st.sampled_from([-2, -1, 1, 2, 3]).map(Fraction)
    small = st.integers(-2, 2).map(Fraction)
    b, b_inv = [], []
    for _ in range(n):
        x, y, z = draw(unit), draw(small), draw(unit)
        if d == 1:
            b.append(Mat(1, 1, [[x]]))
            b_inv.append(Mat(1, 1, [[1 / x]]))
        else:
            b.append(Mat(2, 2, [[x, y], [0, z]]))
            b_inv.append(Mat(2, 2, [[1 / x, -y / (x * z)], [0, 1 / z]]))
    bad = draw(st.sampled_from(sorted(rel))) if rel else None
    r, c, delta = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1)), draw(unit)

    def provider(i, j):
        out = b[j].mul(b_inv[i])
        if (i, j) == bad:
            out.rows[r][c] += delta
        return out

    return FinitePosetDiagram(list(range(n)), up_masks(n, rel), (d,) * n, provider)


def chain_with_a_wrong_long_arrow():
    """0 < 1 < 2 < 3 with identity transports but T(0,3) = 2: no chain of
    covers shows it, only 0 < 1 < 3 and 0 < 2 < 3."""
    return FinitePosetDiagram(list(range(4)), up_masks(4, _warshall(4, {(0, 1), (1, 2), (2, 3)})),
                              (1,) * 4, lambda i, j: Mat.from_rows([[2 if (i, j) == (0, 3) else 1]]))


@settings(max_examples=100)
@given(corrupted_diagrams())
@example(chain_with_a_wrong_long_arrow())
def test_cover_triples_reject_what_the_full_grid_rejects(diagram):
    if full_grid_composes(diagram):
        diagram.validate_composition()
        return
    with pytest.raises(ValueError, match="fail to compose") as info:
        diagram.validate_composition()
    # the message names a chain on which the transports do fail
    i, j, k = map(int, re.findall(r"\d+", str(info.value)))
    assert (i, j) in diagram.covers()
    assert diagram.transport(j, k).mul(diagram.transport(i, j)) != diagram.transport(i, k)


def test_diagram_fills_composites():
    maps = {(0, 1): Mat.from_rows([[2]]), (1, 2): Mat.from_rows([[3]])}
    diag = FinitePosetDiagram.from_maps(["a", "b", "c"], [(0, 1), (1, 2)],
                                        [1, 1, 1], maps)
    assert diag.transport(0, 2).rows == [[6]]


def test_from_maps_composes_along_covers_in_any_call_order():
    covers = {(k, k + 1): Mat.from_rows([[k + 2]]) for k in range(4)}
    diag = FinitePosetDiagram.from_maps(list(range(5)), list(covers), [1] * 5, covers)
    assert diag.transport(0, 4).rows == [[2 * 3 * 4 * 5]]
    assert diag.transport(1, 3).rows == [[3 * 4]]


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda p: p[0] != p[1])))))
def test_transitive_closure_matches_warshall(case):
    n, pairs = case
    closed = _warshall(n, pairs)
    if any((i, i) in closed for i in range(n)):
        with pytest.raises(ValueError, match="^relation is not antisymmetric$"):
            constant_diagram(n, pairs)
        return
    diagram = constant_diagram(n, pairs)
    assert {(i, j) for i in range(n) for j in diagram.strict_successors(i)} == closed


def test_antisymmetry_enforced():
    with pytest.raises(ValueError, match="not antisymmetric"):
        constant_diagram(2, {(0, 1), (1, 0)})
    # the closure of a < b < c < a puts every element below itself
    cycle = [(0, 1), (1, 2), (2, 0)]
    with pytest.raises(ValueError, match="not antisymmetric"):
        FinitePosetDiagram.from_maps(["a", "b", "c"], cycle, [1] * 3,
                                     {pair: Mat.identity(1) for pair in cycle})


@pytest.mark.parametrize("pair", [(0, 2), (-1, 0), (0.0, 1), (True, 0)])
def test_relation_pairs_must_name_elements(pair):
    # the one index reader names an index outside 0..n-1 and rejects a non-integer
    bad = next(x for x in pair if type(x) is not int or not 0 <= x < 2)
    message = (f"relation pair {bad} is outside 0..1" if type(bad) is int
               else f"expected an integer, got {bad!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FinitePosetDiagram.from_maps(["a", "b"], [pair], [1, 1], {})


@pytest.mark.parametrize("dims, message", [
    ([1, -2], "negative"), ([1, 1.5], "integer"), ([1], "1 dimensions for 2 elements"),
    # the given 1x1 map does not map the plane at a to the line at b
    ([2, 1], "map a->b has shape 1x1, expected 1x2")])
def test_dimensions_are_checked(dims, message):
    with pytest.raises(ValueError, match=message):
        FinitePosetDiagram.from_maps(["a", "b"], [(0, 1)], dims, {(0, 1): Mat.identity(1)})


def test_from_module_and_truncation_points_match_their_definitions(rng):
    for _ in range(12):
        cone = rng.choice(TEST_CONES)
        c = tuple(rng.randint(-2, 2) for _ in range(cone.ray_count))
        bound = rng.randint(0, 3)
        points = truncation_points(cone, c, bound)
        # every m with L(m) - c >= 0 of 1-norm at most bound; |m_i| <= 5 on these cones
        want = []
        for m in product(range(-6, 7), repeat=cone.lattice_rank):
            u = [sum(r * x for r, x in zip(row, m)) - b for row, b in zip(cone.rays, c)]
            if min(u) >= 0 and sum(u) <= bound:
                want.append(m)
        assert points == want
        diagram = FinitePosetDiagram.from_module(cone, random_module(cone, rng), points)
        for i, p in enumerate(points):
            above = [j for j, q in enumerate(points)
                     if i != j and all(sum(r * (b - a) for r, a, b in zip(row, p, q)) >= 0
                                       for row in cone.rays)]
            assert diagram.strict_successors(i) == above


def _det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]))


@st.composite
def truncation_cases(draw):
    """A full-dimensional 2-d or 3-d cone with more rays than its rank and a
    basis of determinant above 1, a degree in [-3, 3] (uniform, or near
    ``L(m)`` for some m in [-1, 1]^d) and a bound in 0..6.

    Every ray has a positive last entry, so the cone is strictly convex and
    P_c is never empty.
    """
    d = draw(st.sampled_from((2, 3)))
    ray = st.tuples(*[st.integers(-2, 2)] * (d - 1), st.integers(1, 2)).map(
        lambda r: tuple(x // math.gcd(*r) for x in r))
    rays = tuple(draw(st.lists(ray, min_size=d + 1, max_size=d + 3, unique=True)))
    dets = [abs(_det([list(r) for r in basis])) for basis in combinations(rays, d)]
    assume(max(dets) > 1)
    n = len(rays)
    if draw(st.booleans()):
        c = draw(st.tuples(*[st.integers(-3, 3)] * n))
    else:
        # just below L(m) for a small m, so the truncation is rarely empty
        m = draw(st.tuples(*[st.integers(-1, 1)] * d))
        u = draw(st.tuples(*[st.integers(0, 1)] * n))
        c = tuple(max(-3, min(3, sum(a * x for a, x in zip(r, m)) - v))
                  for r, v in zip(rays, u))
    return rays, c, draw(st.integers(0, 6))


HEXAGON_RAYS = ((1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1))


@settings(max_examples=60, deadline=None)
@given(truncation_cases())
@example((HEXAGON_RAYS, (1, 0, 0, 1, 0, 0), 6))
@example((HEXAGON_RAYS, (3, -3, 3, -3, 3, -3), 4))
@example((((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -2, 1)), (-3, -3, -3, -3), 6))
@example((((1, 0, 0), (0, 1, 0), (-1, 1, 1), (0, 0, 1)), (-1, 0, -1, 0), 6))
def test_truncation_and_its_order_match_brute_force(case):
    rays, c, bound = case
    cone = Cone(len(rays[0]), rays)
    points = truncation_points(cone, c, bound)
    assert points == preimage_truncation_points(cone, c, bound)
    values = [cone.evaluate(p) for p in points]
    n = len(points)
    below = {(i, j) for i in range(n) for j in range(n)
             if i != j and all(a <= b for a, b in zip(values[i], values[j]))}
    diagram = FinitePosetDiagram.from_module(cone, simple_module(cone), points)
    above = [{j for j in range(n) if (i, j) in below} for i in range(n)]
    assert [set(diagram.strict_successors(i)) for i in range(n)] == above
    covers = {(i, j) for i, j in below if not any(j in above[k] for k in above[i])}
    assert sorted(diagram.covers()) == sorted(covers)


# a wrong length is named by its id, and the message names the degree
@pytest.mark.parametrize("c, bound, message", [
    pytest.param((0, 0, 0, 0, 0), 1,
                 r"degree \(0, 0, 0, 0, 0\) has length 5, not the ray count 4",
                 id="c0-1-degree length differs from ray count"),
    pytest.param((0, 0, 0), 1, r"degree \(0, 0, 0\) has length 3, not the ray count 4",
                 id="c1-1-degree length differs from ray count"),
    ((0, 0, 0, 0), -1, "bound must be nonnegative"),
    ((0, 0, 0, 0), True, "expected an integer"),
])
def test_truncation_points_reject_bad_arguments(csq, c, bound, message):
    with pytest.raises(ValueError, match=message):
        truncation_points(csq, c, bound)


@pytest.mark.parametrize("imax", [-1, -2])
def test_imax_must_be_nonnegative(csq, imax):
    with pytest.raises(ValueError, match="imax must be nonnegative"):
        truncated_lift_oracle(csq, simple_module(csq), (0, 0, 0, 0), 2, imax=imax)
    with pytest.raises(ValueError, match="imax must be nonnegative"):
        roos_limits(FinitePosetDiagram.from_maps(["a"], [], [1], {}), imax)
    with pytest.raises(ValueError, match="imax must be nonnegative"):
        order_complex_cohomology(FinitePosetDiagram.from_maps(["a"], [], [1], {}), imax)


def test_truncation_points_need_a_full_dimensional_cone():
    flat = Cone(3, ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="full-dimensional"):
        truncation_points(flat, (0, 0), 1)
    with pytest.raises(ValueError, match="full-dimensional"):
        minimal_elements(flat, (0, 0))


def test_from_module_rejects_repeated_points(csq):
    with pytest.raises(ValueError, match="distinct"):
        FinitePosetDiagram.from_module(csq, simple_module(csq), [(0, 0, 0), (0, 0, 0)])


def test_from_module_rejects_points_that_share_cox_coordinates():
    # the one ray does not see the second coordinate, so (0, 0) and (0, 1)
    # would lie below each other
    line = Cone(2, ((1, 0),))
    with pytest.raises(ValueError, match="distinct Cox coordinates"):
        FinitePosetDiagram.from_module(line, structure_module(line), [(0, 0), (0, 1)])


def test_truncated_oracle_simple(csq):
    K = simple_module(csq)
    rep = truncated_lift_oracle(csq, K, (-1, 0, 0, 0), 2)
    assert rep.limit_dims[0] == 1
    assert rep.certification_bound == 3
    rep2 = truncated_lift_oracle(csq, K, (-1, 0, 0, 0), rep.certification_bound)
    assert rep2.certified
    assert rep2.limit_dims[0] == lift_component(csq, K, (-1, 0, 0, 0)).dim


def test_truncated_oracle_bound_defaults_to_the_certification_bound(csq, monkeypatch):
    calls = []

    def counting(cone, c):
        calls.append(c)
        return certification_bound(cone, c)

    monkeypatch.setattr(derived, "certification_bound", counting)
    K = simple_module(csq)
    rep = truncated_lift_oracle(csq, K, (-1, 0, 0, 0))
    assert rep == truncated_lift_oracle(csq, K, (-1, 0, 0, 0), 3)
    assert rep.bound == rep.certification_bound == 3 and rep.certified
    assert calls == [(-1, 0, 0, 0)] * 2


def test_truncated_oracle_smooth(orthant, rng):
    module = random_module(orthant, rng)
    for _ in range(5):
        c = tuple(rng.randint(-2, 2) for _ in range(2))
        rep = truncated_lift_oracle(orthant, module, c, 0, imax=0)
        assert rep.certified
        assert rep.limit_dims[0] == module.component(c)


def test_truncated_oracle_codivisorial(csq):
    cod = codivisorial_module(csq, (0, 0, 0, 0), (1, 3))
    rep = truncated_lift_oracle(csq, cod, (-1, 0, -1, 0), 4, imax=0)
    assert rep.limit_dims[0] == 3
    assert not rep.certified and rep.certification_bound == 6
    rep2 = truncated_lift_oracle(csq, cod, (-1, 0, -1, 0), 6, imax=0)
    assert rep2.certified and rep2.limit_dims[0] == 3


def test_certification_bound_contains_geometry(csq):
    c = (-1, 0, 0, 0)
    bound = certification_bound(csq, c)
    pts = set(truncation_points(csq, c, bound))
    from coxlift.cones import minimal_common_upper_bounds, minimal_elements

    mins = minimal_elements(csq, c)
    assert set(mins) <= pts
    for i in range(len(mins)):
        for j in range(i + 1, len(mins)):
            assert set(minimal_common_upper_bounds(csq, mins[i], mins[j])) <= pts


def test_connecting_cokernels(csq):
    seq = ideal_sequence(csq)
    assert connecting_cokernel(csq, seq, (0, 0, 0, 0)) == 0
    for k in (1, 2, 3):
        assert connecting_cokernel(csq, seq, (-k, 0, 0, 0)) == 1
    assert connecting_cokernel(csq, seq, (1, 0, 0, 0)) == 0


def test_four_term_exactness(csq, rng):
    seq = ideal_sequence(csq)
    for _ in range(10):
        c = tuple(rng.randint(-2, 2) for _ in range(4))
        f = lift_morphism(csq, seq.include, c)
        g = lift_morphism(csq, seq.project, c)
        dim_sub = lift_component(csq, seq.sub, c).dim
        dim_mid = lift_component(csq, seq.mid, c).dim
        dim_quot = lift_component(csq, seq.quot, c).dim
        coker = connecting_cokernel(csq, seq, c)
        assert rank(f) == dim_sub
        assert dim_mid - rank(g) == dim_sub
        assert dim_quot - rank(g) == coker


def test_indicator_sequence_left_exact(quotient2, rng):
    seq = indicator_sequence(quotient2, ray=0)
    for _ in range(10):
        c = tuple(rng.randint(-2, 2) for _ in range(2))
        g = lift_morphism(quotient2, seq.project, c)
        assert lift_component(quotient2, seq.sub, c).dim == g.ncols - rank(g)
