from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    transitive_closure,
    truncation_points,
)
from coxlift.instances import TEST_CONES, random_module
from coxlift.lifting import lift_component, lift_morphism
from coxlift.linalg import Mat, rank
from coxlift.modules import codivisorial_module, simple_module


def constant_diagram(n, rel):
    return FinitePosetDiagram(list(range(n)), rel, [1] * n,
                              lambda i, j: Mat.identity(1))


def test_minimum_element_poset():
    rel = {(0, 1), (0, 2), (1, 2)}
    diag = FinitePosetDiagram(["x", "y", "z"], rel, [2, 2, 2],
                              lambda i, j: Mat.identity(2))
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
        rel = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    rel.add((i, j))
        changed = True
        while changed:
            changed = False
            for (a, b) in list(rel):
                for (c, d) in list(rel):
                    if b == c and a != d and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        diag = constant_diagram(n, rel)
        assert roos_limits(diag, 2).limit_dims == order_complex_cohomology(n, rel, 2)


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


def test_transitivity_enforced():
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        FinitePosetDiagram([0, 1, 2], {(0, 1), (1, 2)}, [1, 1, 1],
                           lambda i, j: Mat.identity(1))


def _warshall(n, pairs):
    reach = [[(i, j) in pairs for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return {(i, j) for i in range(n) for j in range(n) if reach[i][j] and i != j}


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda p: p[0] < p[1])))))
def test_transitive_closure_matches_warshall(case):
    n, pairs = case
    closed = transitive_closure(pairs)
    assert closed == _warshall(n, pairs)
    assert all(a != b for a, b in closed)


def test_antisymmetry_enforced():
    with pytest.raises(ValueError):
        FinitePosetDiagram(["a", "b"], {(0, 1), (1, 0)}, [1, 1],
                           lambda i, j: Mat.identity(1))


@pytest.mark.parametrize("dims, message", [
    ([1, -2], "negative"), ([1, 1.5], "integer"), ([1], "1 dimensions for 2 elements")])
def test_dimensions_are_checked(dims, message):
    with pytest.raises(ValueError, match=message):
        FinitePosetDiagram(["a", "b"], set(), dims, lambda i, j: Mat.identity(1))


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
        pairs = set()
        for i, p in enumerate(points):
            for j, q in enumerate(points):
                diff = [b - a for a, b in zip(p, q)]
                if i != j and all(sum(r * x for r, x in zip(row, diff)) >= 0
                                  for row in cone.rays):
                    pairs.add((i, j))
        assert diagram.relation == pairs | {(i, i) for i in range(len(points))}


def test_from_module_rejects_repeated_points(csq):
    with pytest.raises(ValueError, match="distinct"):
        FinitePosetDiagram.from_module(csq, simple_module(csq), [(0, 0, 0), (0, 0, 0)])


def test_truncated_oracle_simple(csq):
    K = simple_module(csq)
    rep = truncated_lift_oracle(csq, K, (-1, 0, 0, 0), 2)
    assert rep.limit_dims[0] == 1
    assert rep.certification_bound == 3
    rep2 = truncated_lift_oracle(csq, K, (-1, 0, 0, 0), rep.certification_bound)
    assert rep2.certified
    assert rep2.limit_dims[0] == lift_component(csq, K, (-1, 0, 0, 0)).dim


def test_truncated_oracle_smooth(orthant, rng):
    module = random_module(orthant, rng)
    for _ in range(5):
        c = tuple(rng.randint(-2, 2) for _ in range(2))
        rep = truncated_lift_oracle(orthant, module, c, 0, imax=0)
        assert rep.certified
        assert rep.limit_dims[0] == module.component(c).dim


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

    mins = minimal_elements(csq, c).elements
    assert set(mins) <= pts
    for i in range(len(mins)):
        for j in range(i + 1, len(mins)):
            assert set(minimal_common_upper_bounds(csq, mins[i], mins[j]).elements) <= pts


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
    seq = indicator_sequence(quotient2, ray=0, threshold=1)
    for _ in range(10):
        c = tuple(rng.randint(-2, 2) for _ in range(2))
        g = lift_morphism(quotient2, seq.project, c)
        assert lift_component(quotient2, seq.sub, c).dim == g.ncols - rank(g)
