import math
from itertools import product

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from coxlift.fans import FanData, _separable, class_group
from coxlift.instances import CONE_OVER_SQUARE
from coxlift.klyachko import ReflexiveDescription
from coxlift.lifting import Box
from coxlift.modules import full_at

from cone_oracles import completion_separable, positive_relation_exists

P2 = FanData(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
P1P1 = FanData(2, ((1, 0), (-1, 0), (0, 1), (0, -1)),
               ((0, 2), (1, 2), (1, 3), (0, 3)))
ONE_CONE = FanData(3, CONE_OVER_SQUARE.rays, ((0, 1, 2, 3),))


def test_fan_validation_rejects_non_convex():
    with pytest.raises(ValueError):
        FanData(2, ((1, 0), (-1, 0)), ((0, 1),))


def test_strict_convexity():
    assert not _separable(((1, 0), (-1, 0)), (0, 1), ())
    assert _separable(((1, 0), (0, 1)), (0, 1), ())
    assert _separable(CONE_OVER_SQUARE.rays, (0, 1, 2, 3), ())


# the complete fan of the weighted projective plane P(1, 1, 600)
P11_600_RAYS = ((1, 0), (0, 1), (-1, -600))
# a cone over three rays whose nonnegative relation needs weight 1000
WIDE_RAYS = ((1000, 1), (-1, 0), (0, -1))


def test_fans_past_any_search_bound():
    cg = class_group(FanData(2, P11_600_RAYS, ((0, 1), (1, 2), (0, 2))))
    assert cg.free_rank == 1 and cg.torsion_moduli == ()
    with pytest.raises(ValueError, match="not strictly convex"):
        FanData(2, WIDE_RAYS, ((0, 1, 2),))


@pytest.mark.parametrize("rays, cones, message", [
    (((1, 0), (1, 1), (0, 1)), ((0, 1, 2),), "ray 1 is not an edge"),
    (((2, 0), (0, 1)), ((0, 1),), "not primitive"),
    (((1, 0), (2, 0)), ((0,), (0, 1)), "not primitive"),
    (((1, 0), (0, 1), (0, 0)), ((0, 1),), "zero ray"),
    (((1, 0), (0, 1), (-1, -1)), ((0, 1),), r"rays \[2\] lie in no maximal cone"),
    (((1, 0), (0, 1)), ((0, 0, 1),), "repeats a ray index"),
    (((1, 0), (0, 1)), ((0, 1), ()), "empty maximal cone"),
    (((1, 0), (0, 1)), ((0, 2),), "ray index 2 is outside 0..1"),
], ids=["interior ray", "non-primitive ray", "non-primitive ray of one cone",
        "unused zero ray", "unused ray", "repeated index", "empty cone", "ray index"])
def test_fan_validation_rejects_what_class_group_assumes(rays, cones, message):
    # class_group assumes each of these away: read as a fan, the orthant with
    # (1, 1) listed as a ray has free rank 1, and with (2, 0) torsion (2,);
    # its class group is 0
    with pytest.raises(ValueError, match=message):
        FanData(2, rays, cones)


@st.composite
def rays_and_index_sets(draw):
    """2-d or 3-d primitive rays, repeats allowed, and two nonempty index sets."""
    d = draw(st.sampled_from((2, 3)))
    ray = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any).map(
        lambda r: tuple(x // math.gcd(*r) for x in r))
    rays = tuple(draw(st.lists(ray, min_size=1, max_size=d + 2)))
    index = st.sets(st.integers(0, len(rays) - 1), min_size=1, max_size=d + 1).map(
        lambda s: tuple(sorted(s)))
    return rays, draw(index), draw(index)


@given(rays_and_index_sets())
@example((P11_600_RAYS, (1, 2), (0, 2)))
@example((P11_600_RAYS, (0, 1), (1, 2)))
@example((WIDE_RAYS, (0, 1, 2), (0,)))
def test_feasibility_matches_the_completion(case):
    rays, a, b = case
    convex = [not positive_relation_exists([rays[i] for i in c], max_level=2048)
              for c in (a, b)]
    assert [_separable(rays, c, ()) for c in (a, b)] == convex
    if all(convex):
        assert _separable(rays, a, b) == completion_separable(rays, a, b, max_level=2048)


def test_fan_validation_rejects_bad_overlap():
    # cone(r0, r2) sits inside cone(r0, r1); they share no common face
    with pytest.raises(ValueError):
        FanData(2, ((1, 0), (0, 1), (1, 2)), ((0, 1), (0, 2)))


def test_fan_validation_accepts_large_separating_functional():
    # the shared ray (5, 1) is cut out only by m = (1, -5) and its multiples,
    # outside any small coefficient cube
    fan = FanData(2, ((1, 0), (5, 1), (0, 1)), ((0, 1), (1, 2)))
    assert fan.max_cones == ((0, 1), (1, 2))


def separated_in_cube(rays, a, b, radius):
    """Reference oracle: search [-radius, radius]^d for a separating functional."""
    common = set(a) & set(b)
    for m in product(range(-radius, radius + 1), repeat=len(rays[0])):
        signs = {i: sum(r * x for r, x in zip(rays[i], m)) for i in set(a) | set(b)}
        if all(signs[i] == 0 for i in common) \
                and all(signs[i] > 0 for i in a if i not in common) \
                and all(signs[i] < 0 for i in b if i not in common):
            return True
    return False


ray2 = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(
    lambda r: any(r) and math.gcd(*r) == 1)


@given(st.lists(ray2, min_size=2, max_size=4, unique=True),
       st.sets(st.integers(0, 3), min_size=1, max_size=2),
       st.sets(st.integers(0, 3), min_size=1, max_size=2))
def test_fan_validation_matches_cube_search_in_the_plane(rays, a, b):
    # with entries in [-2, 2] a separating functional, if any, has entries in
    # [-4, 4]: it is +-(r2, -r1) for a shared ray r, or the sum of two such
    # extreme directions, or r itself; so the cube search is exact here
    a = {i for i in a if i < len(rays)}
    b = {i for i in b if i < len(rays)}
    assume(a and b and a != b)
    # pass only the listed rays, renumbered; distinct primitive rays in a
    # strictly convex plane cone of at most two rays are all edges
    used = sorted(a | b)
    rays = [rays[i] for i in used]
    a = tuple(used.index(i) for i in sorted(a))
    b = tuple(used.index(i) for i in sorted(b))
    assume(not any(positive_relation_exists([rays[i] for i in c]) for c in (a, b)))
    try:
        FanData(2, tuple(rays), (a, b))
        accepted = True
    except ValueError:
        accepted = False
    # a cone listing only rays of the other is a face of it, never maximal
    nested = set(a) <= set(b) or set(b) <= set(a)
    assert accepted == (not nested and separated_in_cube(rays, a, b, 4))


def test_fan_validation_rejects_duplicates():
    with pytest.raises(ValueError):
        FanData(2, ((1, 0), (0, 1)), ((0, 1), (0, 1)))


def test_fan_validation_rejects_a_reordered_duplicate():
    with pytest.raises(ValueError, match="coincide"):
        FanData(2, ((1, 0), (0, 1)), ((0, 1), (1, 0)))


@pytest.mark.parametrize("rays, cones", [
    (((1, 0), (0, 1)), ((0,), (0, 1))),
    (((1, 0), (0, 1)), ((0, 1), (1,))),
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2), (1, 2))),
], ids=["ray of a plane cone", "listed second", "facet of a 3-d cone"])
def test_fan_validation_rejects_a_face_listed_as_maximal(rays, cones):
    with pytest.raises(ValueError, match="is a face of maximal cone"):
        FanData(len(rays[0]), rays, cones)


def test_class_group_projective_plane():
    cg = class_group(P2)
    assert cg.free_rank == 1 and cg.torsion_moduli == ()
    d = [cg.project(e)[0] for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    assert d[0] == d[1] == d[2]
    v = d[0][0]
    assert abs(v) == 1
    assert cg.project((1, 1, 1))[0][0] == 3 * v


def test_class_group_product_of_lines():
    cg = class_group(P1P1)
    assert cg.free_rank == 2 and cg.torsion_moduli == ()
    assert cg.project((1, 0, 0, 0)) == cg.project((0, 1, 0, 0))
    assert cg.project((0, 0, 1, 0)) == cg.project((0, 0, 0, 1))
    assert cg.project((1, 0, 0, 0)) != cg.project((0, 0, 1, 0))


def test_class_group_of_one_cone():
    cg = class_group(ONE_CONE)
    assert cg.free_rank == 1 and cg.torsion_moduli == ()


def test_class_group_kills_image():
    cg = class_group(P2)
    for m in [(1, 0), (0, 1), (2, -3)]:
        image = tuple(sum(r * x for r, x in zip(row, m)) for row in P2.rays)
        assert cg.project(image) == (((0,), ()))


def test_class_group_needs_spanning_rays():
    fan = FanData(2, ((1, 0),), ((0,),))
    with pytest.raises(ValueError):
        class_group(fan)


def rank1_twist(shifts):
    return ReflexiveDescription(
        1, tuple((i, full_at(-s, 1)) for i, s in enumerate(shifts)))


def test_global_lift_rank1_law():
    desc = rank1_twist((1, 0, 0))
    for c in Box((-2, -2, -2), (2, 2, 2)).degrees():
        want = 1 if all(x + s >= 0 for x, s in zip(c, (1, 0, 0))) else 0
        assert len(desc.space(c)) == want


def test_global_sections_degree_one_twist():
    cg = class_group(P2)
    desc = rank1_twist((0, 0, 0))
    target = cg.project((1, 0, 0))
    count = sum(
        1
        for c in Box((0, 0, 0), (3, 3, 3)).degrees()
        if cg.project(c) == target and len(desc.space(c)) == 1
    )
    assert count == 3

