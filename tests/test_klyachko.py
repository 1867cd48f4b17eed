import random
import sys
from fractions import Fraction

from coxlift import klyachko
from coxlift.cones import Cone
from coxlift.instances import (
    CONE_OVER_SQUARE,
    generic_plane_description,
    random_reflexive_description,
)
from coxlift.klyachko import (
    ReflexiveDescription,
    filtration_lift_component,
    induced_morphism,
    lift_subspace_in_ambient,
    realized_components,
    respects_filtrations,
    verify_equivalence,
)
from coxlift.lattice import smith_normal_form
from coxlift.lifting import Box, lift_action, lift_component, lift_morphism
from coxlift.linalg import Mat, row_space_basis, subspace_eq, subspace_le
from coxlift.modules import FiltrationModule, full_at, intersect_ray_spaces, ray_filtration


def rank1_description(shift):
    return ReflexiveDescription(
        1, tuple((i, full_at(-s, 1)) for i, s in enumerate(shift)))


def test_rank1_reproduces_shifted_cox_rule():
    shift = (1, 0, -1, 2)
    desc = rank1_description(shift)
    for c1 in range(-2, 3):
        for c3 in range(-3, 2):
            c = (c1, 0, c3, 1)
            want = 1 if all(x + s >= 0 for x, s in zip(c, shift)) else 0
            assert len(filtration_lift_component(desc, c)) == want


def test_all_full_description(csq):
    desc = ReflexiveDescription(3, tuple((i, full_at(0, 3)) for i in range(4)))
    for c in [(0, 0, 0, 0), (1, 2, 0, 1)]:
        assert len(filtration_lift_component(desc, c)) == 3
    assert len(filtration_lift_component(desc, (-1, 0, 0, 0))) == 0


def test_rank2_example_dims():
    f0 = ray_filtration([(0, [[1, 0]]), (1, [[1, 0], [0, 1]])], 2)
    desc = ReflexiveDescription(2, (
        (0, f0), (1, full_at(0, 2)), (2, full_at(0, 2)), (3, full_at(0, 2))))
    assert len(filtration_lift_component(desc, (0, 0, 0, 0))) == 1
    assert len(filtration_lift_component(desc, (1, 0, 0, 0))) == 2


def test_monotone_in_degree(csq, rng):
    desc = random_reflexive_description(csq, rng)
    for _ in range(20):
        c = tuple(rng.randint(-2, 2) for _ in range(4))
        c2 = tuple(x + rng.randint(0, 2) for x in c)
        a = filtration_lift_component(desc, c)
        b = filtration_lift_component(desc, c2)
        assert subspace_le(a, b)


def test_lift_subspace_embedding(csq):
    f0 = ray_filtration([(0, [[1, 0]]), (1, [[1, 0], [0, 1]])], 2)
    desc = ReflexiveDescription(2, (
        (0, f0), (1, full_at(0, 2)), (2, full_at(0, 2)), (3, full_at(0, 2))))
    module = FiltrationModule(csq, desc)
    comp = lift_component(csq, module, (0, 0, -1, 0))
    embedded = lift_subspace_in_ambient(module, comp)
    assert subspace_eq(embedded, filtration_lift_component(desc, (0, 0, -1, 0)))


def test_verify_equivalence_rank1(csq):
    desc = rank1_description((1, 0, -1, 0))
    out = verify_equivalence(csq, desc, Box((-2,) * 4, (2,) * 4))
    assert out.ok
    assert out.degrees_checked == 625
    assert out.roundtrip_checked > 0


def test_verify_equivalence_rank2(csq):
    f0 = ray_filtration([(0, [[1, 0]]), (1, [[1, 0], [0, 1]])], 2)
    desc = ReflexiveDescription(2, (
        (0, f0), (1, full_at(0, 2)), (2, full_at(0, 2)), (3, full_at(0, 2))))
    assert verify_equivalence(csq, desc, Box((-2,) * 4, (2,) * 4)).ok


def test_verify_equivalence_random_quotient_cone(quotient2, rng):
    for _ in range(5):
        desc = random_reflexive_description(quotient2, rng)
        assert verify_equivalence(quotient2, desc, Box((-2, -2), (2, 2))).ok


def patch_everywhere(monkeypatch, func, wrapper):
    """Replace ``func`` in every coxlift namespace that holds it by name."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("coxlift") and getattr(mod, func.__name__, None) is func:
            monkeypatch.setattr(mod, func.__name__, wrapper)


def test_verify_equivalence_intersects_once_per_step_key_and_factors_once(monkeypatch):
    intersections, fresh, smith_forms = [], [], []

    def counting(into):
        def intersect(levels, ambient):
            levels = tuple(levels)
            into.append(desc._steps([level for _, level in levels]))
            return intersect_ray_spaces(levels, ambient)
        return intersect

    def counting_smith(a):
        smith_forms.append(a)
        return smith_normal_form(a)

    patch_everywhere(monkeypatch, intersect_ray_spaces, counting(intersections))
    # the round trip's own intersections, built apart from the memo
    monkeypatch.setattr(klyachko, "intersect_ray_spaces", counting(fresh))
    patch_everywhere(monkeypatch, smith_normal_form, counting_smith)
    cone = Cone(3, CONE_OVER_SQUARE.rays)
    desc = random_reflexive_description(cone, random.Random(5))
    out = verify_equivalence(cone, desc, Box((-1,) * 4, (1,) * 4))
    assert out.ok
    assert intersections and len(intersections) == len(set(intersections))
    assert len(intersections) <= len(desc._spaces)
    assert len(fresh) == out.roundtrip_checked > 0
    assert smith_forms == [cone.rays]


def test_verify_equivalence_catches_a_corrupted_memo_entry(csq):
    f0 = ray_filtration([(0, [[1, 0]]), (1, [[1, 0], [0, 1]])], 2)
    desc = ReflexiveDescription(2, (
        (0, f0), (1, full_at(0, 2)), (2, full_at(0, 2)), (3, full_at(0, 2))))
    c = (0, 0, 0, 0)
    assert desc.space(c) == ((1, 0),)
    # a wrong line of the right dimension, read by the lift and the module alike
    desc._spaces[desc._steps(c)] = ((Fraction(0), Fraction(1)),)
    out = verify_equivalence(csq, desc, Box((-1,) * 4, (1,) * 4))
    assert not out.ok and out.first_mismatch == c


def test_realized_components_generic(csq):
    desc = generic_plane_description(4)
    out = realized_components(csq, desc, Box((-1,) * 4, (1,) * 4))
    base = set(out.base_realized)
    lift = set(out.lift_realized)
    assert base <= lift
    assert out.unrealized_on_base
    w1_meet_w3 = row_space_basis([[3, -2, 0]], 3)
    assert any(subspace_eq(s, w1_meet_w3) for s in out.unrealized_on_base)


def test_realized_components_smooth(orthant):
    desc = generic_plane_description(2)
    out = realized_components(orthant, desc, Box((-1, -1), (1, 1)))
    assert out.unrealized_on_base == ()


def test_respects_filtrations_and_induced_morphism(csq, rng):
    # inclusion of a line description into a full rank-2 description
    line = ReflexiveDescription(
        1, tuple((i, full_at(0, 1)) for i in range(4)))
    # embed the line as span(1,0) inside rank 2
    src = ReflexiveDescription(
        2, tuple((i, ray_filtration([(0, [[1, 0]]), (1, [[1, 0], [0, 1]])], 2))
                 for i in range(4)))
    tgt = ReflexiveDescription(
        2, tuple((i, full_at(0, 2)) for i in range(4)))
    ident = Mat.identity(2)
    assert respects_filtrations(ident, src, tgt)
    assert not respects_filtrations(ident, tgt, src)
    f = induced_morphism(csq, src, tgt, ident)
    for _ in range(8):
        c = tuple(rng.randint(-1, 1) for _ in range(4))
        c2 = tuple(x + rng.randint(0, 1) for x in c)
        lhs = lift_action(csq, f.target, c, c2).mul(lift_morphism(csq, f, c))
        rhs = lift_morphism(csq, f, c2).mul(lift_action(csq, f.source, c, c2))
        assert lhs.rows == rhs.rows
