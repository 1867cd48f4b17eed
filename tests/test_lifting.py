import functools
import gc
import importlib
import inspect
import os
import pickle
import pkgutil
import random
import sys
import warnings
import weakref
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import coxlift
from coxlift import checks, linalg, lifting
from coxlift.cones import Cone, leq_sigma, minimal_common_upper_bounds, minimal_elements
from coxlift.derived import FinitePosetDiagram, ideal_sequence, indicator_sequence
from coxlift.instances import (
    CONE_OVER_SQUARE,
    ORTHANT2,
    QUOTIENT2,
    TEST_CONES,
    all_variant_modules,
    codivisorial_lift_law,
    generic_plane_description,
    random_reflexive_description,
    simple_lift_law,
    structure_lift_law,
)
from coxlift.lifting import (
    Box,
    colimit,
    colimit_of_lift,
    counit_matrix,
    lift_action,
    lift_component,
    lift_morphism,
    lift_table,
    minimal_generators_in_box,
    unit_map,
)
from coxlift.linalg import Mat, is_isomorphism, kernel_basis, rank, row_space_basis
from coxlift.modules import (
    DirectSumModule,
    DirectSumRule,
    FiltrationModule,
    FinitelyPresentedModule,
    GradedModule,
    IndicatorConstraint,
    IndicatorModule,
    ReflexiveDescription,
    Relation,
    SheafifiedModule,
    ShiftedCoxRule,
    SpikeRule,
    codivisorial_module,
    identity_morphism,
    maximal_ideal_module,
    ray_filtration,
    simple_module,
    structure_module,
)


def all_rows_lift_component(cone, module, c):
    """Reference engine: every compatibility row built, dense, before any
    elimination; the kernel of the whole matrix."""
    mins = minimal_elements(cone, c)
    dims = tuple(module.component(m) for m in mins)
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d)
    total = offsets[-1]

    rows: list[list[Fraction]] = []
    for i in range(len(mins)):
        for j in range(i + 1, len(mins)):
            if dims[i] == 0 and dims[j] == 0:
                continue
            for u in minimal_common_upper_bounds(cone, mins[i], mins[j]):
                ai = module.action(mins[i], u)
                aj = module.action(mins[j], u)
                for r in range(ai.nrows):
                    row = [Fraction(0)] * total
                    for col in range(dims[i]):
                        row[offsets[i] + col] = ai.rows[r][col]
                    for col in range(dims[j]):
                        row[offsets[j] + col] -= aj.rows[r][col]
                    if any(row):
                        rows.append(row)
    basis = row_space_basis(kernel_basis(Mat(len(rows), total, rows)), total)
    return lifting.LiftComponent(c, mins, dims, basis)


def test_simple_lift_spot_values(csq):
    K = simple_module(csq)
    assert lift_component(csq, K, (-1, 0, 0, 0)).dim == 1
    assert lift_component(csq, K, (-1, -1, 0, 0)).dim == 0
    assert lift_component(csq, K, (0, -2, 0, -3)).dim == 1
    assert lift_component(csq, K, (1, 0, 0, 0)).dim == 0


def test_simple_lift_law_sampled(csq, rng):
    K = simple_module(csq)
    for _ in range(60):
        c = tuple(rng.randint(-3, 3) for _ in range(4))
        assert lift_component(csq, K, c).dim == simple_lift_law(c)


def test_codivisorial_lift(csq):
    cod = codivisorial_module(csq, (0, 0, 0, 0), (1, 3))
    comp = lift_component(csq, cod, (-1, 0, -1, 0))
    assert comp.dim == 3
    assert comp.minimal_points == ((-1, 0, 0), (0, 0, 0), (1, 0, 0))
    for c1, c3 in [(-2, 0), (0, -2), (-1, -2), (1, -1), (2, 0)]:
        got = lift_component(csq, cod, (c1, 0, c3, 0)).dim
        assert got == codivisorial_lift_law(c1, c3)


def test_ideal_lift_spot_values(csq):
    mm = maximal_ideal_module(csq)
    # the zero-component minimal point at (1,-1,2) kills the candidate
    assert lift_component(csq, mm, (1, -1, 0, 0)).dim == 0
    assert lift_component(csq, mm, (1, 0, 0, 0)).dim == 1
    assert lift_component(csq, mm, (0, 0, 0, 0)).dim == 0


def test_structure_lift_spot_values(csq):
    rr = structure_module(csq)
    assert lift_component(csq, rr, (0, 0, 0, 0)).dim == 1
    assert lift_component(csq, rr, (-1, 0, 0, 0)).dim == 0
    assert lift_component(csq, rr, (2, 1, 0, 3)).dim == 1


def test_lift_is_additive_on_a_direct_sum(csq):
    parts = (simple_module(csq), structure_module(csq))
    both = DirectSumModule(parts)
    for c in Box((-1,) * 4, (1,) * 4).degrees():
        assert lift_component(csq, both, c).dim == sum(
            lift_component(csq, p, c).dim for p in parts)
    # the simple lift is 1 -> 0 along this step, the structure lift 1 -> 1
    c, c_prime = (0, 0, 0, 0), (1, 0, 1, 0)
    ranks = [rank(lift_action(csq, p, c, c_prime)) for p in parts]
    assert ranks == [0, 1]
    assert rank(lift_action(csq, both, c, c_prime)) == sum(ranks)


def test_lift_action_identity_and_steps(csq):
    K = simple_module(csq)
    same = lift_action(csq, K, (-1, 0, 0, 0), (-1, 0, 0, 0))
    assert same.rows == [[1]]
    step = lift_action(csq, K, (-2, 0, 0, 0), (-1, 0, 0, 0))
    assert step.rows == [[1]]
    rr = structure_module(csq)
    xmul = lift_action(csq, rr, (0, 0, 0, 0), (1, 0, 0, 0))
    assert xmul.rows == [[1]]
    with pytest.raises(ValueError):
        lift_action(csq, K, (0, 0, 0, 0), (-1, 0, 0, 0))


def test_lift_action_functoriality(csq, rng):
    cod = codivisorial_module(csq, (0, 0, 0, 0), (1, 3))
    for _ in range(20):
        c = tuple(rng.randint(-2, 0) for _ in range(4))
        s1 = tuple(rng.randint(0, 1) for _ in range(4))
        c2 = tuple(a + b for a, b in zip(c, s1))
        s2 = tuple(rng.randint(0, 1) for _ in range(4))
        c3 = tuple(a + b for a, b in zip(c2, s2))
        lhs = lift_action(csq, cod, c2, c3).mul(lift_action(csq, cod, c, c2))
        rhs = lift_action(csq, cod, c, c3)
        assert lhs.rows == rhs.rows


def test_lift_morphism_values(csq):
    f = ideal_sequence(csq).project
    at0 = lift_morphism(csq, f, (0, 0, 0, 0))
    assert at0.rows == [[1]]
    # source vanishes, target is one-dimensional: a zero-width matrix
    neg = lift_morphism(csq, f, (-1, 0, 0, 0))
    assert (neg.nrows, neg.ncols) == (1, 0)
    ident = lift_morphism(csq, identity_morphism(simple_module(csq)), (-2, 0, 0, 0))
    assert ident.rows == [[1]]
    # the hook on components a caller holds gives the public entry's matrix
    box = Box((-1, 0, -1, 0), (0, 0, 0, 0))
    sources, targets = (lift_table(csq, module, box) for module in (f.source, f.target))
    for c in box.degrees():
        hook = lifting._lifted_morphism(f, sources.component(c), targets.component(c))
        assert hook.rows == lift_morphism(csq, f, c).rows


def test_smooth_cone_reindexing(orthant):
    for module in all_variant_modules(orthant):
        for c in Box((-2, -2), (2, 2)).degrees():
            comp = lift_component(orthant, module, c)
            assert comp.dim == module.component(c)
            assert comp.minimal_points == (c,)


def test_counit_isomorphism(csq, quotient2, rng):
    for cone in (csq, quotient2):
        for module in all_variant_modules(cone):
            for _ in range(5):
                m = tuple(rng.randint(-2, 2) for _ in range(cone.lattice_rank))
                cm = counit_matrix(cone, module, m)
                assert is_isomorphism(cm)
                assert cm.nrows == module.component(m)


def test_sheafify_component(csq):
    sheaf = SheafifiedModule(csq, ShiftedCoxRule(4, (0, 0, 0, 0)))
    assert sheaf.component((0, 0, 0)) == 1
    assert sheaf.component((1, 0, 1)) == 1
    assert sheaf.component((-1, 0, 0)) == 0


def test_sheafify_of_table_matches_module(csq):
    K = simple_module(csq)
    table = lift_table(csq, K, Box((-1,) * 4, (1,) * 4))
    for m in [(0, 0, 0), (1, 0, 1), (0, 1, 0)]:
        c = csq.evaluate(m)
        if c in table.components:
            assert SheafifiedModule(csq, table).component(m) == K.component(m)


def test_a_table_rejects_a_degree_outside_its_box(csq):
    table = lift_table(csq, simple_module(csq), Box((-1,) * 4, (1,) * 4))
    box = r"\(-1, -1, -1, -1\)\.\.\(1, 1, 1, 1\)"
    with pytest.raises(ValueError, match=r"degree \(2, 0, -2, 0\) lies outside .*" + box):
        SheafifiedModule(csq, table).component((2, 0, 0))  # was a bare KeyError
    with pytest.raises(ValueError, match="outside"):
        table.act((1, 1, 1, 1), (2, 1, 1, 1))


def test_unit_map_shifted_rules(csq, rng):
    for shift in [(0, 0, 0, 0), (2, -1, 0, 1)]:
        rule = ShiftedCoxRule(4, shift)
        for _ in range(15):
            c = tuple(rng.randint(-2, 2) for _ in range(4))
            assert is_isomorphism(unit_map(csq, rule, c))


def test_unit_map_spike_kernel(csq):
    spike_at = (1, 0, 0, 0)  # off the image hyperplane c1 - c2 + c3 - c4 = 0
    rule = DirectSumRule((ShiftedCoxRule(4, (0, 0, 0, 0)), SpikeRule(4, spike_at)))
    u = unit_map(csq, rule, spike_at)
    assert u.ncols == 2
    assert u.ncols - rank(u) == 1


def test_sheafified_module_reads_image_degrees(csq):
    rule = SpikeRule(4, (1, 0, 0, 0))
    shf = SheafifiedModule(csq, rule)
    for m in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
        assert shf.component(m) == 0


# each was accepted, the first two reading a 3-ray rule at 4-ray degrees
WRONG_RAY_COUNTS = {
    "sheafified module": (lambda C: SheafifiedModule(C, ShiftedCoxRule(3, (0, 0, 0))),
                          "the Cox rule has 3 rays, but the cone has 4"),
    "unit map": (lambda C: unit_map(C, ShiftedCoxRule(3, (0, 0, 0)), (0, 0, 0, -5)),
                 "the Cox rule has 3 rays, but the cone has 4"),
    "empty sum": (lambda C: DirectSumRule(()), "empty direct sum"),
    "mixed sum": (lambda C: DirectSumRule((ShiftedCoxRule(2, (0, 0)),
                                           ShiftedCoxRule(4, (0, 0, 0, 0)))),
                  "different ray counts"),
    "shift length": (lambda C: ShiftedCoxRule(4, (0, 0, 0)),
                     r"shift \(0, 0, 0\) has length 3, not the ray count 4"),
    "lift degree": (lambda C: lift_component(C, simple_module(C), (0, 0, 0)),
                    r"degree \(0, 0, 0\) has length 3, not the ray count 4"),
}


@pytest.mark.parametrize("build, message", WRONG_RAY_COUNTS.values(),
                         ids=WRONG_RAY_COUNTS.keys())
def test_cox_rules_reject_another_ray_count(csq, build, message):
    with pytest.raises(ValueError, match=message):
        build(csq)


# each returned a dimension, zipping the degree against the shift or comparing it whole
WRONG_LENGTH_DEGREES = {
    "shifted, too short": (lambda: ShiftedCoxRule(4, (0, 0, 0, 0)).dim((0,)),
                           "degree (0,) has length 1, not the ray count 4"),
    "shifted, too long": (lambda: ShiftedCoxRule(4, (0, 0, 0, 0)).dim((0, 0, 0, 0, -5)),
                          "degree (0, 0, 0, 0, -5) has length 5, not the ray count 4"),
    "shifted action": (lambda: ShiftedCoxRule(4, (0, 0, 0, 0)).act((0, 0, 0, 0), (0,)),
                       "degree (0,) has length 1, not the ray count 4"),
    "spike, too short": (lambda: SpikeRule(2, (0, 0)).dim((0,)),
                         "degree (0,) has length 1, not the ray count 2"),
    "spike, too long": (lambda: SpikeRule(2, (0, 0)).dim((0, 0, 1)),
                        "degree (0, 0, 1) has length 3, not the ray count 2"),
}


@pytest.mark.parametrize("call, message", WRONG_LENGTH_DEGREES.values(),
                         ids=WRONG_LENGTH_DEGREES.keys())
def test_cox_rules_reject_a_degree_of_another_length(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    st.lists(st.integers(-4, 4), min_size=n, max_size=n))), st.integers(0, 7))
def test_shifted_rule_dim_matches_its_sum_form(degree_shift, other_length):
    c, shift = degree_shift
    rule = ShiftedCoxRule(len(shift), shift)
    assert rule.dim(c) == (1 if all(a + s >= 0 for a, s in zip(c, shift)) else 0)
    if other_length != len(c):
        with pytest.raises(ValueError,
                           match=f"has length {other_length}, not the ray count {len(c)}$"):
            rule.dim(c[:other_length] + [0] * (other_length - len(c)))


def test_colimits(csq):
    assert colimit(csq, simple_module(csq)).dim == 0
    assert colimit(csq, maximal_ideal_module(csq)).dim == 1
    assert colimit(csq, structure_module(csq)).dim == 1
    short = colimit(csq, simple_module(csq), horizon=1)
    assert not short.stabilized and short.dim is None
    # a walk short of its certificate reports every dimension it read
    for horizon in (0, 1):
        for walk in (colimit, colimit_of_lift):
            res = walk(csq, structure_module(csq), horizon)
            assert res == lifting.ColimitResult(False, None, None, (1,) * (horizon + 1))
    res = colimit_of_lift(csq, structure_module(csq), 2)
    assert res == lifting.ColimitResult(True, 1, 0, (1, 1, 1))


# integer arguments that are counts, not degrees; each is read by plain_int
BAD_COUNTS = {
    "jobs float": lambda C: lift_table(C, simple_module(C), Box((0,) * 4, (0,) * 4), jobs=1.5),
    "jobs str": lambda C: lift_table(C, simple_module(C), Box((0,) * 4, (0,) * 4), jobs="2"),
    "jobs bool": lambda C: lift_table(C, simple_module(C), Box((0,) * 4, (0,) * 4), jobs=True),
    "colimit horizon float": lambda C: colimit(C, simple_module(C), horizon=2.5),
    "colimit negative horizon": lambda C: colimit(C, simple_module(C), horizon=-1),
    "lift colimit horizon float": lambda C: colimit_of_lift(C, simple_module(C), horizon=2.5),
    "lift colimit negative horizon": lambda C: colimit_of_lift(C, simple_module(C), horizon=-1),
}


@pytest.mark.parametrize("call", BAD_COUNTS.values(), ids=BAD_COUNTS.keys())
def test_jobs_and_horizon_reject_non_integers_and_negatives(csq, call):
    with pytest.raises(ValueError, match="expected an integer|must be nonnegative"):
        call(csq)


def test_colimit_of_lift_matches(csq):
    for module in (simple_module(csq), maximal_ideal_module(csq),
                   structure_module(csq)):
        a = colimit(csq, module)
        b = colimit_of_lift(csq, module)
        assert a.stabilized and b.stabilized
        assert a.dim == b.dim


def test_colimit_walks_compute_only_the_components_they_read(monkeypatch):
    # at the default horizon 16 each of the 15 walks of ``check colimit``
    # would compute 17 components, 255 in all; they read 58
    drawn, read, lifted = [], [], []
    stabilize, lift = lifting._stabilize, lifting.lift_component

    def counting_walk(walk, *rest):
        def counted():
            for item in walk:
                drawn.append(item)
                yield item
        result = stabilize(counted(), *rest)
        read.append(len(result.dims))
        return result

    def counting_lift(*args):
        lifted.append(args[2])
        return lift(*args)

    monkeypatch.setattr(lifting, "_stabilize", counting_walk)
    monkeypatch.setattr(lifting, "lift_component", counting_lift)
    assert checks.check_colimit().ok
    assert (len(read), sum(read), len(drawn), len(lifted)) == (15, 58, 58, 15)


def test_minimal_generators_structure(csq):
    rr = structure_module(csq)
    got = minimal_generators_in_box(csq, rr, Box((-1,) * 4, (1,) * 4))
    assert got == ((0, 0, 0, 0),)


def test_minimal_generators_ideal(csq):
    mm = maximal_ideal_module(csq)
    got = minimal_generators_in_box(csq, mm, Box((0,) * 4, (2,) * 4))
    assert set(got) == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}


def test_minimal_generators_simple_box_corners(csq):
    # inside any finite box the two support quadrants are generated from
    # their corners; the corners recede as the box grows, which is the
    # box-level trace of the module not being finitely generated
    K = simple_module(csq)
    got = minimal_generators_in_box(csq, K, Box((-3,) * 4, (0,) * 4))
    assert set(got) == {(-3, 0, -3, 0), (0, -3, 0, -3)}
    got2 = minimal_generators_in_box(csq, K, Box((-2,) * 4, (0,) * 4))
    assert set(got2) == {(-2, 0, -2, 0), (0, -2, 0, -2)}


def test_minimal_generators_build_only_the_maps_into_nonzero_components(csq, monkeypatch):
    def forced(table):
        raise AssertionError("every one-step map was built")

    targets = []
    restriction = lifting._restriction

    def counting(module, src, tgt):
        targets.append(tgt.dim)
        return restriction(module, src, tgt)

    monkeypatch.setattr(lifting.LiftTable, "steps", property(forced))
    monkeypatch.setattr(lifting, "_restriction", counting)
    got = minimal_generators_in_box(csq, simple_module(csq), Box((-2,) * 4, (0,) * 4))
    assert set(got) == {(-2, 0, -2, 0), (0, -2, 0, -2)}
    assert targets and 0 not in targets


def test_lift_table_composition(csq):
    # the one-step maps compose, along either axis order, to the direct
    # restriction map, which is also what the table's rule returns
    cod = codivisorial_module(csq, (0, 0, 0, 0), (1, 3))
    box = Box((-2, 0, -2, 0), (0, 1, 0, 1))
    table = lift_table(csq, cod, box)
    c = (-2, 0, -2, 0)
    for c2 in [(0, 1, 0, 1), (0, 0, 0, 0), (-1, 0, 0, 0), (0, 0, -1, 0)]:
        direct = lift_action(csq, cod, c, c2)
        for axes in (range(4), reversed(range(4))):
            composed = Mat.identity(table.dim(c))
            cur = list(c)
            for axis in axes:
                while cur[axis] < c2[axis]:
                    composed = table.steps[(tuple(cur), axis)].mul(composed)
                    cur[axis] += 1
            assert composed == direct
        assert table.act(c, c2) == direct


def test_lift_table_builds_restriction_maps_only_when_read(csq, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2:4])
        return lift_action(*args, **kwargs)

    monkeypatch.setattr(lifting, "lift_action", counting)
    cod = codivisorial_module(csq, (0, 0, 0, 0), (1, 3))
    box = Box((-1, 0, -1, 0), (0, 1, 0, 1))
    table = lift_table(csq, cod, box)
    assert calls == []
    degrees = set(box.degrees())
    edges = {(c, axis) for c in degrees for axis in range(4)
             if tuple(x + (i == axis) for i, x in enumerate(c)) in degrees}
    assert set(table.steps) == edges
    for (c, axis), mat in table.steps.items():
        nxt = tuple(x + (i == axis) for i, x in enumerate(c))
        assert mat == lift_action(csq, cod, c, nxt)


def allow_cpus(monkeypatch, n):
    """Make ``n`` CPUs usable to ``lift_table``, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def refuse_forks(monkeypatch, message="no process slots"):
    """Refuse every fork, so no child starts; returns the list of attempts."""
    attempts = []

    def refuse():
        attempts.append(message)
        raise OSError(message)

    monkeypatch.setattr(os, "fork", refuse)
    return attempts


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_lift_table_warns_once_when_a_fork_is_refused(csq, monkeypatch, capsys):
    allow_cpus(monkeypatch, 2)
    refuse_forks(monkeypatch)
    cod = codivisorial_module(csq, (0, 0, 0, 0), (1, 3))
    box = Box((-1, 0, -1, 0), (0, 1, 0, 1))
    for jobs in (2, 8):
        allow_cpus(monkeypatch, jobs)
        with pytest.warns(RuntimeWarning, match="no process slots") as record:
            table = lift_table(csq, cod, box, jobs=jobs)
        assert len(record) == 1
        assert capsys.readouterr().out == ""
        assert table.components == lift_table(csq, cod, box, jobs=1).components


def test_lift_table_width_is_capped_at_the_degrees_and_the_usable_cpus(csq, monkeypatch):
    attempts = refuse_forks(monkeypatch)
    cod = codivisorial_module(csq, (0, 0, 0, 0), (1, 3))
    box = Box((-1, 0, -1, 0), (0, 1, 0, 1))  # 16 degrees
    # each refused fork is one child the width asked for
    for cpus, jobs, width in ((3, 8, 3), (8, 5, 5), (1, 8, 1), (64, 1000, 16)):
        allow_cpus(monkeypatch, cpus)
        attempts.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            lift_table(csq, cod, box, jobs=jobs)
        assert len(attempts) == width - 1
    # without an affinity set the CPU count caps the width
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    attempts.clear()
    with pytest.warns(RuntimeWarning):
        lift_table(csq, cod, box, jobs=8)
    assert len(attempts) == 1


def test_lift_table_components_are_in_degree_order_at_every_width(csq, monkeypatch):
    allow_cpus(monkeypatch, 2)
    cod = codivisorial_module(csq, (0, 0, 0, 0), (1, 3))
    box = Box((-1, 0, -1, 0), (0, 1, 0, 1))
    tables = [lift_table(csq, cod, box, jobs=jobs) for jobs in (1, 2)]
    for table in tables:
        assert list(table.components) == list(box.degrees())
    assert tables[0].components == tables[1].components
    assert_no_child_left()


# two degrees at width 2: this process lifts the first, one forked child the second
TWO_DEGREES = Box((0, 0, 0, 0), (0, 0, 0, 1))


def fail_at(monkeypatch, degree, fail):
    """Make ``lift_component`` call ``fail()`` at ``degree``, in this process and in children."""
    def lift(cone, module, c):
        if c == degree:
            fail()
        return lift_component(cone, module, c)

    monkeypatch.setattr(lifting, "lift_component", lift)


def test_lift_table_reraises_an_exception_from_a_child(csq, monkeypatch):
    allow_cpus(monkeypatch, 2)

    def fail():
        raise ValueError("raised in a child")

    fail_at(monkeypatch, (0, 0, 0, 1), fail)
    with pytest.raises(ValueError, match="raised in a child"):
        lift_table(csq, simple_module(csq), TWO_DEGREES, jobs=2)
    assert_no_child_left()


def test_lift_table_reports_a_child_that_leaves_no_result(csq, monkeypatch):
    allow_cpus(monkeypatch, 2)
    fail_at(monkeypatch, (0, 0, 0, 1), lambda: os._exit(1))
    with pytest.raises(RuntimeError, match="exit status 1"):
        lift_table(csq, simple_module(csq), TWO_DEGREES, jobs=2)
    assert_no_child_left()


def test_lift_table_reaps_its_children_when_its_own_share_raises(csq, monkeypatch):
    allow_cpus(monkeypatch, 2)

    def fail():
        raise ValueError("raised in the coordinator")

    fail_at(monkeypatch, (0, 0, 0, 0), fail)
    with pytest.raises(ValueError, match="raised in the coordinator"):
        lift_table(csq, simple_module(csq), TWO_DEGREES, jobs=2)
    assert_no_child_left()


def every_transport_lift_action(cone, module, src, tgt):
    """Reference: each target block transported from its first dominated
    source block, whatever the dimensions of the two lifts."""
    blocks = []
    for mk in tgt.minimal_points:
        i = next(i for i, mi in enumerate(src.minimal_points) if leq_sigma(cone, mi, mk))
        blocks.append((i, module.action(src.minimal_points[i], mk)))
    return lifting._blockwise(src, tgt, blocks)


def test_restriction_maps_touching_a_zero_lift_read_no_transport(csq, monkeypatch):
    cod = codivisorial_module(csq, (0, 0, 0, 0), (1, 3))
    box = Box((-1,) * 4, (1,) * 4)
    table = lift_table(csq, cod, box)
    calls = []
    action = type(cod)._action

    def counting(self, m, m_prime):
        calls.append((m, m_prime))
        return action(self, m, m_prime)

    # the lift transports through the hook, on points it has read itself
    monkeypatch.setattr(type(cod), "_action", counting)
    steps = table.steps
    zero_sided = [(c, axis) for c, axis in steps
                  if table.dim(c) == 0 or table.dim(tuple(x + (i == axis) for i, x in enumerate(c))) == 0]
    assert (len(steps), len(zero_sided), len(calls)) == (216, 168, 84)
    for (c, axis), mat in steps.items():
        nxt = tuple(x + (i == axis) for i, x in enumerate(c))
        assert mat == every_transport_lift_action(csq, cod, table.component(c), table.component(nxt))


def test_a_restriction_map_with_a_zero_side_searches_no_predecessor(csq, monkeypatch):
    cod = codivisorial_module(csq, (0, 0, 0, 0), (1, 3))
    box = Box((-1,) * 4, (1,) * 4)
    table = lift_table(csq, cod, box)
    calls = []
    cox = Cone._cox

    def counting(cone, m):
        calls.append(m)
        return cox(cone, m)

    # the predecessor search compares Cox coordinates, so it reads them first
    monkeypatch.setattr(Cone, "_cox", counting)
    zero_sided = searched = 0
    for c in box.degrees():
        for axis in range(4):
            nxt = tuple(x + (i == axis) for i, x in enumerate(c))
            if nxt not in table.components:
                continue
            calls.clear()
            src, tgt = table.component(c), table.component(nxt)
            mat = lifting._restriction(cod, src, tgt)
            if src.dim and tgt.dim:
                searched += bool(calls)
            else:
                zero_sided += 1
                assert mat == Mat.zero(tgt.dim, src.dim) and calls == []
    # each of the 216 - 168 maps with two nonzero sides searches
    assert (zero_sided, searched) == (168, 48)


def test_building_the_steps_reads_no_degree(csq, monkeypatch):
    # both sides of every step were read when the table lifted them
    cod = codivisorial_module(csq, (0, 0, 0, 0), (1, 3))
    table = lift_table(csq, cod, Box((-1,) * 4, (1,) * 4))
    reads = []
    int_vector = coxlift.lattice.int_vector

    def read(values):
        reads.append(values)
        return int_vector(values)

    for name, namespace in list(sys.modules.items()):
        if name.startswith("coxlift") and getattr(namespace, "int_vector", None) is int_vector:
            monkeypatch.setattr(namespace, "int_vector", read)
    assert (len(table.steps), reads) == (216, [])


def test_lift_maps_take_no_optional_parameter():
    # a caller that holds the components calls the hooks on them
    for entry in (lift_action, lift_morphism, indicator_sequence):
        params = inspect.signature(entry).parameters.values()
        assert [p.name for p in params if p.default is not p.empty] == []


def test_memos_are_freed_with_their_cone_and_modules():
    cone = Cone(3, CONE_OVER_SQUARE.rays)
    filtration = FiltrationModule(cone, random_reflexive_description(cone, random.Random(3)))
    presented = FinitelyPresentedModule(cone, [(0, 0, 0), (1, 0, 0)],
                                        [Relation((1, 0, 1), (1, Fraction(-1, 2)))])
    lift_component(cone, filtration, (-1, 0, -1, 0))
    lift_component(cone, presented, (-1, 0, -1, 0))
    desc = filtration.description
    assert cone._minimal and cone._classes and desc._spaces and presented._quotients
    # the Smith form is the cone's own; lattice keeps no Smith form
    refs = [weakref.ref(x) for x in (cone, cone.smith, filtration, desc, presented)]
    del cone, filtration, desc, presented
    gc.collect()
    assert [ref() for ref in refs] == [None] * 5


def test_memoized_modules_survive_a_pickle_round_trip(csq):
    filtration = FiltrationModule(csq, random_reflexive_description(csq, random.Random(3)))
    lift_component(csq, filtration, (-1, 0, -1, 0))
    assert csq._classes and "smith" in vars(csq) and filtration.description._spaces
    copy = pickle.loads(pickle.dumps(filtration))
    assert copy == filtration and hash(copy) == hash(filtration)
    assert copy.cone == csq and hash(copy.cone) == hash(csq)
    assert copy.description == filtration.description
    assert hash(copy.description) == hash(filtration.description)
    # the memos travel with the copy and still give the same lift
    for c in ((-1, 0, -1, 0), (0, 1, 0, 1)):
        assert (lift_component(copy.cone, copy, c)
                == lift_component(csq, filtration, c))


def test_no_module_holds_a_process_wide_functools_cache():
    # memos live on the objects they describe, never at module level
    cache_type = type(functools.lru_cache(maxsize=None)(lambda: None))
    held = [f"{info.name}.{name}"
            for info in pkgutil.iter_modules(coxlift.__path__)
            for name, obj in vars(importlib.import_module(f"coxlift.{info.name}")).items()
            if isinstance(obj, cache_type)]
    assert held == []


def test_lift_entry_points_reject_a_module_on_another_cone(orthant, quotient2):
    module = simple_module(quotient2)
    with pytest.raises(ValueError, match="another cone"):
        lift_component(orthant, module, (1, 0))
    with pytest.raises(ValueError, match="another cone"):
        lift_action(orthant, module, (0, 0), (1, 0))
    with pytest.raises(ValueError, match="another cone"):
        FinitePosetDiagram.from_module(orthant, module, [(0, 0)])
    with pytest.raises(ValueError, match="another cone"):
        colimit(orthant, structure_module(quotient2))


def test_lift_component_runs_once_when_the_module_raises_type_error(orthant):
    calls = []

    class Raising(GradedModule):
        cone = orthant

        def _component(self, m):
            calls.append(m)
            raise TypeError("raised inside the computation")

    with pytest.raises(TypeError):
        lift_component(orthant, Raising(), (0, 0))
    assert len(calls) == 1


@pytest.mark.parametrize("cone", TEST_CONES, ids=("orthant2", "quotient2", "square"))
def test_streamed_lift_matches_all_rows_engine(cone):
    n = cone.ray_count
    rng = random.Random(20)
    modules = all_variant_modules(cone) + [
        FiltrationModule(cone, random_reflexive_description(cone, rng, 3)),
        SheafifiedModule(cone, ShiftedCoxRule(n, tuple(rng.randint(-1, 1) for _ in range(n)))),
    ]
    radius = 1 if n > 3 else 2
    zero_with_presentation = 0
    for module in modules:
        for c in Box((-radius,) * n, (radius,) * n).degrees():
            streamed = lift_component(cone, module, c)
            assert streamed == all_rows_lift_component(cone, module, c)
            zero_with_presentation += streamed.dim == 0 and sum(streamed.block_dims) > 0
    # on the smooth orthant each P_c has one minimal point and no constraint
    if cone != ORTHANT2:
        assert zero_with_presentation > 0


def test_quotient_cone_lift_dims(quotient2):
    # the structure lift is the Cox ring rule on every chart, torsion or not
    rr = structure_module(quotient2)
    for c in Box((-2, -2), (2, 2)).degrees():
        assert lift_component(quotient2, rr, c).dim == structure_lift_law(c)


def presented_with_rational_relations(cone, rng):
    """A finitely presented module whose relations have ``"p/q"`` coefficients,
    each relation touching every generator below its degree."""
    d = cone.lattice_rank
    gens = tuple(tuple(rng.randint(-1, 1) for _ in range(d)) for _ in range(rng.randint(2, 4)))
    rels = []
    for _ in range(rng.randint(1, 3)):
        top = tuple(rng.randint(-1, 2) for _ in range(d))
        coeffs = [f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}" if leq_sigma(cone, g, top)
                  else "0" for g in gens]
        rels.append(Relation(top, tuple(coeffs)))
    return FinitelyPresentedModule(cone, gens, tuple(rels))


def indicator_with_random_constraints(cone, rng):
    """An indicator module cut out by one to three random ray inequalities;
    each is up- or down-closed, so the support is order-convex."""
    cons = tuple(IndicatorConstraint(rng.randrange(cone.ray_count), rng.choice(("<=", ">=")),
                                     rng.randint(-2, 2)) for _ in range(rng.randint(1, 3)))
    return IndicatorModule(cone, "quotient", cons)


RANDOM_MODULES = {
    "filtration": lambda cone, rng: FiltrationModule(
        cone, random_reflexive_description(cone, rng, 3)),
    "presented": presented_with_rational_relations,
    # components of dimension 0 and 1, whose transports are the shared ``Mat.ones``
    "indicator": indicator_with_random_constraints,
    "shifted": lambda cone, rng: SheafifiedModule(cone, ShiftedCoxRule(
        cone.ray_count, tuple(rng.randint(-2, 2) for _ in range(cone.ray_count)))),
}


# the kernel comes out of one elimination of columns numbered from the
# right; the oracle eliminates in the lift's own order and row-reduces
# the kernel again, so a wrong reversal or fill-in shows as a mismatch
@given(st.sampled_from([QUOTIENT2, CONE_OVER_SQUARE]).flatmap(lambda cone: st.tuples(
    st.just(cone), st.sampled_from(sorted(RANDOM_MODULES)), st.integers(0, 2**32),
    st.tuples(*[st.integers(-2, 2)] * cone.ray_count))))
def test_reversed_elimination_matches_the_all_rows_oracle(case):
    cone, kind, seed, c = case
    module = RANDOM_MODULES[kind](cone, random.Random(seed))
    assert lift_component(cone, module, c) == all_rows_lift_component(cone, module, c)


class TransportSources(GradedModule):
    """``base`` as it is, recording the source point of every transport asked for."""

    def __init__(self, base):
        self.base, self.cone, self.sources = base, base.cone, []

    def _component(self, m):
        return self.base._component(m)

    def _action(self, m, m_prime):
        self.sources.append(m)
        return self.base._action(m, m_prime)


def test_a_zero_block_asks_for_no_transport(csq):
    bases = [maximal_ideal_module(csq), simple_module(csq),
             SheafifiedModule(csq, ShiftedCoxRule(4, (1, 0, -1, 0))),
             FiltrationModule(csq, generic_plane_description(4))]
    mixed = 0
    for base in bases:
        for c in Box((-1,) * 4, (1,) * 4).degrees():
            counted = TransportSources(base)
            comp = lift_component(csq, counted, c)
            assert all(base._component(m) for m in counted.sources)
            assert comp == all_rows_lift_component(csq, base, c)
            mixed += 0 in comp.block_dims and any(comp.block_dims)
    # some presentations pair a zero block with a nonzero one
    assert mixed > 0


EDGE_KERNELS = {
    # every block zero: no column at all
    "total 0": (lambda C: simple_module(C), (-1, -1, -1, 0), (0, 0), 0),
    # two nonzero blocks whose constraints leave nothing
    "zero kernel": (lambda C: maximal_ideal_module(C), (-1, 0, -1, 1), (0, 1, 1, 0), 0),
    # one minimal point and no constraint: every column free
    "full kernel": (lambda C: FiltrationModule(C, generic_plane_description(4)),
                    (1, 1, 1, 1), (3,), 3),
    "full kernel beside zero blocks": (lambda C: simple_module(C), (-1, 0, -1, 0), (0, 1, 0), 1),
    "proper kernel": (lambda C: FiltrationModule(C, generic_plane_description(4)),
                      (0, 1, 0, 1), (2, 3, 2), 1),
}


@pytest.mark.parametrize("build, c, dims, dim", EDGE_KERNELS.values(), ids=EDGE_KERNELS.keys())
def test_reversed_elimination_matches_the_oracle_at_the_edges(csq, build, c, dims, dim):
    module = build(csq)
    comp = lift_component(csq, module, c)
    assert (comp.block_dims, comp.dim) == (dims, dim)
    assert comp == all_rows_lift_component(csq, module, c)


def test_a_lift_component_eliminates_once(csq, monkeypatch):
    calls = {"rref": 0, "row_space_basis": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    module = FiltrationModule(csq, generic_plane_description(4))
    c = (0, 1, 0, 1)
    expected = lift_component(csq, module, c)  # fills the description's memos
    monkeypatch.setattr(linalg, "rref", counted("rref", linalg.rref))
    monkeypatch.setattr(lifting, "row_space_basis",
                        counted("row_space_basis", linalg.row_space_basis), raising=False)
    comp = lift_component(csq, module, c)
    assert comp == expected and comp.dim == 1 and sum(comp.block_dims) == 7
    assert calls == {"rref": 0, "row_space_basis": 0}


def test_a_sweep_reads_each_degree_once_and_transports_through_hooks(monkeypatch):
    # the sweep-square module of the benchmark at seed 1: over each ray of the
    # square a generic line from level -1 and the whole plane from level 1
    lines = [[1, 2], [2, -1], [1, -3], [3, 1]]
    random.Random(1).shuffle(lines)
    desc = ReflexiveDescription(2, [
        (i, ray_filtration([(-1, [line]), (1, [[1, 0], [0, 1]])], 2))
        for i, line in enumerate(lines)])
    cone = Cone(3, CONE_OVER_SQUARE.rays)  # a fresh cone: nothing memoized
    module = FiltrationModule(cone, desc)
    reads, actions = [], []
    int_vector, action = coxlift.lattice.int_vector, GradedModule.action

    def read(values):
        reads.append(values)
        return int_vector(values)

    def transport(self, m, m_prime):
        actions.append((m, m_prime))
        return action(self, m, m_prime)

    for name, namespace in list(sys.modules.items()):
        if name.startswith("coxlift") and getattr(namespace, "int_vector", None) is int_vector:
            monkeypatch.setattr(namespace, "int_vector", read)
    monkeypatch.setattr(GradedModule, "action", transport)
    table = lift_table(cone, module, Box((-1,) * 4, (2,) * 4))
    assert len(table.components) == 256 and sum(comp.dim for comp in table.components.values())
    # the box's two corners and each of the 256 degrees, read once
    assert len(reads) <= 400 and actions == []


# each returned a matrix, or failed inside the change of basis, for a
# transport that goes downward
DOWNWARD_ACTS = {
    "shifted rule": lambda C: ShiftedCoxRule(4, (0,) * 4).act((1, 1, 1, 1), (0, 0, 0, 0)),
    "spike rule": lambda C: SpikeRule(4, (0,) * 4).act((1, 1, 1, 1), (0, 0, 0, 0)),
    "sum rule": lambda C: DirectSumRule((ShiftedCoxRule(4, (0,) * 4),)).act(
        (1, 1, 1, 1), (0, 0, 0, 0)),
    "reflexive description": lambda C: random_reflexive_description(C, random.Random(3)).act(
        (3, 3, 3, 3), (0, 0, 0, 0)),
    "one entry above": lambda C: generic_plane_description(4).act(
        (0, 0, 0, 0), (1, 1, -1, 1)),
    "lift table": lambda C: lift_table(C, simple_module(C), Box((0,) * 4, (1,) * 4)).act(
        (1, 0, 0, 0), (0, 1, 0, 0)),
}


@pytest.mark.parametrize("call", DOWNWARD_ACTS.values(), ids=DOWNWARD_ACTS.keys())
def test_a_cox_rule_rejects_a_transport_that_goes_downward(csq, call):
    with pytest.raises(ValueError, match=r"\(.*\) is not below \(.*\) componentwise"):
        call(csq)

