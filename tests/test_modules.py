import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from coxlift.cones import (
    Cone,
    leq_sigma,
    minimal_common_upper_bounds,
    minimal_elements,
    truncation_points,
)
from coxlift.derived import (
    FinitePosetDiagram,
    certification_bound,
    connecting_cokernel,
    ideal_sequence,
    order_complex_cohomology,
    roos_limits,
    truncated_lift_oracle,
)
from coxlift.fans import FanData, class_group
from coxlift.instances import (
    CONE_OVER_SQUARE,
    ORTHANT2,
    TEST_CONES,
    all_variant_modules,
    generic_plane_description,
    random_reflexive_description,
)
from coxlift.klyachko import filtration_lift_component
from coxlift.lattice import (
    LatticeQuotient,
    int_matrix,
    int_vector,
    reduce_by_sublattice,
)
from coxlift.lifting import (
    Box,
    counit_matrix,
    lift_action,
    lift_component,
    lift_morphism,
    lift_table,
    unit_map,
)
from coxlift.linalg import Mat, is_injective, matrix_in_basis
from coxlift.modules import (
    DirectSumModule,
    DirectSumRule,
    FiltrationModule,
    FiltrationStep,
    FinitelyPresentedModule,
    GradedMorphism,
    IndicatorConstraint,
    IndicatorModule,
    RayFiltration,
    ReflexiveDescription,
    Relation,
    SheafifiedModule,
    ShiftModule,
    ShiftedCoxRule,
    SpikeRule,
    codivisorial_module,
    full_at,
    identity_morphism,
    intersect_ray_spaces,
    maximal_ideal_module,
    morphism,
    ray_filtration,
    simple_module,
    structure_module,
    validate_indicator_style,
)

from cone_oracles import box_minimal_oracle


def sigma_points(cone, radius=2):
    pts = []
    for m in product(range(-radius, radius + 1), repeat=cone.lattice_rank):
        if all(v >= 0 for v in cone.evaluate(m)):
            pts.append(m)
    return pts


def test_simple_module_components(csq):
    K = simple_module(csq)
    assert K.component((0, 0, 0)) == 1
    for m in [(1, 0, 1), (0, 1, 0), (-1, 0, 0)]:
        assert K.component(m) == 0


def test_ideal_components(csq):
    mm = maximal_ideal_module(csq)
    assert mm.component((1, 0, 1)) == 1
    assert mm.component((1, -1, 2)) == 0
    assert mm.component((0, 0, 0)) == 0


def test_indicator_action_rules(csq):
    cod = codivisorial_module(csq, (0, 0, 0, 0), (1, 3))
    # leaving the support gives the zero map
    src, tgt = (0, 0, 0), (0, 1, 0)
    mat = cod.action(src, tgt)
    assert (mat.nrows, mat.ncols) == (0, 1)
    mm = maximal_ideal_module(csq)
    assert mm.action((1, 0, 1), (1, 1, 1)).rows == [[1]]
    with pytest.raises(ValueError):
        mm.action((1, 1, 1), (0, 0, 0))


def test_indicator_style_validation(csq, orthant):
    validate_indicator_style(simple_module(csq))
    validate_indicator_style(maximal_ideal_module(csq))
    validate_indicator_style(codivisorial_module(csq, (0, 0, 0, 0), (1, 3)))
    bad = IndicatorModule(orthant, "submodule",
                          (IndicatorConstraint(0, "<=", 0),))
    with pytest.raises(ValueError):
        validate_indicator_style(bad)


def test_indicator_constraint_rejects_unknown_op():
    with pytest.raises(ValueError):
        IndicatorConstraint(0, "<", 0)


# the projective plane, whose class group the lattice reading cases project into
P2 = FanData(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))

NON_INTEGERS = {
    "fp generator": lambda C: FinitelyPresentedModule(C, [(0.5, 0, 0)]),
    "fp relation degree": lambda C: FinitelyPresentedModule(
        C, [(0, 0, 0)], [Relation((0.5, 0, 0), (Fraction(1),))]),
    "indicator exclude": lambda C: IndicatorModule(
        C, "quotient", (), ((0.5, 0, 0),)),
    "constraint bound": lambda C: IndicatorConstraint(0, "<=", 0.9),
    "constraint ray": lambda C: IndicatorConstraint(1.0, ">=", 0),
    "constraint bool ray": lambda C: IndicatorConstraint(True, ">=", 0),
    "codivisorial degree": lambda C: codivisorial_module(C, (0.5, 0, 0, 0), (1,)),
    "shift": lambda C: ShiftModule(simple_module(C), (0.5, 0, 0)),
    "box": lambda C: Box((0.5,), (1.7,)),
    "filtration level": lambda C: ray_filtration([(0.5, [[1]])], 1),
    # each level is read before the levels are sorted
    "filtration level, sorted": lambda C: ray_filtration([("a", [[1]]), (1, [[1]])], 1),
    "cone rank": lambda C: Cone(3.0, C.rays),
    "fan rank": lambda C: FanData(2.0, ((1, 0), (0, 1)), ((0, 1),)),
    "shifted rule": lambda C: ShiftedCoxRule(4, (0.5, 0, 0, 0)),
    "spike rule": lambda C: SpikeRule(4, (0, 0, "1", 0)),
    "ray matrix": lambda C: int_matrix([[1, 0.0]]),
}


@pytest.mark.parametrize("build", NON_INTEGERS.values(), ids=NON_INTEGERS.keys())
def test_constructors_reject_non_integers(csq, build):
    with pytest.raises(ValueError):
        build(csq)


# a number or a string where a sequence is read
NON_SEQUENCES = {
    "fp generator": lambda C: FinitelyPresentedModule(C, [5]),
    "fp relation degree": lambda C: FinitelyPresentedModule(
        C, [(0, 0, 0)], [Relation(5, (1,))]),
    "fp relation coefficients": lambda C: FinitelyPresentedModule(
        C, [(0, 0, 0)], [Relation((0, 0, 0), 5)]),
    # not read digit by digit as the coefficients (1, 2)
    "fp relation coefficient text": lambda C: FinitelyPresentedModule(
        C, [(0, 0, 0), (1, 0, 0)], [Relation((1, 0, 1), "12")]),
    "indicator exclude": lambda C: IndicatorModule(C, "submodule", (), (5,)),
    "lift degree": lambda C: lift_component(C, simple_module(C), 5),
    # the outer sequences, read at each checked door
    "fp generators": lambda C: FinitelyPresentedModule(C, 5),
    "fp relations": lambda C: FinitelyPresentedModule(C, [(0, 0, 0)], 5),
    "indicator constraints": lambda C: IndicatorModule(C, "submodule", 5),
    "indicator excluded points": lambda C: IndicatorModule(C, "submodule", (), 5),
    "module sum parts": lambda C: DirectSumModule(5),
    "matrix rows": lambda C: Mat.from_rows(5),
    "matrix row": lambda C: Mat.from_rows([5]),
    "diagram elements": lambda C: FinitePosetDiagram.from_maps(5, [], [], {}),
    "diagram pairs": lambda C: FinitePosetDiagram.from_maps(["a"], 5, [1], {}),
    "diagram points": lambda C: FinitePosetDiagram.from_module(C, simple_module(C), 5),
    # each outer sequence a JSON loader hands over unread
    "cone rays": lambda C: Cone(3, 5),
    "filtration jumps": lambda C: ray_filtration(5, 2),
    "filtration basis": lambda C: ray_filtration([(0, 5)], 2),
    "fan maximal cones": lambda C: FanData(3, C.rays, 5),
    "fan maximal cone": lambda C: FanData(3, C.rays, (5,)),
    "codivisorial rays": lambda C: codivisorial_module(C, (0, 0, 0, 0), 5),
    "diagram pair": lambda C: FinitePosetDiagram.from_maps(["a"], [5], [1], {}),
    # a mapping iterates over its keys, so an empty one was read as empty
    "indicator constraints mapping": lambda C: IndicatorModule(C, "submodule", {}),
    "indicator excluded points mapping": lambda C: IndicatorModule(C, "submodule", (), {}),
    "fp generators mapping": lambda C: FinitelyPresentedModule(C, {}),
    "matrix rows mapping": lambda C: Mat.from_rows({}, 2),
    "filtration basis mapping": lambda C: ray_filtration([(0, {})], 2),
    "diagram pairs mapping": lambda C: FinitePosetDiagram.from_maps(["a"], {}, [1], {}),
    "point mapping": lambda C: structure_module(C).component({}),
    "quotient projection": lambda C: class_group(P2).project(5),
    "lattice membership vector": lambda C: C.smith.preimage(5),
    "sublattice generators": lambda C: reduce_by_sublattice(2, 5),
    "description filtrations": lambda C: ReflexiveDescription(2, 5),
    "description filtration steps": lambda C: ReflexiveDescription(1, [(0, RayFiltration(5))]),
    "matrix vector": lambda C: Mat.identity(2).vec(5),
    "quotient free rows": lambda C: LatticeQuotient(2, 5, ()),
}


@pytest.mark.parametrize("build", NON_SEQUENCES.values(), ids=NON_SEQUENCES.keys())
def test_a_non_sequence_is_a_value_error_naming_it(csq, build):
    with pytest.raises(ValueError, match=r"^expected a sequence, got (5|'12'|\{\})$"):
        build(csq)


# every public degree argument; each call is valid once the float is truncated
NON_INTEGER_DEGREES = {
    "minimal_elements": lambda C: minimal_elements(C, (1.9, 0, 0, 0)),
    "lift_component": lambda C: lift_component(C, maximal_ideal_module(C), (0.7, 0, 0, 0)),
    "lift_action": lambda C: lift_action(C, simple_module(C), (0, 0, 0, 0), (0, 0, 0, 0.5)),
    "lift_morphism": lambda C: lift_morphism(
        C, identity_morphism(simple_module(C)), (0.5, 0, 0, 0)),
    "counit_matrix": lambda C: counit_matrix(C, simple_module(C), (0.5, 0, 0)),
    "unit_map": lambda C: unit_map(C, ShiftedCoxRule(4, (0, 0, 0, 0)), (0.5, 0, 0, 0)),
    "component": lambda C: simple_module(C).component((0.5, 0, 0)),
    # a point the cone has not memoized yet
    "cone evaluate": lambda C: C.evaluate((0.5, 0, 0)),
    "leq_sigma": lambda C: leq_sigma(C, (0.5, 0, 0), (1, 0, 0)),
    # a point the cone has memoized: 1.0 and True hash and compare equal to 1
    "cone evaluate, memoized": lambda C: (C.evaluate((1, 0, 0)), C.evaluate((1.0, 0, 0))),
    "cone evaluate, memoized boolean": lambda C: (
        C.evaluate((1, 0, 0)), C.evaluate((True, 0, 0))),
    "leq_sigma, memoized": lambda C: (
        C.evaluate((1, 0, 0)), leq_sigma(C, (0, 0, 0), (1.0, 0, 0))),
    "action": lambda C: structure_module(C).action((0, 0, 0), (0, 0, 1.5)),
    "in_support": lambda C: simple_module(C).in_support((0.5, 0, 0)),
    "filtration subspace": lambda C: FiltrationModule(
        C, random_reflexive_description(C, random.Random(1))).subspace((0.5, 0, 0)),
    "filtration lift": lambda C: filtration_lift_component(
        random_reflexive_description(C, random.Random(1)), (0.5, 0, 0, 0)),
    "fan max cone": lambda C: FanData(2, ((1, 0), (0, 1)), ((0, 1.0),)),
    "truncated oracle": lambda C: truncated_lift_oracle(C, simple_module(C), (0.5, 0, 0, 0), 2),
    "truncated oracle bound": lambda C: truncated_lift_oracle(
        C, simple_module(C), (0, 0, 0, 0), 2.0),
    "truncated oracle imax": lambda C: truncated_lift_oracle(
        C, simple_module(C), (0, 0, 0, 0), 2, imax=0.5),
    "truncated oracle imax bool": lambda C: truncated_lift_oracle(
        C, simple_module(C), (0, 0, 0, 0), 2, imax=True),
    "roos imax": lambda C: roos_limits(FinitePosetDiagram.from_maps(["a"], [], [1], {}), 0.5),
    "roos imax bool": lambda C: roos_limits(
        FinitePosetDiagram.from_maps(["a"], [], [1], {}), True),
    "order complex imax": lambda C: order_complex_cohomology(
        FinitePosetDiagram.from_maps(["a"], [], [1], {}), 1.0),
    "order complex imax bool": lambda C: order_complex_cohomology(
        FinitePosetDiagram.from_maps(["a"], [], [1], {}), True),
    "description step level": lambda C: ReflexiveDescription(
        1, [(0, RayFiltration((FiltrationStep(0.5, ((1,),)),)))]),
    "truncation points": lambda C: truncation_points(C, (0.5, 0, 0, 0), 2),
    "truncation bound": lambda C: truncation_points(C, (0, 0, 0, 0), 2.5),
    "connecting cokernel": lambda C: connecting_cokernel(C, ideal_sequence(C), (0.5, 0, 0, 0)),
    "diagram points": lambda C: FinitePosetDiagram.from_module(
        C, simple_module(C), [(0.5, 0, 0)]),
    "lattice membership": lambda C: C.smith.preimage((0.5, 0, 0, 0)),
    "sublattice generators": lambda C: reduce_by_sublattice(2, [(1.0, 0)]),
    "box oracle": lambda C: box_minimal_oracle(C, (0.5, 0, 0, 0), 1),
    "morphism matrix": lambda C: identity_morphism(simple_module(C)).matrix((0.5, 0, 0)),
    "table component": lambda C: lift_table(
        C, simple_module(C), Box((0,) * 4, (0,) * 4)).component((0.0, 0, 0, 0)),
    # the public methods read their degrees before any memo is consulted;
    # "memoized" calls first fill the memo at the integer value
    "rule act": lambda C: ShiftedCoxRule(4, (0,) * 4).act((0, 0, 0, 0), (1.0, 1, 1, 1)),
    "description act": lambda C: random_reflexive_description(C, random.Random(1)).act(
        (0.5, 0, 0, 0), (1, 0, 0, 0)),
    "description act, memoized": lambda C: (
        desc := random_reflexive_description(C, random.Random(1)),
        desc.act((0, 0, 0, 0), (1, 0, 0, 0)), desc.act((0, 0, 0, 0), (1.0, 0, 0, 0))),
    "description space": lambda C: random_reflexive_description(C, random.Random(1)).space(
        (0, 0, 0.5, 0)),
    "description space, memoized": lambda C: (
        desc := random_reflexive_description(C, random.Random(1)),
        desc.space((1, 0, 0, 0)), desc.space((True, 0, 0, 0))),
    "in_support, memoized": lambda C: (
        C.evaluate((1, 0, 0)), simple_module(C).in_support((1.0, 0, 0))),
    "sheafified table component": lambda C: SheafifiedModule(C, lift_table(
        C, simple_module(C), Box((0,) * 4, (0,) * 4))).component((0.5, 0, 0)),
    "sheafified table component, memoized": lambda C: (
        shf := SheafifiedModule(C, lift_table(C, simple_module(C), Box((0,) * 4, (0,) * 4))),
        shf.component((0, 0, 0)), shf.component((0.0, 0, 0))),
    "sheafified table action, memoized": lambda C: (
        shf := SheafifiedModule(C, lift_table(C, simple_module(C), Box((0,) * 4, (0,) * 4))),
        shf.action((0, 0, 0), (0, 0, 0)), shf.action((0, 0, 0), (False, 0, 0))),
    # the lattice entry points read every argument, ranks and vectors alike
    "quotient projection": lambda C: class_group(P2).project((1.0, 0, 0)),
    "sublattice ambient rank": lambda C: reduce_by_sublattice(2.0, []),
    "sublattice ambient rank bool": lambda C: reduce_by_sublattice(True, []),
    "filtration ambient": lambda C: ray_filtration([(0, [[1, 0]])], 2.0),
    "quotient ambient rank": lambda C: LatticeQuotient(2.0, (), ()),
    "quotient modulus": lambda C: LatticeQuotient(2, (), (((0, 1), 2.0),)),
    "quotient free row": lambda C: LatticeQuotient(2, ((1, 0.5),), ()),
}


@pytest.mark.parametrize("call", NON_INTEGER_DEGREES.values(), ids=NON_INTEGER_DEGREES.keys())
def test_degree_arguments_reject_non_integers(csq, call):
    with pytest.raises(ValueError, match="expected an integer"):
        call(csq)


# each rational is read exactly: a float would be stored as its binary
# value (0.1 as 3602879701896397/36028797018963968) and a boolean as 0 or 1
INEXACT_RATIONALS = {
    "relation float": lambda C: FinitelyPresentedModule(
        C, [(0, 0, 0)], [Relation((0, 0, 0), (0.1,))]),
    "relation bool": lambda C: FinitelyPresentedModule(
        C, [(0, 0, 0)], [Relation((0, 0, 0), (True,))]),
    "matrix float": lambda C: Mat.from_rows([[1, 0.5]]),
    "matrix bool": lambda C: Mat.from_rows([[False]]),
    "filtration basis": lambda C: ray_filtration([(0, [[0.1, 1]])], 2),
    "description basis": lambda C: ReflexiveDescription(
        1, ((0, RayFiltration((FiltrationStep(0, ((0.5,),)),))),)),
}


@pytest.mark.parametrize("build", INEXACT_RATIONALS.values(), ids=INEXACT_RATIONALS.keys())
def test_rational_inputs_reject_floats_and_booleans(csq, build):
    with pytest.raises(ValueError, match="exact rational|booleans"):
        build(csq)


def test_codivisorial_module_names_a_ray_index_out_of_range(csq):
    for ray in (4, -1):
        with pytest.raises(ValueError, match=f"ray index {ray} is outside 0..3"):
            codivisorial_module(csq, (0, 0, 0, 0), (ray,))


def test_degree_arguments_must_have_one_entry_per_ray(csq):
    with pytest.raises(ValueError):
        SpikeRule(4, (1, 0))
    with pytest.raises(ValueError):
        codivisorial_module(csq, (0, 0), (1,))


# arguments of a wrong count, length, shape, type or cone and indices out of
# range, each rejected before it is read, and integer matrices with no
# integer inverse
WRONG_SHAPES = {
    "relation coefficient count": (lambda C: FinitelyPresentedModule(
        C, [(0, 0, 0)], [Relation((0, 0, 0), (1, 1))]),
        "relation coefficient count differs from generators"),
    # each constructed, and failed at the first component with a generic message
    "generator length": (lambda C: FinitelyPresentedModule(C, [(0, 0)]),
                         r"generator \(0, 0\) has length 2, not the lattice rank 3"),
    "zero relation degree length": (lambda C: FinitelyPresentedModule(
        C, [(0, 0, 0)], [Relation((0, 0, 0, 0), (0,))]),
        r"relation degree \(0, 0, 0, 0\) has length 4, not the lattice rank 3"),
    "module degree": (lambda C: structure_module(C).component((0, 0)),
                      r"point \(0, 0\) has length 2, not the lattice rank 3"),
    "module shift length": (lambda C: ShiftModule(simple_module(C), (0, 0)),
                            r"shift \(0, 0\) has length 2, not the lattice rank 3"),
    "empty module sum": (lambda C: DirectSumModule(()), "empty direct sum"),
    "module sum over two cones": (lambda C: DirectSumModule(
        (simple_module(C), simple_module(ORTHANT2))), "parts live on different cones"),
    "morphism over two cones": (lambda C: GradedMorphism(
        simple_module(C), simple_module(ORTHANT2), lambda m: Mat.identity(1)),
        "endpoints live on different cones"),
    "morphism matrix shape": (lambda C: GradedMorphism(
        simple_module(C), simple_module(C), lambda m: Mat.identity(2)).matrix((0, 0, 0)),
        r"at \(0, 0, 0\) has shape \(2, 2\), expected \(1, 1\)"),
    "quotient projection length": (lambda C: reduce_by_sublattice(2, [(1, 0)]).project(
        (1, 0, 0)), "vector length differs from ambient rank"),
    "matrix vector length": (lambda C: Mat.identity(2).vec([1]),
                             "vector length differs from column count"),
    "box corner lengths": (lambda C: Box((0, 0), (1,)),
                           r"box corners \(0, 0\) and \(1,\) have lengths 2 and 1"),
    # a relation pair and a map key are read by one rule
    "diagram pair float": (lambda C: FinitePosetDiagram.from_maps(
        ["a", "b"], [(0, 1.0)], [1, 1], {(0, 1): Mat.identity(1)}),
        "expected an integer, got 1.0"),
    "diagram map key index": (lambda C: FinitePosetDiagram.from_maps(
        ["a", "b"], [(0, 1)], [1, 1], {(-1, 1): Mat.identity(1)}),
        r"map key -1 is outside 0..1"),
    "diagram map key float": (lambda C: FinitePosetDiagram.from_maps(
        ["a", "b"], [(0, 1)], [1, 1], {(0.0, 1): Mat.identity(1)}),
        "expected an integer, got 0.0"),
    # the maps are a mapping of index pairs to matrices
    "diagram maps number": (lambda C: FinitePosetDiagram.from_maps(["a"], [], [1], 5),
                            "maps must map index pairs to matrices, got 5"),
    "diagram map rows": (lambda C: FinitePosetDiagram.from_maps(
        ["a", "b"], [(0, 1)], [1, 1], {(0, 1): [[1]]}),
        re.escape("map a->b is not a Mat: [[1]]")),
    # every index is read by ``lattice.index_in``: a plain integer in 0..n-1
    "constraint ray": (lambda C: IndicatorModule(
        C, "quotient", (IndicatorConstraint(9, "<=", 0),)), "constraint ray 9 is outside 0..3"),
    "codivisorial ray": (lambda C: codivisorial_module(C, (0, 0, 0, 0), (True,)),
                         "expected an integer, got True"),
    "fan ray": (lambda C: FanData(3, C.rays, ((0, 1, 2, 4),)), "ray index 4 is outside 0..3"),
    "fan ray float": (lambda C: FanData(3, C.rays, ((0, 1, 2, 3.0),)),
                      "expected an integer, got 3.0"),
    "diagram pair length": (lambda C: FinitePosetDiagram.from_maps(
        ["a", "b"], [(0, 1, 1)], [1, 1], {}), r"relation pair \(0, 1, 1\) is not a pair"),
    "diagram map key": (lambda C: FinitePosetDiagram.from_maps(
        ["a", "b"], [(0, 1)], [1, 1], {(0, 2): Mat.identity(1)}), "map key 2 is outside 0..1"),
    # a quotient of negative rank could project no vector; a string of the
    # ambient length is still no vector
    "sublattice ambient rank negative": (lambda C: reduce_by_sublattice(-1, []),
                                         "ambient rank must be nonnegative, got -1"),
    "quotient projection text": (lambda C: class_group(P2).project("abc"),
                                 "expected a sequence, got 'abc'"),
}
# every public entry that reads a lattice point or a Cox degree names a wrong
# length through the one template, "{what} {v} has length {k}, not {unit} {n}"
WRONG_SHAPES.update({
    name: (call, re.escape(f"{what} {v} has length {len(v)}, not {unit}"))
    for name, call, what, v, unit in [
        ("ray", lambda C: Cone(3, ((0, 1), (1, 0))), "ray", (0, 1), "the lattice rank 3"),
        ("cone evaluate", lambda C: C.evaluate((0, 0)), "point", (0, 0), "the lattice rank 3"),
        ("leq_sigma", lambda C: leq_sigma(C, (0, 0, 0), (0, 0, 0, 0)),
         "point", (0, 0, 0, 0), "the lattice rank 3"),
        ("minimal elements", lambda C: minimal_elements(C, (0, 0, 0)),
         "degree", (0, 0, 0), "the ray count 4"),
        ("minimal upper bounds", lambda C: minimal_common_upper_bounds(C, (0, 0), (0, 0, 0)),
         "point", (0, 0), "the lattice rank 3"),
        ("truncation points", lambda C: truncation_points(C, (0,), 1),
         "degree", (0,), "the ray count 4"),
        ("module action source", lambda C: structure_module(C).action((0, 0), (0, 0, 0)),
         "point", (0, 0), "the lattice rank 3"),
        ("module action target", lambda C: structure_module(C).action((0, 0, 0), (0, 0)),
         "point", (0, 0), "the lattice rank 3"),
        ("in_support", lambda C: simple_module(C).in_support((0, 0, 0, 0)),
         "point", (0, 0, 0, 0), "the lattice rank 3"),
        ("excluded point", lambda C: IndicatorModule(C, "submodule", (), ((0, 0),)),
         "excluded point", (0, 0), "the lattice rank 3"),
        ("codivisorial degree", lambda C: codivisorial_module(C, (0, 0, 0), (1,)),
         "degree", (0, 0, 0), "the ray count 4"),
        ("filtration subspace", lambda C: FiltrationModule(
            C, generic_plane_description(4)).subspace((0, 0)),
         "point", (0, 0), "the lattice rank 3"),
        ("morphism matrix point", lambda C: identity_morphism(simple_module(C)).matrix((0, 0)),
         "point", (0, 0), "the lattice rank 3"),
        ("rule dim", lambda C: ShiftedCoxRule(4, (0,) * 4).dim((0,)), "degree", (0,),
         "the ray count 4"),
        ("rule act", lambda C: ShiftedCoxRule(4, (0,) * 4).act((0,) * 4, (1, 1, 1)),
         "degree", (1, 1, 1), "the ray count 4"),
        ("spike degree", lambda C: SpikeRule(4, (0, 0)), "degree", (0, 0), "the ray count 4"),
        ("description space", lambda C: generic_plane_description(4).space((0, 0)),
         "degree", (0, 0), "the ray count 4"),
        ("filtration lift", lambda C: filtration_lift_component(
            generic_plane_description(4), (0,)), "degree", (0,), "the ray count 4"),
        ("lift component", lambda C: lift_component(C, simple_module(C), (0, 0, 0)),
         "degree", (0, 0, 0), "the ray count 4"),
        ("lift action source", lambda C: lift_action(C, simple_module(C), (0,), (0,) * 4),
         "degree", (0,), "the ray count 4"),
        ("lift action target", lambda C: lift_action(C, simple_module(C), (0,) * 4, (0,) * 5),
         "degree", (0,) * 5, "the ray count 4"),
        ("lift morphism", lambda C: lift_morphism(C, identity_morphism(simple_module(C)), (0,)),
         "degree", (0,), "the ray count 4"),
        ("counit point", lambda C: counit_matrix(C, simple_module(C), (0, 0)),
         "point", (0, 0), "the lattice rank 3"),
        ("unit degree", lambda C: unit_map(C, ShiftedCoxRule(4, (0,) * 4), (0, 0)),
         "degree", (0, 0), "the ray count 4"),
        ("certification bound", lambda C: certification_bound(C, (0, 0)),
         "degree", (0, 0), "the ray count 4"),
        ("truncated oracle", lambda C: truncated_lift_oracle(C, simple_module(C), (0,), 2),
         "degree", (0,), "the ray count 4"),
        ("connecting cokernel", lambda C: connecting_cokernel(C, ideal_sequence(C), (0, 0)),
         "degree", (0, 0), "the ray count 4"),
        ("table component", lambda C: lift_table(
            C, simple_module(C), Box((0,) * 4, (0,) * 4)).component((0,)),
         "degree", (0,), "the ray count 4"),
        ("diagram points", lambda C: FinitePosetDiagram.from_module(
            C, simple_module(C), [(0, 0, 0), (0, 0)]), "point", (0, 0), "the lattice rank 3"),
    ]})


# the filtration and quotient doors read their structure: entries are
# pairs, a filtration is a ``RayFiltration``, vectors have the ambient
# length, moduli are at least 2
WRONG_SHAPES.update({
    "description filtration": (lambda C: ReflexiveDescription(2, ((0, 5),)),
                               "ray 0: 5 is not a RayFiltration"),
    "description entry": (lambda C: ReflexiveDescription(2, ((0,),)),
                          r"filtration entry \(0,\) is not a pair"),
    "description ambient negative": (lambda C: ReflexiveDescription(-1, ()),
                                     "ambient dimension must be nonnegative, got -1"),
    "filtration jump": (lambda C: ray_filtration([(0,)], 2),
                        r"filtration jump \(0,\) is not a pair"),
    "filtration ambient negative": (lambda C: ray_filtration([(0, [[1, 0]])], -1),
                                    "ambient dimension must be nonnegative, got -1"),
    "filtration basis length": (lambda C: ray_filtration([(0, [[1, 0, 0]])], 2),
                                r"vector \(1, 0, 0\) has length 3, the ambient dimension is 2"),
    "quotient zero modulus": (lambda C: LatticeQuotient(2, ((1, 0),), (((0, 1), 0),)),
                              "torsion modulus 0 is below 2"),
    "quotient unit modulus": (lambda C: LatticeQuotient(2, (), (((0, 1), 1),)),
                              "torsion modulus 1 is below 2"),
    "quotient ambient rank negative": (lambda C: LatticeQuotient(-1, (), ()),
                                       "ambient rank must be nonnegative, got -1"),
    "quotient row length": (lambda C: LatticeQuotient(2, ((1, 0, 0),), ()),
                            r"row \(1, 0, 0\) has length 3, the ambient rank is 2"),
    "quotient torsion row length": (lambda C: LatticeQuotient(2, (), (((1,), 3),)),
                                    r"row \(1,\) has length 1, the ambient rank is 2"),
    "quotient torsion entry": (lambda C: LatticeQuotient(2, (), (((0, 1),),)),
                               r"torsion entry \(\(0, 1\),\) is not a pair"),
})


@pytest.mark.parametrize("call, message", WRONG_SHAPES.values(), ids=WRONG_SHAPES.keys())
def test_arguments_of_a_wrong_count_or_length_are_rejected(csq, call, message):
    with pytest.raises(ValueError, match=message):
        call(csq)


def test_a_transport_reads_each_point_once(monkeypatch):
    import coxlift.cones

    cone = Cone(3, CONE_OVER_SQUARE.rays)  # a fresh cone: nothing memoized
    module = FiltrationModule(cone, random_reflexive_description(cone, random.Random(4)))
    m, u = (0, 0, 0), (1, 1, 1)
    reads = []

    def counted(values):
        values = tuple(values)
        reads.append(values)
        return int_vector(values)

    # the one reader of points and degrees, ``cones._fixed_length``, reads here
    monkeypatch.setattr(coxlift.cones, "int_vector", counted)
    module.action(m, u)
    assert reads.count(m) <= 1 and reads.count(u) <= 1
    assert len(reads) == 2


def test_indicator_exclude_points_must_have_the_lattice_rank(csq):
    with pytest.raises(ValueError, match="lattice rank"):
        IndicatorModule(csq, "submodule", (), ((0, 0),))
    with pytest.raises(ValueError, match="lattice rank"):
        IndicatorModule(csq, "submodule", (), ((0, 0, 0, 0),))


def test_fp_no_relations_counts_generators(csq):
    gens = ((0, 0, 0), (1, 0, 1), (-1, 0, 0))
    mod = FinitelyPresentedModule(csq, gens)
    for m in [(0, 0, 0), (1, 0, 1), (2, 1, 1), (-1, 0, 0)]:
        want = sum(1 for g in gens if leq_sigma(csq, g, m))
        assert mod.component(m) == want


def test_fp_relation_validity(csq):
    gens = ((0, 0, 0), (2, 2, 2))
    with pytest.raises(ValueError):
        FinitelyPresentedModule(
            csq, gens,
            (Relation((1, 1, 1), (Fraction(1), Fraction(1))),))


def test_fp_quotient_dims(csq):
    # two generators identified above their join
    gens = ((0, 0, 0), (1, 0, 1))
    rel = Relation((1, 0, 1), (Fraction(1), Fraction(-1)))
    mod = FinitelyPresentedModule(csq, gens, (rel,))
    assert mod.component((0, 0, 0)) == 1
    assert mod.component((1, 0, 1)) == 1
    assert mod.component((2, 1, 1)) == 1


def test_filtration_component_and_action(csq):
    f0 = ray_filtration([(0, [[1, 0]]), (1, [[1, 0], [0, 1]])], 2)
    mod = FiltrationModule(csq, ReflexiveDescription(2, (
        (0, f0), (1, full_at(0, 2)), (2, full_at(0, 2)), (3, full_at(0, 2)))))
    assert mod.component((0, 0, 0)) == 1
    assert mod.component((1, 0, 1)) == 2
    assert mod.component((0, -1, 0)) == 0
    mat = mod.action((0, 0, 0), (1, 0, 1))
    assert (mat.nrows, mat.ncols) == (2, 1)
    assert is_injective(mat)


def test_filtration_all_full(csq):
    mod = FiltrationModule(
        csq, ReflexiveDescription(3, tuple((i, full_at(0, 3)) for i in range(4))))
    for m in sigma_points(csq, 2):
        assert mod.component(m) == 3


def test_filtration_validation(csq):
    not_full = ray_filtration([(0, [[1, 0]])], 2)
    with pytest.raises(ValueError):
        FiltrationModule(csq, ReflexiveDescription(2, tuple(
            (i, not_full if i == 0 else full_at(0, 2)) for i in range(4))))
    full = full_at(0, 2).steps[0]
    unsorted = RayFiltration((full, FiltrationStep(-1, full.basis)))
    with pytest.raises(ValueError, match="levels are not increasing"):
        FiltrationModule(csq, ReflexiveDescription(2, tuple(
            (i, unsorted if i == 0 else full_at(0, 2)) for i in range(4))))
    with pytest.raises(ValueError):
        FiltrationModule(csq, ReflexiveDescription(2, ((0, full_at(0, 2)),)))


FULL2 = full_at(0, 2)
LINE2 = ray_filtration([(0, [[1, 0]])], 2)  # never fills the plane
REFLEXIVE_REJECTS = {
    "repeated ray": (2, [(0, FULL2), (0, FULL2), (1, FULL2)], "each given once"),
    "missing ray": (2, [(0, FULL2), (2, FULL2)], "each given once"),
    "negative ray": (2, [(-1, FULL2), (0, FULL2)], "each given once"),
    "string ray": (2, [("0", FULL2)], "expected an integer"),
    "empty filtration": (2, [(0, RayFiltration(()))], "empty filtration"),
    "unsorted levels": (2, [(0, RayFiltration((FULL2.steps[0],
                                               FiltrationStep(-1, FULL2.steps[0].basis))))],
                        "levels are not increasing"),
    "not nested": (2, [(0, ray_filtration([(0, [[1, 0]]), (1, [[0, 1]]),
                                          (2, [[1, 0], [0, 1]])], 2))], "not nondecreasing"),
    # ray_filtration keeps both steps at level 0; the later one used to replace the first
    "repeated level": (2, [(0, ray_filtration([(0, [[1, 0]]), (0, [[1, 0], [0, 1]])], 2))],
                       "levels are not increasing"),
    "not full": (2, [(0, FULL2), (1, LINE2)], "not full"),
    "vector length": (3, [(0, FULL2)],
                      r"vector \(1, 0\) has length 2, the ambient dimension is 3"),
    "step a number": (1, [(0, RayFiltration((5,)))], "ray 0: 5 is not a FiltrationStep"),
    # a line counted as the plane; a spanning pair read as not nested in its plane
    "dependent basis": (2, [(0, RayFiltration((FiltrationStep(0, ((1, 0), (2, 0))),)))],
                        "ray 0: the basis at level 0 is not the reduced row echelon basis"),
    "unreduced basis": (2, [(0, RayFiltration((FiltrationStep(0, ((0, 1),)),
                                               FiltrationStep(1, ((1, 1), (1, 0))))))],
                        "ray 0: the basis at level 1 is not the reduced row echelon basis"),
    "float ambient": (2.0, [(0, FULL2)], "expected an integer"),
    "bool ambient": (True, [(0, full_at(0, 1))], "expected an integer"),
}


@pytest.mark.parametrize("ambient, filtrations, message", REFLEXIVE_REJECTS.values(),
                         ids=REFLEXIVE_REJECTS.keys())
def test_reflexive_description_rejects_invalid_filtrations(ambient, filtrations, message):
    with pytest.raises(ValueError, match=message):
        ReflexiveDescription(ambient, filtrations)


def test_reflexive_description_stores_its_filtrations_by_ray():
    line_then_plane = ray_filtration([(0, [[1, 0]]), (1, [[1, 0], [0, 1]])], 2)
    desc = ReflexiveDescription(2, [(1, FULL2), (0, line_then_plane)])
    assert desc.filtrations == ((0, line_then_plane), (1, FULL2))
    assert len(filtration_lift_component(desc, (1, 0))) == 2
    assert len(filtration_lift_component(desc, (0, 1))) == 1


# each call read ray 0's plane, or ignored the fifth level, before levels were
# counted; each non-integer degree returned a dimension or an empty inclusion
WRONG_LEVEL_COUNTS = {
    "space of one level": lambda desc: desc.space((0,)),
    "space of five levels": lambda desc: desc.space((0, 0, 0, 0, 5)),
    "inclusion of one level": lambda desc: desc.act((0,), (1,)),
    "dim of one level": lambda desc: desc.dim((0,)),
    "filtration lift of three levels": lambda desc: filtration_lift_component(desc, (0, 0, 0)),
    "dim of a float level": lambda desc: desc.dim((0.5, 0, 0, 0)),
    "inclusion from a float level": lambda desc: desc.act((0.5, 0, 0, 0), (1, 0, 0, 0)),
    "space of a boolean level": lambda desc: desc.space((True, 0, 0, 0)),
    "shifted rule of a float degree": lambda desc: ShiftedCoxRule(4, (0,) * 4).dim(
        (0.5, 0, 0, 0)),
    "spike rule of a float degree": lambda desc: SpikeRule(4, (1, 0, 0, 0)).dim(
        (1.0, 0, 0, 0)),
}


@pytest.mark.parametrize("call", WRONG_LEVEL_COUNTS.values(), ids=WRONG_LEVEL_COUNTS.keys())
def test_reflexive_description_rejects_a_level_per_ray_of_another_count(call):
    with pytest.raises(ValueError, match=r"degree \([^)]*\) has length [0-9]+, not the ray count 4"
                                         "|expected an integer"):
        call(generic_plane_description(4))


def test_reflexive_description_reads_iterated_levels_once():
    # the levels are read for the step key and again for the intersection
    desc = generic_plane_description(4)
    low, high = (1, 1, 0, 0), (1, 1, 1, 0)
    fresh = generic_plane_description(4)
    assert fresh.space(iter(low)) == desc.space(low) and len(desc.space(low)) == 1
    assert fresh.act(iter(low), iter(high)) == desc.act(low, high)


def test_functoriality_on_chains(csq, rng):
    pts = sigma_points(csq, 2)
    for module in all_variant_modules(csq):
        for _ in range(20):
            m = tuple(rng.randint(-2, 2) for _ in range(3))
            s1 = rng.choice(pts)
            s2 = rng.choice(pts)
            m1 = tuple(a + b for a, b in zip(m, s1))
            m2 = tuple(a + b for a, b in zip(m1, s2))
            lhs = module.action(m1, m2).mul(module.action(m, m1))
            rhs = module.action(m, m2)
            assert lhs.rows == rhs.rows


def test_shift_module(csq):
    K = simple_module(csq)
    sh = ShiftModule(K, (1, 0, 0))
    assert sh.component((-1, 0, 0)) == 1
    assert sh.component((0, 0, 0)) == 0


def test_morphism_validation(csq):
    R = structure_module(csq)
    K = simple_module(csq)
    seq = ideal_sequence(csq)
    f = seq.project
    assert f.matrix((0, 0, 0)).rows == [[1]]
    assert f.matrix((1, 0, 1)).nrows == 0
    g = seq.include
    assert g.matrix((1, 0, 1)).rows == [[1]]
    ident = identity_morphism(R)
    assert ident.matrix((0, 0, 0)).rows == [[1]]

    # killing a single middle degree of the identity breaks naturality
    def broken(m):
        if m == (1, 0, 1):
            return Mat.zero(1, 1)
        return Mat.identity(R.component(m))

    with pytest.raises(ValueError):
        morphism(R, R, broken)


def test_morphism_naturality_sampled(csq):
    f = morphism(maximal_ideal_module(csq), structure_module(csq),
                 ideal_sequence(csq).include.matrix)
    assert f.matrix((1, 0, 1)).rows == [[1]]


def test_cached_filtration_components_and_transports_match_a_fresh_computation(rng):
    def fresh_subspace(module, m):
        values = [sum(r * x for r, x in zip(row, m)) for row in module.cone.rays]
        desc = module.description
        return intersect_ray_spaces(((rf, values[ray]) for ray, rf in desc.filtrations),
                                    desc.ambient_dim)

    for cone in TEST_CONES:
        module = FiltrationModule(cone, random_reflexive_description(cone, rng))
        pts = sigma_points(cone, 1)
        for _ in range(60):  # few distinct step keys, so most calls hit the caches
            m = tuple(rng.randint(-3, 3) for _ in range(cone.lattice_rank))
            m2 = tuple(a + b for a, b in zip(m, rng.choice(pts)))
            source, target = fresh_subspace(module, m), fresh_subspace(module, m2)
            assert module.subspace(m) == source
            assert module.component(m2) == len(target)
            assert module.action(m, m2) == matrix_in_basis(target, source)


def equal_pairs(C):
    ring = (0,) * 4
    return [
        (Cone(3, [list(r) for r in C.rays]), C),
        (IndicatorModule(C, "submodule", [IndicatorConstraint(i, ">=", 0) for i in range(4)]),
         structure_module(C)),
        (IndicatorModule(C, "quotient", (), [[0, 0, 0]]),
         IndicatorModule(C, "quotient", (), ((0, 0, 0),))),
        (FinitelyPresentedModule(C, [[0, 0, 0]], [Relation([1, 0, 1], [1])]),
         FinitelyPresentedModule(C, ((0, 0, 0),), (Relation((1, 0, 1), (Fraction(1),)),))),
        (FiltrationModule(C, ReflexiveDescription(2, [(i, full_at(0, 2)) for i in range(4)])),
         FiltrationModule(C, ReflexiveDescription(
             2, tuple((i, full_at(0, 2)) for i in (3, 2, 1, 0))))),
        (ShiftModule(simple_module(C), [1, 0, 0]), ShiftModule(simple_module(C), (1, 0, 0))),
        (DirectSumModule([simple_module(C), structure_module(C)]),
         DirectSumModule((simple_module(C), structure_module(C)))),
        (ShiftedCoxRule(4, list(ring)), ShiftedCoxRule(4, ring)),
        (SpikeRule(4, [1, 0, 0, 0]), SpikeRule(4, (1, 0, 0, 0))),
        (DirectSumRule([ShiftedCoxRule(4, ring)]), DirectSumRule((ShiftedCoxRule(4, ring),))),
        (SheafifiedModule(C, ShiftedCoxRule(4, list(ring))),
         SheafifiedModule(C, ShiftedCoxRule(4, ring))),
    ]


def test_equal_modules_hash_equal_whether_built_from_lists_or_tuples(csq):
    pairs = equal_pairs(csq)
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    firsts = [a for a, _ in pairs]
    for i, a in enumerate(firsts):
        for j, b in enumerate(firsts):
            assert (a == b) == (i == j)
    assert simple_module(csq) != maximal_ideal_module(csq)


def test_unpickled_modules_hash_like_freshly_built_ones():
    # str hashes depend on the hash seed (IndicatorModule.style is a str), so a
    # hash pickled under one seed would be wrong under another
    build = ("import pickle, sys\n"
             "from coxlift.instances import CONE_OVER_SQUARE\n"
             "from test_modules import equal_pairs\n"
             "built = [b for _, b in equal_pairs(CONE_OVER_SQUARE)]\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"),
         str(Path(__file__).resolve().parent)]))

    def run(seed, code, data=None):
        proc = subprocess.run([sys.executable, "-c", build + code], input=data,
                              env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    dump = run("1", "sys.stdout.buffer.write(pickle.dumps(built))")
    out = run("2", "got = pickle.loads(sys.stdin.buffer.read())\n"
                   "table = {b: i for i, b in enumerate(built)}\n"
                   "print([hash(g) == hash(b) and g == b and table[g] == i\n"
                   "       for i, (g, b) in enumerate(zip(got, built))])\n", dump)
    assert out.decode().strip() == str([True] * len(equal_pairs(CONE_OVER_SQUARE)))
