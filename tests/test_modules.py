import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from coxlift.cones import Cone, box_minimal_oracle, minimal_elements
from coxlift.derived import (
    FinitePosetDiagram,
    connecting_cokernel,
    ideal_sequence,
    truncated_lift_oracle,
)
from coxlift.fans import FanData, chart_section, global_reflexive_lift
from coxlift.instances import (
    CONE_OVER_SQUARE,
    TEST_CONES,
    all_variant_modules,
    random_reflexive_description,
)
from coxlift.klyachko import filtration_lift_component
from coxlift.lattice import int_matrix, lattice_membership, reduce_by_sublattice
from coxlift.lifting import (
    Box,
    DirectSumRule,
    SheafifiedModule,
    ShiftedCoxRule,
    SpikeRule,
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
    FiltrationModule,
    FiltrationStep,
    FinitelyPresentedModule,
    IndicatorConstraint,
    IndicatorModule,
    RayFiltration,
    ReflexiveDescription,
    Relation,
    ShiftModule,
    codivisorial_module,
    full_at,
    ideal_to_structure,
    identity_morphism,
    intersect_ray_spaces,
    maximal_ideal_module,
    morphism,
    ray_filtration,
    simple_module,
    structure_module,
    structure_to_simple,
    validate_indicator_style,
)


def sigma_points(cone, radius=2):
    pts = []
    for m in product(range(-radius, radius + 1), repeat=cone.lattice_rank):
        if all(v >= 0 for v in cone.evaluate(m)):
            pts.append(m)
    return pts


def test_simple_module_components(csq):
    K = simple_module(csq)
    assert K.component((0, 0, 0)).dim == 1
    for m in [(1, 0, 1), (0, 1, 0), (-1, 0, 0)]:
        assert K.component(m).dim == 0


def test_ideal_components(csq):
    mm = maximal_ideal_module(csq)
    assert mm.component((1, 0, 1)).dim == 1
    assert mm.component((1, -1, 2)).dim == 0
    assert mm.component((0, 0, 0)).dim == 0


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
    "action": lambda C: structure_module(C).action((0, 0, 0), (0, 0, 1.5)),
    "in_support": lambda C: simple_module(C).in_support((0.5, 0, 0)),
    "filtration subspace": lambda C: FiltrationModule(
        C, random_reflexive_description(C, random.Random(1))).subspace((0.5, 0, 0)),
    "filtration lift": lambda C: filtration_lift_component(
        random_reflexive_description(C, random.Random(1)), (0.5, 0, 0, 0)),
    "global reflexive lift": lambda C: global_reflexive_lift(
        FanData(3, C.rays, ((0, 1, 2, 3),)),
        random_reflexive_description(C, random.Random(1)), (0.5, 0, 0, 0)),
    "chart section": lambda C: chart_section(
        FanData(3, C.rays, ((0, 1, 2, 3),)),
        random_reflexive_description(C, random.Random(1)), 0, (0.5, 0, 0)),
    "fan max cone": lambda C: FanData(2, ((1, 0), (0, 1)), ((0, 1.0),)),
    "truncated oracle": lambda C: truncated_lift_oracle(C, simple_module(C), (0.5, 0, 0, 0), 2),
    "truncated oracle bound": lambda C: truncated_lift_oracle(
        C, simple_module(C), (0, 0, 0, 0), 2.0),
    "connecting cokernel": lambda C: connecting_cokernel(C, ideal_sequence(C), (0.5, 0, 0, 0)),
    "diagram points": lambda C: FinitePosetDiagram.from_module(
        C, simple_module(C), [(0.5, 0, 0)]),
    "diagram pairs": lambda C: FinitePosetDiagram.from_maps(
        ["a", "b"], [(0, 1.0)], [1, 1], {(0, 1): Mat.identity(1)}),
    "lattice membership": lambda C: lattice_membership(C.rays, (0.5, 0, 0, 0)),
    "sublattice generators": lambda C: reduce_by_sublattice(2, [(1.0, 0)]),
    "box oracle": lambda C: box_minimal_oracle(C, (0.5, 0, 0, 0), 1),
    "morphism matrix": lambda C: identity_morphism(simple_module(C)).matrix((0.5, 0, 0)),
    "table component": lambda C: lift_table(
        C, simple_module(C), Box((0,) * 4, (0,) * 4)).component((0.0, 0, 0, 0)),
}


@pytest.mark.parametrize("call", NON_INTEGER_DEGREES.values(), ids=NON_INTEGER_DEGREES.keys())
def test_degree_arguments_reject_non_integers(csq, call):
    with pytest.raises(ValueError, match="expected an integer"):
        call(csq)


def test_degree_arguments_must_have_one_entry_per_ray(csq):
    with pytest.raises(ValueError):
        SpikeRule(4, (1, 0))
    with pytest.raises(ValueError):
        codivisorial_module(csq, (0, 0), (1,))


def test_fp_no_relations_counts_generators(csq):
    gens = ((0, 0, 0), (1, 0, 1), (-1, 0, 0))
    mod = FinitelyPresentedModule(csq, gens)
    from coxlift.cones import leq_sigma

    for m in [(0, 0, 0), (1, 0, 1), (2, 1, 1), (-1, 0, 0)]:
        want = sum(1 for g in gens if leq_sigma(csq, g, m))
        assert mod.component(m).dim == want


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
    assert mod.component((0, 0, 0)).dim == 1
    assert mod.component((1, 0, 1)).dim == 1
    assert mod.component((2, 1, 1)).dim == 1


def test_filtration_component_and_action(csq):
    f0 = ray_filtration([(0, [[1, 0]]), (1, [[1, 0], [0, 1]])], 2)
    mod = FiltrationModule(csq, ReflexiveDescription(2, (
        (0, f0), (1, full_at(0, 2)), (2, full_at(0, 2)), (3, full_at(0, 2)))))
    assert mod.component((0, 0, 0)).dim == 1
    assert mod.component((1, 0, 1)).dim == 2
    assert mod.component((0, -1, 0)).dim == 0
    mat = mod.action((0, 0, 0), (1, 0, 1))
    assert (mat.nrows, mat.ncols) == (2, 1)
    assert is_injective(mat)


def test_filtration_all_full(csq):
    mod = FiltrationModule(
        csq, ReflexiveDescription(3, tuple((i, full_at(0, 3)) for i in range(4))))
    for m in sigma_points(csq, 2):
        assert mod.component(m).dim == 3


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
    "not full": (2, [(0, FULL2), (1, LINE2)], "not full"),
    "vector length": (3, [(0, FULL2)], "vector length"),
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
    assert sh.component((-1, 0, 0)).dim == 1
    assert sh.component((0, 0, 0)).dim == 0


def test_morphism_validation(csq):
    R = structure_module(csq)
    K = simple_module(csq)
    f = structure_to_simple(csq)
    assert f.matrix((0, 0, 0)).rows == [[1]]
    assert f.matrix((1, 0, 1)).nrows == 0
    g = ideal_to_structure(csq)
    assert g.matrix((1, 0, 1)).rows == [[1]]
    ident = identity_morphism(R)
    assert ident.matrix((0, 0, 0)).rows == [[1]]

    # killing a single middle degree of the identity breaks naturality
    def broken(m):
        if m == (1, 0, 1):
            return Mat.zero(1, 1)
        return Mat.identity(R.component(m).dim)

    with pytest.raises(ValueError):
        morphism(R, R, broken, validate_radius=2)


def test_morphism_naturality_sampled(csq):
    f = morphism(maximal_ideal_module(csq), structure_module(csq),
                 ideal_to_structure(csq).matrix, validate_radius=2)
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
            assert module.component(m2).dim == len(target)
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
