"""Named verification suites, runnable from the command line.

Each suite packages one family of assertions about concrete instances:
closed-form dimension laws on the cone over a square, adjunction round
trips, left-exactness with its failure of right-exactness, oracle
agreement for the limit engine, the filtration intersection formula,
class groups, derived limits over finite posets, and colimit ranks.

A suite returns a report listing each assertion with its expected and
actual value; any mismatch makes the report (and the CLI) fail.

These suites are the only encoding of the acceptance criteria;
``tests/test_acceptance.py`` runs each of them.  Criteria by suite:

* c01 simple-module lift law: ``klifting``;
* c02 codivisorial lift law: ``liftex``;
* c03 ideal and structure laws: ``ideal``;
* c04 left-exactness and cokernels: ``exactness``;
* c05 oracle agreement and c08 derived-limit engine: ``roos``;
* c06 filtration equivalence, c11 injective restrictions and
  c12 intersection completion: ``klyachko``;
* c07 smooth identity and round trips: ``roundtrip``;
* c09 class groups: ``classgroups``;
* c10 colimit ranks: ``colimit``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .derived import (
    FinitePosetDiagram,
    certification_bound,
    connecting_cokernel,
    equalizer_limit_dim,
    ideal_sequence,
    indicator_sequence,
    order_complex_cohomology,
    roos_limits,
    transitive_closure,
    truncated_lift_oracle,
)
from .fans import FanData, class_group
from .instances import (
    CONE_OVER_SQUARE,
    ORTHANT2,
    QUOTIENT2,
    all_variant_modules,
    codivisorial_lift_law,
    generic_plane_description,
    ideal_lift_law,
    random_module,
    random_reflexive_description,
    simple_lift_law,
    structure_lift_law,
)
from .klyachko import realized_components, verify_equivalence
from .lifting import (
    Box,
    ShiftedCoxRule,
    colimit,
    colimit_of_lift,
    counit_matrix,
    lift_component,
    lift_morphism,
    lift_table,
    unit_map,
)
from .linalg import Mat, is_injective, is_isomorphism, rank
from .modules import (
    FiltrationModule,
    codivisorial_module,
    maximal_ideal_module,
    simple_module,
    structure_module,
)


@dataclass
class Assertion:
    label: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass
class CheckReport:
    suite: str
    assertions: list[Assertion] = field(default_factory=list)

    def expect(self, label: str, expected, actual) -> None:
        self.assertions.append(Assertion(label, expected, actual))

    @property
    def ok(self) -> bool:
        return all(a.ok for a in self.assertions)

    def lines(self) -> list[str]:
        out = []
        for a in self.assertions:
            mark = "ok" if a.ok else "FAIL"
            out.append(f"{mark:4} {self.suite}: {a.label} "
                       f"expected={a.expected!r} actual={a.actual!r}")
        status = "PASS" if self.ok else "FAIL"
        out.append(f"{status} suite {self.suite} "
                   f"({sum(a.ok for a in self.assertions)}/{len(self.assertions)})")
        return out


def check_klifting() -> CheckReport:
    """Lifted simple module over [-3,3]^4 matches the closed-form law."""
    rep = CheckReport("klifting")
    K = simple_module(CONE_OVER_SQUARE)
    mismatches = []
    for c in Box((-3,) * 4, (3,) * 4).degrees():
        got = lift_component(CONE_OVER_SQUARE, K, c).dim
        if got != simple_lift_law(c):
            mismatches.append((c, got))
    rep.expect("law mismatches over 2401 degrees", [], mismatches)
    return rep


def check_liftex() -> CheckReport:
    """Codivisorial quotient: dims 1 - c1 - c3 on the degree plane (c1,0,c3,0)."""
    rep = CheckReport("liftex")
    cod = codivisorial_module(CONE_OVER_SQUARE, (0, 0, 0, 0), (1, 3))
    mismatches = []
    for c1 in range(-4, 3):
        for c3 in range(-4, 3):
            if c1 + c3 < -4:
                continue
            got = lift_component(CONE_OVER_SQUARE, cod, (c1, 0, c3, 0)).dim
            if got != codivisorial_lift_law(c1, c3):
                mismatches.append(((c1, 0, c3, 0), got))
    rep.expect("dimension law on the (c1,0,c3,0) plane", [], mismatches)
    return rep


def check_ideal() -> CheckReport:
    """Lift of the maximal ideal and of the structure ring over [-2,2]^4."""
    rep = CheckReport("ideal")
    mm = maximal_ideal_module(CONE_OVER_SQUARE)
    rr = structure_module(CONE_OVER_SQUARE)
    bad_ideal = []
    bad_ring = []
    for c in Box((-2,) * 4, (2,) * 4).degrees():
        if lift_component(CONE_OVER_SQUARE, mm, c).dim != ideal_lift_law(c):
            bad_ideal.append(c)
        if lift_component(CONE_OVER_SQUARE, rr, c).dim != structure_lift_law(c):
            bad_ring.append(c)
    rep.expect("ideal lift equals the monomial ideal law", [], bad_ideal)
    rep.expect("structure lift equals the Cox ring law", [], bad_ring)
    return rep


def check_roundtrip() -> CheckReport:
    """Counit isomorphisms and unit isomorphisms for shifted Cox rules."""
    rep = CheckReport("roundtrip")
    rng = random.Random(11)
    for cone in (ORTHANT2, QUOTIENT2, CONE_OVER_SQUARE):
        bad = []
        for module in all_variant_modules(cone):
            for _ in range(6):
                m = tuple(rng.randint(-2, 2) for _ in range(cone.lattice_rank))
                cm = counit_matrix(cone, module, m)
                if not is_isomorphism(cm) or cm.nrows != module.component(m).dim:
                    bad.append((type(module).__name__, m))
        rep.expect(f"counit iso on sampled modules, rank-{cone.lattice_rank} cone "
                   f"with {cone.ray_count} rays", [], bad)

    bad_unit = []
    for shift in [(0, 0, 0, 0), (1, 0, -1, 0), (-1, 2, 0, 1)]:
        rule = ShiftedCoxRule(4, shift)
        for c in Box((-2,) * 4, (2,) * 4).degrees():
            u = unit_map(CONE_OVER_SQUARE, rule, c)
            if not is_isomorphism(u):
                bad_unit.append((shift, c))
    rep.expect("unit iso for shifted Cox rules over [-2,2]^4", [], bad_unit)

    # smooth chart: lifting is plain re-indexing for every variant
    bad_smooth = []
    for module in all_variant_modules(ORTHANT2):
        for c in Box((-2, -2), (2, 2)).degrees():
            if lift_component(ORTHANT2, module, c).dim != module.component(c).dim:
                bad_smooth.append((type(module).__name__, c))
    rep.expect("smooth-cone identity for every module variant", [], bad_smooth)
    return rep


def check_exactness() -> CheckReport:
    """Left-exactness degree-wise, and the nonzero cokernels witnessing
    that right-exactness fails."""
    rep = CheckReport("exactness")
    seq = ideal_sequence(CONE_OVER_SQUARE)
    bad = []
    for c in Box((-2,) * 4, (2,) * 4).degrees():
        g = lift_morphism(CONE_OVER_SQUARE, seq.project, c)
        f = lift_morphism(CONE_OVER_SQUARE, seq.include, c)
        dim_sub = lift_component(CONE_OVER_SQUARE, seq.sub, c).dim
        if g.mul(f).rows != Mat.zero(g.nrows, f.ncols).rows:
            bad.append(("composite", c))
        if dim_sub != f.ncols or rank(f) != dim_sub:
            bad.append(("injectivity", c))
        if dim_sub != g.ncols - rank(g):
            bad.append(("kernel", c))
    rep.expect("0 -> ideal -> ring -> simple stays exact on the left", [], bad)

    cokers = {k: connecting_cokernel(CONE_OVER_SQUARE, seq, (-k, 0, 0, 0))
              for k in range(0, 4)}
    rep.expect("cokernel dims at (-k,0,0,0), k=0..3",
               {0: 0, 1: 1, 2: 1, 3: 1}, cokers)

    seq2 = indicator_sequence(QUOTIENT2, ray=0, threshold=1)
    bad2 = []
    for c in Box((-2, -2), (2, 2)).degrees():
        g = lift_morphism(QUOTIENT2, seq2.project, c)
        dim_sub = lift_component(QUOTIENT2, seq2.sub, c).dim
        if dim_sub != g.ncols - rank(g):
            bad2.append(c)
    rep.expect("indicator sequence stays exact on the left", [], bad2)
    return rep


def check_klyachko() -> CheckReport:
    """Filtration intersection formula, torsion-free transports, and the
    intersection completion of the realized arrangement."""
    rep = CheckReport("klyachko")
    rng = random.Random(6)
    failures = []
    for trial in range(20):
        cone = CONE_OVER_SQUARE if trial % 2 == 0 else (QUOTIENT2 if trial % 4 == 1 else ORTHANT2)
        desc = random_reflexive_description(cone, rng)
        box = Box((-2,) * cone.ray_count, (2,) * cone.ray_count)
        out = verify_equivalence(cone, desc, box)
        if not out.ok:
            failures.append((trial, out.first_mismatch))
    rep.expect("lift equals ray-space intersection for 20 random descriptions",
               [], failures)

    bad_inj = []
    for cone in (CONE_OVER_SQUARE, QUOTIENT2, ORTHANT2):
        box = Box((-2,) * cone.ray_count, (2,) * cone.ray_count)
        mods = [maximal_ideal_module(cone),
                FiltrationModule(cone, random_reflexive_description(cone, rng))]
        for module in mods:
            table = lift_table(cone, module, box)
            for (c, axis), mat in table.steps.items():
                if not is_injective(mat):
                    bad_inj.append((type(module).__name__, c, axis))
    rep.expect("all restriction maps injective for torsion-free inputs", [], bad_inj)

    desc3 = generic_plane_description(4)
    out = realized_components(CONE_OVER_SQUARE, desc3,
                              Box((-1,) * 4, (1,) * 4))
    rep.expect("generic rank-3 arrangement gains intersections under lifting",
               True, len(out.unrealized_on_base) > 0
               and set(out.base_realized) <= set(out.lift_realized))
    desc3o = generic_plane_description(2)
    out_o = realized_components(ORTHANT2, desc3o, Box((-1, -1), (1, 1)))
    rep.expect("smooth chart realizes every intersection already",
               0, len(out_o.unrealized_on_base))
    return rep


def check_classgroups() -> CheckReport:
    rep = CheckReport("classgroups")
    p2 = FanData(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    cg = class_group(p2)
    rep.expect("projective plane free rank", 1, cg.free_rank)
    rep.expect("projective plane torsion", (), cg.torsion)
    degs = {cg.degree((1, 0, 0)), cg.degree((0, 1, 0)), cg.degree((0, 0, 1))}
    rep.expect("projective plane: all three variables in one degree", 1, len(degs))

    p1p1 = FanData(2, ((1, 0), (-1, 0), (0, 1), (0, -1)),
                   ((0, 2), (1, 2), (1, 3), (0, 3)))
    cg2 = class_group(p1p1)
    rep.expect("product of lines free rank", 2, cg2.free_rank)
    rep.expect("product of lines torsion", (), cg2.torsion)

    one_cone = FanData(3, CONE_OVER_SQUARE.rays, ((0, 1, 2, 3),))
    cg3 = class_group(one_cone)
    rep.expect("cone-over-square chart free rank", 1, cg3.free_rank)
    rep.expect("cone-over-square chart torsion", (), cg3.torsion)
    return rep


def check_roos() -> CheckReport:
    """Derived-limit engine, plus oracle agreement for the lift components."""
    rep = CheckReport("roos")
    rng = random.Random(8)

    crown = FinitePosetDiagram(["a", "b", "c", "d"],
                               {(0, 2), (0, 3), (1, 2), (1, 3)},
                               [1, 1, 1, 1], lambda i, j: Mat.identity(1))
    rep.expect("crown constant diagram lim dims", (1, 1), roos_limits(crown, 1).limit_dims)

    # up-sets of a single lattice point have that point as their minimum,
    # so module diagrams over them are valid tests of the initial-object law
    from .derived import truncation_points
    from .instances import TEST_CONES

    bad_min = []
    for trial in range(5):
        cone = TEST_CONES[trial % len(TEST_CONES)]
        module = random_module(cone, rng)
        m0 = tuple(rng.randint(-1, 1) for _ in range(cone.lattice_rank))
        points = truncation_points(cone, cone.evaluate(m0), 2)
        diagram = FinitePosetDiagram.from_module(cone, module, points)
        res = roos_limits(diagram, 2)
        if res.limit_dims != (module.component(m0).dim, 0, 0):
            bad_min.append((trial, res.limit_dims))
        if res.limit_dims[0] != equalizer_limit_dim(diagram):
            bad_min.append((trial, "equalizer mismatch"))
    rep.expect("posets with a minimum have vanishing higher limits", [], bad_min)

    bad_simp = []
    for trial in range(10):
        n = rng.randint(3, 10)
        rel = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    rel.add((i, j))
        rel = transitive_closure(rel)
        diagram = FinitePosetDiagram(list(range(n)), rel, [1] * n,
                                     lambda i, j: Mat.identity(1))
        roos = roos_limits(diagram, 2).limit_dims
        simp = order_complex_cohomology(n, rel, 2)
        if roos != simp:
            bad_simp.append((trial, roos, simp))
    rep.expect("constant diagrams match simplicial cohomology on 10 random posets",
               [], bad_simp)

    bad_oracle = []
    count = 0
    while count < 50:
        cone = TEST_CONES[count % len(TEST_CONES)]
        module = random_module(cone, rng)
        c = tuple(rng.randint(-2, 2) for _ in range(cone.ray_count))
        out = truncated_lift_oracle(cone, module, c,
                                    bound=certification_bound(cone, c), imax=0)
        direct = lift_component(cone, module, c).dim
        if not out.certified or out.limit_dims[0] != direct:
            bad_oracle.append((count, c, out.limit_dims[0], direct))
        count += 1
    rep.expect("oracle agreement on 50 randomized (module, degree) pairs",
               [], bad_oracle)
    return rep


def check_colimit() -> CheckReport:
    rep = CheckReport("colimit")
    rng = random.Random(10)
    cone = CONE_OVER_SQUARE
    K = simple_module(cone)
    mm = maximal_ideal_module(cone)
    rr = structure_module(cone)
    rep.expect("simple module colimit", 0, colimit(cone, K).dim)
    rep.expect("ideal colimit", 1, colimit(cone, mm).dim)
    rep.expect("structure colimit", 1, colimit(cone, rr).dim)
    bad = []
    for trial in range(4):
        desc = random_reflexive_description(cone, rng)
        module = FiltrationModule(cone, desc)
        res = colimit(cone, module)
        if not res.stabilized or res.dim != desc.ambient_dim:
            bad.append((trial, res.dim, desc.ambient_dim))
    rep.expect("filtration colimit equals the ambient dimension", [], bad)

    bad2 = []
    for module in (K, mm, rr, FiltrationModule(cone, random_reflexive_description(cone, rng))):
        a = colimit(cone, module)
        b = colimit_of_lift(cone, module)
        if not (a.stabilized and b.stabilized and a.dim == b.dim):
            bad2.append((type(module).__name__, a.dim, b.dim))
    rep.expect("colimit of the lifted table equals the module colimit", [], bad2)
    return rep


SUITES: dict[str, Callable[[], CheckReport]] = {
    "klifting": check_klifting,
    "liftex": check_liftex,
    "ideal": check_ideal,
    "roundtrip": check_roundtrip,
    "exactness": check_exactness,
    "klyachko": check_klyachko,
    "classgroups": check_classgroups,
    "roos": check_roos,
    "colimit": check_colimit,
}


def run_suite(name: str) -> CheckReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
