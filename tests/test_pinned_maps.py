"""Exact matrices of maps between components that the CLI never prints.

Restriction maps, lifted morphisms, the unit and counit, filtration
transports, induced morphisms and finitely presented transports each
write images in the target's canonical basis.  ``lift-table`` prints
components only, so these matrices are pinned here: every entry, as a
``"p/q"`` string, with the shape, in ``data/pinned_maps.json``.  The
file holds the output of the per-map implementations that preceded the
shared change-of-basis routine.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from coxlift.instances import CONE_OVER_SQUARE as CSQ, all_variant_modules
from coxlift.klyachko import ReflexiveDescription, induced_morphism
from coxlift.lifting import (
    Box,
    counit_matrix,
    lift_action,
    lift_morphism,
    lift_table,
    unit_map,
)
from coxlift.linalg import Mat
from coxlift.modules import (
    DirectSumRule,
    FiltrationModule,
    FinitelyPresentedModule,
    Relation,
    ShiftedCoxRule,
    SpikeRule,
    codivisorial_module,
    ray_filtration,
    structure_to_simple,
)

PINNED = Path(__file__).parent / "data" / "pinned_maps.json"

COD_BOX = Box((-2, 0, -2, 0), (0, 1, 0, 1))
COD_PAIRS = [((-2, 0, -2, 0), (-1, 0, -1, 0)), ((-2, 0, -1, 0), (0, 0, 0, 0)),
             ((-2, 0, -2, 0), (0, 0, -1, 0)), ((-1, 0, -1, 0), (0, 0, 0, 0)),
             ((-2, 0, -2, 0), (-2, 0, -2, 1)), ((-2, 0, 0, 0), (-1, 0, 0, 0))]
LIFT_DEGREES = [(0, 0, 0, 0), (-1, 0, 0, 0), (1, 0, 0, 0), (0, -1, 0, -1),
                (-1, -1, 0, 1), (1, 1, 1, 1)]
POINTS = [(0, 0, 0), (1, 0, 1), (0, 1, 0), (-1, 0, 0), (0, -1, 1), (1, 1, 1),
          (0, 1, 1), (1, 0, 2), (2, 1, 1)]
UP_PAIRS = [((0, 0, 0), (1, 1, 1)), ((-1, 0, -1), (0, 0, 0)), ((0, -1, 0), (0, 0, 0)),
            ((-1, -1, -1), (1, 0, 1)), ((0, 0, -1), (0, 1, 0)), ((0, 0, 0), (0, 1, 0)),
            ((0, 1, 0), (1, 1, 1)), ((1, 0, 1), (1, 1, 1)), ((1, 0, 1), (2, 1, 2)),
            ((0, 0, 0), (1, 0, 1))]
# where the generic-lines module holds a line (one ray at its line level) or the plane
LINE_PAIRS = [((0, 1, 1), (1, 2, 2)), ((1, 0, 2), (2, 1, 3)), ((1, 2, 0), (1, 2, 1)),
              ((2, 1, 1), (3, 2, 2)), ((0, 0, 0), (0, 1, 1)), ((1, 1, 1), (2, 2, 2)),
              ((0, 1, 1), (0, 1, 2))]
LINE_POINTS = [(0, 1, 1), (1, 0, 2), (1, 2, 0), (2, 1, 1), (1, 1, 1), (0, 0, 0), (1, 0, 1)]
LINE_DEGREES = [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, -1), (1, 1, 1, 1)]
LINE_DEGREE_PAIRS = [((0, 1, 1, 1), (1, 1, 1, 1)), ((1, 0, 1, 1), (1, 1, 1, 1)),
                     ((0, 0, 1, 1), (0, 1, 1, 1)), ((1, 1, 1, -1), (1, 1, 1, 0)),
                     ((1, 1, 1, 0), (2, 2, 2, 2)), ((0, 1, 1, 1), (0, 2, 2, 2))]


def _generic_lines(lines) -> ReflexiveDescription:
    """Rank 2: ray r holds one line from its level, the whole plane from 1."""
    return ReflexiveDescription(2, tuple(
        (r, ray_filtration([(level, [line]), (1, [[1, 0], [0, 1]])], 2))
        for r, (level, line) in enumerate(lines)))


# the four lines of the CLI's generic-lines fixture, and their images under A
GENERIC = _generic_lines([(0, [2, -1]), (0, [3, 1]), (0, [1, 2]), (-1, [3, -2])])
A = Mat.from_rows([[1, 1], [0, 2]])
GENERIC_IMAGE = _generic_lines([(0, [1, -2]), (0, [4, 2]), (0, [3, 4]), (-1, [1, -4])])

FP = FinitelyPresentedModule(
    CSQ, ((0, 0, 0), (0, 1, 0), (1, 0, 1)),
    (Relation((0, 1, 0), (1, -2, 0)), Relation((1, 1, 1), (1, 1, -1))))


def _cases() -> dict[str, dict[str, Mat]]:
    cod = codivisorial_module(CSQ, (0, 0, 0, 0), (1, 3))
    table = lift_table(CSQ, cod, COD_BOX)
    generic = FiltrationModule(CSQ, GENERIC)
    induced = induced_morphism(CSQ, GENERIC, GENERIC_IMAGE, A)
    spike_at = (1, 0, 0, 0)
    spike = DirectSumRule((ShiftedCoxRule(4, (0, 0, 0, 0)), SpikeRule(4, spike_at)))
    shifted = ShiftedCoxRule(4, (2, -1, 0, 1))
    return {
        "lift_action": {
            **{f"codivisorial {c}->{d}": lift_action(CSQ, cod, c, d) for c, d in COD_PAIRS},
            **{f"generic {c}->{d}": lift_action(CSQ, generic, c, d)
               for c, d in LINE_DEGREE_PAIRS},
        },
        "lift_table_act": {f"codivisorial {c}->{d}": table.act(c, d) for c, d in COD_PAIRS},
        "lift_morphism": {
            **{f"structure_to_simple {c}": lift_morphism(CSQ, structure_to_simple(CSQ), c)
               for c in LIFT_DEGREES},
            **{f"induced {c}": lift_morphism(CSQ, induced, c)
               for c in LINE_DEGREES},
        },
        "unit_map": {
            **{f"shifted {c}": unit_map(CSQ, shifted, c) for c in LIFT_DEGREES},
            **{f"spike {c}": unit_map(CSQ, spike, c)
               for c in [spike_at, (0, 0, 0, 0), (1, 1, 0, 0)]},
        },
        "counit_matrix": {
            f"{type(module).__name__}#{i} {m}": counit_matrix(CSQ, module, m)
            for i, module in enumerate(all_variant_modules(CSQ) + [generic, FP])
            for m in POINTS
        },
        "filtration_action": {f"{m}->{n}": generic.action(m, n) for m, n in LINE_PAIRS},
        "induced_morphism": {f"{m}": induced.matrix(m) for m in LINE_POINTS},
        "fp_action": {f"{m}->{n}": FP.action(m, n) for m, n in UP_PAIRS},
    }


def _entry(mat: Mat) -> dict:
    return {"shape": [mat.nrows, mat.ncols],
            "rows": [[f"{x.numerator}/{x.denominator}" for x in map(Fraction, row)]
                     for row in mat.rows]}


def pinned_json(cases: dict[str, dict[str, Mat]]) -> str:
    return json.dumps({group: {name: _entry(mat) for name, mat in maps.items()}
                       for group, maps in cases.items()}, indent=1) + "\n"


@pytest.fixture(scope="module")
def computed():
    return json.loads(pinned_json(_cases()))


@pytest.mark.parametrize("group", ["lift_action", "lift_table_act", "lift_morphism",
                                   "unit_map", "counit_matrix", "filtration_action",
                                   "induced_morphism", "fp_action"])
def test_maps_between_components_are_pinned(group, computed):
    expected = json.loads(PINNED.read_text(encoding="utf-8"))[group]
    assert computed[group] == expected
