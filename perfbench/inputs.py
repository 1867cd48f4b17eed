"""Seeded input generator: the CLI JSON files each workload hands the program.

Usage: python3 perfbench/inputs.py WORKLOAD SEED OUTDIR

Only the files written here reach the program; the same seed always
writes the same bytes.  The diagram of ``roos-diagram`` is built with
the library (untimed) and written with its maps on cover pairs only, so
the program's loader has to close and validate them itself.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

SQUARE_RAYS = [[1, 0, 0], [0, 1, 0], [-1, 1, 1], [0, 0, 1]]
HEXAGON_RAYS = [[1, 0, 1], [1, 1, 1], [0, 1, 1], [-1, 0, 1], [-1, -1, 1], [0, -1, 1]]

# sweep-square box: 256 degrees from the centre of the [-3,3]^4 box of
# the example sweep, where components of dimension 0, 1 and 2 meet
SQUARE_BOX = "-1..2"
# sweep-hexagon box: degrees (1,0,0,1,0,0) and (1,0,0,1,0,1).  Each lift
# needs minimal points for three pairwise upper bounds, about 1.4 s of
# search; the full [0,1]^6 box takes 45 s.  The box does not depend on
# the seed: the search is not symmetric under rotating the rays, so
# rotated boxes would cost different amounts.
HEXAGON_BOX = "1..1,0..0,0..0,1..1,0..0,0..1"
# four pairwise independent lines; the seed assigns them to the rays, so
# entry sizes, and with them the cost of the exact arithmetic, stay fixed
LINES = ([1, 2], [2, -1], [1, -3], [3, 1])
# verify-suites: the suites built from many distinct small modules, in
# order.  klifting, ideal and exactness sweep one or two fixed modules
# over a box, as sweep-square does, and klyachko alone takes longer
# (37-54 s) than a whole benchmark run may.
SUITES = ("roundtrip", "roos", "colimit", "liftex", "classgroups")
# roos-diagram: up-sets of these Cox degrees, truncated at this 1-norm
# (85 points and 200 cover pairs each; both truncations are certified
# for lim^0, whose certification bound is 6)
ROOS_DEGREES = ((-1, 0, -1, 0), (0, -1, 0, -1))
ROOS_NORM = 10


def square_filtration_module(seed: int) -> dict:
    """Rank-2 filtration module: a generic line from level -1, everything from 1.

    The seed deals the lines of ``LINES`` to the rays.
    """
    lines = [list(line) for line in LINES]
    random.Random(seed).shuffle(lines)
    return {"type": "filtration", "ambient_dim": 2,
            "filtrations": {str(i): [{"level": -1, "basis": [line]},
                                     {"level": 1, "basis": [[1, 0], [0, 1]]}]
                            for i, line in enumerate(lines)}}


def maximal_ideal_module(ray_count: int) -> dict:
    return {"type": "indicator", "style": "submodule",
            "constraints": [{"ray": r, "op": ">=", "bound": 0} for r in range(ray_count)],
            "exclude": [[0, 0, 0]]}


def roos_diagram(module_obj: dict, degree: tuple[int, ...]) -> dict:
    """Truncated up-set of ``degree`` for the square-cone module, maps on covers."""
    from coxlift.cones import Cone
    from coxlift.derived import FinitePosetDiagram, truncation_points
    from coxlift.jsonio import fraction_out, load_module

    cone = Cone(3, tuple(map(tuple, SQUARE_RAYS)))
    module = load_module(module_obj, cone)
    points = truncation_points(cone, degree, ROOS_NORM)
    diagram = FinitePosetDiagram.from_module(cone, module, points)
    names = ["m" + "_".join(str(x) for x in p) for p in points]
    covers = sorted(diagram.covers())
    maps = {}
    for i, j in covers:
        mat = module.action(points[i], points[j])
        maps[f"{names[i]}->{names[j]}"] = [[fraction_out(x) for x in row] for row in mat.rows]
    return {"elements": names,
            "leq": [[names[i], names[j]] for i, j in covers],
            "dims": {n: d for n, d in zip(names, diagram.dims)},
            "maps": maps}


def write_inputs(workload: str, seed: int, outdir: Path) -> dict:
    """Write the workload's input files; return the CLI arguments that name them."""
    outdir.mkdir(parents=True, exist_ok=True)

    def dump(name: str, obj) -> str:
        path = outdir / name
        path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return str(path)

    if workload == "sweep-square":
        return {"cone": dump("cone.json", {"lattice_rank": 3, "rays": SQUARE_RAYS}),
                "module": dump("module.json", square_filtration_module(seed)),
                "box": SQUARE_BOX}
    if workload == "sweep-hexagon":
        return {"cone": dump("cone.json", {"lattice_rank": 3, "rays": HEXAGON_RAYS}),
                "module": dump("module.json", maximal_ideal_module(len(HEXAGON_RAYS))),
                "box": HEXAGON_BOX}
    if workload == "roos-diagram":
        module = square_filtration_module(seed)
        return {"module": dump("module.json", module),
                "diagrams": [dump(f"diagram_{k}.json", roos_diagram(module, c))
                             for k, c in enumerate(ROOS_DEGREES)]}
    if workload == "verify-suites":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__.splitlines()[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(json.dumps(write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))))
