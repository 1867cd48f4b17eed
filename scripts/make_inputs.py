#!/usr/bin/env python3
"""Write example JSON inputs for the CLI into a directory.

Usage: python scripts/make_inputs.py [outdir]

Produces the cone over a square, the simple/ideal/codivisorial indicator
modules, a rank-2 filtration module and a crown poset diagram, all in
the schemas the CLI reads.
"""

import json
import pathlib
import sys


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "inputs")
    outdir.mkdir(parents=True, exist_ok=True)

    cone = {"lattice_rank": 3,
            "rays": [[1, 0, 0], [0, 1, 0], [-1, 1, 1], [0, 0, 1]]}
    simple = {"type": "indicator", "style": "quotient",
              "constraints": [{"ray": r, "op": op, "bound": 0}
                              for r in range(4) for op in ("<=", ">=")]}
    ideal = {"type": "indicator", "style": "submodule",
             "constraints": [{"ray": r, "op": ">=", "bound": 0} for r in range(4)],
             "exclude": [[0, 0, 0]]}
    codivisorial = {"type": "indicator", "style": "quotient",
                    "constraints": [{"ray": 1, "op": "<=", "bound": 0},
                                    {"ray": 3, "op": "<=", "bound": 0}]}
    filtration = {"type": "filtration", "ambient_dim": 2,
                  "filtrations": {
                      "0": [{"level": 0, "basis": [[1, 0]]},
                            {"level": 1, "basis": [[1, 0], [0, 1]]}],
                      "1": [{"level": 0, "basis": [[1, 0], [0, 1]]}],
                      "2": [{"level": 0, "basis": [[1, 0], [0, 1]]}],
                      "3": [{"level": 0, "basis": [[1, 0], [0, 1]]}]}}
    crown = {"elements": ["a", "b", "c", "d"],
             "leq": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]],
             "dims": {"a": 1, "b": 1, "c": 1, "d": 1},
             "maps": {"a->c": [[1]], "a->d": [[1]],
                      "b->c": [[1]], "b->d": [[1]]}}

    for name, obj in [("cone_square.json", cone), ("module_simple.json", simple),
                      ("module_ideal.json", ideal),
                      ("module_codivisorial.json", codivisorial),
                      ("module_filtration.json", filtration),
                      ("diagram_crown.json", crown)]:
        (outdir / name).write_text(json.dumps(obj, indent=2) + "\n")
        print(f"wrote {outdir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
