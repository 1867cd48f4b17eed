#!/usr/bin/env python3
"""Record the output of the CLI's contract commands, for byte-identity checks.

Usage: python scripts/contract_bytes.py OUTDIR

Runs, with this checkout's ``src`` on the path:

* ``coxlift.cli --help`` and ``coxlift.cli check --help``, and
  ``coxlift.cli check nosuchsuite``, which exits 2 with the usage and
  the list of suites on stderr: the argparse surface, whose suite
  choices come from ``checks.SUITES``;
* ``coxlift.cli check S`` for every suite;
* ``coxlift.cli lift-table --box=-2..2 --format tsv|json --jobs 1|2``
  on the cone over a square, for the four example modules of
  ``make_inputs.py``, a rank-2 module of four lines in general position
  and a finitely presented module with a ``"p/q"`` coefficient;
* ``coxlift.cli lift-table --box=-3..3 --format json --jobs 1|2`` on the
  cone over a square for those last two modules: 2,401 lift bases each,
  which pin the bytes of the kernel elimination;
* ``coxlift.cli lift-table --format tsv|json`` on two cones whose class
  groups are not Z: the cone with rays (0, 1), (2, -1) (class group
  Z/2) over ``--box=-3..3`` and the cone over a hexagon (class group
  Z^3) over ``--box=-1..1``, each with a rank-2 filtration module, so
  the minimal points of every degree come from those of its class;
* ``coxlift.cli roos --diagram diagram_crown.json --imax 0|1|2``;
* ``coxlift.cli roos --imax 2`` on a truncation diagram written here
  without the library: the maximal ideal on the cone over a square, on
  the up-set of ``(-1, 0, -1, 0)`` truncated at 1-norm 9 (50 points,
  lim = (0, 2, 0)), whose differentials have more rows than columns;
  once with every relation and its map, once with only the 104 covers
  and their maps, which the library closes and composes itself;
* ``coxlift.cli roos --imax 2`` on a diagram with ``a < b`` and
  ``b < a``, which exits 2 as not antisymmetric, and on one with
  ``a < b < c`` and only the map ``a->b``, which exits 2 naming ``b -> c``
  as having no transport data;
* ``coxlift.cli roos --imax 2`` on a diagram with ``a < b < c``, maps
  ``a->b`` and ``b->c`` the identity and ``a->c`` twice it, which exits 2
  naming ``a <= b <= c`` as failing to compose;
* ``coxlift.cli lift-table --box=-2..2`` on the cone over a square with a
  filtration module that gives ray 0 the level 0 twice, and with one of
  three filtrations for the four rays, each of which exits 2;
* ``coxlift.cli lift-table --box=-2..2`` on the cone over a square with a
  filtration module whose ray-0 basis vector ``[1, 0, 0]`` is longer than
  its ``ambient_dim`` 2, which exits 2 naming the vector's length and the
  ambient dimension;
* ``coxlift.cli lift-table``, each exiting 2 with its loader's message:
  on an indicator module of style ``"other"``, on one with a constraint
  on ray 9 of the square's four, over ``--box=2..1``, and on a cone
  whose rays are ragged and on one with no rays;
* ``coxlift.cli lift-table``, each exiting 2, on a finitely presented
  module whose generator degree is the number 5, on one whose relation
  coefficients are 5, on an indicator module that excludes the point 5,
  on a filtration module whose bases are 5, on an indicator module
  whose constraint op is 5, on one whose constraints are the object
  ``{}``, and on a cone whose rays are 5.  The loaders hand these values
  to the constructors unread, so the message on stderr is the reader's
  ("expected a sequence, got 5", "unknown op 5", "expected a sequence,
  got {}"); a checkout whose loader read them itself prints its own
  message there ("module JSON is malformed: ...", "unknown op '5'"), or
  reads ``{}`` as no constraints and exits 0, one of the two places two
  checkouts may differ;
* ``coxlift.cli roos --imax 2`` on a diagram with no ``leq`` key, which
  exits 2;
* ``coxlift.cli roos --imax 1`` on a diagram whose map ``a->b`` has the
  wrong shape, on one with a negative dimension and on one with the
  dimension 1.5, each of which exits 2 with the message of the checked
  door ``FinitePosetDiagram.from_maps``;
* ``coxlift.cli roos --imax 1`` on a diagram whose ``leq`` pair is the
  object ``{}`` and on one whose pair lists three ids, which exit 2 with
  the sequence reader's and ``from_maps``' messages, and on one whose
  dimension ``[5]`` sets the width of an empty map, which exits 2 naming
  ``[5]``.  A checkout whose loader unpacked each pair, or passed the
  dimension on unread, prints Python's message there ("not enough values
  to unpack", "unhashable type: 'list'"), the other place two checkouts
  may differ;
* ``scripts/derived_evidence.py``, whose report prints the point count
  and limit dimensions of a truncation, which ``check roos`` does not.

Each command runs twice, under ``PYTHONHASHSEED=1`` and ``=2`` and with
``COLUMNS=80``, so the help text wraps the same on every terminal; its
stdout, stderr and exit code under the first go to
``OUTDIR/<name>.stdout``, ``.stderr`` and ``.exit``.  Two checkouts
give the same bytes exactly when ``diff -r`` of their OUTDIRs is empty.
The script exits 1, naming the commands, when any command's stdout
differs between the two seeds: no hash may leak into output order.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
from itertools import product

ROOT = pathlib.Path(__file__).resolve().parent.parent
SUITES = ("classgroups", "colimit", "exactness", "ideal", "klifting", "klyachko",
          "liftex", "roos", "roundtrip")
MODULES = ("simple", "ideal", "codivisorial", "filtration", "generic_lines", "presented")
# swept over the wider box -3..3 as well
WIDE_BOX_MODULES = ("generic_lines", "presented")
# four lines in general position in Q^2, one per ray, each filling up at level 1
GENERIC_LINES = {
    "type": "filtration", "ambient_dim": 2,
    "filtrations": {
        str(r): [{"level": level, "basis": [line]},
                 {"level": 1, "basis": [[1, 0], [0, 1]]}]
        for r, (level, line) in enumerate([(0, [2, -1]), (0, [3, 1]),
                                           (0, [1, 2]), (-1, [3, -2])])
    },
}
# generators at 0 and at (1, 0, 0); from (1, 0, 1) on, the first is 3/2 times the second
PRESENTED = {
    "type": "finitely_presented",
    "generators": [{"degree": [0, 0, 0]}, {"degree": [1, 0, 0]}],
    "relations": [{"degree": [1, 0, 1], "coeffs": [1, "-3/2"]}],
}

FULL = [[1, 0], [0, 1]]
# cones whose class groups are not Z, each with a filtration module of lines
CLASS_GROUP_CASES = {
    "quotient2": ("-3..3", {"lattice_rank": 2, "rays": [[0, 1], [2, -1]]}, {
        "type": "filtration", "ambient_dim": 2,
        "filtrations": {"0": [{"level": 0, "basis": [[1, 0]]}, {"level": 1, "basis": FULL}],
                        "1": [{"level": -1, "basis": [[1, 1]]}, {"level": 1, "basis": FULL}]},
    }),
    "hexagon": ("-1..1", {"lattice_rank": 3,
                          "rays": [[1, 0, 1], [1, 1, 1], [0, 1, 1],
                                   [-1, 0, 1], [-1, -1, 1], [0, -1, 1]]}, {
        "type": "filtration", "ambient_dim": 2,
        "filtrations": {
            str(r): [{"level": -1, "basis": [line]}, {"level": 0, "basis": FULL}]
            for r, line in enumerate([[1, 0], [0, 1], [1, 1], [1, -1], [1, 2], [2, 1]])
        },
    }),
}

SQUARE_RAYS = ((1, 0, 0), (0, 1, 0), (-1, 1, 1), (0, 0, 1))
# a < b and b < a: closing the relation must not hide the cycle
CYCLE = {"elements": ["a", "b"], "leq": [["a", "b"], ["b", "a"]], "dims": {"a": 1, "b": 1},
         "maps": {"a->b": [[1]], "b->a": [[1]]}}
# a < b < c with no map out of b: the transport b -> c has no data
MISSING_MAP = {"elements": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"]],
               "dims": {"a": 1, "b": 1, "c": 1}, "maps": {"a->b": [[1]]}}
# a < b < c whose long arrow is twice the composite of the short ones
NOT_COMPOSING = {"elements": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"]],
                 "dims": {"a": 1, "b": 1, "c": 1},
                 "maps": {"a->b": [[1]], "b->c": [[1]], "a->c": [[2]]}}
# ray 0 lists the level 0 twice, a line and then the plane
REPEATED_LEVEL = {
    "type": "filtration", "ambient_dim": 2,
    "filtrations": {"0": [{"level": 0, "basis": [[1, 0]]}, {"level": 0, "basis": FULL}],
                    **{str(r): [{"level": 0, "basis": FULL}] for r in (1, 2, 3)}},
}
# a filtration for three of the square's four rays
THREE_RAYS = {"type": "filtration", "ambient_dim": 2,
              "filtrations": {str(r): [{"level": 0, "basis": FULL}] for r in range(3)}}
# inputs each loader rejects with its own message: an unknown indicator
# style, a constraint on a ray the square does not have, a number where a
# generator degree, relation coefficients, an excluded point, a filtration
# basis, a constraint's op or a cone's rays are read, an object where the
# constraints belong, a filtration basis vector longer than its ambient
# space, cones with ragged and with no rays, and a diagram with no order
# relation
BAD_MODULES = {
    "style_other": {"type": "indicator", "style": "other", "constraints": []},
    "ray_out_of_range": {"type": "indicator", "style": "quotient",
                         "constraints": [{"ray": 9, "op": "<=", "bound": 0}]},
    "generator_number": {"type": "finitely_presented", "generators": [{"degree": 5}]},
    "coeffs_number": {"type": "finitely_presented", "generators": [{"degree": [0, 0, 0]}],
                      "relations": [{"degree": [0, 0, 0], "coeffs": 5}]},
    "exclude_number": {"type": "indicator", "style": "submodule", "constraints": [],
                       "exclude": [5]},
    "basis_number": {"type": "filtration", "ambient_dim": 1,
                     "filtrations": {str(r): [{"level": 0, "basis": 5}] for r in range(4)}},
    "op_number": {"type": "indicator", "style": "quotient",
                  "constraints": [{"ray": 0, "op": 5, "bound": 0}]},
    # an object where the constraint array belongs
    "constraints_object": {"type": "indicator", "style": "quotient", "constraints": {}},
    # a ray-0 basis vector of length 3 in the ambient plane
    "basis_length": {"type": "filtration", "ambient_dim": 2, "filtrations": {
        "0": [{"level": 0, "basis": [[1, 0, 0]]}],
        **{str(r): [{"level": 0, "basis": FULL}] for r in (1, 2, 3)}}},
}
BAD_CONES = {"ragged": {"lattice_rank": 3, "rays": [[1, 0, 0], [0, 1]]},
             "empty": {"lattice_rank": 3, "rays": []},
             "number": {"lattice_rank": 3, "rays": 5}}
MISSING_LEQ = {"elements": ["a", "b"], "dims": {"a": 1, "b": 1}, "maps": {"a->b": [[1]]}}
# a < b whose map a->b has two rows for the line at b
WRONG_SHAPE = {"elements": ["a", "b"], "leq": [["a", "b"]], "dims": {"a": 1, "b": 1},
               "maps": {"a->b": [[1], [1]]}}
NEGATIVE_DIM = {"elements": ["a", "b"], "leq": [["a", "b"]], "dims": {"a": 1, "b": -1},
                "maps": {}}
FRACTION_DIM = {"elements": ["a", "b"], "leq": [["a", "b"]], "dims": {"a": 1, "b": 1.5},
                "maps": {"a->b": [[1]]}}
# a pair that is an object, a pair of three ids, and an array dim read as
# the width of a map with no rows
LEQ_OBJECT = {"elements": ["a", "b"], "leq": [{}], "dims": {"a": 1, "b": 1}, "maps": {}}
LEQ_TRIPLE = {"elements": ["a", "b", "c"], "leq": [["a", "b", "c"]],
              "dims": {"a": 1, "b": 1, "c": 1}, "maps": {}}
ARRAY_DIM = {"elements": ["a", "b"], "leq": [["a", "b"]], "dims": {"a": [5], "b": 0},
             "maps": {"a->b": []}}


def square_ideal_truncation(covers_only=False, c=(-1, 0, -1, 0), bound=9) -> dict:
    """Diagram JSON of the maximal ideal on the cone over a square over the
    points m with L(m) >= c and |L(m) - c|_1 <= bound, ordered by L.

    A point has dimension 1 when L(m) >= 0 and m != 0, else 0; the maps
    between points of dimension 1 are the identity.  Rays 0, 1 and 3 are
    unit vectors, so the box of m is read off c and the bound.  With
    ``covers_only`` the relation and the maps are given on the covering
    pairs alone.
    """
    values = {m: tuple(sum(r * x for r, x in zip(ray, m)) for ray in SQUARE_RAYS)
              for m in product(*(range(c[k], c[k] + bound + 1) for k in (0, 1, 3)))}
    points = sorted(m for m, v in values.items()
                    if min(a - b for a, b in zip(v, c)) >= 0
                    and sum(a - b for a, b in zip(v, c)) <= bound)
    name = {m: "m" + "_".join(map(str, m)) for m in points}
    dim = {m: int(min(values[m]) >= 0 and any(m)) for m in points}
    leq = [(p, q) for p in points for q in points
           if p != q and all(a <= b for a, b in zip(values[p], values[q]))]
    if covers_only:
        strict = set(leq)
        leq = [(p, q) for p, q in leq
               if not any((p, r) in strict and (r, q) in strict for r in points)]
    return {"elements": [name[m] for m in points],
            "leq": [[name[p], name[q]] for p, q in leq],
            "dims": {name[m]: dim[m] for m in points},
            "maps": {f"{name[p]}->{name[q]}": [[1] * dim[p]] * dim[q] for p, q in leq}}


def commands(inputs: pathlib.Path):
    """``(name, arguments to the interpreter)`` for every contract command."""
    cli = ["-m", "coxlift.cli"]
    yield "help", cli + ["--help"]
    yield "check-help", cli + ["check", "--help"]
    yield "check-nosuchsuite", cli + ["check", "nosuchsuite"]
    for suite in SUITES:
        yield f"check-{suite}", cli + ["check", suite]
    for module in MODULES:
        for fmt in ("tsv", "json"):
            for jobs in ("1", "2"):
                yield (f"lift-table-{module}-{fmt}-jobs{jobs}",
                       cli + ["lift-table", "--cone", str(inputs / "cone_square.json"),
                              "--module", str(inputs / f"module_{module}.json"),
                              "--format", fmt, "--jobs", jobs, "--box=-2..2"])
    for module in WIDE_BOX_MODULES:
        for jobs in ("1", "2"):
            yield (f"lift-table-{module}-json-jobs{jobs}-box3",
                   cli + ["lift-table", "--cone", str(inputs / "cone_square.json"),
                          "--module", str(inputs / f"module_{module}.json"),
                          "--format", "json", "--jobs", jobs, "--box=-3..3"])
    for case, (box, _, _) in CLASS_GROUP_CASES.items():
        for fmt in ("tsv", "json"):
            yield (f"lift-table-{case}-{fmt}",
                   cli + ["lift-table", "--cone", str(inputs / f"cone_{case}.json"),
                          "--module", str(inputs / f"module_{case}.json"),
                          "--format", fmt, f"--box={box}"])
    for imax in ("0", "1", "2"):
        yield (f"roos-imax{imax}",
               cli + ["roos", "--diagram", str(inputs / "diagram_crown.json"),
                      "--imax", imax])
    for name in ("repeated_level", "three_rays", *BAD_MODULES):
        yield (f"lift-table-{name.replace('_', '-')}",
               cli + ["lift-table", "--cone", str(inputs / "cone_square.json"),
                      "--module", str(inputs / f"module_{name}.json"), "--box=-2..2"])
    yield ("lift-table-reversed-box",
           cli + ["lift-table", "--cone", str(inputs / "cone_square.json"),
                  "--module", str(inputs / "module_simple.json"), "--box=2..1"])
    for name in BAD_CONES:
        yield (f"lift-table-{name}-cone",
               cli + ["lift-table", "--cone", str(inputs / f"cone_{name}.json"),
                      "--module", str(inputs / "module_simple.json"), "--box=-2..2"])
    for name in ("square_ideal", "square_ideal_covers", "cycle", "missing_map",
                 "not_composing", "missing_leq"):
        yield (f"roos-{name.replace('_', '-')}-imax2",
               cli + ["roos", "--diagram", str(inputs / f"diagram_{name}.json"),
                      "--imax", "2"])
    for name in ("wrong_shape", "negative_dim", "fraction_dim", "leq_object", "leq_triple",
                 "array_dim"):
        yield (f"roos-{name.replace('_', '-')}-imax1",
               cli + ["roos", "--diagram", str(inputs / f"diagram_{name}.json"),
                      "--imax", "1"])
    yield "derived-evidence", [str(ROOT / "scripts" / "derived_evidence.py")]


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    outdir = pathlib.Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    seed_dependent = []
    with tempfile.TemporaryDirectory() as tmp:
        inputs = pathlib.Path(tmp)
        subprocess.run([sys.executable, str(ROOT / "scripts" / "make_inputs.py"), tmp],
                       check=True, stdout=subprocess.DEVNULL)
        (inputs / "module_generic_lines.json").write_text(json.dumps(GENERIC_LINES))
        (inputs / "module_presented.json").write_text(json.dumps(PRESENTED))
        (inputs / "diagram_square_ideal.json").write_text(
            json.dumps(square_ideal_truncation()))
        (inputs / "diagram_square_ideal_covers.json").write_text(
            json.dumps(square_ideal_truncation(covers_only=True)))
        (inputs / "diagram_cycle.json").write_text(json.dumps(CYCLE))
        (inputs / "diagram_missing_map.json").write_text(json.dumps(MISSING_MAP))
        (inputs / "diagram_not_composing.json").write_text(json.dumps(NOT_COMPOSING))
        (inputs / "module_repeated_level.json").write_text(json.dumps(REPEATED_LEVEL))
        (inputs / "module_three_rays.json").write_text(json.dumps(THREE_RAYS))
        (inputs / "diagram_missing_leq.json").write_text(json.dumps(MISSING_LEQ))
        (inputs / "diagram_wrong_shape.json").write_text(json.dumps(WRONG_SHAPE))
        (inputs / "diagram_negative_dim.json").write_text(json.dumps(NEGATIVE_DIM))
        (inputs / "diagram_fraction_dim.json").write_text(json.dumps(FRACTION_DIM))
        (inputs / "diagram_leq_object.json").write_text(json.dumps(LEQ_OBJECT))
        (inputs / "diagram_leq_triple.json").write_text(json.dumps(LEQ_TRIPLE))
        (inputs / "diagram_array_dim.json").write_text(json.dumps(ARRAY_DIM))
        for name, module in BAD_MODULES.items():
            (inputs / f"module_{name}.json").write_text(json.dumps(module))
        for name, cone in BAD_CONES.items():
            (inputs / f"cone_{name}.json").write_text(json.dumps(cone))
        for case, (_, cone, module) in CLASS_GROUP_CASES.items():
            (inputs / f"cone_{case}.json").write_text(json.dumps(cone))
            (inputs / f"module_{case}.json").write_text(json.dumps(module))
        for name, args in commands(inputs):
            proc, other = [subprocess.run([sys.executable, *args],
                                          env=dict(env, PYTHONHASHSEED=seed),
                                          capture_output=True)
                           for seed in ("1", "2")]
            (outdir / f"{name}.stdout").write_bytes(proc.stdout)
            (outdir / f"{name}.stderr").write_bytes(proc.stderr)
            (outdir / f"{name}.exit").write_text(f"{proc.returncode}\n")
            print(f"{name}: exit {proc.returncode}")
            if other.stdout != proc.stdout:
                seed_dependent.append(name)
    if seed_dependent:
        print(f"stdout differs between PYTHONHASHSEED=1 and 2: {', '.join(seed_dependent)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
