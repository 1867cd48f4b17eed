"""Batch command line: JSON in, dimension tables and check reports out.

Subcommands:

* ``lift-table``  sweep a degree box for a cone and module, emitting a
  TSV (default) or JSON table in lexicographic degree order.
* ``check``       run a named verification suite; exit 1 on any failed
  assertion.
* ``roos``        derived limit dimensions of a finite poset diagram.

Exit codes: 0 success, 1 assertion failure, 2 input error, 3 internal
error (a bug, reported on one line).  Identical
inputs produce byte-identical output at any ``--jobs`` width: workers
only compute per-degree components and the coordinator merges them in
degree order.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .checks import SUITES, run_suite
from .jsonio import (
    component_to_json,
    load_cone,
    load_diagram,
    load_json_file,
    load_module,
    table_tsv_lines,
)
from .lifting import Box, lift_table


def parse_box(text: str, width: int) -> Box:
    """Parse ``lo..hi`` (every coordinate) or comma-separated per-coordinate ranges."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        parts = parts * width
    if len(parts) != width:
        raise ValueError(f"box needs 1 or {width} ranges, got {len(parts)}")
    lo, hi = [], []
    for p in parts:
        if ".." not in p:
            raise ValueError(f"range {p!r} must look like lo..hi")
        a, b = p.split("..", 1)
        lo.append(int(a))
        hi.append(int(b))
    return Box(tuple(lo), tuple(hi))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_lift_table(args) -> int:
    cone = load_cone(load_json_file(args.cone))
    module = load_module(load_json_file(args.module), cone)
    box = parse_box(args.box, cone.ray_count)
    table = lift_table(cone, module, box, jobs=args.jobs)
    if args.format == "tsv":
        text = "\n".join(table_tsv_lines(cone, table.components)) + "\n"
    else:
        rows = [component_to_json(table.components[c])
                for c in sorted(table.components)]
        text = json.dumps(rows, indent=2) + "\n"
    _emit(text, args.out)
    return 0


def cmd_check(args) -> int:
    report = run_suite(args.suite)
    _emit("\n".join(report.lines()) + "\n", args.out)
    return 0 if report.ok else 1


def cmd_roos(args) -> int:
    diagram = load_diagram(load_json_file(args.diagram))
    from .derived import roos_limits

    res = roos_limits(diagram, args.imax)
    payload = {
        "limit_dims": list(res.limit_dims),
        "cochain_dims": list(res.cochain_dims),
        "differential_ranks": list(res.differential_ranks),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxlift",
        description="Exact degree-wise lifting of multigraded modules to Cox degrees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("lift-table", help="sweep a degree box")
    p_table.add_argument("--cone", required=True, help="cone JSON file")
    p_table.add_argument("--module", required=True, help="module JSON file")
    p_table.add_argument("--box", required=True,
                         help='degree box, e.g. "-2..2" or "-2..2,-1..1,..."')
    p_table.add_argument("--out", default=None, help="output file (default stdout)")
    p_table.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_table.add_argument("--jobs", type=int, default=1, help="worker pool width")
    p_table.set_defaults(func=cmd_lift_table)

    p_check = sub.add_parser("check", help="run a named verification suite")
    p_check.add_argument("suite", choices=sorted(SUITES))
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    p_roos = sub.add_parser("roos", help="derived limits of a finite poset diagram")
    p_roos.add_argument("--diagram", required=True, help="diagram JSON file")
    p_roos.add_argument("--imax", type=int, default=1)
    p_roos.add_argument("--out", default=None)
    p_roos.set_defaults(func=cmd_roos)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
