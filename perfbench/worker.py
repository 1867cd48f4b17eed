"""One benchmark process: set up, run one ``coxlift`` command, report its times.

Usage: python3 perfbench/worker.py REQUEST.json

The request names the source tree, the CLI arguments, the input files
to load during set-up, whether to trace, and where to write the result.
Set-up is what a CLI run does before its real work: import the package,
read the JSON inputs and build the cone, module or diagram from them
(for a diagram this includes the loader's closure and validation).  The
objects built there are handed to ``cli.main`` through its own loader
names, so the timed part is the rest of the command: the computation
and writing the output file.

The process also times a fixed pure-Python loop (``cpu_probe``) first
thing and again at the end, so that its times can be read against the
speed the host gave it while it ran.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

# the host speed the reference-scaled metrics assume: cpu_probe() takes this long
PROBE_REF_S = 0.1


def cpu_probe(n: int = 15000) -> float:
    """Seconds for a fixed pure-Python Fraction loop, the same kind of work as coxlift's."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, n):
        acc = (acc + Fraction(k % 7 + 1, k % 11 + 1)) % 97
    return time.perf_counter() - t0


def preload(cli, inputs: dict) -> None:
    """Load the inputs through the CLI's loaders, then make those loaders replay them."""
    parsed: dict[str, object] = {}
    built: dict[int, object] = {}

    def read(key: str):
        obj = cli.load_json_file(inputs[key])
        parsed[inputs[key]] = obj
        return obj

    if "cone" in inputs:
        cone_obj = read("cone")
        cone = built[id(cone_obj)] = cli.load_cone(cone_obj)
        module_obj = read("module")
        built[id(module_obj)] = cli.load_module(module_obj, cone)
    if "diagram" in inputs:
        diagram_obj = read("diagram")
        built[id(diagram_obj)] = cli.load_diagram(diagram_obj)

    cli.load_json_file = parsed.__getitem__
    cli.load_cone = lambda obj: built[id(obj)]
    cli.load_module = lambda obj, cone: built[id(obj)]
    cli.load_diagram = lambda obj: built[id(obj)]


def main() -> int:
    probe_before = cpu_probe()
    with open(sys.argv[1], encoding="utf-8") as fh:
        req = json.load(fh)
    sys.path[:0] = [req["src"], str(Path(__file__).resolve().parent)]
    from coxlift import cli  # imports every layer

    tracer = None
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer(req["run_id"]).install()
    t_begin = time.perf_counter()
    preload(cli, req["inputs"])
    t_setup = time.perf_counter()
    rc = cli.main(req["argv"])
    t_done = time.perf_counter()
    if tracer is not None:
        tracer.dump(req["spans"], (t_begin, t_done))
    probe_after = cpu_probe()
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "t_setup": t_setup, "t_done": t_done,
                   "probe_before_s": probe_before, "probe_after_s": probe_after}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
