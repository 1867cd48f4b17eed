"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
from coxlift import cli  # noqa: E402,F401  (imports every layer)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_are_valid():
    bench = _declared()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert 1 <= bench["run_seconds"] <= 60


def test_declared_workloads_and_metrics_match_the_code():
    bench = _declared()
    assert [w["name"] for w in bench["workloads"]] == list(run._workloads())
    produced = set(tracer.layer_metrics([])) | {"trace_overhead_s", "cli.jobs2_cpu_s"}
    assert {m["name"] for m in bench["per_layer"]} == produced


def _reachable() -> list[tuple[str, object]]:
    out = []
    for mod in tracer.coxlift_modules():
        for attr, value in vars(mod).items():
            out.append((f"{mod.__name__}.{attr}", value))
            if isinstance(value, dict):
                out += [(f"{mod.__name__}.{attr}[{k!r}]", v) for k, v in value.items()]
    return out


def test_every_public_function_is_wrapped_in_every_namespace():
    originals = {id(fn): name for name, fn in tracer.public_functions().items()}
    before = [(where, originals[id(v)]) for where, v in _reachable() if id(v) in originals]
    assert len(before) > len(originals)  # re-exports and SUITES are covered too
    t = tracer.Tracer("test").install()
    try:
        left = [where for where, v in _reachable() if id(v) in originals]
        assert left == []
        for name, cls, meth in tracer._method_targets():
            raw = vars(cls)[meth]
            assert hasattr(getattr(raw, "__func__", raw), "__wrapped__"), name
    finally:
        t.uninstall()
    after = [(where, originals[id(v)]) for where, v in _reachable() if id(v) in originals]
    assert after == before


def test_self_time_subtracts_direct_children():
    spans = {"run_id": "x", "window": [0.0, 10.0], "names": ["cli.main", "linalg.rref"],
             "spans": {"name": [0, 1, 1], "parent": [-1, 0, 0],
                       "start": [1.0, 2.0, 5.0], "end": [9.0, 4.0, 6.0]}}
    layers, residual = tracer.self_times(spans)
    assert layers == {"cli": 5.0, "linalg": 3.0}
    assert residual == 2.0


def _tiny_tasks(tmp: Path) -> list[tuple[run.Workload, list[run.Task]]]:
    import inputs

    cone = tmp / "cone.json"
    cone.write_text(json.dumps({"lattice_rank": 3, "rays": inputs.SQUARE_RAYS}))
    module = tmp / "module.json"
    module.write_text(json.dumps(inputs.square_filtration_module(3)))
    diagram = tmp / "diagram.json"
    diagram.write_text(json.dumps({"elements": ["a", "b", "c", "d"],
                                   "leq": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]],
                                   "dims": {"a": 1, "b": 1, "c": 1, "d": 1},
                                   "maps": {"a->c": [[1]], "a->d": [[1]],
                                            "b->c": [[1]], "b->d": [[1]]}}))
    wl = run._workloads()
    files = {"cone": str(cone), "module": str(module), "box": "-1..0",
             "diagrams": [str(diagram)]}
    return [(wl["sweep-square"], run._lift_table(files)),
            (wl["roos-diagram"], run._roos(files)),
            (wl["verify-suites"], [run.Task("liftex", ("check", "liftex"), {})])]


def test_tracing_leaves_every_output_byte_identical(tmp_path):
    deadline = time.perf_counter() + 120
    for k, (wl, tasks) in enumerate(_tiny_tasks(tmp_path)):
        plain = run.run_rep(wl, tasks, 1, False, "1", tmp_path / f"plain{k}", deadline)
        traced = run.run_rep(wl, tasks, 1, True, "2", tmp_path / f"traced{k}", deadline)
        assert plain.ok and traced.ok, wl.name
        assert plain.outputs == traced.outputs and all(plain.outputs), wl.name
        metrics = tracer.layer_metrics([p.spans for p in traced.procs])
        assert metrics["cli.busy_s"] > 0
        assert 0 <= metrics["trace.residual_s"] < 0.1 * metrics["trace.window_s"]


def _proc(wall_s: float, probe_s: float, lane: int = 0) -> run.Proc:
    task = run.Task("t", (), {})
    return run.Proc(task, 0, 0, 0.1, wall_s, 0.0, 1.0, b"", None, probe_s, lane)


def test_reference_scale_weights_probes_by_wall_time():
    assert run.reference_scale([_proc(2.0, run.PROBE_REF_S)]) == 1.0
    # a host twice as slow as the reference halves the seconds
    assert abs(run.reference_scale([_proc(1.0, 2 * run.PROBE_REF_S)]) - 0.5) < 1e-12
    # three seconds at the reference speed and one at twice its probe time
    procs = [_proc(3.0, run.PROBE_REF_S), _proc(1.0, 2 * run.PROBE_REF_S)]
    assert abs(run.reference_scale(procs) - 4 / 5) < 1e-12


def test_a_repetition_takes_its_busiest_lane():
    rep = run.Rep(2, False, [_proc(1.0, 0.1, 0), _proc(0.5, 0.1, 1), _proc(0.75, 0.1, 1)])
    assert rep.wall_s == 1.25
