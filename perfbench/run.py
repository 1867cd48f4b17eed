#!/usr/bin/env python3
"""coxlift benchmark: time to verified output on the paths users run.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all  [--seed N --seconds S --trace 0|1]

Run from the root of a source checkout.  Each repetition starts fresh
``worker.py`` processes (cold per-process caches, as for a user's CLI
call) and checks their output bytes.  ``--trace 0`` reports the
end-to-end metrics with tracing off; ``--trace 1`` reports the
per-layer metrics from a traced process next to an untraced one.  The
last line of stdout is one JSON object; the lines before it name every
metric with its unit, plus the host record.  Scratch files go to
``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

sys.path[:0] = [str(SRC), str(HERE)]

from worker import PROBE_REF_S, cpu_probe  # noqa: E402

HASH_SEEDS = ("1", "2")
RUN_DEADLINE_S = 160.0  # no process outlives this, counted from the start of the run


@dataclass(frozen=True)
class Task:
    """One CLI command of a workload; ``inputs`` are loaded during set-up."""

    label: str
    argv: tuple[str, ...]
    inputs: dict


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: Callable[[dict], list[Task]]
    oracle: Callable[[list[bytes], dict], list[str]]
    pooled: bool  # the command takes --jobs; otherwise tasks run two at a time


def _lift_table(files: dict) -> list[Task]:
    return [Task("table", ("lift-table", "--cone", files["cone"], "--module", files["module"],
                           f"--box={files['box']}"),
                 {"cone": files["cone"], "module": files["module"]})]


def _suites(files: dict) -> list[Task]:
    from inputs import SUITES

    return [Task(suite, ("check", suite), {}) for suite in SUITES]


def _roos(files: dict) -> list[Task]:
    return [Task(f"diagram{k}", ("roos", "--diagram", path, "--imax", "1"), {"diagram": path})
            for k, path in enumerate(files["diagrams"])]


def _workloads() -> dict[str, Workload]:
    import oracles

    items = [
        # the paper's core computation, one module over many degrees: dense
        # Fraction RREF (linalg) and transports (modules) dominate, and the
        # serial restriction maps of LiftTable.steps run here
        Workload("sweep-square", _lift_table, oracles.sweep_square, pooled=True),
        # 0/1-dimensional components: the minimal-point search (cones) is
        # nearly all of the time; linalg and modules sit idle
        Workload("sweep-hexagon", _lift_table, oracles.sweep_hexagon, pooled=True),
        # many distinct small modules with cold per-process caches through the
        # check path: cache keys hashed on whole modules cost most here
        Workload("verify-suites", _suites, oracles.verify_suites, pooled=False),
        # the only path where derived and linalg.sparse_rank dominate; the
        # loader closes and validates cover-only diagrams during set-up
        Workload("roos-diagram", _roos, oracles.roos_diagram, pooled=False),
    ]
    return {w.name: w for w in items}


# --------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    """A finished worker process."""

    task: Task
    pid: int
    rc: int
    setup_s: float
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    output: bytes
    spans: dict | None
    probe_s: float  # mean of the process's CPU probes, before set-up and after the command
    lane: int = 0  # which of the repetition's concurrent lanes ran it


class Launcher:
    """Starts worker processes in their own sessions and always reaps them."""

    def __init__(self, rep_dir: Path, deadline: float):
        self.rep_dir = rep_dir
        self.deadline = deadline
        self.live: dict[int, tuple] = {}
        self.count = 0

    def start(self, task: Task, jobs: int, hash_seed: str, trace: bool, pooled: bool) -> int:
        n = self.count
        self.count += 1
        base = self.rep_dir / f"p{n}-{task.label}"
        argv = list(task.argv) + ["--out", f"{base}.out"]
        if pooled:
            argv += ["--jobs", str(jobs)]
        request = {"src": str(SRC), "argv": argv, "inputs": task.inputs, "trace": trace,
                   "run_id": f"{self.rep_dir.name}/p{n}", "result": f"{base}.result.json",
                   "spans": f"{base}.spans.json"}
        Path(f"{base}.request.json").write_text(json.dumps(request), encoding="utf-8")
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env.pop("PYTHONPATH", None)
        with open(f"{base}.log", "wb") as log:
            t_spawn = time.perf_counter()
            popen = subprocess.Popen(
                [sys.executable, str(WORKER), f"{base}.request.json"], cwd=ROOT, env=env,
                stdin=subprocess.DEVNULL, stdout=log, stderr=log, start_new_session=True)
        self.live[popen.pid] = (popen, task, base, t_spawn, trace)
        return popen.pid

    def wait_any(self) -> Proc:
        """Block until one live worker ends (killing it at the deadline)."""
        while True:
            for pid in list(self.live):
                done, status, usage = os.wait4(pid, os.WNOHANG)
                if done:
                    return self._finish(pid, status, usage)
            if time.perf_counter() > self.deadline:
                pid = next(iter(self.live))
                os.killpg(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
                return self._finish(pid, status, usage)
            time.sleep(0.002)

    def _finish(self, pid: int, status: int, usage) -> Proc:
        popen, task, base, t_spawn, trace = self.live.pop(pid)
        popen.returncode = os.waitstatus_to_exitcode(status)
        rc = popen.returncode
        setup = wall = probe = 0.0
        output = b""
        spans = None
        try:
            result = json.loads(Path(f"{base}.result.json").read_text(encoding="utf-8"))
            setup = result["t_setup"] - t_spawn - result["probe_before_s"]
            wall = result["t_done"] - result["t_setup"]
            probe = (result["probe_before_s"] + result["probe_after_s"]) / 2
            rc = rc or result["rc"]
            output = Path(f"{base}.out").read_bytes()
            if trace:
                spans = json.loads(Path(f"{base}.spans.json").read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError):
            rc = rc or 1
        return Proc(task, pid, rc, setup, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, output, spans, probe)

    def kill_all(self) -> None:
        for pid in list(self.live):
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.wait4(pid, 0)
            self.live.pop(pid)


@dataclass
class Rep:
    """One complete set of a workload's outputs."""

    jobs: int
    trace: bool
    procs: list[Proc] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return bool(self.procs) and all(p.rc == 0 for p in self.procs)

    @property
    def wall_s(self) -> float:
        """The busiest lane's summed wall time."""
        busy: dict[int, float] = {}
        for p in self.procs:
            busy[p.lane] = busy.get(p.lane, 0.0) + p.wall_s
        return max(busy.values())

    @property
    def outputs(self) -> list[bytes]:
        return [p.output for p in self.procs]


def run_rep(wl: Workload, tasks: list[Task], jobs: int, trace: bool, hash_seed: str,
            rep_dir: Path, deadline: float) -> Rep:
    """Produce every output once: tasks in order at ``--jobs 1``; at ``jobs=2`` either
    the command's own pool or two tasks at a time.  Wall time excludes set-up."""
    rep_dir.mkdir(parents=True)
    rep = Rep(jobs, trace)
    launcher = Launcher(rep_dir, deadline)
    t0 = time.perf_counter()
    try:
        if wl.pooled or jobs == 1:
            for task in tasks:
                launcher.start(task, jobs, hash_seed, trace, wl.pooled)
                rep.procs.append(launcher.wait_any())
        else:
            # like ``xargs -P 2``: the next task starts when a lane frees up; a
            # lane's time is the sum of its tasks' wall times
            lanes: dict[int, int] = {}  # pid of a live worker -> its lane
            pending = list(tasks)
            while pending or launcher.live:
                while pending and len(launcher.live) < jobs:
                    free = next(i for i in range(jobs) if i not in lanes.values())
                    lanes[launcher.start(pending.pop(0), jobs, hash_seed, trace, False)] = free
                proc = launcher.wait_any()
                proc.lane = lanes.pop(proc.pid)
                rep.procs.append(proc)
    finally:
        launcher.kill_all()
    rep.elapsed_s = time.perf_counter() - t0
    rep.procs.sort(key=lambda p: tasks.index(p.task))
    return rep


# --------------------------------------------------------------------------
# host record


def host_record() -> dict:
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "hash_seeds": list(HASH_SEEDS), "loadavg": list(os.getloadavg())}


# --------------------------------------------------------------------------
# measurement


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def reference_scale(procs: list[Proc]) -> float:
    """Factor from the run's seconds to seconds at the reference speed: PROBE_REF_S
    over the run's mean CPU probe, each process's probes weighted by its wall time.
    The probes bracket every process, so this follows how much of the run the host
    spent slow; the probes of a long process stand for more of the run."""
    return PROBE_REF_S * sum(p.wall_s for p in procs) / sum(p.wall_s * p.probe_s for p in procs)


def measure(wl: Workload, seed: int, seconds: float, trace: bool, run_dir: Path,
            started: float) -> tuple[dict | None, int, int, dict]:
    """Metric values (None when no repetition ran through), attempted, failed, host."""
    import inputs
    import tracer

    files = inputs.write_inputs(wl.name, seed, run_dir / "inputs")
    tasks = wl.tasks(files)
    deadline = started + RUN_DEADLINE_S
    host = host_record()
    host["cpu_probe_before_s"] = cpu_probe()

    # the schedule: --trace 0 alternates --jobs 1 and --jobs 2 repetitions;
    # --trace 1 alternates untraced and traced --jobs 1 and ends with one
    # untraced --jobs 2 repetition.  Hash seeds alternate so that each kind
    # of repetition runs under both.
    def kind(k: int) -> tuple[int, bool]:
        return (1, k % 2 == 1) if trace else (1 + k % 2, False)

    reps: list[Rep] = []
    t0 = time.perf_counter()
    last: dict[tuple[int, bool], float] = {}
    k = 0
    while True:
        jobs, traced = kind(k)
        guess = last.get((jobs, traced), max(last.values(), default=0.0))
        if k >= 2 and (time.perf_counter() - t0 + guess > seconds
                       or time.perf_counter() + 2 * guess > deadline):
            break
        rep = run_rep(wl, tasks, jobs, traced, HASH_SEEDS[(k // 2 + k % 2) % 2],
                      run_dir / f"rep{k}", deadline)
        last[(jobs, traced)] = rep.elapsed_s
        reps.append(rep)
        k += 1
    if trace:
        reps.append(run_rep(wl, tasks, 2, False, HASH_SEEDS[k % 2], run_dir / f"rep{k}",
                            deadline))
    host["cpu_probe_after_s"] = cpu_probe()
    host["repetitions"] = len(reps)
    rows = [{"rep": k, "jobs": r.jobs, "trace": r.trace, "task": p.task.label, "lane": p.lane,
             "rc": p.rc, "setup_s": p.setup_s, "wall_s": p.wall_s, "probe_s": p.probe_s}
            for k, r in enumerate(reps) for p in r.procs]
    (run_dir / "processes.json").write_text(json.dumps(rows, indent=0) + "\n", encoding="utf-8")

    # correctness: every repetition's bytes equal the first's, which pass the oracle
    reference = next((r.outputs for r in reps if r.ok), None)
    problems = wl.oracle(reference, files) if reference is not None else ["no run succeeded"]
    for line in problems[:10]:
        print(f"oracle mismatch: {line}", file=sys.stderr)
    good = [r for r in reps if r.ok and not problems and r.outputs == reference]
    failed = len(reps) - len(good)

    ok = [r for r in reps if r.ok]
    base = [r for r in ok if r.jobs == 1 and not r.trace]
    pool = [r for r in ok if r.jobs == 2]
    traced = [r for r in ok if r.trace]
    if not base or not pool or (trace and not traced):
        return None, len(reps), failed, host
    # the host's speed flips between a fast and a slow state (up to 2x) within
    # a second, so the end-to-end times are means over the run at the reference
    # speed (medians of single repetitions would jump between the two states);
    # the measured medians go to the host record
    base_procs = [p for r in base for p in r.procs]
    scale = reference_scale(base_procs + [p for r in pool for p in r.procs])
    host["probe_weighted_mean_s"] = PROBE_REF_S / scale
    host["measured_wall_s"] = _median([r.wall_s for r in base])
    host["measured_wall_jobs2_s"] = _median([r.wall_s for r in pool])
    host["measured_setup_s"] = _median([p.setup_s for p in base_procs])
    if not trace:
        metrics = {
            "wall_s": statistics.mean(r.wall_s for r in base) * scale,
            "wall_jobs2_s": statistics.mean(r.wall_s for r in pool) * scale,
            "setup_s": statistics.mean(p.setup_s for p in base_procs) * scale,
            "peak_rss_mb": _median([max(p.maxrss_mb for p in r.procs) for r in base]),
        }
    else:
        per_rep = [tracer.layer_metrics([p.spans for p in r.procs]) for r in traced]
        metrics = {name: _median([m[name] for m in per_rep]) for name in per_rep[0]}
        metrics["trace_overhead_s"] = (_median([r.wall_s for r in traced])
                                       - host["measured_wall_s"])
        metrics["cli.jobs2_cpu_s"] = _median([sum(p.cpu_s for p in r.procs) for r in pool])
    return metrics, len(reps), failed, host


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(declared: dict, name: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, bool]:
    started = time.perf_counter()
    wl = _workloads()[name]
    run_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    metrics, attempted, failed, host = measure(wl, seed, seconds, trace, run_dir, started)

    wanted = declared["per_layer" if trace else "end_to_end"]
    if metrics is None:
        print(f"error: {failed} of {attempted} repetitions failed; see {run_dir}",
              file=sys.stderr)
        return {}, False
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: BENCHMARK.json names metrics this code does not make: {missing}",
              file=sys.stderr)
        return {}, False
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    host.update(workload=name, seed=seed, trace=int(trace), seconds=seconds)
    (run_dir / "host.json").write_text(json.dumps(host, indent=1) + "\n", encoding="utf-8")
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print("host " + json.dumps(host, sort_keys=True))
    for metric, entry in result["metrics"].items():
        print(f"{name}\t{metric}\t{entry['value']:.6g}\t{entry['unit']}")
    print(f"{name}\tfail_ratio\t{failed / attempted:.6g}\tratio ({failed}/{attempted})")
    return result, True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coxlift" / "__init__.py").is_file():
        print(f"error: no coxlift sources under {SRC}", file=sys.stderr)
        return 2
    try:
        declared = _declared()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    names = [w["name"] for w in declared["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(n not in names for n in chosen):
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2

    results = {}
    for name in chosen:
        result, ok = run_one(declared, name, args.seed, seconds, bool(args.trace))
        if not ok:
            return 1
        results[name] = result
    if args.workload == "all":
        print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                          "attempted": sum(r["attempted"] for r in results.values()),
                          "failed": sum(r["failed"] for r in results.values()),
                          "workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
