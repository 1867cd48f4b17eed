"""Outside-in tracer: wraps coxlift's public functions from the benchmark's side.

Nothing in ``src/`` changes.  ``Tracer.install()`` replaces every public
function of the traced layers in every ``coxlift`` namespace that holds
it by name (and in module-level dicts such as ``checks.SUITES``), so no
call can bypass a wrapper.  A wrapper either records a span (name,
start, end, parent span; the run id is the file's) or, for hot
predicates and leaf helpers, only counts calls.  Spans stay in memory
as flat arrays and are written once, at the end of the run.

``layer_metrics`` derives the per-layer figures from a span file: a
span's self time is its duration minus that of its direct children, and
a layer's busy time is the sum of self time over its spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import types
from array import array
from collections import Counter

from inputs import SUITES

LAYERS = ("lattice", "cones", "linalg", "modules", "lifting", "derived",
          "klyachko", "jsonio", "checks", "cli")

# methods are wrapped on their class, which every namespace shares
METHODS = {
    "modules": ("GradedModule.component", "GradedModule.action"),
    "derived": ("FinitePosetDiagram.from_maps", "FinitePosetDiagram.validate_composition",
                "FinitePosetDiagram.covers"),
}

# called so often, for so little work each, that a span would cost more
# than the call; their time stays in the caller's span
COUNT_ONLY = frozenset({
    "cones.leq_sigma",
    "jsonio.parse_fraction",
    "jsonio.fraction_out",
    "lattice.int_matrix",
    "lattice.imat_vec",
    "linalg.frac_vector",
})

_LRU = type(functools.lru_cache(maxsize=None)(lambda: None))


def coxlift_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "coxlift" or name.startswith("coxlift."))]


def public_functions() -> dict[str, object]:
    """``layer.name`` -> function, for every public function a layer defines."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"coxlift.{layer}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and isinstance(obj, (types.FunctionType, _LRU))
                    and obj.__module__ == mod.__name__):
                out[f"{layer}.{name}"] = obj
    return out


def _method_targets():
    for layer, specs in METHODS.items():
        mod = importlib.import_module(f"coxlift.{layer}")
        for spec in specs:
            cls_name, meth = spec.split(".")
            yield f"{layer}.{spec}", getattr(mod, cls_name), meth


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.calls: Counter = Counter()
        self.sums: Counter = Counter()
        self.first_call_ms: dict[str, list[float]] = {"cones.minimal_elements": [],
                                                       "lifting.lift_component": []}
        self._seen: dict[str, set] = {"cones.minimal_elements": set(),
                                      "lifting.lift_component": set(),
                                      "modules.action": set()}
        self._tokens: dict[int, int] = {}
        self._canon: dict[object, int] = {}
        self._alive: list[object] = []
        self._patches: list[tuple[object, str, object]] = []
        self._dict_patches: list[tuple[dict, object, object]] = []

    # -- value tokens: equal objects share one token, as in the lru caches

    def _token(self, obj) -> int:
        tok = self._tokens.get(id(obj))
        if tok is None:
            tok = self._canon.setdefault(obj, len(self._canon))
            self._tokens[id(obj)] = tok
            self._alive.append(obj)  # keeps ids from being reused
        return tok

    # -- per-function extras, run after the span has ended

    def _hook(self, name: str):
        sums = self.sums
        if name == "cones.minimal_elements":
            return lambda args, result, dur: self._first(
                name, (self._token(args[0]), tuple(int(x) for x in args[1])), dur)
        if name == "lifting.lift_component":
            return lambda args, result, dur: self._first(
                name, (self._token(args[0]), self._token(args[1]),
                       tuple(int(x) for x in args[2])), dur)
        if name == "modules.GradedModule.action":
            seen = self._seen["modules.action"]
            return lambda args, result, dur: seen.add(
                (self._token(args[0]), tuple(args[1]), tuple(args[2])))

        def kernel(args, result, dur):
            sums["linalg.kernel_rows"] += args[0].nrows
            sums["linalg.kernel_rank"] += args[0].ncols - len(result)

        def sparse(args, result, dur):
            sums["linalg.sparse_rank_s"] += dur
            sums["linalg.sparse_rows"] += len(args[0])

        def roos(args, result, dur):
            sums["derived.cochain_dim"] += sum(result.cochain_dims)

        def add_time(key):
            def hook(args, result, dur):
                sums[key] += dur
            return hook

        if name.startswith("checks.check_"):
            return add_time(f"checks.{name[len('checks.check_'):]}_s")
        return {"linalg.kernel_basis": kernel,
                "linalg.sparse_rank": sparse,
                "derived.roos_limits": roos,
                "lifting.lift_action": add_time("lifting.restriction_s"),
                "jsonio.load_diagram": add_time("jsonio.load_diagram_s")}.get(name)

    def _first(self, name: str, key, dur: float) -> None:
        seen = self._seen[name]
        if key not in seen:
            seen.add(key)
            self.first_call_ms[name].append(dur * 1000.0)

    # -- wrappers

    def _span_wrapper(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, calls, clock = self._stack, self.calls, time.perf_counter
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        hook = self._hook(name)
        # the row count is read after the call, so a one-shot iterator is kept
        materialize = name == "linalg.sparse_rank"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if materialize and not isinstance(args[0], list):
                args = (list(args[0]),) + args[1:]
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                s_end[idx] = end
                stack.pop()
            if hook is not None:
                hook(args, result, end - s_start[idx])
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._count_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    def install(self) -> "Tracer":
        """Wrap every target in every coxlift namespace and module-level dict."""
        originals = public_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for mod in coxlift_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._dict_patches.append((value, key, item))
                            value[key] = wrappers[id(item)]
        for name, cls, meth in _method_targets():
            raw = vars(cls)[meth]
            self._patches.append((cls, meth, raw))
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, self._wrap(name, raw))
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        for table, key, value in reversed(self._dict_patches):
            table[key] = value
        self._patches.clear()
        self._dict_patches.clear()

    def dump(self, path: str, window: tuple[float, float]) -> None:
        """Write spans and counters; ``window`` is the traced interval (perf_counter)."""
        payload = {
            "run_id": self.run_id,
            "window": list(window),
            "names": self.names,
            "spans": {"name": self.span_name.tolist(), "parent": self.span_parent.tolist(),
                      "start": self.span_start.tolist(), "end": self.span_end.tolist()},
            "calls": dict(self.calls),
            "sums": dict(self.sums),
            "first_call_ms": self.first_call_ms,
            "distinct": {k: len(v) for k, v in self._seen.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# --------------------------------------------------------------------------
# analysis


def self_times(span_file: dict) -> tuple[Counter, float]:
    """Self time per layer, and the part of the window no span covers."""
    spans = span_file["spans"]
    names = span_file["names"]
    n = len(spans["start"])
    dur = [spans["end"][i] - spans["start"][i] for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(spans["parent"]):
        if p >= 0:
            child[p] += dur[i]
    layers: Counter = Counter()
    for i in range(n):
        layers[names[spans["name"][i]].split(".")[0]] += dur[i] - child[i]
    lo, hi = span_file["window"]
    covered = sum(dur[i] for i in range(n) if spans["parent"][i] < 0)
    return layers, (hi - lo) - covered


def tail(values: list[float]) -> float:
    """Highest percentile with ten samples beyond it: the 11th largest value.

    With fewer than eleven samples no such percentile exists; the largest is reported.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def layer_metrics(span_files: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (one or more processes)."""
    layers: Counter = Counter()
    calls: Counter = Counter()
    sums: Counter = Counter()
    distinct: Counter = Counter()
    first: dict[str, list[float]] = {"cones.minimal_elements": [], "lifting.lift_component": []}
    residual = window = 0.0
    for sf in span_files:
        busy, rest = self_times(sf)
        layers.update(busy)
        residual += rest
        window += sf["window"][1] - sf["window"][0]
        calls.update(sf["calls"])
        sums.update(sf["sums"])
        distinct.update(sf["distinct"])
        for k in first:
            first[k].extend(sf["first_call_ms"][k])

    out = {f"{layer}.busy_s": layers[layer] for layer in LAYERS}
    searches = first["cones.minimal_elements"]
    components = first["lifting.lift_component"]
    kernel_rows = sums["linalg.kernel_rows"]
    action_calls = calls["modules.GradedModule.action"]
    out.update({
        "cones.minimal_elements_calls": calls["cones.minimal_elements"],
        "cones.distinct_degrees": distinct["cones.minimal_elements"],
        "cones.search_p50_ms": statistics.median(searches) if searches else 0.0,
        "cones.search_tail_ms": tail(searches),
        "cones.leq_sigma_calls": calls["cones.leq_sigma"],
        "linalg.rref_calls": calls["linalg.rref"],
        "linalg.kernel_calls": calls["linalg.kernel_basis"],
        "linalg.kernel_rows": kernel_rows,
        "linalg.kernel_rank": sums["linalg.kernel_rank"],
        "linalg.row_yield": sums["linalg.kernel_rank"] / kernel_rows if kernel_rows else 0.0,
        "linalg.sparse_rank_s": sums["linalg.sparse_rank_s"],
        "linalg.sparse_rank_calls": calls["linalg.sparse_rank"],
        "linalg.sparse_rows": sums["linalg.sparse_rows"],
        "modules.action_calls": action_calls,
        "modules.distinct_actions": distinct["modules.action"],
        "modules.action_reuse": (1.0 - distinct["modules.action"] / action_calls
                                 if action_calls else 0.0),
        "modules.component_calls": calls["modules.GradedModule.component"],
        "lifting.component_calls": calls["lifting.lift_component"],
        "lifting.distinct_components": distinct["lifting.lift_component"],
        "lifting.component_p50_ms": statistics.median(components) if components else 0.0,
        "lifting.component_tail_ms": tail(components),
        "lifting.restriction_calls": calls["lifting.lift_action"],
        "lifting.restriction_s": sums["lifting.restriction_s"],
        "derived.roos_calls": calls["derived.roos_limits"],
        "derived.cochain_dim": sums["derived.cochain_dim"],
        "lattice.membership_calls": calls["lattice.lattice_membership"],
        "jsonio.load_diagram_s": sums["jsonio.load_diagram_s"],
        "trace.window_s": window,
        "trace.residual_s": residual,
    })
    out.update({f"checks.{suite}_s": sums[f"checks.{suite}_s"] for suite in SUITES})
    return out
