import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coxlift
from coxlift import checks, cli, lifting
from coxlift.cli import main, parse_box
from coxlift.instances import simple_lift_law
from coxlift.jsonio import load_cone, load_diagram, load_module
from coxlift.lifting import Box
from coxlift.modules import FiltrationModule, ReflexiveDescription, ray_filtration

CONE_JSON = {"lattice_rank": 3,
             "rays": [[1, 0, 0], [0, 1, 0], [-1, 1, 1], [0, 0, 1]]}

SIMPLE_JSON = {
    "type": "indicator", "style": "quotient",
    "constraints": [
        {"ray": r, "op": op, "bound": 0} for r in range(4) for op in ("<=", ">=")
    ],
}

CROWN_JSON = {
    "elements": ["a", "b", "c", "d"],
    "leq": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]],
    "dims": {"a": 1, "b": 1, "c": 1, "d": 1},
    "maps": {"a->c": [[1]], "a->d": [[1]], "b->c": [[1]], "b->d": [[1]]},
}


def line_filtration(level):
    """A rank-1 filtration module on the square cone with ray 0 jumping at ``level``."""
    return {"type": "filtration", "ambient_dim": 1,
            "filtrations": {str(r): [{"level": level if r == 0 else 0, "basis": [[1]]}]
                            for r in range(4)}}


@pytest.fixture
def inputs(tmp_path):
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps(CONE_JSON))
    module = tmp_path / "simple.json"
    module.write_text(json.dumps(SIMPLE_JSON))
    crown = tmp_path / "crown.json"
    crown.write_text(json.dumps(CROWN_JSON))
    return tmp_path


def test_parse_box():
    assert parse_box("-2..2", 3) == Box((-2, -2, -2), (2, 2, 2))
    assert parse_box("0..1,-1..0", 2) == Box((0, -1), (1, 0))
    with pytest.raises(ValueError):
        parse_box("0..1,0..1", 3)
    with pytest.raises(ValueError):
        parse_box("nonsense", 1)
    # a bound is an optional '-' and ASCII digits: no underscores, no sign '+',
    # no other scripts' digits, no inner blanks; the error names the range
    for bad in ("1_0..1_0", "\u0663..\u0663", "a..b", "+1..2", "--1..2", "-2 .. 2", "1..", "..1"):
        with pytest.raises(ValueError, match=re.escape(f"range {bad!r} must look like lo..hi")):
            parse_box(f"0..0,{bad}", 2)


def test_jsonio_roundtrip():
    cone = load_cone(CONE_JSON)
    module = load_module(SIMPLE_JSON, cone)
    assert module.component((0, 0, 0)) == 1
    diagram = load_diagram(CROWN_JSON)
    assert diagram.dims == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        load_module({"type": "mystery"}, cone)
    with pytest.raises(ValueError):
        load_cone({"rays": [[1, 0]]})


def test_lift_table_tsv_matches_law(inputs):
    out = inputs / "table.tsv"
    code = main(["lift-table", "--cone", str(inputs / "cone.json"),
                 "--module", str(inputs / "simple.json"),
                 "--box=-1..1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "c1\tc2\tc3\tc4\tdim"
    assert len(lines) == 1 + 81
    for line in lines[1:]:
        *deg, dim = line.split("\t")
        assert int(dim) == simple_lift_law(tuple(int(x) for x in deg))


def test_lift_table_deterministic_across_jobs(inputs, monkeypatch):
    # two usable CPUs, so that --jobs 2 forks on a one-CPU host too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    a = inputs / "a.tsv"
    b = inputs / "b.tsv"
    assert main(["lift-table", "--cone", str(inputs / "cone.json"),
                 "--module", str(inputs / "simple.json"),
                 "--box=-1..1", "--out", str(a), "--jobs", "1"]) == 0
    assert main(["lift-table", "--cone", str(inputs / "cone.json"),
                 "--module", str(inputs / "simple.json"),
                 "--box=-1..1", "--out", str(b), "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_lift_table_json_format(inputs):
    out = inputs / "table.json"
    assert main(["lift-table", "--cone", str(inputs / "cone.json"),
                 "--module", str(inputs / "simple.json"),
                 "--box=0..0,0..0,-2..0,0..0", "--format", "json",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 3
    by_degree = {tuple(r["degree"]): r for r in rows}
    assert by_degree[(0, 0, -1, 0)]["dim"] == 1
    assert by_degree[(0, 0, -1, 0)]["minimal_elements"]


# four lines in general position in Q^2, one per ray, each filling up at level 1
GENERIC_LINES_JSON = {
    "type": "filtration", "ambient_dim": 2,
    "filtrations": {
        str(r): [{"level": level, "basis": [line]},
                 {"level": 1, "basis": [[1, 0], [0, 1]]}]
        for r, (level, line) in enumerate([(0, [2, -1]), (0, [3, 1]),
                                           (0, [1, 2]), (-1, [3, -2])])
    },
}


def test_lift_table_json_bytes_are_pinned(inputs, capsys):
    # the bases hold reduced fractions such as "1/3", "-1/2" and "-2/3"; the
    # expected bytes come from the Gauss-Jordan engine kept as dense_rref in
    # test_linalg.py, and must not depend on the order of elimination
    module = inputs / "generic.json"
    module.write_text(json.dumps(GENERIC_LINES_JSON))
    assert main(["lift-table", "--cone", str(inputs / "cone.json"),
                 "--module", str(module), "--format", "json", "--box=0..1"]) == 0
    expected = Path(__file__).parent / "data" / "lift_table_generic_lines.json"
    assert capsys.readouterr().out == expected.read_text(encoding="utf-8")


# generators at 0 and at (1, 0, 0); from (1, 0, 1) on, the first is 3/2 times the second
PRESENTED_JSON = {
    "type": "finitely_presented",
    "generators": [{"degree": [0, 0, 0]}, {"degree": [1, 0, 0]}],
    "relations": [{"degree": [1, 0, 1], "coeffs": [1, "-3/2"]}],
}


def test_lift_table_reads_a_finitely_presented_module(inputs, capsys):
    module = inputs / "presented.json"
    module.write_text(json.dumps(PRESENTED_JSON))
    assert main(["lift-table", "--cone", str(inputs / "cone.json"), "--module", str(module),
                 "--format", "json", "--box=0..1,0..0,-1..0,0..1"]) == 0
    rows = {tuple(r["degree"]): r for r in json.loads(capsys.readouterr().out)}
    # at L(m) the component at m: one per generator below m, less the relation above (1, 0, 1)
    assert {c: r["dim"] for c, r in rows.items()} == {
        (0, 0, -1, 0): 0, (0, 0, -1, 1): 1, (0, 0, 0, 0): 1, (0, 0, 0, 1): 1,
        (1, 0, -1, 0): 1, (1, 0, -1, 1): 1, (1, 0, 0, 0): 2, (1, 0, 0, 1): 1}
    # (1, 1, 0) holds both generators, (1, 0, 1) their quotient
    assert rows[(1, 0, 0, 0)]["basis"] == [[1, 0, 1], [0, 1, "-3/2"]]
    module.write_text(json.dumps(dict(PRESENTED_JSON, relations=[
        {"degree": [1, 0, 1], "coeffs": [1, 0.5]}])))
    assert main(["lift-table", "--cone", str(inputs / "cone.json"), "--module", str(module),
                 "--box=0..0"]) == 2
    assert capsys.readouterr().err == "error: cannot read 0.5 as an exact rational\n"


def test_roos_command(inputs, capsys):
    assert main(["roos", "--diagram", str(inputs / "crown.json"),
                 "--imax", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["limit_dims"] == [1, 1]


def test_lift_table_fans_out_no_wider_than_the_box(inputs, monkeypatch):
    forks = []

    def refuse():  # counts the children asked for; none starts
        forks.append(1)
        raise OSError("refused in a test")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    args = ["lift-table", "--cone", str(inputs / "cone.json"),
            "--module", str(inputs / "simple.json"), "--box=0..0,0..0,0..0,0..1"]
    with pytest.warns(RuntimeWarning, match="refused in a test"):
        assert main(args + ["--jobs", "8"]) == 0
    # width 2: this process lifts one degree, one child the other
    assert len(forks) == 1


def _loaded_after(statement: str) -> set[str]:
    """Names of the modules a fresh interpreter holds after running ``statement``."""
    code = f"import sys; {statement}; print(*sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"  # first on the path of ``-c``
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


def test_importing_the_cli_loads_no_pool_and_no_pickle():
    loaded = _loaded_after("import coxlift.cli")
    assert not {"concurrent.futures", "multiprocessing", "pickle"} & loaded


def test_importing_loads_only_the_layers_a_command_reads():
    assert {m for m in _loaded_after("import coxlift") if m.startswith("coxlift.")} == set()
    loaded = _loaded_after("import coxlift.cli")
    assert {"coxlift.checks", "coxlift.jsonio", "coxlift.lifting"} <= loaded
    assert not {"coxlift.derived", "coxlift.fans", "coxlift.klyachko"} & loaded


def test_the_package_names_resolve_to_their_layers():
    names = [n for n in coxlift.__all__ if n != "__version__"]
    for name in names:
        obj = getattr(coxlift, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
    star: dict = {}
    exec("from coxlift import *", star)
    assert set(star) - {"__builtins__"} == set(coxlift.__all__)
    assert set(names) <= set(dir(coxlift))
    with pytest.raises(AttributeError, match="no_such_name"):
        coxlift.no_such_name


def test_a_child_without_a_result_is_an_internal_error(inputs, monkeypatch, capsys):
    real = lifting.lift_component

    def exit_in_child(cone, module, c):
        if c == (0, 0, 0, 1):  # the child's degree at width 2
            os._exit(1)
        return real(cone, module, c)

    monkeypatch.setattr(lifting, "lift_component", exit_in_child)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert main(["lift-table", "--cone", str(inputs / "cone.json"),
                 "--module", str(inputs / "simple.json"), "--box=0..0,0..0,0..0,0..1",
                 "--jobs", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError:") and "exit status 1" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_check_command(capsys):
    assert main(["check", "classgroups"]) == 0
    out = capsys.readouterr().out
    assert "PASS suite classgroups" in out


def test_failed_check_exits_1(monkeypatch, capsys):
    def failing():
        report = checks.CheckReport("classgroups")
        report.expect("one equals two", 1, 2)
        return report

    monkeypatch.setitem(checks.SUITES, "classgroups", failing)
    assert main(["check", "classgroups"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL ") for line in lines[:-1])
    assert lines[-1].startswith("FAIL suite classgroups")


def test_error_exit_codes(inputs, capsys):
    assert main(["lift-table", "--cone", str(inputs / "nope.json"),
                 "--module", str(inputs / "simple.json"), "--box=0..0"]) == 2
    bad = inputs / "bad.json"
    bad.write_text("{not json")
    assert main(["lift-table", "--cone", str(bad),
                 "--module", str(inputs / "simple.json"), "--box=0..0"]) == 2
    assert main(["check", "nosuchsuite"]) == 2
    assert main(["lift-table", "--cone", str(inputs / "cone.json"),
                 "--module", str(inputs / "simple.json"), "--box=0..1,0..1"]) == 2
    assert main(["lift-table", "--cone", str(inputs / "cone.json"),
                 "--module", str(inputs / "simple.json"), "--box=a..b"]) == 2
    assert "range 'a..b' must look like lo..hi" in capsys.readouterr().err
    for jobs in ("0", "-1"):
        assert main(["lift-table", "--cone", str(inputs / "cone.json"),
                     "--module", str(inputs / "simple.json"), "--box=0..0",
                     "--jobs", jobs]) == 2
    assert main(["roos", "--diagram", str(inputs / "crown.json"), "--imax", "-1"]) == 2


def test_missing_module_key_is_an_input_error(inputs, capsys):
    module = inputs / "no_style.json"
    module.write_text(json.dumps({"type": "indicator", "constraints": []}))
    assert main(["lift-table", "--cone", str(inputs / "cone.json"),
                 "--module", str(module), "--box=0..0"]) == 2
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize("flag, payload", [
    ("--cone", {"lattice_rank": 3, "rays": 5}),
    ("--module", {"type": "indicator", "style": "quotient",
                  "constraints": [{"ray": 0, "op": "<=", "bound": [1]}]}),
    ("--cone", [1, 2]),
    ("--module", [1, 2]),
    ("--diagram", [1, 2]),
    ("--cone", dict(CONE_JSON, lattice_rank=3.7)),
    ("--module", {"type": "finitely_presented", "generators": [{"degree": [0.5, 0, 0]}]}),
    ("--module", {"type": "indicator", "style": "quotient",
                  "constraints": [{"ray": 0, "op": "<=", "bound": 0.9}]}),
    ("--module", line_filtration(0.5)),
    ("--module", line_filtration(True)),
    ("--diagram", dict(CROWN_JSON, dims={"a": 1.5, "b": 1, "c": 1, "d": 1})),
    # an excluded point of the wrong length would silently exclude nothing
    ("--module", {"type": "indicator", "style": "submodule",
                  "constraints": [{"ray": r, "op": ">=", "bound": 0} for r in range(4)],
                  "exclude": [[0, 0]]}),
])
def test_wrongly_typed_json_is_an_input_error(inputs, capsys, flag, payload):
    bad = inputs / "bad.json"
    bad.write_text(json.dumps(payload))
    if flag == "--diagram":
        argv = ["roos", "--diagram", str(bad)]
    else:
        files = {"--cone": inputs / "cone.json", "--module": inputs / "simple.json",
                 flag: bad}
        argv = ["lift-table", "--cone", str(files["--cone"]),
                "--module", str(files["--module"]), "--box=0..0"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


PAIR_AB = {"elements": ["a", "b"], "dims": {"a": 2, "b": 2}}


@pytest.mark.parametrize("payload, message", [
    ({"elements": ["a"], "leq": [], "dims": {"a": -2}, "maps": {}}, "negative dimension"),
    (dict(PAIR_AB, leq=[], maps={"a->b": [[1, 0], [0, 1]]}), "map a->b"),
    (dict(PAIR_AB, leq=[["a", "b"]], maps={"a->b": [[1, 0], [0, 1]],
                                           "b->a": [[1, 0], [0, 1]]}), "map b->a"),
    ({"elements": ["a", "a"], "leq": [], "dims": {"a": 1}, "maps": {}}, "repeats"),
    (dict(CROWN_JSON, maps=dict(CROWN_JSON["maps"], **{"a->c": [["1/0"]]})),
     "zero denominator"),
    ({"elements": ["a"], "leq": [], "dims": {"a": 1, "zz": 5}, "maps": {}}, "['zz']"),
    ({"elements": ["a", "b"], "leq": [["a", "b"]], "dims": {"a": 1, "b": 1},
      "maps": {"a->b": [[1], [2]]}}, "map a->b has shape 2x1, expected 1x1"),
    ({"elements": ["a", "b"], "leq": [["a", "b"]], "dims": {"a": 1, "b": 1},
      "maps": {"a->b": [[1, 2]]}}, "map a->b has shape 1x2, expected 1x1"),
    (dict(PAIR_AB, leq=[["a", "z"]], maps={}), "leq names the unknown element id 'z'"),
    (dict(PAIR_AB, leq=[["a", "b"]], maps={"a->z": [[1, 0], [0, 1]]}),
     "map a->z names the unknown element id 'z'"),
    (dict(PAIR_AB, leq=[["a", "b"]], maps={"a": [[1, 0], [0, 1]]}),
     "map key 'a' is not of the form 'a->b'"),
    (dict(PAIR_AB, leq=[["a", "b"]], maps={"a->b->a": [[1, 0], [0, 1]]}),
     "map key 'a->b->a' is not of the form 'a->b'"),
    # no map leaves b, so b -> c cannot be composed; named by ids, not indices
    ({"elements": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"]],
      "dims": {"a": 1, "b": 1, "c": 1}, "maps": {"a->b": [[1]]}},
     "error: no transport data for b -> c\n"),
    ({"elements": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"]],
      "dims": {"a": 1, "b": 1, "c": 1}, "maps": {"a->b": [[1]], "b->c": [[1]], "a->c": [[2]]}},
     "error: transports fail to compose on a <= b <= c\n"),
    # a pair is read as a sequence of ids; its length is from_maps' to check
    (dict(PAIR_AB, leq=[{}], maps={}), "error: expected a sequence, got {}\n"),
    (dict(PAIR_AB, leq=[["a", "b", "a"]], maps={}),
     "error: relation pair (0, 1, 0) is not a pair\n"),
    # the width of a map with no rows is a dim, read before from_maps reads the dims
    (dict(PAIR_AB, leq=[["a", "b"]], dims={"a": [5], "b": 0}, maps={"a->b": []}),
     "error: map a->b: expected a nonnegative integer column count, got [5]\n"),
])
def test_invalid_diagram_is_an_input_error(inputs, capsys, payload, message):
    bad = inputs / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["roos", "--diagram", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


# inputs each loader rejects with its own message
@pytest.mark.parametrize("flag, payload, message", [
    ("--module", dict(SIMPLE_JSON, style="other"), "style must be 'submodule' or 'quotient'"),
    ("--module", dict(SIMPLE_JSON, constraints=[{"ray": 9, "op": "<=", "bound": 0}]),
     "constraint ray 9 is outside 0..3"),
    ("--box", "2..1", "box needs lo <= hi componentwise"),
    ("--cone", dict(CONE_JSON, rays=[[1, 0, 0], [0, 1]]), "ragged matrix"),
    ("--cone", dict(CONE_JSON, rays=[]), "matrix must be nonempty"),
    ("--diagram", {key: CROWN_JSON[key] for key in ("elements", "dims", "maps")},
     "diagram JSON is missing 'leq'"),
    ("--module", {"type": "finitely_presented", "generators": [{"degree": [0, 0]}]},
     "generator (0, 0) has length 2, not the lattice rank 3"),
    # a basis vector longer than the ambient space
    ("--module", {"type": "filtration", "ambient_dim": 2,
                  "filtrations": {str(r): [{"level": 0, "basis": [[1, 0, 0]] if r == 0
                                            else [[1, 0], [0, 1]]}] for r in range(4)}},
     "vector (1, 0, 0) has length 3, the ambient dimension is 2"),
])
def test_rejected_input_exits_2_naming_the_fault(inputs, capsys, flag, payload, message):
    bad = inputs / "bad.json"
    bad.write_text(json.dumps(payload))
    if flag == "--diagram":
        argv = ["roos", "--diagram", str(bad)]
    else:
        files = {"--cone": inputs / "cone.json", "--module": inputs / "simple.json",
                 flag: bad}
        box = payload if flag == "--box" else "0..0"
        argv = ["lift-table", "--cone", str(files["--cone"]),
                "--module", str(files["--module"]), f"--box={box}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_zero_denominator_in_a_module_is_an_input_error(inputs, capsys):
    module = inputs / "bad.json"
    module.write_text(json.dumps({"type": "filtration", "ambient_dim": 1,
                                  "filtrations": {"0": [{"level": 0, "basis": [["1/0"]]}]}}))
    assert main(["lift-table", "--cone", str(inputs / "cone.json"),
                 "--module", str(module), "--box=0..0"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_repeated_filtration_level_is_an_input_error(inputs, capsys):
    # the second step at level 0 used to replace the first, and the table was printed
    module = line_filtration(0)
    module["filtrations"]["0"].append({"level": 0, "basis": [[2]]})
    bad = inputs / "bad.json"
    bad.write_text(json.dumps(module))
    assert main(["lift-table", "--cone", str(inputs / "cone.json"),
                 "--module", str(bad), "--box=0..0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ray 0: filtration levels are not increasing\n"


@pytest.mark.parametrize("old, new, message", [
    # "00" would be read as a second ray 0 and replace the first
    (None, "00", "not a ray index"),
    ("1", "01", "not a ray index"),
    ("2", " 2", "not a ray index"),
    ("3", "-1", "each given once"),
    # read by ``int`` first, which raised its own "invalid literal" message
    ("3", "a", "filtration key 'a' is not a ray index"),
])
def test_filtration_keys_must_be_the_ray_indices(inputs, capsys, old, new, message):
    module = line_filtration(0)
    filts = module["filtrations"]
    filts[new] = filts.pop(old) if old else [{"level": 5, "basis": [[1]]}]
    bad = inputs / "bad.json"
    bad.write_text(json.dumps(module))
    assert main(["lift-table", "--cone", str(inputs / "cone.json"),
                 "--module", str(bad), "--box=0..0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("flag, text, key", [
    ("--cone", '{"lattice_rank": 3, "lattice_rank": 3, "rays": %s}'
     % json.dumps(CONE_JSON["rays"]), "lattice_rank"),
    # the first filtration of ray 1 would be dropped and the table printed
    ("--module", json.dumps(line_filtration(0)).replace(
        '"1": ', '"1": [{"level": 2, "basis": [[1]]}], "1": ', 1), "1"),
    ("--diagram", json.dumps(CROWN_JSON).replace('"a": 1', '"a": 1, "a": 1', 1), "a"),
], ids=["cone", "module", "diagram"])
def test_repeated_json_key_is_an_input_error(inputs, capsys, flag, text, key):
    bad = inputs / "bad.json"
    bad.write_text(text)
    if flag == "--diagram":
        argv = ["roos", "--diagram", str(bad)]
    else:
        files = {"--cone": inputs / "cone.json", "--module": inputs / "simple.json",
                 flag: bad}
        argv = ["lift-table", "--cone", str(files["--cone"]),
                "--module", str(files["--module"]), "--box=0..0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: JSON object repeats the key {key!r}\n"


def test_loaded_filtration_module_is_the_module_of_its_description():
    cone = load_cone(CONE_JSON)
    obj = {"type": "filtration", "ambient_dim": 2,
           "filtrations": {str(r): [{"level": -r, "basis": [[1, r]]},
                                    {"level": 1, "basis": [[1, 0], ["1/2", 1]]}]
                           for r in (3, 1, 0, 2)}}
    desc = ReflexiveDescription(2, tuple(
        (r, ray_filtration([(-r, [[1, r]]), (1, [[1, 0], [Fraction(1, 2), 1]])], 2))
        for r in range(4)))
    assert load_module(obj, cone) == FiltrationModule(cone, desc)


@pytest.mark.parametrize("exc", [KeyError("(0, 2)"), AssertionError("bad state")])
def test_internal_errors_exit_3(inputs, capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "lift_table", broken)
    assert main(["lift-table", "--cone", str(inputs / "cone.json"),
                 "--module", str(inputs / "simple.json"), "--box=0..0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: {type(exc).__name__}: ")
    assert err.count("\n") == 1


def test_contract_bytes_runs_every_check_suite():
    # a suite missing from the script's tuple would skip the byte contract unnoticed
    path = Path(__file__).resolve().parent.parent / "scripts" / "contract_bytes.py"
    spec = importlib.util.spec_from_file_location("contract_bytes", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.SUITES == tuple(sorted(checks.SUITES))


def test_make_inputs_feeds_the_cli(tmp_path, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_inputs.py"
    subprocess.run([sys.executable, str(script), str(tmp_path)], check=True,
                   capture_output=True)
    written = sorted(p.name for p in tmp_path.iterdir())
    cones = [n for n in written if n.startswith("cone_")]
    modules = [n for n in written if n.startswith("module_")]
    diagrams = [n for n in written if n.startswith("diagram_")]
    assert sorted(cones + modules + diagrams) == written
    assert cones and modules and diagrams
    for cone in cones:
        for module in modules:
            assert main(["lift-table", "--cone", str(tmp_path / cone),
                         "--module", str(tmp_path / module), "--box=-1..0"]) == 0
    for diagram in diagrams:
        assert main(["roos", "--diagram", str(tmp_path / diagram)]) == 0
    assert capsys.readouterr().err == ""


# every value of the example inputs is replaced by each of these in turn
SUBSTITUTES = (5, 1.5, True, None, "x", [5], [], {}, [[5]], -1)


def values_inside(obj, path=()):
    """``(path, value)`` for every value inside ``obj``, the root excluded;
    a path lists the keys and indices that lead to its value."""
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield path + (key,), value
            yield from values_inside(value, path + (key,))


def replaced(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = replaced(obj[path[0]], path[1:], value)
    return out


def test_malformed_values_are_input_errors(tmp_path, capsys):
    # the loaders hand every value to the constructor that reads it, so no
    # shape of a value reaches an unguarded operation (exit 3); an object
    # where an array belongs was read as an empty array
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_inputs.py"
    subprocess.run([sys.executable, str(script), str(tmp_path)], check=True,
                   capture_output=True)
    bad = tmp_path / "bad.json"
    for path in sorted(tmp_path.glob("*_*.json")):
        example = json.loads(path.read_text())
        for where, original in values_inside(example):
            for value in SUBSTITUTES:
                bad.write_text(json.dumps(replaced(example, where, value)))
                if path.name.startswith("diagram_"):
                    argv = ["roos", "--diagram", str(bad)]
                else:
                    files = {"cone": tmp_path / "cone_square.json",
                             "module": tmp_path / "module_simple.json",
                             path.name.split("_")[0]: bad}
                    argv = ["lift-table", "--cone", str(files["cone"]),
                            "--module", str(files["module"]), "--box=0..0"]
                code = main(argv)
                assert code in (0, 2), (path.name, where, value, capsys.readouterr().err)
                if value == {} and isinstance(original, list):
                    assert code == 2, (path.name, where)
