"""Output checks, each against an answer computed another way.

Every function takes the bytes a task wrote and the generated input
files, and returns a list of mismatch descriptions (empty when right).
"""

from __future__ import annotations

import json
from itertools import product

from inputs import ROOS_DEGREES


def _table(data: bytes) -> tuple[list[str], list[tuple[tuple[int, ...], int]]]:
    lines = data.decode("utf-8").splitlines()
    rows = []
    for line in lines[1:]:
        *c, dim = (int(x) for x in line.split("\t"))
        rows.append((tuple(c), dim))
    return lines[0].split("\t"), rows


def _box_degrees(box: str, width: int) -> list[tuple[int, ...]]:
    """The box's degrees in lexicographic order, read without the program's parser."""
    parts = box.split(",")
    if len(parts) == 1:
        parts = parts * width
    ranges = []
    for part in parts:
        lo, hi = part.split("..")
        ranges.append(range(int(lo), int(hi) + 1))
    return list(product(*ranges))


def _table_shape(data: bytes, files: dict, width: int) -> tuple[list[str], list]:
    header, rows = _table(data)
    problems = []
    if header != [f"c{i + 1}" for i in range(width)] + ["dim"]:
        problems.append(f"header {header}")
    if [c for c, _ in rows] != _box_degrees(files["box"], width):
        problems.append("rows are not the box degrees in lexicographic order")
    return problems, rows


def _reflexive_description(module_obj: dict):
    from coxlift.klyachko import ReflexiveDescription
    from coxlift.modules import ray_filtration

    ambient = module_obj["ambient_dim"]
    return ReflexiveDescription(ambient, tuple(
        (int(ray), ray_filtration([(j["level"], j["basis"]) for j in jumps], ambient))
        for ray, jumps in module_obj["filtrations"].items()))


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sweep_square(outputs: list[bytes], files: dict) -> list[str]:
    """Each dimension equals the direct intersection of the ray spaces."""
    from coxlift.klyachko import filtration_lift_component

    problems, rows = _table_shape(outputs[0], files, 4)
    desc = _reflexive_description(_load(files["module"]))
    problems += [f"c={c}: dim {dim}" for c, dim in rows
                 if dim != len(filtration_lift_component(desc, c))]
    return problems


def sweep_hexagon(outputs: list[bytes], files: dict) -> list[str]:
    """Each dimension follows the monomial-ideal law."""
    from coxlift.instances import ideal_lift_law

    problems, rows = _table_shape(outputs[0], files, 6)
    return problems + [f"c={c}: dim {dim}" for c, dim in rows if dim != ideal_lift_law(c)]


def roos_diagram(outputs: list[bytes], files: dict) -> list[str]:
    """lim^0 equals the cover equalizer and, the truncation being certified,
    the intersection formula at the diagram's Cox degree."""
    from coxlift.derived import equalizer_limit_dim
    from coxlift.jsonio import load_diagram
    from coxlift.klyachko import filtration_lift_component

    desc = _reflexive_description(_load(files["module"]))
    problems = []
    for data, path, degree in zip(outputs, files["diagrams"], ROOS_DEGREES):
        lim0 = json.loads(data)["limit_dims"][0]
        if lim0 != equalizer_limit_dim(load_diagram(_load(path))):
            problems.append(f"{degree}: lim^0 {lim0} differs from the equalizer")
        # certified: every minimal point and pairwise bound lies inside the truncation
        if lim0 != len(filtration_lift_component(desc, degree)):
            problems.append(f"{degree}: lim^0 {lim0} differs from the intersection formula")
    return problems


def verify_suites(outputs: list[bytes], files: dict) -> list[str]:
    """Every assertion line is ``ok`` and every suite ends in PASS."""
    problems = []
    for data in outputs:
        lines = data.decode("utf-8").splitlines()
        if not lines or not lines[-1].startswith("PASS suite "):
            problems.append(f"no PASS line: {lines[-1:]}")
        problems += [line for line in lines[:-1] if not line.startswith("ok ")]
    return problems
