"""JSON input and output schemas.

Cone:    {"lattice_rank": d, "rays": [[...d ints...], ...]}
Module:  {"type": "finitely_presented", "generators": [{"degree": [...]}],
          "relations": [{"degree": [...], "coeffs": [...]}]}
         {"type": "indicator", "style": "quotient"|"submodule",
          "constraints": [{"ray": i, "op": "<="|">=", "bound": b}],
          "exclude": [[...]]}
         {"type": "filtration", "ambient_dim": r,
          "filtrations": {"<ray index>": [{"level": i, "basis": [[...]]}]}}
         (the keys are the ray indices 0..n-1 in plain decimal, each
         given once)
Diagram: {"elements": [ids], "leq": [[i, j]], "dims": {id: n},
          "maps": {"i->j": [[...]]}}

Integer fields accept JSON integers only; a float, boolean or string
there is an input error, never truncated.  Rationals are written as
numbers when integral and as "p/q" strings otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .cones import Cone
from .derived import FinitePosetDiagram
from .lattice import int_matrix, int_vector, plain_int
from .lifting import LiftComponent
from .linalg import Mat
from .modules import (
    FiltrationModule,
    FinitelyPresentedModule,
    GradedModule,
    IndicatorConstraint,
    IndicatorModule,
    ReflexiveDescription,
    Relation,
    ray_filtration,
)


def parse_fraction(x) -> Fraction:
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    if isinstance(x, bool):
        raise ValueError("booleans are not numbers here")
    if isinstance(x, int):
        return Fraction(x)
    raise ValueError(f"cannot read {x!r} as an exact rational")


def fraction_out(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def load_cone(obj: dict) -> Cone:
    try:
        rank = plain_int(obj["lattice_rank"])
        rays = int_matrix(obj["rays"])
    except KeyError as exc:
        raise ValueError(f"cone JSON is missing {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"cone JSON is malformed: {exc}") from exc
    return Cone(rank, rays)


def load_module(obj: dict, cone: Cone) -> GradedModule:
    try:
        kind = obj.get("type")
        if kind == "finitely_presented":
            gens = tuple(int_vector(g["degree"]) for g in obj.get("generators", []))
            rels = tuple(
                Relation(int_vector(rel["degree"]),
                         tuple(parse_fraction(x) for x in rel["coeffs"]))
                for rel in obj.get("relations", [])
            )
        elif kind == "indicator":
            cons = tuple(
                IndicatorConstraint(plain_int(c["ray"]), str(c["op"]), plain_int(c["bound"]))
                for c in obj.get("constraints", [])
            )
            exclude = tuple(int_vector(p) for p in obj.get("exclude", []))
            style = str(obj["style"])
        elif kind == "filtration":
            ambient = plain_int(obj["ambient_dim"])
            filts = []
            for ray, jumps in obj["filtrations"].items():
                data = [(plain_int(j["level"]),
                         [[parse_fraction(x) for x in v] for v in j["basis"]])
                        for j in jumps]
                if str(int(ray)) != ray:
                    raise ValueError(f"filtration key {ray!r} is not a ray index")
                filts.append((int(ray), data))
        else:
            raise ValueError(f"unknown module type {kind!r}")
    except KeyError as exc:
        raise ValueError(f"module JSON is missing {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"module JSON is malformed: {exc}") from exc
    if kind == "finitely_presented":
        return FinitelyPresentedModule(cone, gens, rels)
    if kind == "indicator":
        return IndicatorModule(cone, style, cons, exclude)
    desc = ReflexiveDescription(ambient, tuple((ray, ray_filtration(data, ambient))
                                               for ray, data in filts))
    return FiltrationModule(cone, desc)


def load_diagram(obj: dict) -> FinitePosetDiagram:
    try:
        elements = [str(e) for e in obj["elements"]]
        index = {e: i for i, e in enumerate(elements)}
        if len(index) < len(elements):
            dup = next(e for i, e in enumerate(elements) if index[e] != i)
            raise ValueError(f"diagram JSON repeats the element id {dup!r}")
        pairs = [(index[str(i)], index[str(j)]) for i, j in obj["leq"]]
        dims = [plain_int(obj["dims"][e]) for e in elements]
        unknown = sorted(set(obj["dims"]) - set(index))
        if unknown:
            raise ValueError(f"diagram JSON gives dims for unknown element ids {unknown}")
        maps = {}
        for key, rows in obj.get("maps", {}).items():
            a, b = key.split("->")
            # the width comes from the rows, so a wrong one is reported with the ids
            try:
                mat = Mat.from_rows([[parse_fraction(x) for x in row] for row in rows],
                                    ncols=None if rows else dims[index[a.strip()]])
            except ValueError as exc:
                raise ValueError(f"map {key}: {exc}") from None
            maps[(index[a.strip()], index[b.strip()])] = mat
    except KeyError as exc:
        raise ValueError(f"diagram JSON is missing {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"diagram JSON is malformed: {exc}") from exc
    return FinitePosetDiagram.from_maps(elements, pairs, dims, maps)


def load_json_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def component_to_json(comp: LiftComponent) -> dict:
    return {
        "degree": list(comp.degree),
        "dim": comp.dim,
        "minimal_elements": [list(m) for m in comp.minimal_points],
        "basis": [[fraction_out(x) for x in vec] for vec in comp.basis],
    }


def table_tsv_lines(cone: Cone, components: dict) -> list[str]:
    header = "\t".join([f"c{i + 1}" for i in range(cone.ray_count)] + ["dim"])
    lines = [header]
    for c in sorted(components):
        lines.append("\t".join([str(x) for x in c] + [str(components[c].dim)]))
    return lines
