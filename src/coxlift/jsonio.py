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

The loaders parse JSON structure only, each array they walk through
``linalg._sequence``, and hand the values to the constructors, which
read each once; a loader reads only ``ambient_dim``, which
``ray_filtration`` needs first.  So integer fields take JSON integers
only (a float, boolean or string there is an input error, never
truncated), an object where an array belongs is an input error, and so
is a key given twice in one JSON object, which would otherwise keep only
its last value.  Rationals are written as numbers when integral and as
"p/q" strings otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .cones import Cone
from .lattice import plain_int
from .lifting import LiftComponent
from .linalg import Mat, _sequence
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

if TYPE_CHECKING:
    from .derived import FinitePosetDiagram


def fraction_out(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def load_cone(obj: dict) -> Cone:
    try:
        rank, rays = obj["lattice_rank"], obj["rays"]
    except KeyError as exc:
        raise ValueError(f"cone JSON is missing {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"cone JSON is malformed: {exc}") from exc
    return Cone(rank, rays)


def load_module(obj: dict, cone: Cone) -> GradedModule:
    try:
        kind = obj.get("type")
        if kind == "finitely_presented":
            gens = tuple(g["degree"] for g in _sequence(obj.get("generators", [])))
            rels = tuple(Relation(rel["degree"], rel["coeffs"])
                         for rel in _sequence(obj.get("relations", [])))
        elif kind == "indicator":
            cons = tuple(IndicatorConstraint(c["ray"], c["op"], c["bound"])
                         for c in _sequence(obj.get("constraints", [])))
            exclude, style = obj.get("exclude", ()), obj["style"]
        elif kind == "filtration":
            ambient = plain_int(obj["ambient_dim"])
            filts = []
            for ray, jumps in obj["filtrations"].items():
                data = [(j["level"], j["basis"]) for j in _sequence(jumps)]
                # ASCII digits first, as the CLI reads a box: ``int`` has its own message
                digits = isinstance(ray, str) and ray.isascii() and ray.removeprefix("-").isdigit()
                if not digits or str(int(ray)) != ray:
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
    # only diagrams read the derived layer; cones and modules load without it
    from .derived import FinitePosetDiagram

    try:
        elements = [str(e) for e in _sequence(obj["elements"])]
        index = {e: i for i, e in enumerate(elements)}
        if len(index) < len(elements):
            dup = next(e for i, e in enumerate(elements) if index[e] != i)
            raise ValueError(f"diagram JSON repeats the element id {dup!r}")

        def element(e, where: str) -> int:
            i = index.get(str(e))
            if i is None:
                raise ValueError(f"diagram JSON {where} names the unknown element id {str(e)!r}")
            return i

        # from_maps checks that each pair has two ids
        pairs = [[element(e, "leq") for e in _sequence(p)] for p in _sequence(obj["leq"])]
        dims = [obj["dims"][e] for e in elements]
        unknown = sorted(set(obj["dims"]) - set(index))
        if unknown:
            raise ValueError(f"diagram JSON gives dims for unknown element ids {unknown}")
        maps = {}
        for key, rows in obj.get("maps", {}).items():
            ends = key.split("->")
            if len(ends) != 2:
                raise ValueError(f"diagram JSON map key {key!r} is not of the form 'a->b'")
            a, b = (element(e.strip(), f"map {key}") for e in ends)
            # the width comes from the rows, so a wrong one is reported with the ids
            try:
                maps[(a, b)] = Mat.from_rows(rows, ncols=None if rows else dims[a])
            except ValueError as exc:
                raise ValueError(f"map {key}: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"diagram JSON is missing {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"diagram JSON is malformed: {exc}") from exc
    return FinitePosetDiagram.from_maps(elements, pairs, dims, maps)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def load_json_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


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
