"""JSON file formats for configurations, polynomials, and chain models.

Rational values are written as strings ("3/4", "-2"), prime-field residues as
plain ints.  All writers sort keys so that identical objects produce
byte-identical files.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Optional

from .errors import InputError
from .exactalg import Field, parse_field
from .lsys import HomogeneousPoly
from .projgeom import Config, Conic, ProjLine, ProjPoint
from .taxonomy import GOLDEN_DIMS
from .twisted import ChainComplex, ChainMap, assemble


@contextmanager
def _malformed(kind: str):
    """Turn a structural or value error while reading a file into InputError."""
    try:
        yield
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed {kind} file: {exc}") from exc


def _json_int(value, what: str) -> int:
    # a JSON integer only: no float is truncated, no string parsed
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def value_to_json(field: Field, v):
    return str(v) if field.p is None else int(v)


def value_list(field: Field, vals) -> list:
    return [value_to_json(field, v) for v in vals]


def config_to_json(cfg: Config) -> dict:
    f = cfg.field
    return {
        "type_id": cfg.type_id,
        "field": f.name,
        "points": [value_list(f, p.coords) for p in cfg.points],
        "lines": [value_list(f, ln.coeffs) for ln in cfg.lines],
        "conics": [value_list(f, c.coeffs) for c in cfg.conics],
        "whole_plane": cfg.whole_plane,
    }


def config_from_json(data: dict) -> Config:
    with _malformed("configuration"):
        field = parse_field(data["field"])
        # the constructors parse the values ("3/4", ints) into the field
        points = tuple(ProjPoint(field, tuple(c)) for c in data.get("points", []))
        lines = tuple(ProjLine(field, tuple(c)) for c in data.get("lines", []))
        conics = tuple(Conic(field, tuple(c)) for c in data.get("conics", []))
        type_id = data.get("type_id", "untyped")
        if type_id != "untyped" and _json_int(type_id, "type_id") not in GOLDEN_DIMS:
            raise ValueError(f"type_id must be 1..42 or \"untyped\", got {type_id!r}")
        whole_plane = data.get("whole_plane", False)
        if type(whole_plane) is not bool:
            raise TypeError(f"whole_plane must be true or false, got {whole_plane!r}")
        return Config(field, points=points, lines=lines, conics=conics,
                      type_id=type_id, whole_plane=whole_plane)


def poly_to_json(poly: HomogeneousPoly) -> dict:
    return {
        "field": poly.field.name,
        "degree": poly.degree,
        "terms": [
            {"exps": list(exps), "coeff": value_to_json(poly.field, c)}
            for exps, c in sorted(poly.terms.items(), reverse=True)
        ],
    }


def poly_from_json(data: dict) -> HomogeneousPoly:
    with _malformed("polynomial"):
        field = parse_field(data["field"])
        terms = {}
        for t in data["terms"]:
            exps = tuple(_json_int(e, "an exponent") for e in t["exps"])
            if exps in terms:
                raise ValueError(f"repeated exponent triple {list(exps)}")
            terms[exps] = field.coerce(t["coeff"])
        return HomogeneousPoly(field, _json_int(data["degree"], "degree"), terms)


def load_poly(path: str) -> HomogeneousPoly:
    with open(path, "r", encoding="utf-8") as fh:
        return poly_from_json(json.load(fh))


def save_poly(poly: HomogeneousPoly, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(poly_to_json(poly), fh, sort_keys=True, indent=2)
        fh.write("\n")


def model_from_json(data: dict) -> tuple[ChainComplex, Optional[ChainMap], Optional[int]]:
    """Load a chain model: explicit matrices, or a graph with edge transport.

    Explicit form:  {"dims": [...], "boundaries": [[[...]]], "map": ...,
                     "complex_dim": n}
    Graph form:     {"vertices": [...], "edges": [[name, u, v]],
                     "monodromy": {name: value}, "higher": [...], ...}
    """
    with _malformed("model"):
        if "dims" in data:
            complex_ = ChainComplex(data["dims"], data.get("boundaries", []))
        elif "vertices" in data:
            complex_ = assemble(data["vertices"], data["edges"],
                                dict(data.get("monodromy", {})), data.get("higher", []))
        else:
            raise InputError("model file needs either 'dims' or 'vertices'")
        # the raw values go to ChainMap, whose QQ.coerce refuses floats
        chain_map = (ChainMap(complex_, complex_, tuple(data["map"]))
                     if "map" in data else None)
        cdim = data.get("complex_dim")
        return complex_, chain_map, (_json_int(cdim, "complex_dim") if cdim is not None else None)


def load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json.load(fh))
