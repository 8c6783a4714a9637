"""Curve specification files.

JSON with fields n (int), sigma (float), optional K (float), and components:
a list of n+1 objects, each {"type": "poly"|"exppoly"|"polyexp"} with
coefficient arrays "Q" and/or "P" given as [re, im] pairs in ascending order.
Component 0 may be any type; components 1..n must be "exppoly"; component n
must be the constant 1 (exppoly with P = [] or [[0,0]]).
"""

from __future__ import annotations

import json
import sys

from .curves import CurveComponent, HolomorphicCurve
from .errors import CurveValidationError, SpecFileError
from .polynomials import ComplexPoly


def _is_number(x):
    """A JSON number that is finite as a float; true and false are not
    numbers here."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _coeffs(raw, where):
    if not isinstance(raw, list):
        raise SpecFileError(f"{where}: coefficient array must be a list of [re, im] pairs")
    out = []
    for k, pair in enumerate(raw):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(_is_number(x) for x in pair)):
            raise SpecFileError(f"{where}: entry {k} is not a [re, im] pair of finite numbers")
        out.append(complex(pair[0], pair[1]))
    return ComplexPoly(out)


def _component(raw, index):
    where = f"component {index}"
    if not isinstance(raw, dict) or "type" not in raw:
        raise SpecFileError(f"{where}: expected an object with a 'type' field")
    kind = raw["type"]
    if kind == "poly":
        if index >= 1:
            raise SpecFileError(f"{where} must be nonvanishing (type 'exppoly' required)")
        return CurveComponent.poly(_coeffs(raw.get("Q", []), where))
    if kind == "exppoly":
        return CurveComponent.exp_poly(_coeffs(raw.get("P", []), where))
    if kind == "polyexp":
        if index >= 1:
            raise SpecFileError(f"{where} must be nonvanishing (type 'exppoly' required)")
        return CurveComponent.poly_exp(_coeffs(raw.get("Q", []), where),
                                       _coeffs(raw.get("P", []), where))
    raise SpecFileError(f"{where}: unknown type {kind!r}")


def parse_curve(data: dict) -> HolomorphicCurve:
    if not isinstance(data, dict):
        raise SpecFileError("expected a JSON object at the top level")
    for key in ("n", "sigma", "components"):
        if key not in data:
            raise SpecFileError(f"missing required field {key!r}")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SpecFileError("field 'n' must be a positive integer")
    if not _is_number(data["sigma"]):
        raise SpecFileError("field 'sigma' must be a finite number")
    if data.get("K") is not None and not _is_number(data["K"]):
        raise SpecFileError("field 'K' must be a finite number")
    comps = data["components"]
    if not isinstance(comps, list) or len(comps) != n + 1:
        raise SpecFileError(f"expected {n + 1} components for n={n}")
    components = tuple(_component(raw, i) for i, raw in enumerate(comps))
    try:
        return HolomorphicCurve(
            n=n, components=components,
            sigma=float(data["sigma"]),
            K=float(data["K"]) if data.get("K") is not None else None)
    except CurveValidationError as exc:
        raise SpecFileError(str(exc)) from exc


def load_curve(path) -> HolomorphicCurve:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"{path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return parse_curve(data)
    except SpecFileError as exc:
        raise SpecFileError(f"{path}: {exc}") from exc
