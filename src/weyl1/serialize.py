"""Versioned structured-text (JSON) documents for elements and reports.

Rationals are serialized as strings ("p" or "p/q"), never as binary
floats, so every document round-trips bit-exactly.  Element terms are
sorted by (y + x, y); every report document carries the parameters that
produced it.
"""

from __future__ import annotations

import json
import re
import sys

from .core import EndoPair, WeylElement, _canonical, _printed_terms, build_endo, format_element
from .degrees import Weight
from .endos import EndoRecipe, Membership, add_poly_x, add_poly_y, linear
from .gwa import poly_str, to_graded
from .maps import LinearMap
from .parsing import MAX_EXPONENT, parse
from .scalars import rat, rat_str
from .windows import EigenReport, Window

ELEMENT_FORMAT = "weyl-element"
ENDO_FORMAT = "weyl-endo"
GRADED_FORMAT = "weyl-graded"
CONFIG_FORMAT = "weyl-verify-config"
VERSION = 1

#: The params `checks.run_suite` indexes; each must be an integer, and
#: each but seed >= 0.  The optional ones are propagation_element,
#: closure_max_iter (>= 1) and closure_slack (>= 0).
CONFIG_INT_PARAMS = (
    "centralizer_cap", "eigen_cap", "klein_imax", "product_samples", "seed",
    "kernel_cap", "closure_cap", "propagation_power", "membership_slack",
    "eigvec_imax", "eigvec_nmax",
)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")

_POLY_GENERATORS = {"add_poly_x": add_poly_x, "add_poly_y": add_poly_y}


class DocError(ValueError):
    """Malformed or unsupported document."""


def _doc_rat(value):
    """A document rational: a string "p" or "p/q" with q nonzero."""
    if not isinstance(value, str) or not _RATIONAL.fullmatch(value):
        raise DocError(f"rational must be a string 'p' or 'p/q', got {value!r}")
    try:
        return rat(value)
    except ZeroDivisionError as exc:
        raise DocError(f"zero denominator in {value!r}") from exc
    except ValueError as exc:  # a part longer than int() converts
        limit = sys.get_int_max_str_digits()
        raise DocError(f"rational {value[:20]}... has a part of more than {limit} digits") from exc


def element_to_doc(a: WeylElement) -> dict:
    return {
        "format": ELEMENT_FORMAT,
        "version": VERSION,
        "basis": "YX",
        "terms": [
            {"y": i, "x": j, "c": "-" + mag if negative else mag}
            for (i, j), negative, mag in _printed_terms(
                sorted(a._ints.items(), key=_canonical), a._den)
        ],
    }


def element_from_doc(doc: dict) -> WeylElement:
    if not isinstance(doc, dict):
        raise DocError("element document must be an object")
    if doc.get("format") != ELEMENT_FORMAT:
        raise DocError(f"not an element document: {doc.get('format')!r}")
    if doc.get("version") != VERSION:
        raise DocError(f"unsupported version {doc.get('version')!r}")
    if doc.get("basis") != "YX":
        raise DocError(f"unsupported basis {doc.get('basis')!r}")
    entries = doc.get("terms", [])
    if not isinstance(entries, list):
        raise DocError("element 'terms' must be a list")
    terms = {}
    for entry in entries:
        if not isinstance(entry, dict) or not {"y", "x", "c"} <= entry.keys():
            raise DocError(f"bad term entry {entry!r}")
        i, j = entry["y"], entry["x"]
        if not (_is_int(i) and _is_int(j) and i >= 0 and j >= 0):
            raise DocError(f"exponents must be integers >= 0: {entry!r}")
        if max(i, j) > MAX_EXPONENT:
            raise DocError(f"exponent {max(i, j)} exceeds the limit {MAX_EXPONENT}")
        c = _doc_rat(entry["c"])
        if not c:
            raise DocError("zero coefficient stored in document")
        if (i, j) in terms:
            raise DocError(f"duplicate exponent pair {(i, j)}")
        terms[(i, j)] = c
    return WeylElement(terms)


def endo_to_doc(e: EndoPair) -> dict:
    return {
        "format": ENDO_FORMAT,
        "version": VERSION,
        "x": element_to_doc(e.x),
        "y": element_to_doc(e.y),
        "verified": e.verified,
    }


def endo_from_doc(doc: dict) -> EndoPair:
    if not isinstance(doc, dict) or doc.get("format") != ENDO_FORMAT:
        raise DocError("not an endomorphism document")
    if doc.get("version") != VERSION:
        raise DocError(f"unsupported version {doc.get('version')!r}")
    if "x" not in doc or "y" not in doc:
        raise DocError("endomorphism document needs 'x' and 'y'")
    x = element_from_doc(doc["x"])
    y = element_from_doc(doc["y"])
    return build_endo(x, y)  # re-verify rather than trusting the flag


def recipe_from_doc(doc: dict) -> EndoRecipe:
    """Recipe document: {"generators": [...]} or {"raw": {"x", "y"}}, not
    both (a null raw or an empty generators list counts as absent).

    A generator is {"kind": "add_poly_x" or "add_poly_y", "coeffs": [...]}
    or {"kind": "linear", "a": ..., "b": ..., "c": ..., "d": ...}; raw
    holds two expression strings.
    """
    if not isinstance(doc, dict):
        raise DocError("recipe document must be an object")
    gens = doc.get("generators", [])
    if not isinstance(gens, list):
        raise DocError("recipe 'generators' must be a list")
    out = []
    for g in gens:
        kind = g.get("kind") if isinstance(g, dict) else None
        if kind == "linear":
            if not all(k in g for k in "abcd"):
                raise DocError("linear generator needs 'a', 'b', 'c' and 'd'")
            out.append(linear(*(_doc_rat(g[k]) for k in "abcd")))
        elif isinstance(kind, str) and kind in _POLY_GENERATORS:
            if not isinstance(g.get("coeffs"), list):
                raise DocError(f"{kind} generator needs a 'coeffs' list")
            out.append(_POLY_GENERATORS[kind]([_doc_rat(c) for c in g["coeffs"]]))
        else:
            raise DocError(f"unknown generator kind {kind!r}")
    raw = doc.get("raw")
    if raw is not None:
        if not (isinstance(raw, dict) and all(isinstance(raw.get(k), str) for k in "xy")):
            raise DocError("recipe 'raw' needs string 'x' and 'y'")
        raw = (parse(raw["x"]), parse(raw["y"]))
    try:
        return EndoRecipe(generators=tuple(out), raw=raw)
    except ValueError as exc:
        raise DocError(str(exc)) from exc


def graded_to_doc(a: WeylElement) -> dict:
    g = to_graded(a)
    return {
        "format": GRADED_FORMAT,
        "version": VERSION,
        "components": [
            {"n": n, "alpha": poly_str(row, g._den)} for n, row in sorted(g._rows.items())
        ],
    }


def weight_to_doc(w: Weight) -> dict:
    return {"rho": w.rho, "eta": w.eta}


def eigen_report_to_doc(r: EigenReport) -> dict:
    return {
        "format": "weyl-eigen-report",
        "version": VERSION,
        "a": format_element(r.a),
        "weight": weight_to_doc(r.window.weight),
        "cap": r.window.cap,
        "candidates": [rat_str(c) for c in r.candidates],
        "found": [
            {
                "lambda": rat_str(lam),
                "dimension": len(basis),
                "basis": [format_element(u) for u in basis],
            }
            for lam, basis in r.found
        ],
    }


def centralizer_report_to_doc(a: WeylElement, win: Window, basis) -> dict:
    return {
        "format": "weyl-centralizer-report",
        "version": VERSION,
        "a": format_element(a),
        "weight": weight_to_doc(win.weight),
        "cap": win.cap,
        "dimension": len(basis),
        "basis": [format_element(u) for u in basis],
    }


def nilclosure_report_to_doc(m: LinearMap, win: Window, max_iter: int, basis) -> dict:
    return {
        "format": "weyl-nilclosure-report",
        "version": VERSION,
        "map": m.describe(),
        "weight": weight_to_doc(win.weight),
        "cap": win.cap,
        "max_iter": max_iter,
        "dimension": len(basis),
        "basis": [format_element(u) for u in basis],
    }


def membership_report_to_doc(a: WeylElement, verdict: Membership) -> dict:
    return {
        "format": "weyl-membership-report",
        "version": VERSION,
        "element": format_element(a),
        "slack": verdict.slack,
        "member": verdict.member,
        "witness": None
        if verdict.witness is None
        else [
            {"i": i, "j": j, "c": rat_str(c)}
            for (i, j), c in sorted(verdict.witness.items())
        ],
    }


def check_results_to_doc(results, config: dict) -> dict:
    return {
        "format": "weyl-verify-report",
        "version": VERSION,
        "config": config,
        "passed": all(r.passed for r in results),
        "checks": [
            {
                "name": r.name,
                "params": {k: _jsonable(v) for k, v in r.params.items()},
                "passed": r.passed,
                "witness": _jsonable(r.witness),
            }
            for r in results
        ],
    }


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        raise DocError("floating point values are not serialized")
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def load_config(doc: dict) -> dict:
    if not isinstance(doc, dict) or doc.get("format") != CONFIG_FORMAT:
        raise DocError("not a verify-config document")
    if doc.get("version") != VERSION:
        raise DocError(f"unsupported version {doc.get('version')!r}")
    if "endomorphisms" not in doc or "params" not in doc:
        raise DocError("config needs 'endomorphisms' and 'params'")
    params = doc["params"]
    if not isinstance(params, dict):
        raise DocError("config 'params' must be an object")
    for key in CONFIG_INT_PARAMS:
        if key not in params:
            raise DocError(f"config params lack {key!r}")
        if not _is_int(params[key]):
            raise DocError(f"config param {key!r} must be an integer")
        if key != "seed" and params[key] < 0:
            raise DocError(f"config param {key!r} must be >= 0")
    for key, least in (("closure_max_iter", 1), ("closure_slack", 0)):
        if params.get(key) is None:
            continue
        if not _is_int(params[key]):
            raise DocError(f"config param {key!r} must be an integer or null")
        if params[key] < least:
            raise DocError(f"config param {key!r} must be >= {least} or null")
    if not isinstance(params.get("propagation_element", ""), str):
        raise DocError("config param 'propagation_element' must be a string")
    if not isinstance(doc["endomorphisms"], list):
        raise DocError("config 'endomorphisms' must be a list")
    for entry in doc["endomorphisms"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise DocError(f"config endomorphism needs a string 'name': {entry!r}")
        recipe_from_doc(entry)
    return doc


def _is_int(value) -> bool:
    return type(value) is int  # JSON true/false load as bool, not int


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int too long to convert
        raise DocError(f"invalid JSON: {exc}") from exc
