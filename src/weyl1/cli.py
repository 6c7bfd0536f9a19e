"""Command-line front end.

Element arguments are expressions in the X/Y/H grammar; an argument of
the form @path loads an element document instead.  Structured output is
JSON with string rationals; plain output is the canonical printed form.
Exit codes: 0 success, 1 verification failures, 2 usage or input syntax
errors, 3 computation-domain errors (window escape, unverified pair,
exhausted bounds), 4 an internal error (a bug; never a verdict).  Every
nonzero exit writes one JSON line {"error": kind, "detail": ...} to
stderr, argparse usage errors included.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .checks import canonical_config, default_closure_max_iter, run_suite
from .core import WeylElement, apply_endo, commutator, format_element, identity_endo
from .degrees import Weight, find_generic_weight, newton_polygon, weighted_degree
from .endos import EndoRecipe, compile_recipe, subalgebra_membership
from .errors import DomainError
from .maps import ad, d_xy, d_yx, delta_xy, drop
from .parsing import ParseError, parse
from .scalars import NEG_INF
from .semigroup import semigroup_analyze
from .serialize import (
    DocError,
    _doc_rat,
    centralizer_report_to_doc,
    check_results_to_doc,
    dumps,
    eigen_report_to_doc,
    element_from_doc,
    element_to_doc,
    endo_from_doc,
    endo_to_doc,
    graded_to_doc,
    load_config,
    loads,
    membership_report_to_doc,
    nilclosure_report_to_doc,
    polygon_to_doc,
    recipe_from_doc,
    semigroup_to_doc,
)
from .windows import Window, eigenvalue_scan, centralizer_window, nilpotent_closure_window

USAGE_EXIT = 2
DOMAIN_EXIT = 3
INTERNAL_EXIT = 4


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _element_arg(text: str) -> WeylElement:
    if text.startswith("@"):
        return element_from_doc(loads(_read_file(text[1:])))
    return parse(text)


def _endo_arg(path: Optional[str]):
    if path is None:
        return identity_endo()
    return endo_from_doc(loads(_read_file(path)))


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_element(args, a: WeylElement) -> None:
    if getattr(args, "json", False):
        _emit(args, dumps(element_to_doc(a)))
    else:
        _emit(args, format_element(a))


def _weight(args) -> Weight:
    return Weight(args.rho, args.eta)


def _degree_str(v) -> str:
    return "-inf" if v == NEG_INF else str(int(v))


def _map_arg(args):
    kind = args.map
    if kind == "ad":
        if args.of is None:
            raise DocError("--map ad needs --of EXPR")
        return ad(_element_arg(args.of))
    endo = _endo_arg(getattr(args, "endo", None))
    if kind == "dyx":
        return d_yx(endo)
    if kind == "dxy":
        return d_xy(endo)
    if kind == "delta":
        return delta_xy(endo)
    raise DocError(f"unknown map kind {kind!r}")


def _int_at_least(low: int):
    """argparse type for an int >= low, so a value out of range is a usage
    error (exit 2) like a malformed one."""

    def parse_int(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse_int.__name__ = "int"  # argparse reports "invalid int value: ..."
    return parse_int


def _add_weight_flags(sub, kind=int):
    sub.add_argument("--rho", type=kind, default=1)
    sub.add_argument("--eta", type=kind, default=1)


class _Parser(argparse.ArgumentParser):
    """argparse that reports a usage error as one JSON line, exit 2.

    Subparsers are made with the parent's class, so this covers them too.
    """

    def error(self, message):
        _error("input", message)
        sys.exit(USAGE_EXIT)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="weyl1",
        description="Exact computations in the first Weyl algebra K<X,Y | YX - XY = 1>.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("normalize", help="canonical Y^i X^j form of an expression")
    s.add_argument("expr")
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("mul", help="exact product of two elements")
    s.add_argument("a")
    s.add_argument("b")
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("comm", help="commutator [a, b]")
    s.add_argument("a")
    s.add_argument("b")
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("grade", help="graded components alpha_n(H) v_n")
    s.add_argument("expr")

    s = sub.add_parser("degree", help="weighted degree v_(rho,eta)")
    s.add_argument("expr")
    _add_weight_flags(s)

    s = sub.add_parser("newton", help="Newton polygon of the support")
    s.add_argument("expr")

    s = sub.add_parser("generic", help="first generic weight for an element")
    s.add_argument("expr")
    s.add_argument("--bound", type=_int_at_least(1), default=16)

    s = sub.add_parser("drop", help="drop v(m(a)) - v(a) of a map at an element")
    s.add_argument("expr")
    s.add_argument("--map", required=True, choices=["ad", "dyx", "dxy", "delta"])
    s.add_argument("--of", help="element defining ad(.)")
    s.add_argument("--endo", help="endomorphism document for dyx/dxy/delta")
    _add_weight_flags(s)

    s = sub.add_parser("eig-scan", help="windowed eigenvalue scan of ad(a)")
    s.add_argument("expr")
    s.add_argument("--cap", type=_int_at_least(0), required=True)
    _add_weight_flags(s, _int_at_least(1))
    s.add_argument("--candidates", help="comma-separated rationals, each p or p/q")

    s = sub.add_parser("centralizer", help="windowed centralizer basis")
    s.add_argument("expr")
    s.add_argument("--cap", type=_int_at_least(0), required=True)
    _add_weight_flags(s, _int_at_least(1))

    s = sub.add_parser("nilclosure", help="windowed nilpotent closure of a map")
    s.add_argument("--map", required=True, choices=["ad", "dyx", "dxy", "delta"])
    s.add_argument("--of", help="element defining ad(.)")
    s.add_argument("--endo", help="endomorphism document for dyx/dxy/delta")
    s.add_argument("--cap", type=_int_at_least(0), required=True)
    s.add_argument("--max-iter", type=_int_at_least(1), default=None)
    _add_weight_flags(s, _int_at_least(1))

    s = sub.add_parser("endo-compile", help="compile a recipe or raw pair")
    s.add_argument("--recipe", help="recipe document (generators and/or raw pair)")
    s.add_argument("--raw", nargs=2, metavar=("X_EXPR", "Y_EXPR"))

    s = sub.add_parser("endo-apply", help="apply an endomorphism to an element")
    s.add_argument("expr")
    s.add_argument("--endo", required=True)
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("membership", help="membership in the image subalgebra")
    s.add_argument("expr")
    s.add_argument("--endo", required=True)
    s.add_argument("--slack", type=_int_at_least(0), default=4)

    s = sub.add_parser("semigroup", help="gaps and bounds of a numerical monoid")
    s.add_argument("generators", nargs="+", type=_int_at_least(1))
    s.add_argument("--horizon", type=_int_at_least(1), default=None)

    for s in sub.choices.values():  # every command but verify, added below
        s.add_argument("--out")

    s = sub.add_parser("verify", help="run the windowed verification suite")
    s.add_argument("--config", help="verify-config document (default: canonical)")
    s.add_argument("--report", help="write the full JSON report here")

    return p


def _cmd_normalize(args) -> int:
    _emit_element(args, _element_arg(args.expr))
    return 0


def _cmd_mul(args) -> int:
    _emit_element(args, _element_arg(args.a) * _element_arg(args.b))
    return 0


def _cmd_comm(args) -> int:
    _emit_element(args, commutator(_element_arg(args.a), _element_arg(args.b)))
    return 0


def _cmd_grade(args) -> int:
    _emit(args, dumps(graded_to_doc(_element_arg(args.expr))))
    return 0


def _cmd_degree(args) -> int:
    v = weighted_degree(_weight(args), _element_arg(args.expr))
    _emit(args, _degree_str(v))
    return 0


def _cmd_newton(args) -> int:
    poly = newton_polygon(_element_arg(args.expr))
    _emit(args, dumps(polygon_to_doc(poly)))
    return 0


def _cmd_generic(args) -> int:
    w = find_generic_weight(_element_arg(args.expr), args.bound)
    if w is None:
        raise DomainError(f"no generic weight within bound {args.bound}")
    _emit(args, f"{w.rho} {w.eta}")
    return 0


def _cmd_drop(args) -> int:
    m = _map_arg(args)
    value = drop(m, _weight(args), _element_arg(args.expr))
    _emit(args, _degree_str(value))
    return 0


def _cmd_eig_scan(args) -> int:
    a = _element_arg(args.expr)
    win = Window(_weight(args), args.cap)
    candidates = None
    if args.candidates is not None:
        candidates = [
            _doc_rat(tok.strip()) for tok in args.candidates.split(",") if tok.strip()
        ]
        if not candidates:
            raise DocError(f"--candidates {args.candidates!r} names no rational")
    report = eigenvalue_scan(a, win, candidates)
    _emit(args, dumps(eigen_report_to_doc(report)))
    return 0


def _cmd_centralizer(args) -> int:
    a = _element_arg(args.expr)
    win = Window(_weight(args), args.cap)
    _emit(args, dumps(centralizer_report_to_doc(a, win, centralizer_window(a, win))))
    return 0


def _cmd_nilclosure(args) -> int:
    m = _map_arg(args)
    win = Window(_weight(args), args.cap)
    max_iter = args.max_iter or default_closure_max_iter(args.cap)  # --max-iter >= 1
    basis = nilpotent_closure_window(m, win, max_iter)
    _emit(args, dumps(nilclosure_report_to_doc(m, win, max_iter, basis)))
    return 0


def _cmd_endo_compile(args) -> int:
    if (args.recipe is None) == (args.raw is None):
        raise DocError("endo-compile needs exactly one of --recipe or --raw")
    if args.recipe is not None:
        recipe = recipe_from_doc(loads(_read_file(args.recipe)))
    else:
        recipe = EndoRecipe(raw=(parse(args.raw[0]), parse(args.raw[1])))
    _emit(args, dumps(endo_to_doc(compile_recipe(recipe))))
    return 0


def _cmd_endo_apply(args) -> int:
    endo = _endo_arg(args.endo)
    _emit_element(args, apply_endo(endo, _element_arg(args.expr)))
    return 0


def _cmd_membership(args) -> int:
    endo = _endo_arg(args.endo)
    a = _element_arg(args.expr)
    verdict = subalgebra_membership(endo, a, args.slack)
    _emit(args, dumps(membership_report_to_doc(a, verdict)))
    return 0


def _cmd_semigroup(args) -> int:
    data = semigroup_analyze(args.generators, args.horizon)
    _emit(args, dumps(semigroup_to_doc(data)))
    return 0


def _cmd_verify(args) -> int:
    if args.config:
        config = load_config(loads(_read_file(args.config)))
    else:
        config = canonical_config()
    results = run_suite(config)
    for r in results:
        sys.stdout.write(r.line() + "\n")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(dumps(check_results_to_doc(results, config)))
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "normalize": _cmd_normalize,
    "mul": _cmd_mul,
    "comm": _cmd_comm,
    "grade": _cmd_grade,
    "degree": _cmd_degree,
    "newton": _cmd_newton,
    "generic": _cmd_generic,
    "drop": _cmd_drop,
    "eig-scan": _cmd_eig_scan,
    "centralizer": _cmd_centralizer,
    "nilclosure": _cmd_nilclosure,
    "endo-compile": _cmd_endo_compile,
    "endo-apply": _cmd_endo_apply,
    "membership": _cmd_membership,
    "semigroup": _cmd_semigroup,
    "verify": _cmd_verify,
}


def _error(kind: str, detail: object) -> None:
    import json

    sys.stderr.write(json.dumps({"error": kind, "detail": str(detail)}) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except (ParseError, DocError, OSError) as exc:
        _error("input", exc)
        return USAGE_EXIT
    except (DomainError, ValueError, ZeroDivisionError) as exc:
        _error("domain", exc)
        return DOMAIN_EXIT
    except Exception as exc:  # last resort: keeps exit 1 meaning FAIL only
        _error("internal", f"{type(exc).__name__}: {exc}")
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
