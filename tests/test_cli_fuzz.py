"""In-process fuzz of the command line's exit contract.

Every invocation ends with 0 (ok), 1 (a FAIL verdict), 2 (bad input) or
3 (domain error); 4, the last-resort internal error, is a bug.  An error
exit writes exactly one JSON line to stderr.  Argument vectors are drawn
per subcommand; documents are valid ones with one value replaced by
arbitrary JSON or one key removed, arbitrary JSON, or text that is not
JSON.  Caps, exponents and slacks stay small, so each run is cheap.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from weyl1 import X, Y, build_endo, rat
from weyl1.checks import canonical_config
from weyl1.cli import main
from weyl1.serialize import dumps, element_to_doc, endo_to_doc

DIR = "<DIR>"  # stands for the temporary directory holding the documents

# Expression pieces: numbers carry a leading space so two of them never
# fuse into a larger exponent.
TOKENS = [
    "X", "Y", "H", "X^2", "Y^3", " 2", " 1/2", " -3", " 1/0", "+", "-", "*",
    "^", "(", ")", "[", ",", "]", " ", "Z",
]
ATOMS = ["X", "Y", "H", "2", "1/2", "-3", "X^2", "Y^3", "(X + Y)", "[X, Y]", "[Y, H]"]
SUMS = st.lists(
    st.lists(st.sampled_from(ATOMS), min_size=1, max_size=3).map("*".join),
    min_size=1,
    max_size=3,
).map(" + ".join)
EXPRS = st.one_of(SUMS, SUMS, st.lists(st.sampled_from(TOKENS), max_size=8).map("".join))
INTS = st.sampled_from(["-2", "-1", "0", "0", "1", "1", "2", "2", "3", "abc", "1.5", "", "1e2"])
MAPS = st.sampled_from(["ad", "dyx", "dxy", "delta", "nope"])
CANDIDATES = st.sampled_from(["0,1", "1/2", "abc", "-1,2/3", ""])
GENERATORS = st.lists(st.integers(-1, 12).map(str), max_size=3)
HORIZONS = st.integers(-2, 40).map(str)
RECIPES = st.sampled_from(["recipe", "raw_recipe"])

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.sampled_from([1.5, "1", "-1/2", "1/0", "X", "", "add_poly_x", "linear"]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(
        st.sampled_from(["x", "y", "c", "terms", "kind", "coeffs", "name", "a"]),
        kids,
        max_size=3,
    ),
    max_leaves=8,
)


def _small_config():
    cfg = canonical_config()
    cfg["params"].update(
        centralizer_cap=2, eigen_cap=1, klein_imax=1, product_samples=1,
        kernel_cap=2, closure_cap=1, eigvec_imax=1, eigvec_nmax=1,
        propagation_power=1, membership_slack=1,
    )
    return cfg


BASES = {
    "element": element_to_doc(Y**2 - rat(1, 2) * X),
    "endo": endo_to_doc(build_endo(X, Y + X**2)),
    # a recipe takes generators or a raw pair, never both
    "recipe": {
        "generators": [
            {"kind": "add_poly_x", "coeffs": ["0", "0", "1"]},
            {"kind": "linear", "a": "1", "b": "1", "c": "0", "d": "1"},
        ],
    },
    "raw_recipe": {"raw": {"x": "X", "y": "Y"}},
    "config": _small_config(),
}

_DROP = object()


def _paths(doc, prefix=()):
    """Paths to every value below the root of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


def _replaced(doc, path, value):
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    k = path[0]
    if len(path) > 1:
        out[k] = _replaced(doc[k], path[1:], value)
    elif value is _DROP:
        del out[k]
    else:
        out[k] = value
    return out


def documents(base):
    """JSON text: base, base with one mutation, arbitrary JSON, or not JSON."""
    one_change = st.tuples(
        st.sampled_from(list(_paths(base))), st.just(_DROP) | JSON
    ).map(lambda pv: _replaced(base, *pv))
    return st.one_of(
        st.just(base).map(dumps),
        one_change.map(json.dumps),
        one_change.map(json.dumps),
        JSON.map(json.dumps),
        st.sampled_from(["", "{", "not json"]),
    )


@st.composite
def invocations(draw):
    """(argv, {file name: text}); argv names the files under DIR."""
    docs = {}

    def doc(kind):
        name = f"{kind}{len(docs)}.json"
        docs[name] = draw(documents(BASES[kind]))
        return f"{DIR}/{name}"

    def element():
        return "@" + doc("element") if draw(st.integers(0, 4)) == 0 else draw(EXPRS)

    def opt(*args):
        return list(args) if draw(st.booleans()) else []

    def req(*args):  # a required argument, left out now and then
        return list(args) if draw(st.integers(0, 5)) else []

    def maps():
        return req("--map", draw(MAPS)) + opt("--of", element()) + opt("--endo", doc("endo"))

    def weight():
        return opt("--rho", draw(INTS)) + opt("--eta", draw(INTS))

    commands = {
        "normalize": lambda: [element()] + opt("--json"),
        "mul": lambda: [element(), element()] + opt("--json"),
        "comm": lambda: [element(), element()] + opt("--json"),
        "grade": lambda: [element()],
        "newton": lambda: [element()],
        "degree": lambda: [element()] + weight(),
        "generic": lambda: [element()] + opt("--bound", draw(INTS)),
        "drop": lambda: [element()] + maps() + weight(),
        "eig-scan": lambda: [element()]
        + req("--cap", draw(INTS))
        + weight()
        + opt("--candidates", draw(CANDIDATES)),
        "centralizer": lambda: [element()] + req("--cap", draw(INTS)) + weight(),
        "nilclosure": lambda: maps()
        + req("--cap", draw(INTS))
        + opt("--max-iter", draw(INTS))
        + weight(),
        "endo-compile": lambda: opt("--recipe", doc(draw(RECIPES)))
        + opt("--raw", element(), element()),
        "endo-apply": lambda: [element()] + req("--endo", doc("endo")),
        "membership": lambda: [element()]
        + req("--endo", doc("endo"))
        + opt("--slack", draw(INTS)),
        "semigroup": lambda: draw(GENERATORS) + opt("--horizon", draw(HORIZONS)),
        "verify": lambda: ["--config", doc("config")] + opt("--report", f"{DIR}/report.json"),
    }
    cmd = draw(st.sampled_from(sorted(commands)))
    argv = [cmd] + commands[cmd]()
    argv += draw(st.sampled_from([[]] * 10 + [["--bogus"], ["extra"]]))
    return argv, docs


@settings(max_examples=250, deadline=None)
@given(invocations())
def test_cli_exit_contract(invocation):
    argv, docs = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in docs.items():
            Path(tmp, name).write_text(text)
        argv = [a.replace(DIR, tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code in (2, 3):
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].endswith("\n"), (argv, err.getvalue())
        assert set(json.loads(lines[0])) == {"error", "detail"}
    else:
        assert err.getvalue() == "", (argv, err.getvalue())
