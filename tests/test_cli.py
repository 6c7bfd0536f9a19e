"""Command-line surface: subcommands, exit codes, determinism."""

import hashlib
import json
import sys

import pytest

from weyl1 import Y, ad, compile_recipe, d_xy, d_yx, delta_xy, format_element, identity_endo
from weyl1.cli import main
from weyl1.semigroup import MAX_HORIZON
from weyl1.serialize import (
    dumps,
    element_to_doc,
    endo_to_doc,
    load_config,
    recipe_from_doc,
)
from weyl1.checks import canonical_config

# SHA-256 of the report `weyl1 verify --report` writes for the canonical
# config; any change to a verdict, a basis or the document format moves it.
CANONICAL_REPORT_SHA256 = "0d22ee329433467899e43e7f3f7e20879691265bc9df2e2f97f682f158531ad1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_comm(capsys):
    code, out, _ = run(capsys, "comm", "Y", "X")
    assert code == 0 and out == "1\n"


def test_normalize_and_json(capsys):
    code, out, _ = run(capsys, "normalize", "X*Y")
    assert code == 0 and out == "-1 + Y*X\n"
    code, out, _ = run(capsys, "normalize", "X*Y", "--json")
    doc = json.loads(out)
    assert doc["terms"][0] == {"y": 0, "x": 0, "c": "-1"}


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "X^2", "Y^2")
    assert code == 0 and out == "2 - 4*Y*X + Y^2*X^2\n"


def test_degree(capsys):
    code, out, _ = run(capsys, "degree", "--rho", "1", "--eta", "1", "Y*X + X^3")
    assert code == 0 and out == "3\n"
    code, out, _ = run(capsys, "degree", "0")
    assert code == 0 and out == "-inf\n"


def test_degree_and_drop_take_any_integer_weight(capsys):
    # only windows need positive weights (see the out-of-range flag cases)
    code, out, _ = run(capsys, "degree", "--rho", "0", "--eta", "-2", "Y*X + X^3")
    assert code == 0 and out == "-2\n"
    # [X, Y^2] = -2Y: v = -1 against v(Y^2) = -2 at weight (-1, 1)
    code, out, _ = run(capsys, "drop", "--map", "ad", "--of", "X", "--rho", "-1", "Y^2")
    assert code == 0 and out == "1\n"


def test_grade_newton_generic(capsys):
    code, out, _ = run(capsys, "grade", "Y^2*X^2")
    assert code == 0 and json.loads(out)["components"] == [{"n": 0, "alpha": "H + H^2"}]
    code, out, _ = run(capsys, "newton", "Y*X + X^3")
    doc = json.loads(out)
    assert sorted(map(tuple, doc["vertices"])) == [(0, 3), (1, 1)]
    code, out, _ = run(capsys, "generic", "Y*X + X^3")
    assert code == 0 and out == "1 1\n"


def test_drop_and_eig_scan(capsys):
    code, out, _ = run(capsys, "drop", "--map", "delta", "H^2")
    assert code == 0 and out == "-2\n"
    code, out, _ = run(capsys, "drop", "--map", "ad", "--of", "X", "X^3")
    assert code == 0 and out == "-inf\n"
    code, out, _ = run(capsys, "eig-scan", "H", "--cap", "3", "--candidates", "0,1,1/2")
    doc = json.loads(out)
    assert [f["lambda"] for f in doc["found"]] == ["0", "1"]


# SHA-256 of `weyl1 eig-scan` output: every eigenspace basis of the scan,
# which the canonical report digest does not cover
EIG_SCAN_SHA256 = {
    ("H", "--cap", "6"):
        "f53c2e280bee25537e3e0de4defd8d7c0a8650cc2ba0fb6a12193516457fb32f",
    ("X^2+Y^2", "--cap", "6"):
        "4c9d3c93323c5fd246d9f8af476350995e89b57f259dc820546466062fdb81ea",
    # h = y*x of the composite pair of the canonical config
    ("2 - 5*Y*X + X^3 - 5*Y^3 + 3*Y^2*X^2 + 3*Y^4*X + Y^6",
     "--cap", "6", "--rho", "1", "--eta", "2"):
        "24d1805d76f8ff5a13c2f73fcf18cc79967084c469c17237c177b5b498612831",
}


@pytest.mark.parametrize("argv", list(EIG_SCAN_SHA256), ids=["H", "X^2+Y^2", "composite-h"])
def test_eig_scan_bytes(argv, capsys):
    code, out, _ = run(capsys, "eig-scan", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EIG_SCAN_SHA256[argv]


def test_eig_scan_pins_the_composite_h():
    e = compile_recipe(recipe_from_doc(canonical_config()["endomorphisms"][2]))
    assert format_element(e.h) == list(EIG_SCAN_SHA256)[2][0]


def test_centralizer_and_nilclosure(capsys):
    code, out, _ = run(capsys, "centralizer", "Y*X", "--cap", "6")
    doc = json.loads(out)
    assert code == 0 and doc["dimension"] == 4
    code, out, _ = run(capsys, "nilclosure", "--map", "ad", "--of", "X", "--cap", "2")
    doc = json.loads(out)
    assert code == 0 and doc["dimension"] == 6


# SHA-256 of `weyl1 nilclosure` output on the composite pair of the
# canonical config (x = X + Y^2); the closure certifies most monomials
# from the indices of X and Y, and these are the bytes of plain iteration
_COMPOSITE_Y = "-Y + X^2 + 2*Y^2*X + Y^4"
NILCLOSURE_SHA256 = {
    ("ad", "--of", _COMPOSITE_Y, "--cap", "4"):
        "bb2a4fcba5556c68498c95c638b6ca1eb852d86735514c714720e47b0d129f15",
    ("ad", "--of", "X + Y^2", "--cap", "4"):
        "430b7d195570f1ed061f90ebcb95b134f0782753b4d443934d7225f23b9f9baf",
    # one step short of the bound 17 of X^4, which stays out
    ("ad", "--of", _COMPOSITE_Y, "--cap", "4", "--max-iter", "16"):
        "f0482fbe1a548c9846b6d5e3ac0ffbaa49e93e67508c9ab5e9745cb4e2c32ddb",
    ("ad", "--of", _COMPOSITE_Y, "--cap", "4", "--rho", "1", "--eta", "2"):
        "5590596abbf081fdb2497896fb87a003b1af014f0ab024808f26888871162371",
    ("delta", "--cap", "4"):
        "d7e05719c3e3c4bf0c5b375d388e3d71b2d21adb338fa139edcf531504c419c1",
    ("delta", "--cap", "4", "--max-iter", "3"):
        "5afdbe0118aad51be5d98a317aa1e7cc8f9032791560f53100a9c7943fc5c422",
    ("dyx", "--cap", "3"):
        "4cf5fc28264a899e6c274daec8d1a00bbb7d5426702d7b6be5791ea464648014",
}


@pytest.mark.parametrize("argv", list(NILCLOSURE_SHA256), ids=[
    "ad-y", "ad-x", "ad-y-short", "ad-y-12", "delta", "delta-short", "dyx",
])
def test_nilclosure_bytes(argv, tmp_path, capsys):
    e = compile_recipe(recipe_from_doc(canonical_config()["endomorphisms"][2]))
    assert format_element(e.y) == _COMPOSITE_Y
    extra = []
    if argv[0] != "ad":
        epath = tmp_path / "endo.json"
        epath.write_text(dumps(endo_to_doc(e)))
        extra = ["--endo", str(epath)]
    code, out, _ = run(capsys, "nilclosure", "--map", *argv, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == NILCLOSURE_SHA256[argv]


def test_endo_workflow(tmp_path, capsys):
    recipe = {
        "name": "triangular",
        "generators": [{"kind": "add_poly_x", "coeffs": ["0", "0", "1"]}],
    }
    rpath = tmp_path / "recipe.json"
    rpath.write_text(dumps(recipe))
    epath = tmp_path / "endo.json"
    code, out, _ = run(capsys, "endo-compile", "--recipe", str(rpath), "--out", str(epath))
    assert code == 0
    doc = json.loads(epath.read_text())
    assert doc["verified"] is True

    code, out, _ = run(capsys, "endo-apply", "--endo", str(epath), "Y*X")
    assert code == 0 and out == "Y*X + X^3\n"

    code, out, _ = run(capsys, "membership", "--endo", str(epath), "Y", "--slack", "4")
    doc = json.loads(out)
    assert doc["member"] is True
    assert doc["witness"] == [
        {"i": 0, "j": 2, "c": "-1"},
        {"i": 1, "j": 0, "c": "1"},
    ]
    code, out, _ = run(capsys, "membership", "--endo", str(epath), "Y^5")
    assert json.loads(out)["member"] is False


# SHA-256 of `weyl1 membership --endo <composite pair>` for a member and
# for a non-member at low slack, as the slack solver printed them
COMPOSITE_MEMBERSHIP_SHA256 = {
    ("Y", "4"): "a1f07624c249ef17f1812d720c97d4acaf49e46aba739f3b43dfa4b87b59e060",
    ("X", "4"): "3911d8fc9fca22d1837d4240c12c449c7dbbf75913b7b25e0b9afe25bb7ee7df",
}


def test_membership_report_bytes_on_the_composite_pair(tmp_path, capsys):
    rpath = tmp_path / "recipe.json"
    rpath.write_text(dumps(canonical_config()["endomorphisms"][2]))
    epath = tmp_path / "endo.json"
    assert run(capsys, "endo-compile", "--recipe", str(rpath), "--out", str(epath))[0] == 0
    members = []
    for (expr, slack), digest in COMPOSITE_MEMBERSHIP_SHA256.items():
        code, out, _ = run(capsys, "membership", "--endo", str(epath), expr, "--slack", slack)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        members.append(json.loads(out)["member"])
    assert members == [True, False]


def test_endo_compile_raw(capsys):
    code, out, _ = run(capsys, "endo-compile", "--raw", "X", "Y + X^3")
    assert code == 0 and json.loads(out)["verified"] is True
    code, _, err = run(capsys, "endo-compile", "--raw", "X", "X")
    assert code == 3 and json.loads(err)["error"] == "domain"


def test_element_file_argument(tmp_path, capsys):
    path = tmp_path / "el.json"
    code, out, _ = run(capsys, "normalize", "Y^2*X^2", "--json", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "normalize", "@" + str(path))
    assert code == 0 and out == "Y^2*X^2\n"


def test_semigroup(capsys):
    code, out, _ = run(capsys, "semigroup", "2", "3")
    doc = json.loads(out)
    assert code == 0 and doc["gaps"] == [1] and doc["nu"] == 1


@pytest.mark.parametrize(
    "argv",
    [["1000000000"], ["2", "3", "--horizon", str(MAX_HORIZON + 1)]],
    ids=["default-horizon", "given-horizon"],
)
def test_semigroup_past_the_table_limit_is_domain_error(capsys, argv):
    code, out, err = run(capsys, "semigroup", *argv)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and json.loads(err)["error"] == "domain"
    assert str(MAX_HORIZON) in json.loads(err)["detail"]


def test_exit_codes():
    import io
    from contextlib import redirect_stderr, redirect_stdout

    buf_out, buf_err = io.StringIO(), io.StringIO()
    with redirect_stdout(buf_out), redirect_stderr(buf_err):
        assert main(["normalize", "X +"]) == 2  # syntax error
        # a numeral longer than int() converts (4 300 digits) is bad input too
        assert main(["normalize", "1" * 5000]) == 2
        assert main(["normalize", "X^" + "1" * 5000]) == 2
        assert main(["normalize", "1/" + "1" * 5000]) == 2
        assert main(["newton", "0"]) == 3  # domain: zero has no polygon
        assert main(["generic", "X + Y", "--bound", "1"]) == 3  # only (1,1), a tie
        assert main(["normalize", "@/nonexistent/file.json"]) == 2
    with pytest.raises(SystemExit) as exc:
        with redirect_stderr(buf_err):
            main(["no-such-command"])
    assert exc.value.code == 2


def test_deterministic_output(capsys):
    first = run(capsys, "eig-scan", "Y*X", "--cap", "4")
    second = run(capsys, "eig-scan", "Y*X", "--cap", "4")
    assert first == second


def test_verify_canonical_config_roundtrip(tmp_path, capsys):
    cfg = canonical_config()
    # shrink the caps so this unit test stays quick; the acceptance
    # suite runs the full canonical configuration
    cfg["params"].update(
        {
            "centralizer_cap": 6,
            "eigen_cap": 3,
            "klein_imax": 3,
            "product_samples": 4,
            "kernel_cap": 3,
            "closure_cap": 2,
            "eigvec_imax": 2,
            "eigvec_nmax": 2,
        }
    )
    cpath = tmp_path / "cfg.json"
    cpath.write_text(dumps(cfg))
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--config", str(cpath), "--report", str(report))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 24 and all(line.startswith("PASS") for line in lines)
    doc = json.loads(report.read_text())
    assert doc["passed"] is True and doc["config"]["params"]["eigen_cap"] == 3


def test_verify_kernel_cap_one_passes(tmp_path, capsys):
    # for the composite pair y - x^2 has degree 1 but y and x^2 have
    # degree 4, so the kernel check must raise its generator bound past
    # 2*cap to see the whole kernel window
    cfg = canonical_config()
    cfg["params"].update(
        {
            "centralizer_cap": 2,
            "eigen_cap": 1,
            "klein_imax": 1,
            "product_samples": 1,
            "kernel_cap": 1,
            "closure_cap": 1,
            "eigvec_imax": 1,
            "eigvec_nmax": 1,
        }
    )
    cpath = tmp_path / "cfg.json"
    cpath.write_text(dumps(cfg))
    code, out, _ = run(capsys, "verify", "--config", str(cpath))
    assert code == 0
    assert "PASS kernel_delta[composite] (cap=1, span_bound=4, " in out


def test_float_coefficient_document_is_bad_input(tmp_path, capsys):
    doc = {
        "format": "weyl-element",
        "version": 1,
        "basis": "YX",
        "terms": [{"y": 0, "x": 1, "c": 0.1}],
    }
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "normalize", "@" + str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize("expr", ["X^²", "X^３", "٢*Y"])
def test_a_non_ascii_digit_is_bad_input(capsys, expr):
    code, out, err = run(capsys, "normalize", expr)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "input" and "unexpected character" in doc["detail"]


@pytest.mark.parametrize("expr", ["X\u3000+\x1cY", "X +\x0bY", "X\xa0"])
def test_a_non_ascii_blank_is_bad_input(capsys, expr):
    code, out, err = run(capsys, "normalize", expr)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "input" and "unexpected character" in doc["detail"]


def test_a_non_ascii_digit_in_the_propagation_element_is_bad_input(tmp_path, capsys):
    params = dict(canonical_config()["params"], propagation_element="Y^²*X")
    code, out, err = run(capsys, "verify", "--config", _write_config(tmp_path, params))
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "input" and "unexpected character" in doc["detail"]


def _write_config(tmp_path, params):
    cfg = canonical_config()
    cfg["params"] = params
    path = tmp_path / "cfg.json"
    path.write_text(dumps(cfg))
    return str(path)


@pytest.mark.parametrize("key", ["centralizer_cap", "eigvec_nmax", "seed"])
def test_verify_config_missing_param_is_bad_input(tmp_path, capsys, key):
    params = dict(canonical_config()["params"])
    del params[key]
    code, out, err = run(capsys, "verify", "--config", _write_config(tmp_path, params))
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "input" and key in doc["detail"]


@pytest.mark.parametrize("value", ["10", 10.0, True, None, -1])
def test_verify_config_mistyped_param_is_bad_input(tmp_path, capsys, value):
    params = dict(canonical_config()["params"], centralizer_cap=value)
    code, out, err = run(capsys, "verify", "--config", _write_config(tmp_path, params))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize(
    "key,value",
    [
        ("product_samples", -1), ("klein_imax", -1), ("eigvec_imax", -1),
        ("propagation_power", -1), ("membership_slack", -1),
        ("closure_max_iter", 0), ("closure_max_iter", -1), ("closure_slack", -1),
    ],
)
def test_verify_config_negative_param_is_bad_input(tmp_path, capsys, key, value):
    # a negative count or bound would make a check PASS on nothing
    params = dict(canonical_config()["params"], **{key: value})
    code, out, err = run(capsys, "verify", "--config", _write_config(tmp_path, params))
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "input" and key in doc["detail"]


def test_verify_config_accepts_a_negative_seed():
    cfg = canonical_config()
    cfg["params"].update(seed=-1, closure_max_iter=1, closure_slack=0)
    assert load_config(cfg) is cfg


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["centralizer", "X", "--cap", "-1"], "--cap"),
        (["eig-scan", "X", "--cap", "-1"], "--cap"),
        (["nilclosure", "--map", "ad", "--of", "X", "--cap", "-1"], "--cap"),
        (["nilclosure", "--map", "ad", "--of", "X", "--cap", "2", "--max-iter", "0"],
         "--max-iter"),
        (["membership", "Y", "--endo", "<ENDO>", "--slack", "-1"], "--slack"),
        (["semigroup", "0", "3"], "generators"),
        (["semigroup", "2", "-3"], "generators"),
        (["semigroup", "2", "3", "--horizon", "-5"], "--horizon"),
        (["semigroup", "2", "3", "--horizon", "0"], "--horizon"),
        (["generic", "X", "--bound", "0"], "--bound"),
        (["eig-scan", "X", "--cap", "2", "--rho", "0"], "--rho"),
        (["eig-scan", "X", "--cap", "2", "--eta", "-1"], "--eta"),
        (["centralizer", "X", "--cap", "2", "--rho", "-3"], "--rho"),
        (["centralizer", "X", "--cap", "2", "--eta", "0"], "--eta"),
        (["nilclosure", "--map", "ad", "--of", "X", "--cap", "2", "--rho", "0"], "--rho"),
        (["nilclosure", "--map", "ad", "--of", "X", "--cap", "2", "--eta", "-2"], "--eta"),
    ],
    ids=["centralizer-cap", "eig-scan-cap", "nilclosure-cap", "nilclosure-max-iter",
         "membership-slack", "semigroup-zero-generator", "semigroup-negative-generator",
         "semigroup-negative-horizon", "semigroup-zero-horizon", "generic-bound",
         "eig-scan-rho", "eig-scan-eta", "centralizer-rho", "centralizer-eta",
         "nilclosure-rho", "nilclosure-eta"],
)
def test_out_of_range_flag_is_bad_input(tmp_path, capsys, argv, flag):
    # the same values are bad input in a verify config (exit 2), not domain errors
    path = tmp_path / "endo.json"
    path.write_text(dumps(endo_to_doc(identity_endo())))
    with pytest.raises(SystemExit) as exc:
        main([str(path) if a == "<ENDO>" else a for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    doc = json.loads(captured.err)
    assert doc["error"] == "input" and flag in doc["detail"]


@pytest.mark.parametrize(
    "argv",
    [["centralizer", "X"], ["centralizer", "X", "--cap", "abc"], ["no-such-command"], []],
    ids=["missing-cap", "non-integer-cap", "unknown-command", "no-command"],
)
def test_usage_error_is_one_json_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and json.loads(captured.err)["error"] == "input"


def test_help_is_plain_usage_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["centralizer", "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    assert captured.out.startswith("usage: weyl1 centralizer")


@pytest.mark.parametrize(
    "expr",
    ["(" * 3000 + "X" + ")" * 3000, "[X," * 1500 + "Y" + "]" * 1500],
    ids=["parentheses", "brackets"],
)
def test_deep_nesting_is_bad_input(capsys, expr):
    code, out, err = run(capsys, "normalize", expr)
    assert code == 2 and out == ""
    assert "nesting" in json.loads(err)["detail"]


def test_long_flat_sum_evaluates(capsys):
    code, out, _ = run(capsys, "normalize", "+".join(["X"] * 5000))
    assert code == 0 and out == "5000*X\n"


def test_canonical_verify_report_is_golden(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--report", str(report))
    assert code == 0 and len(out.splitlines()) == 24
    assert hashlib.sha256(report.read_bytes()).hexdigest() == CANONICAL_REPORT_SHA256


def test_warm_maps_give_the_same_bytes(tmp_path, capsys):
    # the map constructors' memo outlives a command: a second verify and a
    # second eig-scan in one process read the images the first formed
    for make in (ad, d_yx, d_xy, delta_xy):
        make.cache_clear()
    for name in ("cold.json", "warm.json"):
        hits = ad.cache_info().hits + delta_xy.cache_info().hits
        report = tmp_path / name
        code, _, _ = run(capsys, "verify", "--report", str(report))
        assert code == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == CANONICAL_REPORT_SHA256
    assert ad.cache_info().hits + delta_xy.cache_info().hits > hits
    argv = ("X^2+Y^2", "--cap", "6")
    for _ in range(2):
        code, out, _ = run(capsys, "eig-scan", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EIG_SCAN_SHA256[argv]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_a_coefficient_too_long_to_print_is_a_domain_error(capsys, flags):
    # 100^4096 has 8 193 digits; Python prints ints of at most 4 300 by
    # default, and the package leaves that process-wide limit alone
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "normalize", "100^4096", *flags)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and json.loads(err)["error"] == "domain"
    detail = json.loads(err)["detail"]
    assert "8193 digits" in detail and f"at most {limit} digits" in detail
    assert "set_int_max_str_digits" not in err
    assert sys.get_int_max_str_digits() == limit


TRIANGULAR = {"generators": [{"kind": "add_poly_x", "coeffs": ["0", "0", "1"]}]}


def _element_doc(**term):
    return dict(element_to_doc(Y), terms=[dict({"y": 1, "x": 0, "c": "1"}, **term)])


@pytest.mark.parametrize(
    "argv,doc",
    [
        (["verify", "--config", "DOC"],
         dict(canonical_config(), endomorphisms=[{"generators": []}])),
        (["endo-compile", "--recipe", "DOC"], {"generators": [{"kind": "add_poly_x"}]}),
        (["endo-compile", "--recipe", "DOC"], {"generators": [], "raw": {"x": "X"}}),
        (["endo-compile", "--recipe", "DOC"], {"generators": [{"kind": {}, "coeffs": []}]}),
        (["endo-apply", "--endo", "DOC", "Y*X"],
         {"format": "weyl-endo", "version": 1, "y": element_to_doc(Y)}),
        (["normalize", "@DOC"], _element_doc(y=-1)),
        (["normalize", "@DOC"], _element_doc(c="1.5")),
        (["degree", "@DOC"], _element_doc(y=5000)),
        (["normalize", "@DOC"], _element_doc(c="1" * 5000)),
        # JSON text, since Python will not print an int of 5 000 digits either
        (["normalize", "@DOC"], json.dumps(_element_doc()).replace('"y": 1', '"y": ' + "1" * 5000)),
        (["endo-compile", "--recipe", "DOC"], dict(TRIANGULAR, raw={"x": "X", "y": "Y"})),
        (["verify", "--config", "DOC"],
         dict(canonical_config(), endomorphisms=[
             dict(TRIANGULAR, name="triangular-x2", raw={"x": "X", "y": "Y"})])),
    ],
    ids=["config-entry-without-name", "generator-without-coeffs", "raw-without-y",
         "generator-kind-not-a-string",
         "endo-without-x", "negative-exponent", "decimal-coefficient",
         "exponent-above-the-limit", "coefficient-of-5000-digits",
         "exponent-of-5000-digits", "recipe-with-generators-and-raw",
         "config-entry-with-generators-and-raw"],
)
def test_malformed_document_is_bad_input(tmp_path, capsys, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run(capsys, *[a.replace("DOC", str(path)) for a in argv])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and json.loads(err)["error"] == "input"


# a list naming no rational is refused too: neither an empty scan nor a
# silent fall back to the default candidates
@pytest.mark.parametrize(
    "candidates",
    ["abc", "1/0", "1e0,0.5", "", ",,",
     pytest.param("1" * 5000, id="5000-digits"),
     pytest.param("0,1/" + "1" * 5000, id="denominator-of-5000-digits")],
)
def test_eig_scan_candidates_are_strict_rationals(capsys, candidates):
    code, out, err = run(capsys, "eig-scan", "Y*X", "--cap", "2", "--candidates", candidates)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and json.loads(err)["error"] == "input"


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    from weyl1 import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "comm", broken)
    code, out, err = run(capsys, "comm", "Y", "X")
    assert code == 4 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "internal", "detail": "RuntimeError: boom"}
