"""Document round trips: exact strings, no floats anywhere."""

import json
import random

import pytest

from oracles import random_element
from weyl1 import H, W11, X, Y, Window, build_endo, drop_profile, delta_xy, identity_endo
from weyl1 import canonical_config, eigenvalue_scan, rat, semigroup_analyze
from weyl1.serialize import (
    DocError,
    drop_report_to_doc,
    dumps,
    eigen_report_to_doc,
    element_from_doc,
    element_to_doc,
    endo_from_doc,
    endo_to_doc,
    graded_to_doc,
    load_config,
    loads,
    semigroup_to_doc,
)


def test_element_doc_roundtrip_bit_exact():
    rng = random.Random(127)
    for _ in range(50):
        a = random_element(rng, max_degree=6, max_terms=5, max_num=999, max_den=997)
        doc = element_to_doc(a)
        text = dumps(doc)
        again = element_from_doc(loads(text))
        assert again == a
        assert dumps(element_to_doc(again)) == text  # byte-for-byte


def test_element_doc_shape():
    doc = element_to_doc(H + rat(1, 2) * X)
    assert doc["format"] == "weyl-element" and doc["basis"] == "YX"
    assert doc["terms"] == [
        {"y": 0, "x": 1, "c": "1/2"},
        {"y": 1, "x": 1, "c": "1"},
    ]
    assert "e" not in json.dumps(doc["terms"])  # no floats sneak in


def test_element_doc_validation():
    with pytest.raises(DocError):
        element_from_doc({"format": "nope"})
    base = element_to_doc(H)
    bad = dict(base, version=2)
    with pytest.raises(DocError):
        element_from_doc(bad)
    bad = dict(base, terms=[{"y": 0, "x": 0, "c": "0"}])
    with pytest.raises(DocError):
        element_from_doc(bad)
    bad = dict(base, terms=[{"y": 1, "x": 1, "c": "1"}, {"y": 1, "x": 1, "c": "2"}])
    with pytest.raises(DocError):
        element_from_doc(bad)
    # rationals are strings "p" or "p/q"; exponents are JSON ints >= 0
    for entry in (
        {"y": 0, "x": 1, "c": "1.5"},
        {"y": 0, "x": 1, "c": "1e3"},
        {"y": 0, "x": 1, "c": " 1"},
        {"y": 0, "x": 1, "c": "1/0"},
        {"y": 0, "x": 1, "c": 3},
        {"y": 2.7, "x": 1, "c": "1"},
        {"y": 2, "x": True, "c": "1"},
        {"y": -1, "x": 0, "c": "1"},
        {"y": 0, "c": "1"},
        "Y",
    ):
        with pytest.raises(DocError):
            element_from_doc(dict(base, terms=[entry]))
    with pytest.raises(DocError):
        element_from_doc(dict(base, terms={"y": 0, "x": 0, "c": "1"}))
    # exponents obey the parser's limit MAX_EXPONENT = 4096
    with pytest.raises(DocError, match="limit 4096"):
        element_from_doc(dict(base, terms=[{"y": 0, "x": 4097, "c": "1"}]))
    top = element_from_doc(dict(base, terms=[{"y": 4096, "x": 0, "c": "1"}]))
    assert top.terms() == [((4096, 0), 1)]


def test_element_doc_rejects_float_coefficients():
    # a JSON number like 0.1 is a binary float, not the rational 1/10
    bad = dict(element_to_doc(H), terms=[{"y": 0, "x": 1, "c": 0.1}])
    with pytest.raises(DocError):
        element_from_doc(bad)
    with pytest.raises(TypeError):
        rat(0.5)


def test_endo_doc_reverifies():
    e = build_endo(X, Y + X**2)
    doc = endo_to_doc(e)
    again = endo_from_doc(loads(dumps(doc)))
    assert again.verified and again.x == e.x and again.y == e.y
    doc["y"] = element_to_doc(X)  # tamper: pair (X, X) no longer verifies
    assert not endo_from_doc(doc).verified
    del doc["x"]
    with pytest.raises(DocError):
        endo_from_doc(doc)


def test_graded_doc():
    doc = graded_to_doc(Y**2 * X**2 + X)
    assert doc["components"] == [
        {"n": 0, "alpha": "H + H^2"},
        {"n": 1, "alpha": "1"},
    ]


def test_report_docs_have_full_parameterization():
    report = eigenvalue_scan(H, Window(W11, 3), [rat(0), rat(1), rat(1, 2)])
    doc = eigen_report_to_doc(report)
    assert doc["cap"] == 3 and doc["weight"] == {"rho": 1, "eta": 1}
    assert doc["candidates"] == ["0", "1/2", "1"]
    assert {f["lambda"] for f in doc["found"]} == {"0", "1"}

    prof = drop_profile(delta_xy(identity_endo()), W11, [H, H**2])
    pdoc = drop_report_to_doc(prof)
    assert pdoc["constant"] is True and pdoc["drop_value"] == -2
    assert pdoc["samples"][0]["degree"] == 2

    sdoc = semigroup_to_doc(semigroup_analyze({2, 3}))
    assert sdoc["gaps"] == [1] and sdoc["h_list"] == [4, 5]


def test_config_validation():
    with pytest.raises(DocError):
        load_config({"format": "weyl-verify-config", "version": 1})
    assert load_config(canonical_config()) == canonical_config()
    for entry in (
        {"generators": []},
        {"name": 1, "generators": []},
        {"name": "a", "generators": [{"kind": "add_poly_x"}]},
        {"name": "a", "generators": [{"coeffs": ["1"]}]},
        {"name": "a", "generators": [{"kind": "shear", "coeffs": ["1"]}]},
        {"name": "a", "generators": [{"kind": "add_poly_y", "coeffs": "1"}]},
        {"name": "a", "generators": [{"kind": "add_poly_y", "coeffs": [0.5]}]},
        {"name": "a", "generators": [{"kind": "linear", "a": "1", "b": "0", "c": "0"}]},
        {"name": "a", "generators": {}},
        {"name": "a", "raw": {"x": "X"}},
        {"name": "a", "raw": {"x": "X", "y": 1}},
        "identity",
    ):
        with pytest.raises(DocError):
            load_config(dict(canonical_config(), endomorphisms=[entry]))
    with pytest.raises(DocError):
        load_config(dict(canonical_config(), endomorphisms={}))
    with pytest.raises(DocError):
        loads("{not json")
