"""Acceptance criteria, one test per criterion, each printing a verdict.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines as
they complete.  Every comparison is exact; the only tolerances are the
stated runtime targets, asserted where the criterion states one.
"""

import random
import time

from oracles import oracle_monomial_product, random_element
from weyl1 import (
    H,
    W11,
    Weight,
    WeylElement,
    X,
    Y,
    build_chain_basis,
    canonical_config,
    check_centralizer_theorem,
    check_eigen_theorem,
    check_eigvec_tables,
    check_kernel_delta,
    check_klein_basis,
    check_nilpotent_closure,
    coker_window_dim,
    commutator,
    compile_recipe,
    d_xy,
    d_yx,
    delta_xy,
    drop,
    embed,
    find_generic_weight,
    format_element,
    graded_component,
    graded_degree,
    in_A1,
    localized_mul,
    monomial,
    mul,
    parse,
    rat,
    ratfun,
    weighted_degree,
)
from weyl1.gwa import LocalizedElement
from weyl1.serialize import dumps, element_from_doc, element_to_doc, loads, recipe_from_doc

PAIRS = [
    (doc["name"], compile_recipe(recipe_from_doc(doc)))
    for doc in canonical_config()["endomorphisms"]
]


def _verdict(number: int, label: str, elapsed: float, ok: bool = True) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} ({elapsed:.2f}s): {label}")
    assert ok, label


def test_acceptance_01_normal_ordering_oracle():
    t0 = time.monotonic()
    for i in range(7):
        for j in range(7):
            for k in range(7):
                for l in range(7):
                    got = mul(monomial(i, j), monomial(k, l))
                    want = WeylElement(oracle_monomial_product(i, j, k, l))
                    assert got == want, (i, j, k, l)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"2401 products took {elapsed:.2f}s, target < 5s"
    _verdict(1, "closed-form product == rewrite oracle on 2401 monomial products", elapsed)


def test_acceptance_02_factorial_basis_and_delta_chain():
    t0 = time.monotonic()
    for name, e in PAIRS:
        res = check_klein_basis(e, 10)
        assert res.passed, (name, res.witness)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s, target < 10s"
    _verdict(2, "y^i x^i / x^i y^i product identities and delta chain, i <= 10, three pairs", elapsed)


def test_acceptance_03_centralizer_window():
    t0 = time.monotonic()
    for name, e in PAIRS:
        res = check_centralizer_theorem(e, 10)
        assert res.passed, (name, res.witness)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s, target < 60s"
    _verdict(3, "centralizer window of h = span of h powers at cap 10, three pairs", elapsed)


def test_acceptance_04_integer_eigenvalues():
    t0 = time.monotonic()
    candidates = [rat(k) for k in range(-5, 6)]
    for q in range(2, 5):
        for p in range(1, 6):
            candidates.append(rat(p, q))
            candidates.append(rat(-p, q))
    for name, e in PAIRS:
        res = check_eigen_theorem(e, 8, candidates)
        assert res.passed, (name, res.witness)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.2f}s, target < 120s"
    _verdict(4, "only integer eigenvalues at cap 8; eigenspaces inside span(h^k v_i')", elapsed)


def test_acceptance_05_delta_drop_is_minus_vh():
    t0 = time.monotonic()
    for name, e in PAIRS:
        w = find_generic_weight(e.h)
        assert w is not None
        dl = delta_xy(e)
        vh = weighted_degree(w, e.h)
        for k in range(1, 7):
            assert drop(dl, w, e.h**k) == -vh, (name, k)
    _verdict(5, "drop of ad(x)ad(y) on h^k equals -v(h) at a generic weight, k <= 6", time.monotonic() - t0)


def test_acceptance_06_d_maps_have_drop_zero():
    t0 = time.monotonic()
    for name, e in PAIRS:
        w = find_generic_weight(e.h)
        d, dp = d_yx(e), d_xy(e)
        for k in range(1, 7):
            assert drop(d, w, e.h**k) == 0, (name, k)
            assert drop(dp, w, e.h**k) == 0, (name, k)
    _verdict(6, "drops of [y,.]x and [x,.]y vanish on h^k at the same weights, k <= 6", time.monotonic() - t0)


def test_acceptance_07_commutator_degree_inequality():
    t0 = time.monotonic()
    rng = random.Random(20260809)
    for w in (W11, Weight(2, 3)):
        for _ in range(200):
            a = random_element(rng, max_degree=5, max_terms=4)
            b = random_element(rng, max_degree=5, max_terms=4)
            c = commutator(a, b)
            if not c.is_zero():
                assert (
                    weighted_degree(w, c)
                    <= weighted_degree(w, a) + weighted_degree(w, b) - w.rho - w.eta
                )
    _verdict(7, "v([a,b]) <= v(a) + v(b) - rho - eta on 200 random pairs, two weights", time.monotonic() - t0)


def test_acceptance_08_localized_cusp_suite():
    t0 = time.monotonic()
    w = graded_component(1, ratfun([0, -2, 1], [-1, 1]))
    ok, _ = in_A1(w)
    assert not ok
    w2 = localized_mul(w, w)
    assert w2 == graded_component(2, ratfun([0, -3, 1]))  # H(H-3) X^2
    assert in_A1(w2)[0]
    eH = embed(H)
    wi = w
    degrees = set()
    for i in range(2, 7):
        wi = localized_mul(wi, w)
        member, witness = in_A1(wi)
        assert member, f"w^{i} must lie in the algebra"
        bracket = localized_mul(eH, wi) - localized_mul(wi, eH)
        assert bracket == LocalizedElement(
            {n: ratfun([i * c for c in f.num], f.den) for n, f in wi.components.items()}
        ), f"[H, w^{i}] != {i} w^{i}"
        degrees.add(graded_degree(witness))
    assert degrees == {2, 3, 4, 5, 6}
    _verdict(8, "cusp element: w outside, powers inside with [H, w^i] = i w^i", time.monotonic() - t0)


def test_acceptance_09_closures_match_membership_window():
    t0 = time.monotonic()
    for name, e in PAIRS:
        res = check_nilpotent_closure(e, 6)
        assert res.passed, (name, res.witness)
        res = check_kernel_delta(e, 6)
        assert res.passed, (name, res.witness)
    _verdict(
        9,
        "nilpotent closures of ad(x), ad(y), delta == membership window at cap 6; "
        "kernel of delta == (K[x]+K[y]) window",
        time.monotonic() - t0,
    )


def test_acceptance_10_chain_basis_and_windowed_surjectivity():
    t0 = time.monotonic()
    ident = PAIRS[0][1]
    dl = delta_xy(ident)
    chain = build_chain_basis(dl, [H**k for k in range(7)])
    from math import factorial

    for i, el in enumerate(chain):
        sign = -1 if i % 2 else 1
        expected = rat(sign, factorial(i) ** 2) * (Y**i * X**i)
        assert el == expected, f"e_{i} != (-1)^{i} y^{i}x^{i}/(i!)^2"
    for name, e in PAIRS:
        dl = delta_xy(e)
        for k in range(1, 7):
            src = [e.h**m for m in range(k + 1)]
            tgt = [e.h**m for m in range(k)]
            assert coker_window_dim(dl, src, tgt) == 0, (name, k)
            # index = dim kernel - dim cokernel = 1 - 0 = -(drop)/g with drop = -g
    _verdict(10, "delta chain basis e_i = (-1)^i y^i x^i/(i!)^2 and zero windowed cokernels", time.monotonic() - t0)


def test_acceptance_11_eigenvector_tables_and_power_degrees():
    t0 = time.monotonic()
    rng = random.Random(1789)
    for name, e in PAIRS:
        res = check_eigvec_tables(e, 4, 4)
        assert res.passed, (name, res.witness)
        for w in (W11, Weight(2, -1)):
            for maker in (d_yx, d_xy):
                d = maker(e)
                checked = 0
                while checked < 10:
                    a = random_element(rng, max_degree=3, max_terms=3)
                    if d(a).is_zero():
                        continue
                    for n in range(1, 5):
                        lhs = d(a**n)
                        rhs = a ** (n - 1) * d(a)
                        assert weighted_degree(w, lhs) == weighted_degree(w, rhs)
                    checked += 1
    _verdict(11, "six eigenvector families (i, n <= 4) and v(d(a^n)) = v(a^(n-1) d(a))", time.monotonic() - t0)


def test_acceptance_12_parser_formats_and_cli_verify(tmp_path, capsys):
    t0 = time.monotonic()
    rng = random.Random(12)
    for _ in range(100):
        a = random_element(rng, max_degree=8, max_terms=6, max_num=1000, max_den=1000)
        assert parse(format_element(a)) == a
    assert format_element(parse("[Y,X]")) == "1"
    for _ in range(25):
        a = random_element(rng, max_degree=6, max_terms=5, max_num=999, max_den=998)
        text = dumps(element_to_doc(a))
        assert dumps(element_to_doc(element_from_doc(loads(text)))) == text

    from weyl1.cli import main

    cfg_path = tmp_path / "canonical.json"
    cfg_path.write_text(dumps(canonical_config()))
    code = main(["verify", "--config", str(cfg_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert all(line.startswith("PASS") for line in out.strip().splitlines())
    with capsys.disabled():
        _verdict(12, "parse/print identity, bit-exact docs, CLI verify exit 0", time.monotonic() - t0)
