"""The hard-pair corpus: recipe-built pairs on which the suite is wrong.

`golden/hard_pairs.json` is a verify config of three automorphisms:
- cubic: add_poly_x([0, 0, 0, -1]), add_poly_y([0, 0, 0, 1]), with
  v(x) = 3 and v(y) = 9;
- deep4: add_poly_x([0, 1, 1]), add_poly_y([0, 0, 1]),
  add_poly_x([0, 0, 0, 1]), linear(2, 1, 1, 1), with v(x) = 6 and
  v(y) = 12;
- y3x3y3: add_poly_y([0, 0, 0, 1]), add_poly_x([0, 0, 0, -2]),
  add_poly_y([0, 0, 0, -2]), with v(x) = 27 and v(y) = 9.

Its params are the canonical ones with the four caps at 1 and the
propagation element X in place of Y^2*X^3: phi(Y^2 X^3) = y^2 x^3 is
of degree 42 for deep4, and with it the propagation check took 9.6 of
the 11.3 s that deep4 took at cap 1 (y3x3y3: 2.8 s in all).  `weyl1 verify --config tests/golden/hard_pairs.json`
runs it and exits 1.

Every pair is an automorphism, so every FAIL below is false.  The
closure check's default slack 7*cap is too small for these pairs: for
cubic, x = X + Y^3 and y + x^3 = Y, so X = x - (y + x^3)^3 uses y^3 of
degree 27, and membership misses window monomials that the closures
reach.  Cubic's kernel window at cap 1 holds Y = y + x^3, whose
generators have degree 9, past the kernel check's last bound 8*cap.  The
table pins each FAIL with its witness, so the change that flips one
states it.  The seconds are cold single runs on a 2-core machine with
Python 3.11.
"""

import copy
import json
import time
from pathlib import Path

from weyl1 import canonical_config, run_suite
from weyl1.serialize import load_config

CONFIG = json.loads((Path(__file__).parent / "golden" / "hard_pairs.json").read_text())
CAPS = ("centralizer_cap", "eigen_cap", "kernel_cap", "closure_cap")


def _closure_fail(cap, dims):
    """The closure check's problems at the cap, with the dimension of each
    failing closure; membership finds 1, 2 and 5 members at caps 1, 2, 4."""
    members = {1: 1, 2: 2, 4: 5}[cap]
    return [
        f"{label} closure (dim {dim}) != membership window (dim {members}) "
        f"within max_iter {4 * cap + 1} and slack {7 * cap}"
        for label, dim in dims.items()
    ]


# (pair, cap) -> (seconds measured, {failing check: its problems})
EXPECTED = {
    ("cubic", 1): (0.02, {
        "kernel_delta": [
            "kernel window (dim 2) differs from the (K[x]+K[y]) window "
            "(dim 1) within span_bound 8"
        ],
        "nilpotent_closure": _closure_fail(1, {"ad_x": 3, "ad_y": 2, "delta": 3}),
    }),
    ("cubic", 2): (0.02, {
        "nilpotent_closure": _closure_fail(2, {"ad_x": 6, "ad_y": 3, "delta": 6}),
    }),
    ("cubic", 4): (0.10, {
        "nilpotent_closure": _closure_fail(4, {"ad_x": 15, "ad_y": 9, "delta": 15}),
    }),
    ("deep4", 1): (1.91, {
        "nilpotent_closure": _closure_fail(1, {"ad_x": 2, "ad_y": 2, "delta": 3}),
    }),
    ("y3x3y3", 1): (1.21, {
        "nilpotent_closure": _closure_fail(1, {"ad_y": 2, "delta": 2}),
    }),
}

# every row together, cold, took 3.3 s
TIME_BOUND_S = 20.0


def _config_for(name, cap):
    config = copy.deepcopy(CONFIG)
    config["endomorphisms"] = [d for d in config["endomorphisms"] if d["name"] == name]
    config["params"].update(dict.fromkeys(CAPS, cap))
    return load_config(config)


def test_the_corpus_is_the_canonical_params_at_cap_1():
    params = dict(canonical_config()["params"], propagation_element="X")
    params.update(dict.fromkeys(CAPS, 1))
    assert load_config(copy.deepcopy(CONFIG))["params"] == params
    assert [d["name"] for d in CONFIG["endomorphisms"]] == ["cubic", "deep4", "y3x3y3"]


def test_the_corpus_gives_its_known_false_fails():
    t0 = time.monotonic()
    for (name, cap), (_, fails) in EXPECTED.items():
        results = run_suite(_config_for(name, cap))
        assert len(results) == 8
        got = {
            r.name[: -len(f"[{name}]")]: r.witness["problems"]
            for r in results if not r.passed
        }
        assert got == fails, (name, cap)
    elapsed = time.monotonic() - t0
    assert elapsed < TIME_BOUND_S, f"the corpus took {elapsed:.1f} s"

