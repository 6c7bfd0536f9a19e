"""The benchmark's own self-test passes against the sources in src/.

`bench/run.py --self-test` runs one plain and one traced pass of each
workload.  It fails when an op fails its check (for verify-canonical,
the report SHA-256 recorded in bench/workloads.py), when traced and
untraced passes give different outputs, or when a tracer wrapper is
left on a patched class.  So a change under src/ that breaks the
benchmark shows up here first.  A second test checks that windows-deep's
closure ops pass the suite's default nilpotent-closure bound, a third
that a verify pass leaves no memo behind that the benchmark's
`clear_process_caches` cannot empty, and a fourth that the tracer still
counts the suite's membership solves.  Two more check that
`clear_process_caches` empties the default eigenvalue candidates' memo
and the memos of the pair certificates and the product-rule samples.
The self-test runs seeds 3 and 4, so one more test runs one pass of
each workload with a recorded seed-1 output digest and requires that
digest: a measured run reports `correct: false` without it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import weyl1
from weyl1 import checks

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_test_passes_every_workload():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--self-test"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    lines = proc.stdout.splitlines()
    for name in workloads:
        assert [line for line in lines if line.startswith(f"PASS {name}:")], proc.stdout
    assert len(lines) == len(workloads), proc.stdout


def test_windows_deep_closures_use_the_default_iteration_bound(monkeypatch):
    # the closure ops pass their own max_iter; a change to the default
    # bound must not leave windows-deep measuring the old one
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import WindowsDeep

    seen = []
    monkeypatch.setattr(
        weyl1, "nilpotent_closure_window",
        lambda m, win, max_iter: seen.append((win.cap, max_iter)),
    )
    ops = [op for label, op in WindowsDeep(weyl1, 1).ops if label.startswith("closure/")]
    for op in ops:
        op()
    assert ops and len(seen) == len(ops)
    assert all(n == checks.default_closure_max_iter(cap) for cap, n in seen)


# run in a fresh interpreter, so that no earlier test has filled a memo
_GROWTH_PROBE = """
import json, sys
import weyl1, weyl1.cli
from weyl1 import canonical_config, run_suite

def sizes():
    return {
        f"{name}.{attr}": len(value)
        for name, mod in sorted(sys.modules.items())
        if name == "weyl1" or name.startswith("weyl1.")
        for attr, value in vars(mod).items()
        if not attr.startswith("__") and isinstance(value, (dict, list, set))
    }

before = sizes()
assert all(r.passed for r in run_suite(canonical_config()))
print(json.dumps([before, sizes()]))
"""


def test_a_verify_pass_grows_no_module_level_container():
    # verify-canonical measures a fresh process by emptying every functools
    # cache before each pass; a memo kept in a module-level dict, list or
    # set would survive that, and later passes would measure a warm one
    proc = subprocess.run(
        [sys.executable, "-c", _GROWTH_PROBE],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout)
    assert {"weyl1.parsing._GENERATORS", "weyl1.cli._COMMANDS"} <= set(before)
    assert after == before


def test_the_tracer_counts_the_suites_membership_solves(monkeypatch):
    # the tracer hooks MembershipSolver.solve by name and skips a method
    # it cannot find without a word, so a restructured certificate could
    # drop the endos counters unnoticed: two solves per pair, closure and
    # propagation
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracer import Tracer

    tracer = Tracer(weyl1)
    tracer.install()
    try:
        assert all(r.passed for r in weyl1.run_suite(weyl1.canonical_config()))
    finally:
        tracer.uninstall()
    assert tracer.count["endos.solve_calls"] == 6
    assert tracer.leftovers() == []


def test_a_seed_1_pass_gives_the_recorded_digests(monkeypatch):
    # the digests hash the printed outputs (GradedElement components,
    # LocalizedElement reprs, elements), so a changed repr shows here
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from clock import Clock
    from run import Runner
    from workloads import DEFAULT_SEED, RECORDED_DIGESTS, WORKLOADS

    assert DEFAULT_SEED == 1 and set(RECORDED_DIGESTS) == {"windows-deep", "arith-graded"}
    for name in sorted(RECORDED_DIGESTS):
        runner = Runner(WORKLOADS[name](weyl1, DEFAULT_SEED), Clock())
        runner.one_pass()
        assert runner.attempted and not runner.failed, name
        assert not runner.wrong_digest, name


def test_clearing_the_process_caches_empties_the_candidates_memo(monkeypatch):
    # each verify-canonical pass starts cold, the default eigenvalue
    # candidates included
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import clear_process_caches

    memo = weyl1.windows.default_eigen_candidates
    memo(6)
    assert memo.cache_info().currsize > 0
    clear_process_caches(weyl1)
    assert memo.cache_info().currsize == 0


def test_clearing_the_process_caches_empties_the_certificate_and_samples_memos(
    monkeypatch,
):
    # each verify-canonical pass builds its certificates and draws its
    # product-rule samples again, as a new process does
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import clear_process_caches

    memos = (weyl1.endos.certificate, checks._product_samples)
    weyl1.endos.certificate(weyl1.identity_endo())
    checks._product_samples(3, 7)
    assert all(memo.cache_info().currsize > 0 for memo in memos)
    clear_process_caches(weyl1)
    assert [memo.cache_info().currsize for memo in memos] == [0, 0]
