"""weyl1 benchmark: one closed-loop caller driving the public API.

    python3 bench/run.py --workload verify-canonical --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced phase (see tracer.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Lines before it are a JSON header (backend, Python, cores, commit, seed)
and a readable summary with sample counts.

``--self-test`` checks the benchmark itself: equal seeds give equal
inputs, traced and untraced passes give equal output digests, and the
tracer's wrappers are gone afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from clock import REFERENCE_S, Clock  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
SETUP_PROBES = 9
CHECK_NAMES = (
    "centralizer_theorem", "eigen_theorem", "klein_basis", "product_rules",
    "kernel_delta", "nilpotent_closure", "propagation", "eigvec_tables",
)
PAIR_NAMES = ("identity", "triangular-x2", "composite")


def import_package():
    """weyl1 from this checkout's src/, never from anywhere else."""
    if not (SRC / "weyl1" / "__init__.py").is_file():
        sys.exit(f"bench: no weyl1 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import weyl1
    import weyl1.cli  # loads every layer module, as the command line does

    if SRC.resolve() not in Path(weyl1.__file__).resolve().parents:
        sys.exit(f"bench: weyl1 imported from {weyl1.__file__}, not {SRC}")
    return weyl1


def commit_id():
    """The checked-out commit when a .git directory is present, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "weyl1").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def header(pkg, args):
    from weyl1.scalars import RAT_BACKEND

    return {
        "bench": "weyl1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rat_backend": RAT_BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_id(),
        "src_sha256": source_digest(),
        "loop": "closed, one caller, one thread",
    }


def measure_setup(workload, seed):
    """Median seconds from starting a fresh interpreter to its first op,
    corrected and raw.  Each probe takes references on its own core."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline().split()
            t1 = perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or len(line) != 3 or line[0] != b"ready":
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        spent, mean = float(line[1]), float(line[2])
        raw.append(t1 - t0 - spent)
        times.append(raw[-1] * REFERENCE_S / mean)
    return statistics.median(times), statistics.median(raw)


class Pass:
    """Times of one pass: corrected and raw seconds, and the corrected
    seconds of each op with its label.  Op times are kept in an array so
    that what the benchmark holds adds little to the peak memory."""

    def __init__(self, seconds, raw_seconds, op_seconds, labels):
        self.seconds = seconds
        self.raw_seconds = raw_seconds
        self.op_seconds = op_seconds
        self.labels = labels


class Runner:
    """Runs passes of one workload and checks every op's output."""

    def __init__(self, wl, clock):
        self.wl = wl
        self.clock = clock
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.wrong_digest = False
        self._verified = {}  # label -> output text that passed its check

    def one_pass(self):
        clock = self.clock
        gc.collect()
        clock.reference()
        # references inside a traced pass would count as layer time
        tick = clock.tick if self.tracer is None else (lambda: None)
        t0 = perf_counter()
        records = self.wl.run_pass(tick)
        t1 = perf_counter()
        clock.reference()
        raw = t1 - t0 - clock.spent(t0, t1)
        done = Pass(
            raw * clock.scale(t0, t1), raw,
            array("d", [(end - start) * clock.scale(start, end)
                        for _, start, end, _, _ in records]),
            [label for label, _, _, _, _ in records],
        )
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            self._check(records)
        return done

    def _check(self, records):
        h = hashlib.sha256()
        for label, _, _, out, err in records:
            self.attempted += 1
            if err is not None:
                self.failed += 1
                text = f"error {type(err).__name__}"
            else:
                # an output equal to one already checked needs no new check
                text = self.wl.text(label, out)
                if self._verified.get(label) != text:
                    if self.wl.check(label, out):
                        self._verified[label] = text
                    else:
                        self.failed += 1
            h.update(f"{label}\t{text}\n".encode())
        digest = h.hexdigest()
        self.digests.add(digest)
        recorded = self.wl.recorded_digest()
        if recorded is not None and digest != recorded:
            self.wrong_digest = True

    def passes(self, seconds, minimum):
        """Passes until the next would end after `seconds`; at least `minimum`."""
        done = []
        start = perf_counter()
        while True:
            done.append(self.one_pass())
            spent = perf_counter() - start
            typical = statistics.median(p.raw_seconds for p in done)
            if len(done) >= minimum and spent + typical > seconds:
                return done


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_plain(pkg, wl, args, out):
    clock = Clock()
    runner = Runner(wl, clock)
    setup_s, setup_raw = measure_setup(args.workload, args.seed)
    if wl.warm:
        runner.one_pass()
    done = runner.passes(args.seconds, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = [1000.0 * dt for p in done for dt in p.op_seconds]
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(p.seconds for p in done), "s"),
        "op_ms_p50": (statistics.median(lat), "ms"),
        "op_ms_p90": (percentile(lat, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw_pass = statistics.median(p.raw_seconds for p in done)
    out.write(f"# times are corrected to the reference speed ({REFERENCE_S * 1000:g} ms "
              "per reference computation); raw wall times in brackets\n")
    out.write(f"# setup_s     {setup_s:.4f} s  [{setup_raw:.4f}]  median of "
              f"{SETUP_PROBES} fresh interpreters\n")
    out.write(f"# pass_s      {metrics['pass_s'][0]:.4f} s  [{raw_pass:.4f}]  median of "
              f"{len(done)} passes\n")
    out.write(f"# op_ms_p50   {metrics['op_ms_p50'][0]:.4f} ms  op_ms_p90 "
              f"{metrics['op_ms_p90'][0]:.4f} ms  over {len(lat)} ops\n")
    out.write(f"# peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB\n")
    out.write(f"# failed_ops  {runner.failed} of {runner.attempted} attempted\n")
    return runner, metrics, True


def run_traced(pkg, wl, args, out):
    from tracer import Tracer, layer_metrics

    runner = Runner(wl, Clock())
    if wl.warm:
        runner.one_pass()
    plain = runner.passes(args.seconds / 3.0, 2)
    tracer = Tracer(pkg)
    runner.tracer = tracer
    tracer.install()
    try:
        traced = runner.passes(args.seconds * 2.0 / 3.0, 1)
    finally:
        tracer.uninstall()
    leftovers = tracer.leftovers()
    metrics = layer_metrics(tracer, len(traced))
    per_op = {}
    for p in traced:
        for label, dt in zip(p.labels, p.op_seconds):
            per_op[label] = per_op.get(label, 0.0) + dt / len(traced)
    for check in CHECK_NAMES:
        for pair in PAIR_NAMES:
            metrics[f"checks.{check}.{pair}.s"] = (per_op.get(f"{check}[{pair}]", 0.0), "s")
    metrics["serialize.s"] = (per_op.get("report", 0.0), "s")
    untraced_s = statistics.median(p.seconds for p in plain)
    traced_s = statistics.median(p.seconds for p in traced)
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out.write(f"# traced {len(traced)} passes, untraced {len(plain)}; overhead "
              f"{traced_s - untraced_s:.3f} s per pass\n")
    shares = ", ".join(
        f"{k[:-6]} {v:.1%}" for k, (v, _) in sorted(metrics.items())
        if k.endswith(".share") and v >= 0.0005)
    out.write(f"# layer shares of traced self time: {shares}\n")
    ok = not leftovers and len(runner.digests) == 1
    if leftovers:
        out.write(f"# wrappers left after uninstall: {leftovers}\n")
    if len(runner.digests) != 1:
        out.write("# traced and untraced passes gave different outputs\n")
    return runner, metrics, ok


def self_test(pkg, out):
    from tracer import Tracer
    from workloads import WORKLOADS

    ok = True
    for name, cls in WORKLOADS.items():
        a, b, c = cls(pkg, 3), cls(pkg, 3), cls(pkg, 4)
        same = a.fingerprint() == b.fingerprint()
        differs = a.fingerprint() != c.fingerprint() or name == "verify-canonical"
        runner = Runner(a, Clock())
        runner.one_pass()
        tracer = Tracer(pkg)
        runner.tracer = tracer
        tracer.install()
        try:
            runner.one_pass()
        finally:
            tracer.uninstall()
        left = tracer.leftovers()
        good = same and differs and len(runner.digests) == 1 and not left and not runner.failed
        ok &= good
        out.write(f"{'PASS' if good else 'FAIL'} {name}: same seed same inputs {same}, "
                  f"other seed other inputs {differs}, traced digest equal "
                  f"{len(runner.digests) == 1}, wrappers left {left}, "
                  f"failed ops {runner.failed}/{runner.attempted}\n")
    return 0 if ok else 1


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if args.probe:
        clock = Clock()
        clock.reference()  # the first run in a new interpreter is slow
        warm_up = clock.spent()
        clock.reference()
        WORKLOADS[args.workload](import_package(), args.seed)
        clock.reference()
        spent = clock.spent()
        sys.stdout.write("ready %r %r\n" % (spent, (spent - warm_up) / 2))
        sys.stdout.flush()
        return 0
    pkg = import_package()
    out = sys.stdout
    if args.self_test:
        return self_test(pkg, out)

    out.write(json.dumps(header(pkg, args)) + "\n")
    cls = WORKLOADS[args.workload]
    wl = cls(pkg, args.seed)
    same_inputs = wl.fingerprint() == cls(pkg, args.seed).fingerprint()
    run = run_traced if args.trace else run_plain
    runner, metrics, ok = run(pkg, wl, args, out)
    correct = ok and same_inputs and not runner.failed and not runner.wrong_digest
    if runner.wrong_digest:
        out.write("# output digest differs from the one recorded for this seed\n")
    if not same_inputs:
        out.write("# the same seed generated different inputs\n")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
