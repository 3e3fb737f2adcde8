"""Closed-loop benchmark of the seqcalc CLI, driven in-process.

    python3 perfbench/run.py --workload long_seq --seed 1 --seconds 20 --trace 0

One client sends the requests of a seeded plan (see workloads.py) to
``seqcalc.cli.main(argv)`` one after another, captures each request's stdout
and checks it against an oracle computed before timing starts.  The plan
size is set from ``--seconds`` and the nominal request cost of the workload,
never from the clock, so every run at one seed times the same requests.  The
plan runs in several passes; throughput is requests over summed request time.

On a shared VM the CPU's speed can change by up to 2x within a second, so
every timing is also taken at reference speed: a fixed Fraction loop that shares no code with
seqcalc runs before and after each request, and the request's wall time is
scaled by ``REFERENCE_S`` over the mean of those two loop times.  The
end-to-end metrics use the scaled times; the metadata line carries the raw
wall-clock figures too.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` one untraced and one traced pass run, and it carries the
per-layer metrics (see spans.py).  The line before it carries run metadata.
Run from the root of a checkout; seqcalc is imported from its ``src``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Mean wall time of one request on the reference machine (2-vCPU Xeon VM,
# Python 3.11) in its slower state, used only to turn --seconds into a fixed
# request count; the timed phase lasts about --seconds there, or less.
NOMINAL_REQUEST_S = {"long_seq": 0.090, "high_order": 0.075, "verify_sweep": 0.140}
# Time of reference_s()'s loop on the reference machine in its slower state.
REFERENCE_S = 0.007
PASSES = 3
MIN_SAMPLES = 100  # at least 10 samples beyond p90
WARMUP_REQUESTS = 3
SETUP_PROCESSES = 21
HELD_OUT_SEED = 90001  # kept out of tuning; later gain claims must also hold here

IMPORT_PROGRAM = "import sys; sys.path.insert(0, 'src'); import seqcalc, seqcalc.cli"


@dataclass
class Pass:
    latencies: list  # wall time of each request
    scaled: list  # the same, at reference speed
    failed: int
    digest: str
    first_error: str | None


def reference_s() -> float:
    """Wall time of a fixed pure-Python Fraction loop: the host's speed right now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(i % 97, i % 13 + 1)
    return time.perf_counter() - start


class SpeedScale:
    """Scales each timing to reference speed by the loops run just before and after it."""

    def __init__(self):
        self.before = reference_s()

    def __call__(self, seconds: float) -> float:
        after = reference_s()
        scaled = seconds * REFERENCE_S * 2 / (self.before + after)
        self.before = after
        return scaled


def pin_to_current_cpu() -> int:
    """Keep this process and its children on the CPU it runs on now, so the
    reference loop times the same CPU as the requests it brackets."""
    cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure_setup_s() -> tuple:
    """Median time, at reference speed and on the wall clock, of fresh
    interpreters that import seqcalc and seqcalc.cli."""
    command = [sys.executable, "-E", "-s", "-c", IMPORT_PROGRAM]
    subprocess.run(command, cwd=ROOT, check=True)  # compile the bytecode cache once
    times, scaled, scale = [], [], SpeedScale()
    for _ in range(SETUP_PROCESSES):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
        scaled.append(scale(times[-1]))
    return statistics.median(scaled), statistics.median(times)


def run_pass(main, plan) -> Pass:
    """Send every request once; the clock runs only inside ``main``."""
    latencies, scaled, failed, first_error = [], [], 0, None
    total = hashlib.sha256()
    gc.collect()
    scale = SpeedScale()
    for req in plan:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(req.argv)
            except Exception as exc:  # a raising request is a failed request
                code = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
        scaled.append(scale(latencies[-1]))
        stdout = out.getvalue()
        total.update(stdout.encode())
        if code != 0:
            ok = False
        elif isinstance(req.expect, str):
            ok = workloads.digest(stdout) == req.expect
        else:
            try:
                ok = req.expect(stdout)
            except (ValueError, KeyError, TypeError, AttributeError):  # malformed report
                ok = False
        if not ok:
            failed += 1
            first_error = first_error or f"{' '.join(req.argv[:3])}: exit {code} {err.getvalue()[:200]}"
    return Pass(latencies, scaled, failed, total.hexdigest(), first_error)


def operand_summary(plan) -> dict:
    sizes = [r.sizes for r in plan]
    ns = sorted(s["n"] for s in sizes)
    return {
        "entries_total": sum(ns),
        "n_min": ns[0],
        "n_median": statistics.median(ns),
        "n_max": ns[-1],
        "order_max": max(s["order"] for s in sizes),
        "num_bits_max": max(s["num_bits"] for s in sizes),
        "den_bits_max": max(s["den_bits"] for s in sizes),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def latency_figures(latencies) -> dict:
    return {
        "requests_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }


def end_to_end(passes, setup_s) -> dict:
    figures = latency_figures([x for p in passes for x in p.scaled])
    return {
        "setup_s": metric(setup_s, "s"),
        "requests_per_s": metric(figures["requests_per_s"], "1/s"),
        "latency_p50_ms": metric(figures["latency_p50_ms"], "ms"),
        "latency_p90_ms": metric(figures["latency_p90_ms"], "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, plain: Pass, traced: Pass, operands: dict) -> dict:
    s = tracer.spans

    def busy(name):
        return metric(s[name].busy_s, "s")

    def calls(name):
        return metric(s[name].calls, "count")

    def count(name, key, unit="count"):
        return metric(s[name].counts[key], unit)

    out = {
        "seqio.load.busy_s": busy("seqio.load"),
        "seqio.load.calls": calls("seqio.load"),
        "seqio.load.entries": count("seqio.load", "entries"),
        "seqio.render.busy_s": busy("seqio.render"),
        "seqio.render.bytes": count("seqio.render", "bytes", "B"),
        "sequences.construct.busy_s": busy("sequences.construct"),
        "sequences.construct.calls": calls("sequences.construct"),
        "sequences.construct.entries": count("sequences.construct", "entries"),
        "operators.apply.busy_s": busy("operators.apply"),
        "operators.apply.calls": calls("operators.apply"),
        "operators.apply.madds": count("operators.apply", "madds"),
        "operators.mul.busy_s": busy("operators.mul"),
        "operators.mul.calls": calls("operators.mul"),
        "parser.parse.busy_s": busy("parser.parse"),
    }
    for name in ("calculus.derivative", "calculus.antiderivative", "calculus.definite_integral",
                 "analysis.classify"):  # fmt: skip
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.calls"] = calls(name)
    out.update({
        "lagrange.poly.busy_s": busy("lagrange.poly"),
        "lagrange.poly.calls": calls("lagrange.poly"),
        "lagrange.det.busy_s": busy("lagrange.det"),
        "lagrange.det.calls": calls("lagrange.det"),
        "lagrange.evaluate.busy_s": busy("lagrange.evaluate"),
        "analysis.collinearity.busy_s": busy("analysis.collinearity"),
        "grid.busy_s": busy("grid"),
        "verify.check.busy_s": busy("verify.check"),
        "verify.self_s": metric(s["verify.check"].self_s, "s"),
        "verify.cases": count("verify.check", "cases"),
        "verify.failures": count("verify.check", "failures"),
        "cli.self_s": metric(s["cli"].self_s, "s"),
        "operand.entries_total": metric(operands["entries_total"], "count"),
        "operand.order_max": metric(operands["order_max"], "count"),
        "operand.num_bits_max": metric(operands["num_bits_max"], "bit"),
        "operand.den_bits_max": metric(operands["den_bits_max"], "bit"),
        "trace.overhead": metric(sum(plain.scaled) / sum(traced.scaled), "ratio"),
    })  # fmt: skip
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def request_count(workload: str, seconds: float) -> int:
    """Requests per pass: fixed by --seconds, never by the clock."""
    per_request = NOMINAL_REQUEST_S[workload] + REFERENCE_S
    return max(MIN_SAMPLES // PASSES + 1, round(seconds / per_request / PASSES))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "seqcalc" / "cli.py").is_file():
        print(f"perfbench: no seqcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from seqcalc import cli

    if Path(cli.__file__).resolve().parent != SRC / "seqcalc":
        print(f"perfbench: imported seqcalc from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cpu = pin_to_current_cpu()
    setup_s, setup_wall_s = (None, None) if args.trace else measure_setup_s()
    tracer = traced = None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        count = request_count(args.workload, args.seconds)
        plan = workloads.build(args.workload, args.seed, count, Path(work))
        warmup = run_pass(cli.main, plan[:WARMUP_REQUESTS])
        runs = [run_pass(cli.main, plan) for _ in range(1 if args.trace else PASSES)]
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_pass(tracer.wrap("cli", cli.main), plan)
            finally:
                tracer.uninstall()

    full = runs + ([traced] if traced else [])
    failed = sum(p.failed for p in [warmup, *full])
    attempted = sum(len(p.latencies) for p in [warmup, *full])
    digests = {p.digest for p in full}
    operands = operand_summary(plan)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "platform": platform.platform(),
        "requests_per_pass": len(plan),
        "passes": len(full),
        "latency_samples": sum(len(p.latencies) for p in runs),
        "wall_clock": {
            "setup_s": setup_wall_s,
            **latency_figures([x for p in runs for x in p.latencies]),
        },
        "stdout_sha256": sorted(digests),
        "error_rate": failed / attempted,
        "first_error": next((p.first_error for p in [warmup, *full] if p.first_error), None),
        "operands": operands,
    }
    print(json.dumps({"meta": meta}))
    metrics = per_layer(tracer, runs[0], traced, operands) if traced else end_to_end(runs, setup_s)
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
