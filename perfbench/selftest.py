"""Self-test of the benchmark's oracles, digests and tracing.

    python3 perfbench/selftest.py

For a small plan of every workload it checks that:

- the real program passes every oracle;
- two plans built from one seed give the same stdout digest;
- a traced pass gives the same digest as an untraced one, and restores
  every wrapped function afterwards;
- with one kernel made wrong (``OperatorPoly.apply`` shifts its first entry
  by 1), the error rate is above zero.

The kernel is replaced in this process only; no file changes.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import run
import spans
import workloads

SMALL_PLAN = {"long_seq": 16, "high_order": 10, "verify_sweep": 19}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def wrong_apply(original):
    def apply(self, seq):
        out = original(self, seq)
        return type(out)([out.values[0] + 1, *out.values[1:]]) if out.values else out

    return apply


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from seqcalc import cli
    from seqcalc.operators import OperatorPoly

    for workload, count in SMALL_PLAN.items():
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as work:
            (Path(work) / "a").mkdir()
            (Path(work) / "b").mkdir()
            plan = workloads.build(workload, 7, count, Path(work) / "a")
            again = workloads.build(workload, 7, count, Path(work) / "b")
            plain = run.run_pass(cli.main, plan)
            check(plain.failed == 0, f"{workload}: {plain.first_error}")
            check(run.run_pass(cli.main, again).digest == plain.digest, f"{workload}: digest differs by plan")

            originals = dict(vars(OperatorPoly))
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run.run_pass(tracer.wrap("cli", cli.main), plan)
            finally:
                tracer.uninstall()
            check(traced.digest == plain.digest, f"{workload}: tracing changed stdout")
            check(traced.failed == 0, f"{workload}: traced {traced.first_error}")
            check(dict(vars(OperatorPoly)) == originals, f"{workload}: tracer left wrappers behind")
            check(tracer.spans["cli"].calls == len(plan), f"{workload}: cli span missed calls")

            OperatorPoly.apply = wrong_apply(originals["apply"])
            try:
                broken = run.run_pass(cli.main, plan)
            finally:
                OperatorPoly.apply = originals["apply"]
            error_rate = broken.failed / len(plan)
            check(error_rate > 0, f"{workload}: a wrong apply kernel went unnoticed")
        print(f"{workload}: ok ({len(plan)} requests, error rate with a wrong kernel {error_rate:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
