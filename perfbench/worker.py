"""One workload in one fresh process: generate inputs, run ops, verify.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. Prints one JSON
line: attempted and failed op counts, the metrics it measured and an
``info`` record (input digest, generation time, notes).

With ``--trace 0`` the ops run in a closed loop, one after the other,
until ``--seconds`` have passed; op times are scaled to the reference
speed of ``calibrate.py`` (the wall-clock figures are reported as well).
With ``--trace 1`` the first ``trace_ops`` ops of the workload run in
whole passes, alternately untraced and traced, until ``--seconds`` have
passed and at least two traced passes are done. The deterministic
counters of every traced pass must be identical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback

import calibrate
from tracer import Tracer, deterministic_counts, layer_metrics
from workloads import WORKLOADS


class Loop:
    """Closed loop over a workload's ops; records times, failures and units.

    Each check runs outside the timed span, inside ``check_context()``.
    """

    def __init__(self, wl, check_context=contextlib.nullcontext):
        self.wl = wl
        self.check_context = check_context
        self.spans: list[tuple[float, float]] = []
        self.units: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def op(self, i: int) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            answer = self.wl.run(i)
        except Exception:  # a raising op (BudgetExceeded included) is a failed op
            self.spans.append((t0, time.perf_counter()))
            self._fail(f"op {i} raised:\n{traceback.format_exc()}")
            return
        self.spans.append((t0, time.perf_counter()))
        with self.check_context():
            err = self.wl.check(i, answer)
        if err:
            self._fail(err)
            return
        self.units.append(self.wl.units(answer))

    def _fail(self, msg: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = msg

    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / sum(t1 - t0 for t0, t1 in self.spans)


def timed_run(wl, seconds: float) -> tuple[list[Loop], dict, dict]:
    """Closed loop for ``seconds``; op times scaled to the reference speed."""
    loop = Loop(wl)
    with calibrate.SpeedSampler() as speed:
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds:
            loop.op(i)
            i += 1
    wall, scaled = zip(*(speed.measure(t0, t1) for t0, t1 in loop.spans))
    factors = [calibrate.REFERENCE_S / k for _, _, k in speed.samples]

    done = loop.attempted - loop.failed
    metrics = {
        "ops_per_s": done / sum(scaled),
        "op_s.p50": statistics.median(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "ops": len(scaled),
        "wall_ops_per_s": done / sum(wall),
        "wall_op_s.p50": statistics.median(wall),
        "speed_scale": {"median": statistics.median(factors), "min": min(factors),
                        "max": max(factors), "samples": len(factors)},
    }
    if len(scaled) >= 100:  # at least ten samples lie beyond the p90
        info["op_s.p90"] = statistics.quantiles(scaled, n=10)[-1]
    return [loop], metrics, info


def run_pass(loop: Loop, n_ops: int) -> None:
    for i in range(n_ops):
        loop.op(i)


def traced_run(wl, seconds: float) -> tuple[list[Loop], dict, dict]:
    """Alternate untraced and traced passes over the first ``trace_ops`` ops."""
    n = wl.trace_ops
    tracer = Tracer()
    untraced, traced = Loop(wl), Loop(wl, tracer.suspended)
    per_pass: list[dict] = []
    last: dict = {}
    start = time.perf_counter()
    while len(per_pass) < 2 or time.perf_counter() - start < seconds:
        run_pass(untraced, n)
        tracer.install()
        try:
            run_pass(traced, n)
        finally:
            tracer.uninstall()
        counts = deterministic_counts(tracer.stats)
        per_pass.append({k: v - last.get(k, 0) for k, v in counts.items()})
        per_pass[-1]["budget.units"] = sum(traced.units[-n:])
        last = counts

    metrics = layer_metrics(tracer.stats, traced.attempted)
    metrics["budget.units_per_op"] = sum(traced.units) / max(len(traced.units), 1)
    metrics["trace.traced_ops_per_s"] = traced.ops_per_s()
    metrics["trace.untraced_ops_per_s"] = untraced.ops_per_s()
    info = {
        "traced_passes": len(per_pass),
        "ops_per_pass": n,
        "counts_repeat": all(p == per_pass[0] for p in per_pass[1:]),
        "counts_per_pass": per_pass[0],
        "tracing_overhead": metrics["trace.untraced_ops_per_s"] / metrics["trace.traced_ops_per_s"],
    }
    return [untraced, traced], metrics, info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    gen_s = time.perf_counter() - t0
    wl.load_reference()

    run = traced_run if args.trace else timed_run
    loops, metrics, info = run(wl, args.seconds)
    failures = [lp.first_failure for lp in loops if lp.first_failure]
    failed = sum(lp.failed for lp in loops)
    if not info.get("counts_repeat", True):
        failed += 1
        failures.append("deterministic counts differ between traced passes")
    info.update(wl.info())
    info.update({
        "inputs_digest": wl.inputs_digest,
        "inputs_s": gen_s,
        "first_failure": failures[0] if failures else None,
    })
    print(json.dumps({
        "attempted": sum(lp.attempted for lp in loops),
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
