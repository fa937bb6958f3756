"""invgpd benchmark: one workload per invocation, each in a fresh process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {reproduce-b2|universe-b3|catalog-mix}
                             [--seed N] [--seconds S] [--trace 0|1]

The workload runs in a worker process (``worker.py``) with the
checkout's ``src`` on ``PYTHONPATH``; nothing is installed. With
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are printed;
``setup_s`` is the median of several fresh interpreters that each import
``invgpd`` and load the bundled document. With ``--trace 1`` the
per-layer metrics are printed instead, and a report with the
deterministic counts, the tracing overhead and (on reproduce-b2) the
base-3 frontier probe is written to ``.perfbench/``.

Lines before the last are a readable summary; the last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Exit status is non-zero, with no result printed, when the checkout has
no ``src/invgpd`` or a worker does not finish in time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 150
FRONTIER_CAP_S = 15

SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import invgpd
from invgpd import cli
cli.bundled_document()
print(time.perf_counter() - t0)
"""

FRONTIER_PROBE = """\
import contextlib, io, json, time
from invgpd import cli, universe
b = universe.build_universe(cli.base_elements(3))
print(json.dumps({"U_objects": b.U.base.n_objects, "U_morphisms": b.U.base.n_morphisms,
                  "Utilde_objects": b.Utilde.base.n_objects,
                  "Utilde_morphisms": b.Utilde.base.n_morphisms}), flush=True)
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["reproduce-paper", "--base", "3", "--format", "json"])
print(json.dumps({"exit_code": code, "elapsed_s": time.perf_counter() - t0}), flush=True)
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout, check=False)


def setup_seconds() -> tuple[float, float]:
    """Median time from a fresh interpreter to the first op being ready,
    scaled to the reference speed and as measured."""
    scaled, wall = [], []
    python(["-c", SETUP_PROBE], timeout=60)  # compiles the bytecode
    before = calibrate.kernel_seconds()
    for _ in range(SETUP_SAMPLES):
        proc = python(["-c", SETUP_PROBE], timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        after = calibrate.kernel_seconds()
        wall.append(float(proc.stdout.split()[-1]))
        scaled.append(wall[-1] * calibrate.scale(before, after))
        before = after
    return statistics.median(scaled), statistics.median(wall)


def frontier_probe() -> dict:
    """U/Utilde sizes at |V|=3, and whether reproduce-paper --base 3 beats the cap."""
    record: dict = {"command": "reproduce-paper --base 3", "cap_s": FRONTIER_CAP_S}
    try:
        proc = python(["-c", FRONTIER_PROBE], timeout=FRONTIER_CAP_S)
        lines = proc.stdout.splitlines()
        record["outcome"] = "finished"
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or b""
        lines = (out.decode() if isinstance(out, bytes) else out).splitlines()
        record["outcome"] = "timeout"
    for line in lines:
        record.update(json.loads(line))
    return record


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():  # rev-parse also reads refs packed into packed-refs
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10, check=False)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "commit": commit}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description="invgpd benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "invgpd" / "__init__.py").is_file():
        print(f"error: no invgpd sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    metrics: dict[str, float] = {}
    extra: dict = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
                   "env": environment()}
    if not args.trace:
        metrics["setup_s"], extra["wall_setup_s"] = setup_seconds()
    if args.trace and args.workload == "reproduce-b2":
        extra["frontier"] = frontier_probe()

    try:
        proc = python([str(HERE / "worker.py"), "--workload", args.workload,
                       "--seed", str(args.seed), "--seconds", str(seconds),
                       "--trace", str(args.trace)], timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish in {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: worker failed:\n{proc.stderr}", file=sys.stderr)
        return 3
    res = json.loads(proc.stdout.splitlines()[-1])
    metrics.update(res["metrics"])
    extra.update(res["info"])

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    failed = res["failed"]
    extra["fail_ratio"] = failed / res["attempted"]

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        report = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        report.write_text(json.dumps({"metrics": metrics, **extra}, indent=2, sort_keys=True))
        extra["report"] = str(report.relative_to(ROOT))

    for name in units:
        print(f"{name:48s} {metrics[name]:.6g} {units[name]}")
    for key in ("fail_ratio", "op_s.p90", "ops", "wall_ops_per_s", "wall_op_s.p50",
                "wall_setup_s", "speed_scale", "inputs_digest", "inputs_s",
                "tracing_overhead", "counts_repeat", "roundtrip_defects", "frontier", "env", "report",
                "first_failure"):
        if extra.get(key) is not None:
            print(f"# {key}: {json.dumps(extra[key]) if isinstance(extra[key], dict) else extra[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
