"""The dcsysid benchmark: one workload, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload mc-n50 --seed 1 --seconds 20 --trace 0

Run from the repository root; ``--workload all`` runs every workload in turn.  BLAS/OpenMP threads are pinned to 1 before
NumPy loads, inputs are generated from ``--seed`` by the benchmark's own
NumPy code into a temporary directory under the root, and each workload
runs as a closed loop with one caller in a fresh process (``worker.py``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs traced
and untraced ops in pairs and prints the per-layer metrics.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Workloads, metrics, seeds and the predictions each per-layer metric
stands for are declared in ``spec.py``; ``BENCHMARK.json`` mirrors it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from envelope import check_pinned, pin_blas_threads, run_envelope
from spec import (
    DEFAULT_SEED,
    END_TO_END,
    FAILED_FRAC,
    PER_LAYER,
    RUN_SECONDS,
    SETUP_SAMPLES,
    WORKLOADS,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# every process one workload's run starts must end within this many seconds
BUDGET_S = 170.0
TAIL_BEYOND = 10


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) at the highest percentile with
    TAIL_BEYOND ops beyond it, but never below the median: a run of fewer
    than 2 * TAIL_BEYOND ops has no tail to state and reports its median."""
    ordered = sorted(latencies)
    k = len(ordered)
    if k < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0, k // 2
    return ordered[k - TAIL_BEYOND - 1], 100.0 * (k - TAIL_BEYOND) / k, TAIL_BEYOND


def end_to_end(setups: list[float], loop: dict) -> tuple[dict, dict]:
    """Metric values and a note per metric on how each was obtained."""
    lat = loop["latencies"]
    tail, pct, beyond = tail_latency(lat)
    values = {
        "latency_s_p50": statistics.median(lat),
        "latency_s_tail": tail,
        "throughput_per_s": loop["completed"] / sum(lat),
        "peak_rss_mb": loop["peak_rss_mb"],
        "fit_mean": statistics.fmean(loop["fits"]) if loop["fits"] else 0.0,
        "setup_s": statistics.median(setups),
    }
    notes = {
        "latency_s_p50": f"of {len(lat)} ops",
        "latency_s_tail": f"p{pct:.1f} of {len(lat)} ops, {beyond} beyond",
        "throughput_per_s": f"{loop['completed']} ops in {sum(lat):.3f} s",
        "fit_mean": f"over {len(loop['fits'])} ops",
        "setup_s": f"median of {len(setups)} fresh processes",
    }
    return values, notes


def _worker(name: str, args, inputs: Path, deadline: float, setup_only: bool) -> dict:
    out = inputs / f"result-{time.monotonic_ns()}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--inputs", str(inputs),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # the worker's output goes to stderr: stdout carries only this run's report
    proc = subprocess.run(
        cmd, env=env, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic())
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_workload(name: str, args) -> dict:
    """Measure one workload, print its report lines, and return its result."""
    from inputs import generate  # imports NumPy, so only after pinning

    deadline = time.monotonic() + BUDGET_S
    envelope = run_envelope(ROOT, args.seed, name, check_pinned())
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        inputs = Path(tmp)
        generate(name, WORKLOADS[name], args.seed, inputs)
        extra = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                extra.append(_worker(name, args, inputs, deadline, setup_only=True))
        loop = _worker(name, args, inputs, deadline, setup_only=False)
    setups = [s["setup_s"] for s in extra] + [loop["setup_s"]]
    envelope["blas_threads_in_effect_worker"] = loop["blas_threads_in_effect"]
    attempted = loop["attempted"] + len(extra)
    failures = loop["failures"] + [f"setup: {s['error']}" for s in extra if s["error"]]
    failed = loop["failed"] + sum(1 for s in extra if s["error"])

    print("envelope " + json.dumps(envelope, sort_keys=True))
    print(f"workload {name}: closed loop, 1 caller, {args.seconds} s, seed {args.seed}")
    if args.trace:
        metrics = {metric: loop["per_layer"][metric] for metric in PER_LAYER}
        units = {metric: layer.unit for metric, layer in PER_LAYER.items()}
        notes = {"likelihood.nll_algorithm_c.errors": f"by class {loop['nll_c_errors']}"}
    else:
        metrics, notes = end_to_end(setups, loop)
        units = {metric: m.unit for metric, m in END_TO_END.items()}
    for metric, value in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"  {metric:<46} {value:>12.6g} {units[metric]}{note}")
    print(f"  {FAILED_FRAC:<46} {failed / attempted:>12.6g} ratio"
          f"  ({failed} of {attempted} ops failed)")
    for failure in failures:
        print(f"  FAILED {failure}")
    return {
        "correct": failed == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    pin_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "dcsysid" / "__init__.py").is_file():
        print(f"error: no dcsysid sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args)))
        return 0
    # every workload in turn; the last line then sums them, with each metric
    # named <workload>.<metric>
    results = {name: run_workload(name, args) for name in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
