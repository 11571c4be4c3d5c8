"""One workload process: import dcsysid, one warm-up op, then a timed closed loop.

``run.py`` starts it as

    python3 perfbench/worker.py --workload W --inputs DIR --seconds S --trace 0|1 --out FILE

with ``src`` on PYTHONPATH, and reads back the raw measurements it writes
to FILE as JSON.  ``--setup-only`` stops after the warm-up op.  The loop
has one caller, which sends the next op only after the previous one
returned.  Outputs are collected and checked after the loop, one op at a
time, so checking takes no time from the loop and no memory from its
peak resident set; each op keeps only its raw result until then (a CLI
op's report stays on disk).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from envelope import check_pinned, pin_blas_threads
from spec import PER_LAYER, WORKLOADS
from tracing import ROOT, Totals, Tracer, totals_by_name

MAX_REPORTED_FAILURES = 5


def _describe(exc: Exception) -> str:
    return "".join(traceback.format_exception_only(exc)).strip()


def run_op(workload, k: int, tracer=None) -> dict:
    """One op on input `k`, traced when a tracer is given; never raises."""
    record = {"case": k, "traced": tracer is not None, "error": None, "raw": None}
    start = time.perf_counter()
    try:
        if tracer is None:
            record["raw"] = workload.run(k)
        else:
            with tracer.installed(), tracer.span(ROOT):
                record["raw"] = workload.run(k)
    except Exception as exc:  # a failed op is counted, and the loop goes on
        record["error"] = _describe(exc)
    record["latency"] = time.perf_counter() - start
    return record


def settle(workload, record: dict) -> None:
    """Collect and check one op's result, keep its fit and search counts,
    and drop the result; an output that fails a check fails the op."""
    raw, record["raw"] = record["raw"], None
    record.update(fit=None, evals=0, restarts_failed=0)
    if record["error"] is not None:
        return
    k = record["case"]
    try:
        output = workload.collect(k, raw)
    except Exception as exc:  # an unreadable answer is a failed op
        record["error"] = _describe(exc)
        return
    try:
        problems = workload.check(k, output)
    except Exception as exc:  # a check that cannot run is a failed check
        problems = ["check raised " + _describe(exc)]
    if problems:
        record["error"] = "; ".join(problems)
        return
    record["fit"] = workload.fit(k, output)
    if "diagnostics" in output:
        diagnostics = output["diagnostics"]
        record["evals"] = diagnostics["n_evals_total"]
        record["restarts_failed"] = sum(s["value"] is None for s in diagnostics["starts"])


def layer_metrics(tracer, records: list[dict], workload) -> tuple[dict, dict]:
    """Per-layer metrics from the traced ops, and evaluator-C errors by class."""
    traced = [r for r in records if r["traced"]]
    ops = len(traced)
    totals = totals_by_name(tracer.spans)
    metrics = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        t = totals.get(layer, Totals())
        if stat == "s":
            metrics[name] = t.inclusive / ops
        elif stat == "self_s":
            metrics[name] = t.exclusive / ops
        elif stat == "calls":
            metrics[name] = t.calls / ops
        elif stat == "s_per_call":
            metrics[name] = t.inclusive / t.calls if t.calls else 0.0
        elif stat == "errors":
            metrics[name] = sum(t.errors.values()) / ops
    nll_c = totals.get("likelihood.nll_algorithm_c", Totals())
    root = totals[ROOT]
    evals = sum(r["evals"] for r in traced)
    untraced = [r["latency"] for r in records if not r["traced"]]
    regressor_bytes = sum(workload.regressor_bytes(r["case"]) for r in traced)
    metrics.update({
        "regression.regressor_bytes": regressor_bytes / ops,
        "likelihood.model_flops": sum(t.flops for t in totals.values()) / ops,
        "likelihood.nll_algorithm_c.model_gflops_per_s": (
            nll_c.flops / nll_c.inclusive / 1e9 if nll_c.inclusive else 0.0
        ),
        "tuner.evals_per_op": evals / ops,
        "tuner.penalty_frac": 1.0 - nll_c.finite / evals if evals else 0.0,
        "tuner.restarts_failed": sum(r["restarts_failed"] for r in traced) / ops,
        "trace.coverage": 1.0 - root.exclusive / root.inclusive,
        "trace.overhead": (
            statistics.median(r["latency"] for r in traced) / statistics.median(untraced) - 1.0
        ),
    })
    return metrics, dict(nll_c.errors)


def measure(workload, seconds: float, trace: bool) -> dict:
    """Warm up, loop for `seconds`, then check every output.

    With `trace`, each input runs twice in a row, once untraced and once
    traced (alternating which goes first), so the tracing overhead is
    measured on paired ops.
    """
    warmup = run_op(workload, 0)
    tracer = Tracer() if trace else None
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        k = i % len(workload)
        if tracer is None:
            records.append(run_op(workload, k))
        else:
            order = (None, tracer) if i % 2 == 0 else (tracer, None)
            records.extend(run_op(workload, k, t) for t in order)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for record in [warmup] + records:
        settle(workload, record)
    failures = [
        f"case {r['case']}: {r['error']}" for r in [warmup] + records if r["error"] is not None
    ]
    untraced = [r for r in records if not r["traced"]]
    result = {
        "warmup_s": warmup["latency"],
        "attempted": 1 + len(records),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "latencies": [r["latency"] for r in untraced],
        "completed": sum(r["error"] is None for r in untraced),
        "fits": [r["fit"] for r in records if r["fit"] is not None],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["per_layer"], result["nll_c_errors"] = layer_metrics(tracer, records, workload)
    return result


def main(argv=None) -> int:
    pin_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import dcsysid  # noqa: F401  -- the import is part of set-up time

    import_s = time.perf_counter() - start
    blas_threads = check_pinned()
    from workloads import load

    workload = load(WORKLOADS[args.workload], args.inputs)
    if args.setup_only:
        warmup = run_op(workload, 0)
        settle(workload, warmup)
        result = {"setup_s": import_s + warmup["latency"], "error": warmup["error"]}
    else:
        result = measure(workload, args.seconds, bool(args.trace))
        result["setup_s"] = import_s + result.pop("warmup_s")
    result["blas_threads_in_effect"] = blas_threads
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
