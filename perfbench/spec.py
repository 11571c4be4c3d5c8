"""What the benchmark measures: workloads, metrics, seeds and predictions.

``BENCHMARK.json`` at the repository root is the machine-checked contract
and may carry only a fixed set of keys, so the parts it has no room for
live here: the default and hold-out seeds, the workload sizes, what each
metric means, and, for every per-layer metric, the end-to-end metric and
workload it is expected to move (and not to move).  ``tests/test_perfbench.py``
checks that the two agree.

This module imports nothing but the standard library, so it can be read
before the BLAS thread pinning in :mod:`envelope` runs.
"""

from typing import NamedTuple

# the workload seed used when --seed is not given
DEFAULT_SEED = 1
# held out: never used while tuning the benchmark or a change; a later claim
# of a gain must also hold on this seed
HOLDOUT_SEED = 20141120

# True (lam, rho) of the generated systems cycle over this 3 x 3 grid, in a
# Latin-square order: any 3 consecutive inputs hold every lam and every rho
# once, so a run's ops have the same mix whether it ends after 8 ops or 10.
GRID = tuple(
    ((0.6, 0.85, 0.95)[i % 3], (0.0, 0.7, 0.98)[(i + i // 3) % 3]) for i in range(9)
)

# name -> why it exists and what it runs.  `kind` is the entry point an op
# calls: "tune" is the library tune(RegressionData(u, y, n), TunerConfig(**tuner)),
# "identify" and "complete" are in-process ``dcsysid.cli.main`` calls.  `size`
# is the input size of one op; `pool` is how many distinct inputs a run
# cycles through.
WORKLOADS = {
    "mc-n50": {
        "why": "Monte Carlo identify: tune() at n=50, N=500, SNR 10, derivative-free,"
        " 5 restarts; ~1.3k value-only evaluator-C calls per op, optimizer overhead shows",
        "kind": "tune",
        "tuner": {},
        "size": {"n": 50, "N": 500, "snr": 10.0},
        "pool": 36,
    },
    "grad-n125": {
        "why": "tune() at n=125, N=2000, gradient-assisted, joint sigma2, 3 restarts of at most"
        " 20 evaluations; nll_gradient_hessian and _sigma2_derivative dominate each evaluation",
        "kind": "tune",
        # Uncapped, an op takes 72-213 evaluations (1.3-2.8 s) depending on the
        # draw, and the median of the ~9 ops a run holds jumps between them.
        # The budget binds on every restart, so each op does about the same
        # work (60-72 evaluations) and fits as well (mean fit 94.6 vs 95.0).
        "tuner": {
            "solver": "gradient-assisted", "sigma2_policy": "joint", "restarts": 3,
            "max_evals": 20,
        },
        "size": {"n": 125, "N": 2000, "snr": 10.0},
        "pool": 9,
    },
    "long-n125": {
        "why": "dcsysid identify on a 20k-row CSV, n=125, 1 restart; CSV ingestion, the"
        " eager regressor, QR compression and lstsq take ~60% of an op, the tuner the rest",
        "kind": "identify",
        "tuner": {"restarts": 1},
        "size": {"n": 125, "N": 20_000, "snr": 10.0},
        "pool": 9,
    },
    "complete-n160": {
        "why": "dcsysid complete on n=160 bands, half DC-kernel 1-bands, half random SPD"
        " m=3 bands; the only workload that reaches maxent (the quartic recursion)",
        "kind": "complete",
        "size": {"n": 160, "m_random": 3},
        "pool": 18,
    },
}

class Metric(NamedTuple):
    unit: str
    better: str
    bound: float  # share of the parent's median it may worsen by
    meaning: str


class Layer(NamedTuple):
    unit: str
    better: str
    meaning: str
    moves: tuple = ()  # (end-to-end metric, workload) it should move
    unchanged: tuple = ()  # (end-to-end metric, workload) predicted not to move


# The timing bounds are wide because the 2-core host they were set on is
# shared: a fixed 0.4 s NumPy kernel varies by 14% (quartile spread over
# median) from one second to the next, and a whole 20 s run of one seed can
# be 15% slower than the next run of the same seed.
END_TO_END = {
    "latency_s_p50": Metric("s", "lower", 0.25, "median wall time of one op"),
    "latency_s_tail": Metric(
        "s", "lower", 0.25,
        "highest percentile with >= 10 ops beyond it, but at least the median (a run of"
        " fewer than 20 ops reports its median); the printed line names the percentile",
    ),
    "throughput_per_s": Metric(
        "1/s", "higher", 0.25, "ops completed per second spent in ops (1 / mean latency)"
    ),
    "peak_rss_mb": Metric("MB", "lower", 0.05, "peak resident set of the workload process"),
    "fit_mean": Metric(
        "%", "higher", 0.04,
        "mean fit (100 = exact) of each op's output to the truth the benchmark generated:"
        " the impulse response for identify, the source kernel for DC-band completions",
    ),
    "setup_s": Metric(
        "s", "lower", 0.25, "import of dcsysid plus the first op in a fresh process; median of 3"
    ),
}

# Reported with every run but not a BENCHMARK.json metric: the contract asks
# for metrics that are never 0, and a correct run has failed_frac == 0.  The
# result line's `attempted` and `failed` carry it.
FAILED_FRAC = "failed_frac"

_LONG = (("latency_s_p50", "long-n125"), ("peak_rss_mb", "long-n125"))
_MC = (("throughput_per_s", "mc-n50"),)
_GRAD = (("latency_s_p50", "grad-n125"),)
_COMPLETE = (("latency_s_p50", "complete-n160"),)

# `.s` is inclusive busy time per op; `.self_s` leaves out the time of named
# child spans; `.s_per_call` is inclusive time per call.
PER_LAYER = {
    "regression.load_csv.s": Layer("s", "lower", "CSV ingestion per op", _LONG),
    "regression.RegressionData.s": Layer(
        "s", "lower", "eager regressor construction per op", _LONG, _MC
    ),
    "regression.ls_estimate.s": Layer(
        "s", "lower", "least-squares pass for sigma2 per op", _LONG, _MC
    ),
    "regression.regressor_bytes": Layer(
        "bytes", "lower", "N*n*8 of the regressor, computed, not measured",
        (("peak_rss_mb", "long-n125"),), (("peak_rss_mb", "mc-n50"),),
    ),
    "likelihood.preprocess.s": Layer("s", "lower", "thin QR of [Phi^T Y] per op", _LONG, _MC),
    "likelihood.nll_algorithm_c.calls": Layer("count", "lower", "evaluator-C calls per op", _MC),
    "likelihood.nll_algorithm_c.s_per_call": Layer(
        "s", "lower", "time per evaluator-C call", _MC
    ),
    "likelihood.nll_algorithm_c.errors": Layer(
        "count", "lower",
        "evaluator-C calls that raised, per op; the printed line splits them by exception class",
        _MC,
    ),
    "likelihood.nll_gradient_hessian.calls": Layer(
        "count", "lower", "gradient+Hessian calls per op", _GRAD, _MC
    ),
    "likelihood.nll_gradient_hessian.s_per_call": Layer(
        "s", "lower", "time per gradient+Hessian call", _GRAD, _MC
    ),
    "likelihood.map_estimate.s": Layer(
        "s", "lower", "MAP back substitution per op; a small share everywhere",
        (("latency_s_p50", "mc-n50"), ("latency_s_p50", "grad-n125"),
         ("latency_s_p50", "long-n125")),
    ),
    "likelihood.model_flops": Layer(
        "flop", "lower",
        "sum of ObjectiveEvaluation.flops['total'] per op: the paper's model, not executed flops",
        _MC,
    ),
    "likelihood.nll_algorithm_c.model_gflops_per_s": Layer(
        "Gflop/s", "higher",
        "model flops of evaluator C over its busy time: the paper's model, not executed flops",
        _MC,
    ),
    "kernel.dc_inverse_cholesky_factors.s": Layer(
        "s", "lower", "closed-form bidiagonal factor of K^-1 per op", _MC
    ),
    "kernel.dc_inverse.s": Layer("s", "lower", "closed-form tridiagonal K^-1 per op", _GRAD),
    "kernel.dc_kernel_gradient.s": Layer("s", "lower", "dense dK arrays per op", _GRAD),
    "kernel.dc_kernel_hessian.s": Layer(
        "s", "lower", "dense (3, 3, n, n) d2K array per op", _GRAD
    ),
    "tuner.tune.self_s": Layer(
        "s", "lower",
        "optimizer, squash maps and private helpers such as _sigma2_derivative, per op",
        (("throughput_per_s", "mc-n50"), ("latency_s_p50", "grad-n125")),
    ),
    # mc-n50 only: on grad-n125 the max_evals cap binds on every restart and
    # fixes the evaluation count, so a search that converges in fewer
    # evaluations cannot show there
    "tuner.evals_per_op": Layer("count", "lower", "diagnostics['n_evals_total'] per op", _MC),
    "tuner.penalty_frac": Layer(
        "ratio", "lower", "evaluations without a finite evaluator-C value / evaluations", _MC
    ),
    "tuner.restarts_failed": Layer(
        "count", "lower", "restarts that never found a finite value, per op", _MC
    ),
    "maxent.read_band_file.s": Layer("s", "lower", "band-file parsing per op", _COMPLETE),
    "maxent.check_feasibility.s": Layer("s", "lower", "feasibility check per op", _COMPLETE),
    "maxent.central_extension.s_per_call": Layer(
        "s", "lower", "one max-entropy completion", _COMPLETE
    ),
    "cli.main.self_s": Layer(
        "s", "lower", "CLI outside the library: SHA-256, report building, JSON rendering",
        (("latency_s_p50", "long-n125"), ("latency_s_p50", "complete-n160")),
    ),
    "trace.coverage": Layer("ratio", "higher", "share of op wall time inside named layer spans"),
    "trace.overhead": Layer(
        "ratio", "lower", "traced over untraced latency_s_p50, minus 1, from paired ops"
    ),
}

# A run measures this long unless --seconds says otherwise.
RUN_SECONDS = 20
# setup_s is the median of this many fresh processes (the loop process is one)
SETUP_SAMPLES = 3


def benchmark_json() -> dict:
    """The BENCHMARK.json this spec implies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for name, m in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": layer.unit, "better": layer.better}
            for name, layer in PER_LAYER.items()
        ],
    }
