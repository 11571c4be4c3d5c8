"""Command-line front end.

Subcommands
-----------
identify     fit DC hyperparameters and a MAP impulse response to a CSV
             dataset of (input, output) samples
kernel-info  closed-form facts about one kernel: log-determinant,
             condition number, inverse band and factorization residuals
complete     maximum-entropy completion of a partial banded covariance
bench        timed comparison of the three objective evaluators, and of
             the value-and-gradient route against evaluator C, on
             synthetic data
simulate     generate a noisy FIR dataset (and its true response) to CSV

Every run prints a structured report (JSON, or CSV as flattened
``key,value`` rows) carrying the echoed command line, package version,
SHA-256 digest of the input file, seeds and wall time, so results can be
reproduced from the report alone.

Exit codes: 0 success; 2 argument/format/domain errors; 3 infeasible
completion; 4 numerical failure; 5 tuning failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import re
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .kernel import (
    DcHyperparams,
    ParameterError,
    SingularKernelError,
    build_dc_kernel,
    dc_cholesky_factor,
    dc_condition_number,
    dc_factorize,
    dc_inverse,
    dc_logdet,
)
from .likelihood import (
    NumericalError,
    algorithm_a_flops,
    algorithm_c_flops,
    nll_algorithm_a,
    nll_algorithm_b,
    nll_algorithm_c,
    nll_value_and_gradient,
    preprocess_matrices,
)
from .maxent import (
    BandFormatError,
    InfeasibleBandError,
    OutOfBandError,
    central_extension,
    read_band_file,
)
from .regression import CsvFormatError, IllPosedError, RegressionData, load_csv, simulate_fir
from .tuner import TunerConfig, TuningError, tune

__all__ = ["main"]

_DC_DRAW = re.compile(r"^dc-draw\(\s*([^)]*)\)\s*$")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcsysid",
        description="Regularized FIR system identification with DC kernels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report (or, for simulate, the data CSV) here")
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="report format (default: json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identify", parents=[common], help="fit hyperparameters to a CSV dataset")
    p.add_argument("data", help="CSV file with one u,y pair per row")
    p.add_argument("-n", "--order", type=int, required=True, help="FIR model order")
    p.add_argument("--config", help="JSON file of tuner options")
    p.add_argument(
        "--sigma2", type=float, help="fix the noise variance instead of estimating it"
    )
    p.add_argument(
        "--plot-data",
        action="store_true",
        help="include the raw series in the report for external plotting",
    )

    p = sub.add_parser("kernel-info", parents=[common], help="closed-form kernel diagnostics")
    p.add_argument("-n", "--order", type=int, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)

    p = sub.add_parser("complete", parents=[common], help="maximum-entropy band completion")
    p.add_argument("band", help="text file: 'n m' header then m+1 diagonal lines")

    p = sub.add_parser("bench", parents=[common], help="time the objective evaluators")
    p.add_argument("-n", "--order", type=int, required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--evals", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=0.9)
    p.add_argument("--rho", type=float, default=0.8)
    p.add_argument("--sigma2", type=float, default=0.2)

    p = sub.add_parser("simulate", parents=[common], help="generate a noisy FIR dataset")
    p.add_argument(
        "--g",
        required=True,
        help="impulse response: a file of numbers, or dc-draw(c, lam, rho, n, seed)",
    )
    p.add_argument("-N", "--samples", type=int, required=True)
    p.add_argument("--sigma2", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _flatten(value, f"{prefix}{key}.")
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            yield from _flatten(value, f"{prefix}{index}.")
    else:
        yield prefix[:-1], obj


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["key", "value"])
    for key, value in _flatten(report):
        writer.writerow([key, "" if value is None else value])
    return buffer.getvalue()


def _hyper_dict(h: DcHyperparams) -> dict:
    return {"c": h.c, "lam": h.lam, "rho": h.rho}


# --- subcommand handlers ------------------------------------------------------


def _cmd_identify(args) -> tuple[dict, dict]:
    u, y = load_csv(args.data)
    data = RegressionData(u=u, y=y, n=args.order)
    config = TunerConfig.from_json(args.config) if args.config else TunerConfig()
    if args.sigma2 is not None:
        config = dataclasses.replace(config, sigma2_policy="fixed", sigma2_value=args.sigma2)
    result = tune(data, config)
    results = {
        "order": data.n,
        "n_samples": data.n_samples,
        "hyperparameters": _hyper_dict(result.hyper_hat),
        "sigma2": result.sigma2_hat,
        "objective": result.objective,
        "g_hat": result.g_hat,
        "diagnostics": result.diagnostics,
    }
    if args.plot_data:
        results["plot_data"] = {"u": u, "y": y}
    return results, {"input_sha256": _digest(args.data), "seed": None}


def _cmd_kernel_info(args) -> tuple[dict, dict]:
    h = DcHyperparams(c=args.c, lam=args.lam, rho=args.rho)
    n = args.order
    k = build_dc_kernel(h, n)
    fact = dc_factorize(h, n)
    inv = dc_inverse(h, n)
    inv_dense = inv.to_dense()
    ddt_error = fact.d_cholesky @ fact.d_cholesky.T - inv_dense
    root = np.sqrt(inv.main)
    k_norm = np.linalg.norm(k)
    # K K^-1 = S (T T^-1) S^-1 with S = diag(lam^(i/2)): entry (i, j) of
    # K K^-1 - I carries lam^((i-j)/2), which this undoes
    offset = np.subtract.outer(np.arange(n), np.arange(n))
    residuals = {
        "kernel_vs_uwu": float(
            np.linalg.norm(fact.u @ (fact.w[:, None] * fact.u.T) - k) / k_norm
        ),
        "identity_vs_k_kinv": float(
            np.abs((k @ inv_dense - np.eye(n)) * h.lam ** (-offset / 2.0)).max()
        ),
        # entrywise, scaled to K^-1's unit diagonal: a norm of K^-1 overflows
        # long before its entries do
        "inverse_vs_ddt": float(np.abs(ddt_error / np.outer(root, root)).max()),
    }
    results = {
        "order": n,
        "hyperparameters": _hyper_dict(h),
        "logdet": dc_logdet(h, n),
        "condition_number": dc_condition_number(h, n),
        "inverse_band": {
            "bandwidth": 1,
            "nonzeros": 2 * n - 1,
            "main": inv.main,
            "sub": inv.sub,
        },
        "factorization_residuals": residuals,
    }
    return results, {"input_sha256": None, "seed": None}


def _cmd_complete(args) -> tuple[dict, dict]:
    partial = read_band_file(args.band)
    ext = central_extension(partial)
    inverse = (ext.l_factor * ext.v_diag) @ ext.l_factor.T
    offsets = np.abs(np.subtract.outer(np.arange(ext.n), np.arange(ext.n)))
    beyond = offsets > ext.m
    certificate = float(np.abs(inverse[beyond]).max()) if beyond.any() else 0.0
    results = {
        "n": ext.n,
        "m": ext.m,
        "feasible": True,
        "entropy": ext.entropy,
        "log_det": float(-np.sum(np.log(ext.v_diag))),
        "completed": ext.completed,
        "inverse_band_certificate": certificate,
    }
    return results, {"input_sha256": _digest(args.band), "seed": None}


def _cmd_bench(args) -> tuple[dict, dict]:
    h = DcHyperparams(c=args.c, lam=args.lam, rho=args.rho)
    if args.samples < args.order + 1:
        raise ValueError(
            f"--samples must be at least order + 1, got {args.samples} for n={args.order}"
        )
    if args.evals < 1:
        raise ValueError("--evals must be positive")
    rng = np.random.default_rng(args.seed)
    phi_t = rng.standard_normal((args.samples, args.order))
    y = rng.standard_normal(args.samples)
    pre = preprocess_matrices(phi_t, y)  # shared setup, excluded from timing

    def timed(call):
        """(elapsed, failures, last result) over args.evals calls, after a warm-up."""
        for _ in range(min(50, args.evals)):  # untimed warm-up
            try:
                call()
            except NumericalError:
                pass
        failures, last = 0, None
        start = time.perf_counter()
        for _ in range(args.evals):
            try:
                last = call()
            except NumericalError:
                failures += 1
        return time.perf_counter() - start, failures, last

    algorithms = {}
    for name, evaluate in (
        ("a", nll_algorithm_a),
        ("b", nll_algorithm_b),
        ("c", nll_algorithm_c),
    ):
        elapsed, failures, evaluation = timed(partial(evaluate, h, args.sigma2, pre))
        algorithms[name] = {
            "time_total_seconds": elapsed,
            "time_per_eval_seconds": elapsed / args.evals,
            "failures": failures,
            "value": None if evaluation is None else evaluation.value,
            "flops": None if evaluation is None else evaluation.flops,
        }
    elapsed, failures, _ = timed(partial(nll_value_and_gradient, h, args.sigma2, pre))
    per_eval = elapsed / args.evals
    gradient = {
        "time_per_eval_seconds": per_eval,
        "c_evaluations": per_eval / algorithms["c"]["time_per_eval_seconds"],
        "failures": failures,
    }

    def savings(fast, slow):
        t_fast = algorithms[fast]["time_total_seconds"]
        t_slow = algorithms[slow]["time_total_seconds"]
        if algorithms[slow]["failures"] or t_slow == 0:
            return None
        return 100.0 * (1.0 - t_fast / t_slow)

    def agreement(first, second):
        v_first, v_second = algorithms[first]["value"], algorithms[second]["value"]
        if v_first is None or v_second is None:
            return None
        return abs(v_first - v_second)

    flops_ratio = algorithm_c_flops(args.order)["total"] / algorithm_a_flops(args.order)["total"]
    results = {
        "order": args.order,
        "samples": args.samples,
        "evals": args.evals,
        "hyperparameters": _hyper_dict(h),
        "sigma2": args.sigma2,
        "algorithms": algorithms,
        "gradient": gradient,
        "savings_percent": {
            "c_vs_a": savings("c", "a"),
            "c_vs_b": savings("c", "b"),
            "b_vs_a": savings("b", "a"),
        },
        "predicted_savings_percent": {"c_vs_a": 100.0 * (1.0 - flops_ratio)},
        "agreement": {
            "a_minus_c": agreement("a", "c"),
            "b_minus_c": agreement("b", "c"),
        },
    }
    return results, {"input_sha256": None, "seed": args.seed}


def _parse_impulse(spec: str) -> np.ndarray:
    match = _DC_DRAW.match(spec.strip())
    if match:
        parts = [p.strip() for p in match.group(1).split(",")]
        if len(parts) != 5:
            raise ValueError("dc-draw takes exactly (c, lam, rho, n, seed)")
        c, lam, rho = (float(p) for p in parts[:3])
        n, seed = int(parts[3]), int(parts[4])
        h = DcHyperparams(c=c, lam=lam, rho=rho).require_strict()
        z = np.random.default_rng(seed).standard_normal(n)
        return dc_cholesky_factor(h, n) @ z
    path = Path(spec)
    if not path.exists():
        raise ValueError(f"impulse response file not found: {spec}")
    tokens = path.read_text(encoding="utf-8").replace(",", " ").split()
    if not tokens:
        raise ValueError(f"impulse response file {spec} is empty")
    return np.array([float(t) for t in tokens])


def _cmd_simulate(args) -> tuple[dict, dict]:
    if args.out is None:
        raise ValueError("simulate needs --out, the destination for the data CSV")
    if args.samples < 1:
        raise ValueError("--samples must be positive")
    if args.sigma2 < 0:
        raise ValueError("--sigma2 must be nonnegative")
    g = _parse_impulse(args.g)
    seed_u, seed_noise = np.random.SeedSequence(args.seed).spawn(2)
    u = np.random.default_rng(seed_u).standard_normal(args.samples)
    y = simulate_fir(g, u, sigma2=args.sigma2, seed=seed_noise)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "y"])
        for u_k, y_k in zip(u, y):
            writer.writerow([repr(float(u_k)), repr(float(y_k))])
    results = {
        "n_samples": args.samples,
        "sigma2": args.sigma2,
        "impulse_length": int(g.size),
        "g_true": g,
        "output_path": args.out,
        "output_sha256": _digest(args.out),
    }
    return results, {"input_sha256": None, "seed": args.seed}


_COMMANDS = {
    "identify": _cmd_identify,
    "kernel-info": _cmd_kernel_info,
    "complete": _cmd_complete,
    "bench": _cmd_bench,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    """Entry point; returns the process exit code instead of calling exit()."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    start = time.perf_counter()
    try:
        results, extras = _COMMANDS[args.command](args)
    except TuningError as exc:
        print(f"error: tuning failed: {exc}", file=sys.stderr)
        return 5
    except InfeasibleBandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, IllPosedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (
        ParameterError,
        SingularKernelError,
        BandFormatError,
        CsvFormatError,
        OutOfBandError,
        json.JSONDecodeError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = {
        "command": args.command,
        "argv": list(argv) if argv is not None else sys.argv[1:],
        "version": __version__,
        "seed": extras.get("seed"),
        "input_sha256": extras.get("input_sha256"),
        "elapsed_seconds": time.perf_counter() - start,
        "results": results,
    }
    text = _render(_jsonable(report), args.format)
    # simulate's --out already received the data CSV; its report goes to stdout
    if args.out and args.command != "simulate":
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
