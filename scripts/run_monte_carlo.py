#!/usr/bin/env python3
"""Monte Carlo comparison of the tuned Bayesian estimate against least squares.

Each run draws an impulse response from the kernel prior, simulates an FIR
experiment at the requested signal-to-noise ratio, then fits the response
both ways and scores each fit against the truth (100 = exact).
"""

import argparse

import numpy as np

from dcsysid import (
    DcHyperparams,
    RegressionData,
    TunerConfig,
    dc_cholesky_factor,
    fit_metric,
    ls_estimate,
    preprocess,
    simulate_fir,
    tune,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--order", "-n", type=int, default=50)
    parser.add_argument("--samples", "-N", type=int, default=500)
    parser.add_argument("--snr", type=float, default=3.0,
                        help="var(noise-free output) / noise variance")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--c", type=float, default=1.0)
    parser.add_argument("--lam", type=float, default=0.85)
    parser.add_argument("--rho", type=float, default=0.7)
    parser.add_argument("--restarts", type=int, default=3)
    parser.add_argument("--max-evals", type=int, default=500)
    args = parser.parse_args(argv)

    prior = DcHyperparams(c=args.c, lam=args.lam, rho=args.rho)
    config = TunerConfig(restarts=args.restarts, max_evals=args.max_evals)
    half = dc_cholesky_factor(prior, args.order)
    fits_map, fits_ls = [], []
    print(f"{'run':>4} {'fit map':>8} {'fit ls':>8} {'lam_hat':>8} {'rho_hat':>8}")
    for run in range(args.runs):
        rng = np.random.default_rng(args.seed + 1000 * run)
        g_true = half @ rng.standard_normal(args.order)
        u = rng.standard_normal(args.samples)
        noise_free = simulate_fir(g_true, u)
        sigma2 = float(np.var(noise_free)) / args.snr
        y = simulate_fir(g_true, u, sigma2=sigma2, seed=args.seed + 1000 * run + 1)
        data = RegressionData(u=u, y=y, n=args.order)
        g_ls, _ = ls_estimate(preprocess(data))
        result = tune(data, config)
        fits_map.append(fit_metric(result.g_hat, g_true))
        fits_ls.append(fit_metric(g_ls, g_true))
        print(f"{run:>4} {fits_map[-1]:>8.2f} {fits_ls[-1]:>8.2f} "
              f"{result.hyper_hat.lam:>8.3f} {result.hyper_hat.rho:>8.3f}")
    wins = sum(m > l for m, l in zip(fits_map, fits_ls))
    print(f"\nmean fit: map {np.mean(fits_map):.2f}, ls {np.mean(fits_ls):.2f}; "
          f"map wins {wins}/{args.runs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
