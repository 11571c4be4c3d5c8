"""Seeded inputs for every workload, built with NumPy alone.

Nothing here imports :mod:`dcsysid`: impulse-response draws, input and
noise sequences, kernels, CSV and band files are all the benchmark's own,
so a change to the package cannot change the inputs it is measured on.

The DC kernel K[i, j] = lam^((i+j)/2) rho^|i-j| (c = 1, i, j = 1..n) is
the covariance of g_i = lam^(i/2) x_i with x a unit-variance AR(1)
sequence of correlation rho, which is how responses are drawn.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from spec import GRID

INPUTS = "inputs.npz"
TUNER_CONFIG = "tuner.json"


def workload_rng(name: str, seed: int) -> np.random.Generator:
    """The generator of one workload's inputs; the same seed gives the same inputs."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def draw_impulse(rng: np.random.Generator, lam: float, rho: float, n: int) -> np.ndarray:
    """One draw of a length-n impulse response from the DC prior with c = 1."""
    x = np.empty(n)
    x[0] = rng.standard_normal()
    innovations = np.sqrt(1.0 - rho * rho) * rng.standard_normal(n - 1)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + innovations[i - 1]
    return lam ** (np.arange(1, n + 1) / 2.0) * x


def fir_output(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Noise-free y(t) = sum_k g(k) u(t - k), with u(t) = 0 before the record."""
    return np.convolve(u, np.concatenate([[0.0], g]))[: u.shape[0]]


def dc_kernel(lam: float, rho: float, n: int) -> np.ndarray:
    i = np.arange(1, n + 1)
    return lam ** ((i[:, None] + i[None, :]) / 2.0) * rho ** np.abs(i[:, None] - i[None, :])


def identification_cases(rng: np.random.Generator, n: int, big_n: int, snr: float, pool: int):
    """`pool` datasets whose true (lam, rho) cycle over GRID, at output SNR `snr`."""
    gs, us, ys = [], [], []
    for k in range(pool):
        lam, rho = GRID[k % len(GRID)]
        g = draw_impulse(rng, lam, rho, n)
        u = rng.standard_normal(big_n)
        clean = fir_output(g, u)
        sigma2 = float(np.var(clean)) / snr
        gs.append(g)
        us.append(u)
        ys.append(clean + np.sqrt(sigma2) * rng.standard_normal(big_n))
    return np.array(gs), np.array(us), np.array(ys)


def completion_cases(rng: np.random.Generator, n: int, m_random: int, pool: int):
    """Even cases: DC kernels (band 1) over GRID; odd cases: random SPD matrices."""
    sources, bands, is_dc = [], [], []
    for k in range(pool):
        if k % 2 == 0:
            lam, rho = GRID[(k // 2) % len(GRID)]
            sources.append(dc_kernel(lam, rho, n))
            bands.append(1)
            is_dc.append(True)
        else:
            a = rng.standard_normal((n, n))
            sources.append(a @ a.T / n + 0.5 * np.eye(n))
            bands.append(m_random)
            is_dc.append(False)
    return np.array(sources), np.array(bands), np.array(is_dc)


def write_csv(path: Path, u: np.ndarray, y: np.ndarray) -> None:
    # repr round-trips every double, so the program reads exactly u and y
    rows = "\n".join(f"{a!r},{b!r}" for a, b in zip(u.tolist(), y.tolist()))
    path.write_text("u,y\n" + rows + "\n", encoding="utf-8")


def write_band(path: Path, source: np.ndarray, m: int) -> None:
    n = source.shape[0]
    lines = [f"{n} {m}"]
    lines += [" ".join(repr(v) for v in np.diagonal(source, d).tolist()) for d in range(m + 1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(name: str, spec: dict, seed: int, directory: Path) -> None:
    """Write the inputs of workload `name`, described by `spec`, for `seed`."""
    size, pool = spec["size"], spec["pool"]
    rng = workload_rng(name, seed)
    if spec["kind"] == "complete":
        sources, bands, is_dc = completion_cases(rng, size["n"], size["m_random"], pool)
        np.savez(directory / INPUTS, sources=sources, bands=bands, is_dc=is_dc)
        for k in range(pool):
            write_band(directory / f"case{k}.band", sources[k], int(bands[k]))
        return
    g, u, y = identification_cases(rng, size["n"], size["N"], size["snr"], pool)
    np.savez(directory / INPUTS, g=g, u=u, y=y)
    if spec["kind"] == "identify":
        for k in range(pool):
            write_csv(directory / f"case{k}.csv", u[k], y[k])
        (directory / TUNER_CONFIG).write_text(json.dumps(spec["tuner"]), encoding="utf-8")
