"""One op per workload kind, and the checks that decide whether it was correct.

An op is one identification or one completion.  ``run`` is the timed
call; ``collect`` turns its result into plain arrays (reading the CLI
report file); ``check`` recomputes what it can by an independent route
and returns the problems found, which count the op as failed.
Tolerances are those of the acceptance criteria named beside them.

A CLI op writes its report to a file of its own, which ``collect`` reads
and deletes, so what a run keeps of its ops until they are checked stays
on disk, not in the measured process.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

import numpy as np

import dcsysid
import dcsysid.cli
from inputs import INPUTS, TUNER_CONFIG

OBJECTIVE_RTOL = 1e-6  # criterion 05: the evaluators agree pairwise
MAP_RTOL = 1e-10  # g_hat is the MAP estimate at the winning hyperparameters
KERNEL_RTOL = 1e-10  # criterion 03: a 1-band completion reproduces the kernel
INVERSE_OFFBAND_RTOL = 1e-9  # criterion 04: the completion's inverse is banded
NAIVE_MAX_SAMPLES = 2000  # nll_naive factors an N x N matrix; above this use evaluator A


class OpFailed(RuntimeError):
    """The program answered with a non-zero exit code."""


def rel(x: float, y: float) -> float:
    return abs(x - y) / max(1.0, abs(x), abs(y))


class _Identification:
    """Ops whose output is {hyper, sigma2, objective, g_hat, diagnostics}."""

    def __init__(self, spec: dict, directory: Path):
        data = np.load(directory / INPUTS)
        self.g, self.u, self.y = data["g"], data["u"], data["y"]
        self.n = spec["size"]["n"]
        self.tuner = spec["tuner"]
        self.directory = directory
        self._pre = {}

    def __len__(self) -> int:
        return self.g.shape[0]

    def regressor_bytes(self, k: int) -> int:
        return self.u.shape[1] * self.n * 8

    def check(self, k: int, out: dict) -> list[str]:
        h = dcsysid.DcHyperparams(*out["hyper"])
        sigma2 = out["sigma2"]
        data = dcsysid.RegressionData(self.u[k], self.y[k], self.n)
        if k not in self._pre:
            self._pre[k] = dcsysid.preprocess(data)
        pre = self._pre[k]
        if data.n_samples <= NAIVE_MAX_SAMPLES:
            route, value = "nll_naive", dcsysid.nll_naive(h, sigma2, data)
        else:
            route, value = "nll_algorithm_a", dcsysid.nll_algorithm_a(h, sigma2, pre).value
        problems = []
        if not rel(value, out["objective"]) < OBJECTIVE_RTOL:
            problems.append(
                f"objective {out['objective']!r} but {route} gives {value!r} at the winner"
            )
        g_map = dcsysid.map_estimate(h, sigma2, pre)
        err = np.max(np.abs(out["g_hat"] - g_map)) / np.max(np.abs(g_map))
        if not err <= MAP_RTOL:
            problems.append(f"g_hat differs from map_estimate by {err:.1e} relative")
        return problems

    def fit(self, k: int, out: dict) -> float:
        return dcsysid.fit_metric(out["g_hat"], self.g[k])


class Tune(_Identification):
    """Library call: tune(RegressionData(u, y, n), TunerConfig(**tuner))."""

    def run(self, k: int):
        data = dcsysid.RegressionData(self.u[k], self.y[k], self.n)
        return dcsysid.tune(data, dcsysid.TunerConfig(**self.tuner))

    def collect(self, k: int, result) -> dict:
        h = result.hyper_hat
        return {
            "hyper": (h.c, h.lam, h.rho),
            "sigma2": result.sigma2_hat,
            "objective": result.objective,
            "g_hat": result.g_hat,
            "diagnostics": result.diagnostics,
        }


def read_report(command: str, ran: tuple[int, Path]) -> dict:
    """The results of one CLI op's report, whose file is then deleted."""
    code, report = ran
    if code != 0:
        raise OpFailed(f"dcsysid {command} exited with code {code}")
    try:
        return json.loads(report.read_text(encoding="utf-8"))["results"]
    finally:
        report.unlink()


_REPORTS = itertools.count()


def fresh_report(directory: Path) -> Path:
    return directory / f"report-{os.getpid()}-{next(_REPORTS)}.json"


class Identify(_Identification):
    """In-process ``dcsysid identify <csv> -n <n> --config <json> --out <report>``."""

    def run(self, k: int) -> tuple[int, Path]:
        report = fresh_report(self.directory)
        return dcsysid.cli.main([
            "identify", str(self.directory / f"case{k}.csv"), "-n", str(self.n),
            "--config", str(self.directory / TUNER_CONFIG), "--out", str(report),
        ]), report

    def collect(self, k: int, ran: tuple[int, Path]) -> dict:
        results = read_report("identify", ran)
        h = results["hyperparameters"]
        return {
            "hyper": (h["c"], h["lam"], h["rho"]),
            "sigma2": results["sigma2"],
            "objective": results["objective"],
            "g_hat": np.array(results["g_hat"]),
            "diagnostics": results["diagnostics"],
        }


class Complete:
    """In-process ``dcsysid complete <band> --out <report>``."""

    def __init__(self, spec: dict, directory: Path):
        data = np.load(directory / INPUTS)
        self.sources, self.bands, self.is_dc = data["sources"], data["bands"], data["is_dc"]
        self.directory = directory

    def __len__(self) -> int:
        return self.sources.shape[0]

    def regressor_bytes(self, k: int) -> int:
        return 0

    def run(self, k: int) -> tuple[int, Path]:
        band, report = str(self.directory / f"case{k}.band"), fresh_report(self.directory)
        return dcsysid.cli.main(["complete", band, "--out", str(report)]), report

    def collect(self, k: int, ran: tuple[int, Path]) -> dict:
        results = read_report("complete", ran)
        return {
            "completed": np.array(results["completed"]),
            "certificate": results["inverse_band_certificate"],
        }

    def check(self, k: int, out: dict) -> list[str]:
        source, m = self.sources[k], int(self.bands[k])
        done = out["completed"]
        if done.shape != source.shape:
            return [f"completion has shape {done.shape}, expected {source.shape}"]
        n = source.shape[0]
        band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= m
        problems = []
        if not np.array_equal(done[band], source[band]):
            problems.append("completion differs from the input band")
        # max|inverse| >= 1 / min(diag), so this bounds criterion 04's relative
        # off-band size without inverting a possibly ill-conditioned matrix
        if not out["certificate"] * np.min(np.diagonal(done)) <= INVERSE_OFFBAND_RTOL:
            problems.append(f"inverse_band_certificate {out['certificate']!r} too large")
        if self.is_dc[k]:
            # the source is the kernel; where it is 0 (rho = 0), allow 1e-12
            # of the entry's correlation scale
            d = np.sqrt(np.diagonal(source))
            scale = np.maximum(np.abs(source), 1e-12 * np.outer(d, d))
            err = np.max(np.abs(done - source) / scale)
            if not err <= KERNEL_RTOL:
                problems.append(f"DC 1-band completion differs from the kernel by {err:.1e}")
        else:
            inverse = np.linalg.inv(done)
            err = np.max(np.abs(inverse[~band])) / np.max(np.abs(inverse))
            if not err <= INVERSE_OFFBAND_RTOL:
                problems.append(f"inverse of the completion has off-band entries {err:.1e}")
        return problems

    def fit(self, k: int, out: dict) -> float | None:
        # only a DC band's completion has a truth: the kernel it was cut from
        if not self.is_dc[k]:
            return None
        return dcsysid.fit_metric(out["completed"].ravel(), self.sources[k].ravel())


KINDS = {"tune": Tune, "identify": Identify, "complete": Complete}


def load(spec: dict, directory: Path):
    return KINDS[spec["kind"]](spec, directory)
