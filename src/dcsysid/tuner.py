"""Hyperparameter tuning: minimize the marginal-likelihood objective.

The search runs in transformed coordinates that squash each
hyperparameter onto its configured interval (log-scaled for c and the
noise variance, linear for lam and rho, through a logistic map), so both
solvers are unconstrained and the kernel-validity box can never be left:

* ``derivative-free``    Nelder-Mead restarts from a low-discrepancy
                         (Halton) design over a moderate sub-box of the
                         search space.
* ``gradient-assisted``  L-BFGS from the same starts, fed the analytic
                         gradient chain-ruled through the squash maps.
                         Each step costs one stacked QR and one triangular
                         inverse (LAPACK dtrtri) in the decay-scaled
                         coordinates, with no dense kernel; under the
                         ``joint`` policy the gradient includes sigma^2.

Each objective evaluation uses the stable stacked-QR evaluator; numerical
failures inside one start are scored with a huge finite penalty (1e300,
kept finite so the simplex arithmetic stays clean) rather than aborting
the search, and a start whose best value is still the penalty counts as
failed.  The reported minimizer is the best restart, with a
deterministic lexicographic (lam, |rho|, c) tie-break among restarts that
finish within the objective tolerance of each other.

The noise variance is resolved by policy: ``ls-residual`` plugs in the
least-squares residual variance, read off the evaluations' compressed
triangle, ``fixed`` uses a caller-supplied value, and ``joint`` appends
log sigma^2 to the search as a fourth coordinate.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
from scipy.special import expit, logit
from scipy.stats import qmc

from .kernel import DcHyperparams
from .kernel import dc_inverse  # noqa: F401 -- unused; perfbench/tracing.py binds this name
from .likelihood import (NumericalError, PreprocessedData, ls_estimate, map_estimate,
                         nll_algorithm_c, nll_gradient_hessian, nll_value_and_gradient,
                         preprocess)
from .regression import RegressionData

__all__ = [
    "TunerConfig",
    "TuningError",
    "IdentificationResult",
    "tune",
    "fit_metric",
]

_SOLVERS = ("derivative-free", "gradient-assisted")
_POLICIES = ("ls-residual", "fixed", "joint")

# outermost admissible search box; configured bounds must stay inside it
_MASTER_C = (1e-6, 1e6)
_MASTER_LAM = (1e-4, 1.0 - 1e-4)
_MASTER_RHO = (-1.0 + 1e-4, 1.0 - 1e-4)
_SIGMA2_BOUNDS = (1e-10, 1e10)

# restart design sub-box (intersected with the configured bounds)
_START_C = (1e-2, 1e2)
_START_LAM = (0.3, 0.98)
_START_RHO = (-0.9, 0.9)

_BOUNDARY_REL = 1e-3

# score assigned to failed / non-finite / absurd evaluations
_PENALTY = 1e300


class TuningError(RuntimeError):
    """Every restart failed; ``diagnostics`` records what happened."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _interval(name: str, value, master: tuple[float, float]) -> tuple[float, float]:
    try:
        lo, hi = (float(value[0]), float(value[1]))
    except (TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"{name} must be a (low, high) pair, got {value!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"{name} must satisfy low < high, got ({lo}, {hi})")
    if lo < master[0] or hi > master[1]:
        raise ValueError(f"{name} must lie within [{master[0]}, {master[1]}]")
    return lo, hi


@dataclass(frozen=True)
class TunerConfig:
    """Search settings; defaults give a robust general-purpose search."""

    solver: str = "derivative-free"
    bounds_c: tuple = _MASTER_C
    bounds_lam: tuple = _MASTER_LAM
    bounds_rho: tuple = _MASTER_RHO
    restarts: int = 5
    tol_obj: float = 1e-8
    tol_x: float = 1e-6
    max_evals: int = 2000
    sigma2_policy: str = "ls-residual"
    sigma2_value: float | None = None

    def __post_init__(self):
        if self.solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}, got {self.solver!r}")
        if self.sigma2_policy not in _POLICIES:
            raise ValueError(
                f"sigma2_policy must be one of {_POLICIES}, got {self.sigma2_policy!r}"
            )
        object.__setattr__(self, "bounds_c", _interval("bounds_c", self.bounds_c, _MASTER_C))
        object.__setattr__(
            self, "bounds_lam", _interval("bounds_lam", self.bounds_lam, _MASTER_LAM)
        )
        object.__setattr__(
            self, "bounds_rho", _interval("bounds_rho", self.bounds_rho, _MASTER_RHO)
        )
        if not (isinstance(self.restarts, int) and self.restarts >= 1):
            raise ValueError(f"restarts must be a positive integer, got {self.restarts!r}")
        if not (isinstance(self.max_evals, int) and self.max_evals >= 1):
            raise ValueError(f"max_evals must be a positive integer, got {self.max_evals!r}")
        for name in ("tol_obj", "tol_x"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.sigma2_policy == "fixed":
            if self.sigma2_value is None or not self.sigma2_value > 0:
                raise ValueError(
                    "sigma2_policy 'fixed' needs a positive sigma2_value, "
                    f"got {self.sigma2_value!r}"
                )
        elif self.sigma2_value is not None:
            raise ValueError("sigma2_value is only meaningful with sigma2_policy 'fixed'")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "TunerConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(f"unknown tuner option(s): {', '.join(unknown)}")
        return cls(**mapping)

    @classmethod
    def from_json(cls, path) -> "TunerConfig":
        with open(path, encoding="utf-8") as fh:
            mapping = json.load(fh)
        if not isinstance(mapping, dict):
            raise ValueError("tuner config file must contain a JSON object")
        return cls.from_mapping(mapping)


@dataclass(eq=False)
class IdentificationResult:
    """Winning hyperparameters, MAP impulse response and search diagnostics."""

    hyper_hat: DcHyperparams
    sigma2_hat: float
    g_hat: np.ndarray
    objective: float
    diagnostics: dict = field(default_factory=dict)


# --- squash maps between search coordinates and hyperparameters ---------------


def _unsquash_lin(t: float, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return lo + (hi - lo) * expit(t)

def _squash_lin(x: float, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return float(logit((x - lo) / (hi - lo)))

def _unsquash_log(t: float, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * expit(t))

def _squash_log(x: float, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return float(logit((math.log(x) - math.log(lo)) / (math.log(hi) - math.log(lo))))


def _decode(u: np.ndarray, cfg: TunerConfig, joint: bool):
    h = DcHyperparams(
        c=_unsquash_log(u[0], cfg.bounds_c),
        lam=_unsquash_lin(u[1], cfg.bounds_lam),
        rho=_unsquash_lin(u[2], cfg.bounds_rho),
    )
    sigma2 = _unsquash_log(u[3], _SIGMA2_BOUNDS) if joint else None
    return h, sigma2


def _encode(h: DcHyperparams, sigma2: float | None, cfg: TunerConfig, joint: bool):
    u = [
        _squash_log(h.c, cfg.bounds_c),
        _squash_lin(h.lam, cfg.bounds_lam),
        _squash_lin(h.rho, cfg.bounds_rho),
    ]
    if joint:
        u.append(_squash_log(sigma2, _SIGMA2_BOUNDS))
    return np.array(u)


def _chain_factors(u: np.ndarray, cfg: TunerConfig, joint: bool) -> np.ndarray:
    """d(hyperparam)/d(search coordinate), elementwise."""
    e = expit(u)
    ee = e * (1.0 - e)
    lo_c, hi_c = cfg.bounds_c
    out = [
        _unsquash_log(u[0], cfg.bounds_c) * (math.log(hi_c) - math.log(lo_c)) * ee[0],
        (cfg.bounds_lam[1] - cfg.bounds_lam[0]) * ee[1],
        (cfg.bounds_rho[1] - cfg.bounds_rho[0]) * ee[2],
    ]
    if joint:
        lo_s, hi_s = _SIGMA2_BOUNDS
        out.append(
            _unsquash_log(u[3], _SIGMA2_BOUNDS) * (math.log(hi_s) - math.log(lo_s)) * ee[3]
        )
    return np.array(out)


def _halton_starts(cfg: TunerConfig) -> list[tuple[float, float, float]]:
    """Deterministic low-discrepancy restart points over the start sub-box."""

    def clip(sub, bounds):
        lo, hi = max(sub[0], bounds[0]), min(sub[1], bounds[1])
        if not lo < hi:
            lo, hi = bounds
        return lo, hi

    c_box = clip(_START_C, cfg.bounds_c)
    lam_box = clip(_START_LAM, cfg.bounds_lam)
    rho_box = clip(_START_RHO, cfg.bounds_rho)
    engine = qmc.Halton(d=3, scramble=False)
    engine.fast_forward(1)  # index 0 is the box corner; start strictly inside
    unit = np.clip(engine.random(cfg.restarts), 1e-3, 1.0 - 1e-3)
    starts = []
    for row in unit:
        c = math.exp(math.log(c_box[0]) + row[0] * (math.log(c_box[1]) - math.log(c_box[0])))
        lam = lam_box[0] + row[1] * (lam_box[1] - lam_box[0])
        rho = rho_box[0] + row[2] * (rho_box[1] - rho_box[0])
        starts.append((c, lam, rho))
    return starts


def _resolve_sigma2(pre: PreprocessedData, cfg: TunerConfig) -> float:
    if cfg.sigma2_policy == "fixed":
        return float(cfg.sigma2_value)
    # ls-residual, and the starting value for the joint policy
    _, sigma2 = ls_estimate(pre)
    lo, hi = _SIGMA2_BOUNDS
    return float(min(max(sigma2, lo * 10), hi / 10))


def tune(data: RegressionData, config: TunerConfig | None = None) -> IdentificationResult:
    """Fit DC hyperparameters (and optionally sigma^2) to a dataset.

    Runs ``config.restarts`` independent local searches of the stable
    objective evaluator and returns the best minimizer together with the
    MAP impulse-response estimate at the winning hyperparameters.

    Raises :class:`TuningError` if every restart fails numerically.
    """
    cfg = config if config is not None else TunerConfig()
    pre = preprocess(data)
    joint = cfg.sigma2_policy == "joint"
    sigma2_init = _resolve_sigma2(pre, cfg)
    gradient = cfg.solver == "gradient-assisted"

    eval_count = [0]

    def clamp(value):
        return value if np.isfinite(value) and value < _PENALTY else _PENALTY

    def barrier(u):
        # beyond |u| ~ 50 the squash maps saturate and the objective goes
        # flat; a mild linear pull keeps the search from drifting to infinity
        return float(np.sum(np.maximum(np.abs(u) - 50.0, 0.0)))

    def objective(u):
        eval_count[0] += 1
        h, s2 = _decode(u, cfg, joint)
        s2 = s2 if joint else sigma2_init
        try:
            return clamp(nll_algorithm_c(h, s2, pre).value + barrier(u))
        except (NumericalError, ValueError, np.linalg.LinAlgError):
            return _PENALTY

    def objective_with_gradient(u):
        eval_count[0] += 1
        h, s2 = _decode(u, cfg, joint)
        s2 = s2 if joint else sigma2_init
        try:
            value, grad = nll_value_and_gradient(h, s2, pre)
            if not np.isfinite(value) or value >= _PENALTY or not np.all(np.isfinite(grad)):
                raise NumericalError("objective or gradient not finite")
            grad_u = (grad if joint else grad[:3]) * _chain_factors(u, cfg, joint)
            grad_u += np.sign(u) * (np.abs(u) > 50.0)
            return value + barrier(u), grad_u
        except (NumericalError, ValueError, np.linalg.LinAlgError):
            return _PENALTY, np.zeros(4 if joint else 3)

    records = []
    for c0, lam0, rho0 in _halton_starts(cfg):
        h0 = DcHyperparams(c=c0, lam=lam0, rho=rho0)
        u0 = _encode(h0, sigma2_init if joint else None, cfg, joint)
        before = eval_count[0]
        record = {
            "start": (c0, lam0, rho0) + ((sigma2_init,) if joint else ()),
            "value": None,
            "params": None,
            "n_evals": 0,
            "message": "",
        }
        try:
            if cfg.max_evals == 1:
                # budget covers a single evaluation: score the start point
                value, u_best = objective(u0), u0
                record["message"] = "evaluation budget exhausted at the start point"
            elif gradient:
                res = scipy.optimize.minimize(
                    objective_with_gradient,
                    u0,
                    jac=True,
                    method="L-BFGS-B",
                    options={
                        "maxfun": cfg.max_evals,
                        "maxiter": cfg.max_evals,
                        "ftol": cfg.tol_obj,
                    },
                )
                value, u_best = res.fun, res.x
                record["message"] = str(res.message)
            else:
                f0 = objective(u0)
                fatol = cfg.tol_obj * max(1.0, abs(f0) if f0 < _PENALTY else 1.0)
                res = scipy.optimize.minimize(
                    objective,
                    u0,
                    method="Nelder-Mead",
                    options={
                        "maxfev": cfg.max_evals,
                        "fatol": fatol,
                        "xatol": cfg.tol_x,
                    },
                )
                value, u_best = res.fun, res.x
                record["message"] = str(res.message)
        except (NumericalError, ValueError, np.linalg.LinAlgError) as exc:
            record["message"] = f"restart failed: {exc}"
            record["n_evals"] = eval_count[0] - before
            records.append(record)
            continue
        record["n_evals"] = eval_count[0] - before
        if np.isfinite(value) and value < _PENALTY:
            h_best, s2_best = _decode(u_best, cfg, joint)
            record["value"] = float(value)
            record["params"] = (h_best, s2_best if joint else sigma2_init)
        else:
            record["message"] = "objective not finite anywhere visited"
        records.append(record)

    diagnostics = {
        "solver": cfg.solver,
        "sigma2_policy": cfg.sigma2_policy,
        "n_evals_total": eval_count[0],
        "starts": [
            {k: v for k, v in rec.items() if k != "params"} for rec in records
        ],
        "warnings": [],
    }
    finished = [rec for rec in records if rec["value"] is not None]
    if not finished:
        raise TuningError("all tuner restarts failed", diagnostics)

    best_value = min(rec["value"] for rec in finished)
    slack = cfg.tol_obj * max(1.0, abs(best_value))
    tied = [rec for rec in finished if rec["value"] <= best_value + slack]
    winner = min(
        tied, key=lambda rec: (rec["params"][0].lam, abs(rec["params"][0].rho), rec["params"][0].c)
    )
    h_hat, sigma2_hat = winner["params"]
    diagnostics["best_start"] = records.index(winner)

    for name, value, bounds, logscale in (
        ("c", h_hat.c, cfg.bounds_c, True),
        ("lam", h_hat.lam, cfg.bounds_lam, False),
        ("rho", h_hat.rho, cfg.bounds_rho, False),
    ):
        if logscale:
            rel = (math.log(value) - math.log(bounds[0])) / (
                math.log(bounds[1]) - math.log(bounds[0])
            )
        else:
            rel = (value - bounds[0]) / (bounds[1] - bounds[0])
        if rel < _BOUNDARY_REL or rel > 1.0 - _BOUNDARY_REL:
            diagnostics["warnings"].append(
                f"{name}={value:.6g} sits at the edge of its search interval {bounds}"
            )

    try:
        grad, _ = nll_gradient_hessian(h_hat, sigma2_hat, pre)
        diagnostics["gradient_norm"] = float(np.linalg.norm(grad))
    except (NumericalError, ValueError, np.linalg.LinAlgError):
        diagnostics["gradient_norm"] = None

    g_hat = map_estimate(h_hat, sigma2_hat, pre)
    return IdentificationResult(
        hyper_hat=h_hat,
        sigma2_hat=float(sigma2_hat),
        g_hat=g_hat,
        objective=float(winner["value"]),
        diagnostics=diagnostics,
    )


def fit_metric(g_hat: np.ndarray, g_true: np.ndarray) -> float:
    """Percentage fit of an estimate to the true impulse response.

    100 * (1 - ||g_hat - g_true|| / ||g_true - mean(g_true)||); 100 means a
    perfect fit, 0 is no better than the constant mean.  A constant true
    response makes the metric undefined (ValueError); a non-finite
    estimate scores the -1e6 sentinel.
    """
    g_hat = np.asarray(g_hat, dtype=float)
    g_true = np.asarray(g_true, dtype=float)
    if g_hat.shape != g_true.shape:
        raise ValueError(f"shape mismatch: {g_hat.shape} vs {g_true.shape}")
    denom = float(np.linalg.norm(g_true - g_true.mean()))
    if denom == 0.0:
        raise ValueError("fit metric undefined for a constant true response")
    if not np.all(np.isfinite(g_hat)):
        return -1e6
    return float(100.0 * (1.0 - np.linalg.norm(g_hat - g_true) / denom))
