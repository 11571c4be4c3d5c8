"""FIR regression data: regressor construction, simulation, CSV ingestion.

The model is a length-n FIR filter observed in white noise,

    y(t) = sum_{k=1..n} g(k) u(t - k) + v(t),    t = 1..N,

with u(t) = 0 for t < 1.  ``build_regressor`` returns the N x n matrix
whose row t holds (u(t-1), ..., u(t-n)), the transposed regressor bank
Phi^T of the likelihood code.  A dataset does not store it: the one-off
compression ``likelihood.preprocess`` writes the same lagged columns
straight into its [Phi^T Y] block, and least squares is read off the
resulting triangle (``likelihood.ls_estimate``).

Randomness is always drawn from ``numpy.random.default_rng(seed)``
(PCG64), whose streams are stable across platforms and numpy releases;
every simulation is reproducible from its integer seed alone.
"""

from __future__ import annotations

import csv
import operator
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CsvFormatError",
    "IllPosedError",
    "RegressionData",
    "build_regressor",
    "simulate_fir",
    "load_csv",
]


class CsvFormatError(ValueError):
    """Malformed input CSV; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class IllPosedError(ValueError):
    """Least squares is not well posed for this data (rank deficiency or N <= n)."""


def build_regressor(u, n: int) -> np.ndarray:
    """N x n matrix of lagged inputs: row t is (u(t-1), ..., u(t-n)), zero-padded.

    Examples
    --------
    >>> build_regressor([1.0, 0.0, 0.0], 2)
    array([[0., 0.],
           [1., 0.],
           [0., 1.]])
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError(f"u must be 1-D, got shape {u.shape}")
    if n < 1:
        raise ValueError(f"model order must be >= 1, got {n}")
    return _fill_lags(np.zeros((u.shape[0], n)), u)


def _fill_lags(out: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Write the lagged inputs u(t-1), ..., u(t-n) into the zeroed N x n ``out``."""
    big_n, n = out.shape
    for k in range(1, min(n, big_n) + 1):
        out[k:, k - 1] = u[: big_n - k]
    return out


def simulate_fir(g, u, sigma2: float = 0.0, seed=None) -> np.ndarray:
    """Filter u through the FIR coefficients g and add N(0, sigma2) noise."""
    g = np.asarray(g, dtype=float)
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
    y = build_regressor(u, g.shape[0]) @ g
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(y.shape[0])  # drawn even at sigma2=0: stream stability
    return y + np.sqrt(sigma2) * noise


@dataclass(eq=False)
class RegressionData:
    """One identification dataset: input u, output y, model order n.

    Only u and y are stored; ``phi_t`` builds the N x n regressor on each
    access.  n > N is allowed but warned about -- the compression
    (``likelihood.preprocess``) will refuse it.
    """

    u: np.ndarray
    y: np.ndarray
    n: int

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.u.ndim != 1 or self.y.ndim != 1:
            raise ValueError("u and y must be 1-D")
        if self.u.shape != self.y.shape:
            raise ValueError(
                f"u and y must have equal length, got {self.u.shape[0]} and {self.y.shape[0]}"
            )
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.y))):
            raise ValueError("u and y must be finite")
        self.n = operator.index(self.n)  # TypeError for a non-integer order
        if self.n < 1:
            raise ValueError(f"model order must be >= 1, got {self.n}")
        if self.n > self.u.shape[0]:
            warnings.warn(
                f"model order n={self.n} exceeds the number of samples N={self.u.shape[0]}",
                stacklevel=2,
            )

    @property
    def n_samples(self) -> int:
        return self.u.shape[0]

    @property
    def phi_t(self) -> np.ndarray:
        """The N x n regressor, built anew on each access (dense oracle, tests)."""
        return build_regressor(self.u, self.n)


def load_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column u,y CSV (header row optional).

    Each data row must contain exactly two numeric fields.  Errors cite
    the 1-based line number.
    """
    u, y = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not f.strip() for f in row):
                continue
            fields = [f.strip() for f in row]
            if lineno == 1:
                try:
                    float(fields[0])
                except ValueError:
                    if len(fields) < 2:
                        raise CsvFormatError(
                            f"line 1: header must name two columns, got {row!r}", line=1
                        ) from None
                    continue  # header row
            if len(fields) != 2:
                raise CsvFormatError(
                    f"line {lineno}: expected two columns (u, y), got {len(fields)}",
                    line=lineno,
                )
            try:
                u.append(float(fields[0]))
                y.append(float(fields[1]))
            except ValueError as exc:
                raise CsvFormatError(f"line {lineno}: non-numeric value: {exc}", line=lineno)
    if not u:
        raise CsvFormatError("no data rows found", line=1)
    return np.array(u), np.array(y)
