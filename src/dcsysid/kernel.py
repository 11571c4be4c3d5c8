"""Closed-form algebra for diagonal/correlated (DC) covariance kernels.

A DC kernel on lags 1..n is the symmetric positive semidefinite matrix

    K[i, j] = c * lam**((i + j) / 2) * rho**|i - j|,    i, j = 1..n,

with magnitude c >= 0, geometric decay 0 <= lam < 1, and neighbour
correlation -1 <= rho <= 1.  Setting rho = sqrt(lam) recovers the TC
kernel c * lam**max(i, j).

For strictly interior parameters (c > 0, 0 < lam < 1, |rho| < 1) the
kernel has completely explicit structure, which this module exposes
instead of falling back on generic dense linear algebra:

* ``dc_factorize``          K = U W U^T with U unit upper-triangular
                            Toeplitz and W diagonal; the mirrored
                            K^-1 = L V L^T with L unit lower-bidiagonal
                            Toeplitz; and the lower-bidiagonal Cholesky
                            factor D of the inverse, K^-1 = D D^T.
* ``dc_inverse``            the inverse is exactly tridiagonal and is
                            written down directly -- K is never formed,
                            let alone inverted numerically.
* ``dc_condition_number``   2-norm condition as lam_max / lam_min of the
                            closed-form tridiagonal K^-1, all of whose
                            eigenvalues LAPACK dpteqr finds to high
                            relative accuracy in one call (within 3e-14 of
                            a high-precision reference for |rho| <= 0.98,
                            1e-10 at |rho| = 1 - 1e-4).  An SVD of K
                            bottoms out at the double-precision floor
                            (~1e16) long before the true condition number
                            of strongly decaying kernels.
* ``dc_kernel_gradient``    elementwise derivatives of K in (c, lam, rho);
                            the dense reference for the marginal-likelihood
                            derivatives, which never form them.

Formulas above use 1-based indices i, j = 1..n; returned arrays use
native 0-based indexing, so ``K[0, 0]`` is the i = j = 1 entry.  The
log-determinant is always computed in log space,

    logdet K = n log c + (n (n + 1) / 2) log lam + (n - 1) log(1 - rho^2),

since det K itself underflows for modest n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

__all__ = [
    "ParameterError",
    "SingularKernelError",
    "DcHyperparams",
    "FactoredKernel",
    "TridiagonalMatrix",
    "build_dc_kernel",
    "build_tc_kernel",
    "dc_factorize",
    "dc_inverse",
    "dc_inverse_cholesky_factors",
    "dc_cholesky_factor",
    "dc_logdet",
    "dc_condition_number",
    "dc_kernel_gradient",
    "dc_kernel_hessian",
]

class ParameterError(ValueError):
    """Hyperparameters outside the admissible box c >= 0, 0 <= lam < 1, |rho| <= 1."""


class SingularKernelError(ValueError):
    """Operation requires an invertible kernel (c > 0, 0 < lam < 1, |rho| < 1)."""


@dataclass(frozen=True)
class DcHyperparams:
    """DC kernel hyperparameters (c, lam, rho).

    Construction enforces the admissible box c >= 0, 0 <= lam < 1,
    -1 <= rho <= 1.  The degenerate boundary (c = 0, lam = 0, |rho| = 1)
    yields a valid but singular kernel: building K is allowed,
    factorization/inversion/determinant operations raise
    :class:`SingularKernelError`.
    """

    c: float
    lam: float
    rho: float

    def __post_init__(self):
        for name, value in (("c", self.c), ("lam", self.lam), ("rho", self.rho)):
            try:
                value = float(value)
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"{name} must be a real number, got {value!r}") from exc
            if not np.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.c < 0:
            raise ParameterError(f"c must be >= 0, got {self.c}")
        if not 0 <= self.lam < 1:
            raise ParameterError(f"lam must lie in [0, 1), got {self.lam}")
        if not -1 <= self.rho <= 1:
            raise ParameterError(f"rho must lie in [-1, 1], got {self.rho}")

    def require_strict(self) -> "DcHyperparams":
        """Raise :class:`SingularKernelError` unless the kernel is invertible."""
        if self.c == 0:
            raise SingularKernelError("c = 0 gives a singular kernel")
        if self.lam == 0:
            raise SingularKernelError("lam = 0 gives a singular kernel")
        if abs(self.rho) == 1:
            raise SingularKernelError(f"rho = {self.rho} gives a singular kernel")
        return self


def _coerce(hyper) -> DcHyperparams:
    # accept (c, lam, rho) triples for convenience
    if isinstance(hyper, DcHyperparams):
        return hyper
    c, lam, rho = hyper
    return DcHyperparams(float(c), float(lam), float(rho))


def _check_order(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ParameterError(f"order n must be an integer, got {n!r}")
    if n < 1:
        raise ParameterError(f"order n must be >= 1, got {n}")
    return int(n)


@dataclass(frozen=True)
class FactoredKernel:
    """All closed-form factors of one DC kernel.

    K = u @ diag(w) @ u.T          u unit upper-triangular Toeplitz
    K^-1 = l @ diag(v) @ l.T       l unit lower-bidiagonal Toeplitz
    K^-1 = d_cholesky @ d_cholesky.T   lower-bidiagonal, positive diagonal
    """

    n: int
    u: np.ndarray
    w: np.ndarray
    l: np.ndarray
    v: np.ndarray
    d_cholesky: np.ndarray
    logdet: float


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix held as its main/sub diagonals."""

    n: int
    main: np.ndarray
    sub: np.ndarray

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.main)
        if self.n > 1:
            idx = np.arange(self.n - 1)
            a[idx + 1, idx] = self.sub
            a[idx, idx + 1] = self.sub
        return a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.main * x
        if self.n > 1:
            y[:-1] += self.sub * x[1:]
            y[1:] += self.sub * x[:-1]
        return y


def build_dc_kernel(hyper, n: int) -> np.ndarray:
    """Dense DC kernel matrix K[i, j] = c lam^((i+j)/2) rho^|i-j|.

    Parameters
    ----------
    hyper : DcHyperparams or (c, lam, rho) triple
    n : int
        Matrix order (number of impulse-response lags).

    Returns
    -------
    (n, n) ndarray, symmetric positive semidefinite.
    """
    h = _coerce(hyper)
    n = _check_order(n)
    i = np.arange(1, n + 1)
    ssum = i[:, None] + i[None, :]
    offset = np.abs(i[:, None] - i[None, :])  # integer exponents: rho < 0 is fine
    return h.c * h.lam ** (ssum / 2.0) * h.rho ** offset


def build_tc_kernel(c: float, lam: float, n: int) -> np.ndarray:
    """Dense TC kernel matrix K[i, j] = c lam^max(i, j).

    Identical (in exact arithmetic) to the DC kernel with rho = sqrt(lam).
    """
    h = DcHyperparams(float(c), float(lam), np.sqrt(float(lam)))  # validates the box
    n = _check_order(n)
    i = np.arange(1, n + 1)
    return h.c * h.lam ** np.maximum(i[:, None], i[None, :]).astype(float)


def _w_diag(h: DcHyperparams, n: int) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=float)
    w = h.c * (1.0 - h.rho**2) * h.lam**i
    w[-1] = h.c * h.lam ** float(n)  # last weight carries no (1 - rho^2) factor
    return w


def _v_diag(h: DcHyperparams, n: int) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        v = 1.0 / (h.c * (1.0 - h.rho**2) * h.lam**i)
        v[-1] = np.divide(1.0, h.c * h.lam ** float(n))
    if not np.all(np.isfinite(v)):
        raise SingularKernelError(
            f"inverse kernel weights overflow double precision at lam={h.lam}, n={n}; "
            "the kernel is numerically singular at this scale"
        )
    return v


def dc_inverse_cholesky_factors(hyper, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and subdiagonal of the bidiagonal factor D with K^-1 = D D^T.

    Only 2n - 1 scalars are created; this is the cheap preparation step of
    the stable likelihood evaluator.
    """
    h = _coerce(hyper).require_strict()
    n = _check_order(n)
    d_main = np.sqrt(_v_diag(h, n))
    d_sub = -(h.rho / np.sqrt(h.lam)) * d_main[:-1]
    return d_main, d_sub


def dc_cholesky_factor(hyper, n: int) -> np.ndarray:
    """Closed-form square root F = U W^(1/2) of K (upper triangular, F F^T = K)."""
    h = _coerce(hyper).require_strict()
    n = _check_order(n)
    i = np.arange(n)
    q = h.rho / np.sqrt(h.lam)
    powers = np.clip(i[None, :] - i[:, None], 0, None)  # clip keeps exponents >= 0
    u = np.triu(q**powers)
    return u * np.sqrt(_w_diag(h, n))[None, :]


def dc_logdet(hyper, n: int) -> float:
    """log det K in log space (det K itself underflows for modest n)."""
    h = _coerce(hyper).require_strict()
    n = _check_order(n)
    return (
        n * np.log(h.c)
        + (n * (n + 1) / 2.0) * np.log(h.lam)
        + (n - 1) * np.log1p(-h.rho**2)
    )


def dc_factorize(hyper, n: int) -> FactoredKernel:
    """All closed-form factors of the DC kernel at once.

    Returns
    -------
    FactoredKernel with
        u : (n, n) unit upper-triangular Toeplitz, u[i, j] = (rho/sqrt(lam))^(j-i)
        w : (n,) positive weights, w[i] = c (1-rho^2) lam^(i+1) except
            w[n-1] = c lam^n
        l : (n, n) unit lower-bidiagonal Toeplitz, subdiagonal -rho/sqrt(lam)
        v : (n,) positive weights of the inverse, v = 1 / (c (1-rho^2) lam^(i+1))
            except v[n-1] = 1 / (c lam^n)
        d_cholesky : (n, n) lower-bidiagonal with positive diagonal,
            d_cholesky @ d_cholesky.T = K^-1
        logdet : log det K

    Raises
    ------
    SingularKernelError
        On the degenerate boundary (c = 0, lam = 0, |rho| = 1).
    """
    h = _coerce(hyper).require_strict()
    n = _check_order(n)
    i = np.arange(n)
    q = h.rho / np.sqrt(h.lam)
    u = np.triu(q ** np.clip(i[None, :] - i[:, None], 0, None))
    w = _w_diag(h, n)
    v = _v_diag(h, n)
    l = np.eye(n)
    d_main, d_sub = dc_inverse_cholesky_factors(h, n)
    d = np.diag(d_main)
    if n > 1:
        l[i[1:], i[:-1]] = -q
        d[i[1:], i[:-1]] = d_sub
    return FactoredKernel(n=n, u=u, w=w, l=l, v=v, d_cholesky=d, logdet=dc_logdet(h, n))


def dc_inverse(hyper, n: int) -> TridiagonalMatrix:
    """Closed-form tridiagonal inverse of the DC kernel.

    Entries (1-based):

        (K^-1)[i, j] = (1/c) * c_ij / (1 - rho^2) * (-1)^(i+j)
                       * lam^(-(i+j)/2) * rho^|i-j|

    with c_ij = 0 for |i-j| > 1, c_ij = 1 + rho^2 on the interior diagonal
    (i = j = 2..n-1) and c_ij = 1 otherwise.  Entries beyond the first
    off-diagonal are hard zeros, not small numbers.  The formula degenerates
    at n = 1, where the inverse is just 1/(c lam).
    """
    h = _coerce(hyper).require_strict()
    n = _check_order(n)
    if n == 1:
        return TridiagonalMatrix(1, np.array([1.0 / (h.c * h.lam)]), np.zeros(0))
    i = np.arange(1, n + 1, dtype=float)
    denom = h.c * (1.0 - h.rho**2)
    with np.errstate(divide="ignore", over="ignore"):
        main = h.lam ** (-i) / denom
        main[1:-1] *= 1.0 + h.rho**2
        sub = -h.rho * h.lam ** (-(i[:-1] + 0.5)) / denom
    if not (np.all(np.isfinite(main)) and np.all(np.isfinite(sub))):
        raise SingularKernelError(
            f"inverse kernel entries overflow double precision at lam={h.lam}, n={n}; "
            "the kernel is numerically singular at this scale"
        )
    return TridiagonalMatrix(n, main, sub)


def dc_condition_number(hyper, n: int) -> float:
    """2-norm condition number of K as lam_max(K^-1) / lam_min(K^-1).

    K^-1 is the closed-form tridiagonal of :func:`dc_inverse`, taken at
    c = 1 (the condition number does not depend on c) with its bands
    scaled by their largest entry.  LAPACK dpteqr finds every eigenvalue
    of a positive definite tridiagonal through its bidiagonal factor to
    high relative accuracy (Demmel & Kahan), so the ratio is reliable far
    beyond 1/eps, e.g. ~3.8e29 at (lam=0.6, rho=0.98, n=125).  Raises
    :class:`SingularKernelError` where K^-1 or the ratio leaves double
    range.
    """
    h = _coerce(hyper).require_strict()
    n = _check_order(n)
    if n == 1:
        return 1.0
    kinv = dc_inverse(DcHyperparams(1.0, h.lam, h.rho), n)
    top = kinv.main.max()  # |sub| never exceeds the larger neighbouring main entry
    eig, _, _, info = scipy.linalg.lapack.dpteqr(
        kinv.main / top, kinv.sub / top, np.zeros((1, 1)), compute_z=0
    )
    if info != 0 or not eig[-1] >= np.finfo(float).tiny:
        raise SingularKernelError(
            f"the condition number leaves double precision at lam={h.lam}, "
            f"rho={h.rho}, n={n}; the kernel is numerically singular at this scale"
        )
    return float(eig[0] / eig[-1])


def dc_kernel_gradient(hyper, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise derivatives (dK/dc, dK/dlam, dK/drho), each (n, n).

    With p = (i+j)/2 and q = |i-j|:

        dK/dc   = lam^p rho^q
        dK/dlam = c p lam^(p-1) rho^q
        dK/drho = c lam^p q rho^(q-1)   (zero on the diagonal; finite at
                                         rho = 0 where only q = 1 survives)
    """
    h = _coerce(hyper).require_strict()
    n = _check_order(n)
    i = np.arange(1, n + 1)
    p = (i[:, None] + i[None, :]) / 2.0
    q = np.abs(i[:, None] - i[None, :])
    rho_q = h.rho**q
    dc = h.lam**p * rho_q
    dlam = h.c * p * h.lam ** (p - 1.0) * rho_q
    # q rho^(q-1) with the q = 0 term forced to zero (avoids rho^-1 at rho = 0)
    qrho = np.where(q == 0, 0.0, q * h.rho ** np.maximum(q - 1, 0))
    drho = h.c * h.lam**p * qrho
    return dc, dlam, drho


def dc_kernel_hessian(hyper, n: int) -> np.ndarray:
    """Second derivatives of K in (c, lam, rho) as a (3, 3, n, n) array.

    Index order matches ``dc_kernel_gradient``: 0 = c, 1 = lam, 2 = rho.
    The result is symmetric in its first two axes; d2K/dc2 = 0.
    """
    h = _coerce(hyper).require_strict()
    n = _check_order(n)
    i = np.arange(1, n + 1)
    p = (i[:, None] + i[None, :]) / 2.0
    q = np.abs(i[:, None] - i[None, :])
    rho_q = h.rho**q
    qrho = np.where(q == 0, 0.0, q * h.rho ** np.maximum(q - 1, 0))
    # q (q-1) rho^(q-2), zero for q < 2
    qqrho = np.where(q < 2, 0.0, q * (q - 1) * h.rho ** np.maximum(q - 2, 0))
    out = np.zeros((3, 3, n, n))
    out[0, 1] = out[1, 0] = p * h.lam ** (p - 1.0) * rho_q
    out[0, 2] = out[2, 0] = h.lam**p * qrho
    out[1, 1] = h.c * p * (p - 1.0) * h.lam ** (p - 2.0) * rho_q
    out[1, 2] = out[2, 1] = h.c * p * h.lam ** (p - 1.0) * qrho
    out[2, 2] = h.c * h.lam**p * qqrho
    return out
