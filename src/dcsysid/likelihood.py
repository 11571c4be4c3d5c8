"""Marginal-likelihood machinery for DC-kernel FIR identification.

The objective (negative log marginal likelihood up to constants) is

    l(c, lam, rho) = log det(Phi^T K Phi + sigma^2 I_N)
                     + Y^T (Phi^T K Phi + sigma^2 I_N)^-1 Y,

minimized over the kernel hyperparameters with sigma^2 held fixed.  A
hyperparameter search evaluates l thousands of times, so everything here
is built around a one-off compression of the data followed by cheap
per-evaluation work:

* ``preprocess``        builds the N x (n+1) block [Phi^T  Y] once,
                        straight from u and y, and QR-factors it in place
                        (positive-diagonal convention).  This is the only
                        pass over the data: everything below touches only
                        the (n+1) x (n+1) R factor.
* ``ls_estimate``       plain least squares and its residual variance,
                        read off that triangle.
* ``nll_naive``         the O(N^3) dense definition above; reference
                        oracle only.

All three evaluators reduce to one QR of a pair of triangles (see
``_pair_qr``): the (n+1)-square triangle [r_d1 F  r_d2], F an upper-
triangular factor of the prior, on top of an upper-triangular n x n
prior block, with zeros under r_d2.  LAPACK dtpqrt factors the pair
without touching the zeros of a dense (2n+1) x (n+1) stack, and the
objective is read off the result,

    r^2/sigma^2 + (N - n) log sigma^2 + [log det of the prior] + 2 log det R1.

They differ only in the blocks they hand over:

* ``nll_algorithm_a``   r_d1 F and sigma I, with F the *upper* factor of a
                        numerical Cholesky of the dense kernel,
                        F = J chol(J K J) J (J the order reversal); in
                        g = F z the kernel determinant is absorbed into
                        the triangle, so there is no prior term.  This
                        is the conventional pipeline the stable
                        evaluator is measured against.
* ``nll_algorithm_b``   the same with F = U W^(1/2) written down in closed
                        form instead of factorizing.
* ``nll_algorithm_c``   the stable evaluator: writes the kernel as
                        K = S T S with S = diag(lam^(i/2)) and T the AR(1)
                        covariance, substitutes g = S g~, and stacks the
                        closed-form bidiagonal factor D~ of T^-1 under the
                        scaled data,

                            QR of [ r_d1 S       r_d2 ]
                                  [ sigma D~^T   0    ]   ->  R1~, R2, r

                        (the unscaled stack [r_d1 r_d2; sigma D^T 0] with
                        K^-1 = D D^T, times diag(S, 1)), with the
                        closed-form log det T = n log c
                        + (n-1) log(1 - rho^2) as the prior term: the lam
                        terms of log det K and log det R1 cancel exactly.
                        Only 3 distinct scalars and n powers of lam are
                        created before the QR, the kernel is never formed
                        or factorized numerically, and nothing overflows
                        when lam^n underflows.

``map_estimate`` back-substitutes R1~ g~ = R2 and returns g = S g~.

Derivatives stay in the same decay-scaled coordinates, so they are finite
wherever C's value is.  With W = R1~^-1 (one LAPACK dtrtri),
M~^-1 = W W^T, g~ = W R2 and the tridiagonal, closed-form
B_eta = S (dK^-1/d eta) S (B_c = -T^-1/c, B_lam[i, j] =
-(i+j)/(2 lam) T^-1[i, j], B_rho = dT^-1/d rho, T^-1 the AR(1) precision):

    dl/d eta     = d log det K/d eta + sigma^2 tr(M~^-1 B_eta) + g~^T B_eta g~
    dl/d sigma^2 = (N - n)/sigma^2 + tr(M~^-1 T^-1) + g~^T T^-1 g~ / sigma^2
                   - r^2/sigma^4

(the trace form of Rasmussen & Williams 2006, sec. 5.4).  The traces read
only the main and first off-diagonal of M~^-1, row dot products of W.
``nll_value_and_gradient`` returns C's value with this gradient;
``nll_gradient_hessian`` adds the Hessian, whose traces
tr(M~^-1 B_i M~^-1 B_j) take the dense W W^T at O(n^2) each.  No dense
kernel, K^-1 or derivative array is built.

Every evaluator returns an :class:`ObjectiveEvaluation` carrying, besides
the value and QR pieces, an *analytic* flop tally (the paper's closed
per-step counts for a dense stack QR, not the flops LAPACK executes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from . import kernel as _kernel
from .kernel import DcHyperparams, SingularKernelError, _coerce
from .regression import IllPosedError, RegressionData, _fill_lags

__all__ = [
    "NumericalError",
    "RankDeficiencyError",
    "PreprocessedData",
    "ObjectiveEvaluation",
    "preprocess",
    "preprocess_matrices",
    "ls_estimate",
    "nll_naive",
    "nll_algorithm_a",
    "nll_algorithm_b",
    "nll_algorithm_c",
    "map_estimate",
    "nll_value_and_gradient",
    "nll_gradient_hessian",
    "preprocessing_flops",
    "algorithm_a_flops",
    "algorithm_b_flops",
    "algorithm_c_flops",
]


class NumericalError(RuntimeError):
    """Factorization or triangular solve failed (singular/indefinite matrix)."""


class RankDeficiencyError(IllPosedError):
    """Data matrix is numerically rank deficient; ``column`` is the offender."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


@dataclass(eq=False)
class PreprocessedData:
    """Compressed data: thin-QR triangle of [Phi^T Y], plus sizes.

    r_d1 is the (n+1) x n leading block, r_d2 the trailing (n+1)-column.
    """

    n: int
    n_samples: int
    r_d1: np.ndarray
    r_d2: np.ndarray
    y_norm2: float


@dataclass(eq=False)
class ObjectiveEvaluation:
    """One objective evaluation: value, QR pieces and analytic flops."""

    algorithm: str
    value: float
    r1: np.ndarray
    r2: np.ndarray
    r_scalar: float
    flops: dict


# block size of the evaluators' dtpqrt, chosen for C by timing nb in 1..64:
# 8 was fastest at n = 125 and close to the best for n in 10..500, with 1
# and 2 BLAS threads.  LAPACK requires nb <= n + 1.
_TPQRT_BLOCK = 8


def _positive_diagonal(r: np.ndarray) -> np.ndarray:
    """Flip rows of a QR triangle so that its diagonal is nonnegative."""
    s = np.sign(np.diagonal(r)).copy()
    s[s == 0] = 1.0
    return s[:, None] * r


def _check_sigma2(sigma2: float) -> float:
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")
    return float(sigma2)


def _compress(block: np.ndarray, n_samples: int) -> PreprocessedData:
    """Thin QR of the Fortran-ordered N x (n+1) block [Phi^T Y], overwriting it."""
    big_n, n = block.shape[0], block.shape[1] - 1
    if big_n < n + 1:
        raise RankDeficiencyError(
            f"preprocessing needs N >= n + 1 rows, got N={big_n}, n={n}"
        )
    y_norm2 = float(block[:, n] @ block[:, n])
    _, r = scipy.linalg.qr(block, mode="raw", overwrite_a=True, check_finite=False)
    r = _positive_diagonal(r)
    # Phi^T must have full column rank for a unique estimate; the trailing
    # (Y) column may legitimately be dependent (noise-free data), so only
    # the first n diagonal entries are checked.
    diag = np.abs(np.diagonal(r)[:n])
    tol = max(big_n, n + 1) * np.finfo(float).eps * (diag.max() if n else 0.0)
    bad = np.flatnonzero(diag <= tol)
    if bad.size:
        raise RankDeficiencyError(
            f"regressor column {bad[0]} is numerically dependent on the others; "
            "use more samples or a richer input",
            column=int(bad[0]),
        )
    return PreprocessedData(
        n=n, n_samples=int(n_samples), r_d1=r[:, :n], r_d2=r[:, n], y_norm2=y_norm2
    )


def preprocess_matrices(
    phi_t: np.ndarray, y: np.ndarray, n_samples: int | None = None
) -> PreprocessedData:
    """Thin QR of [Phi^T Y] for a given Phi^T; see :func:`preprocess`.

    ``n_samples`` overrides the recorded sample count.  Pass it when the
    inputs are themselves a compressed triangle [r_d1 r_d2] rather than
    raw data: the objective's (N - n) log sigma^2 term needs the original
    N, and with it the evaluators return identical values on the
    compressed representation.
    """
    phi_t = np.asarray(phi_t, dtype=float)
    y = np.asarray(y, dtype=float)
    big_n, n = phi_t.shape
    if y.shape != (big_n,):
        raise ValueError(f"y must have shape ({big_n},), got {y.shape}")
    if n_samples is None:
        n_samples = big_n
    elif n_samples < big_n:
        raise ValueError(f"n_samples override {n_samples} is below the row count {big_n}")
    block = np.empty((big_n, n + 1), order="F")
    block[:, :n] = phi_t
    block[:, n] = y
    return _compress(block, n_samples)


def preprocess(data: RegressionData) -> PreprocessedData:
    """Compress a dataset once; all objective evaluations reuse the result.

    Writes the lagged inputs and y straight into one N x (n+1) block
    [Phi^T Y] and computes its thin QR [Phi^T Y] = Q_d [r_d1 r_d2]
    (positive diagonal) in place, discarding Q_d: the products
    Phi Phi^T = r_d1^T r_d1, Phi Y = r_d1^T r_d2 and ||Y||^2 = ||r_d2||^2
    are all the evaluators and :func:`ls_estimate` need, independent of N.
    """
    n = data.n
    block = np.zeros((data.n_samples, n + 1), order="F")
    _fill_lags(block[:, :n], data.u)
    block[:, n] = data.y
    return _compress(block, data.n_samples)


def ls_estimate(pre: PreprocessedData) -> tuple[np.ndarray, float]:
    """Plain least squares read off the compressed triangle.

    Returns (g_ls, sigma2_hat) with r_d1[:n] g_ls = r_d2[:n] and
    sigma2_hat = r_d2[n]^2 / (N - n), r_d2[n] being the residual norm.

    Raises :class:`IllPosedError` if Phi^T is numerically rank deficient by
    NumPy's least-squares rank rule: fewer than n singular values above
    eps * max(N, n) * s_max, taken from the triangle, whose singular values
    are those of Phi^T.  (:func:`preprocess` already refuses N <= n.)
    """
    n, big_n = pre.n, pre.n_samples
    r1 = pre.r_d1[:n]
    s = np.linalg.svd(r1, compute_uv=False)
    rank = int(np.count_nonzero(s > np.finfo(float).eps * max(big_n, n) * s[0]))
    if rank < n:
        raise IllPosedError(
            f"regressor is rank deficient (rank {rank} < n={n}); "
            "use a longer or richer input, or a smaller model order"
        )
    g_ls = scipy.linalg.solve_triangular(r1, pre.r_d2[:n])
    return g_ls, float(pre.r_d2[n] ** 2) / (big_n - n)


# --- analytic flop tallies (closed per-step counts) ---------------------------


def preprocessing_flops(n: int, n_samples: int) -> float:
    """Thin QR of the N x (n+1) data block."""
    return 2.0 * (n + 1) ** 2 * (n_samples - (n + 1) / 3.0)


def _stack_qr_flops(n: int) -> float:
    # straightforward thin QR of the (2n+1) x (n+1) evaluation stack
    return 2.0 * (n + 1) ** 2 * (2 * n + 1 - (n + 1) / 3.0)


def algorithm_a_flops(n: int) -> dict:
    stages = {
        "cholesky": n**3 / 3.0 + n**2 / 2.0 + n / 6.0,
        "matmul": float(n**2 * (n + 1)),
        "qr": _stack_qr_flops(n),
        "objective": float(2 * n + 6),
    }
    stages["total"] = sum(stages.values())
    return stages


def algorithm_b_flops(n: int) -> dict:
    stages = {
        "matmul": float(n**2 * (n + 1)),
        "qr": _stack_qr_flops(n),
        "objective": float(2 * n + 6),
    }
    stages["total"] = sum(stages.values())
    return stages


def algorithm_c_flops(n: int) -> dict:
    stages = {
        "qr": _stack_qr_flops(n),
        "objective": float(n + 20),
    }
    stages["total"] = sum(stages.values())
    return stages


# --- evaluators ---------------------------------------------------------------


def nll_naive(hyper, sigma2: float, data: RegressionData) -> float:
    """The defining dense formula; O(N^3) reference oracle.

    Unlike the fast evaluators this accepts the full hyperparameter box
    (the kernel is only built, never inverted), so c = 0 is legal.
    """
    h = _coerce(hyper)
    sigma2 = _check_sigma2(sigma2)
    k = _kernel.build_dc_kernel(h, data.n)
    phi_t = data.phi_t
    s = phi_t @ k @ phi_t.T
    s[np.diag_indices_from(s)] += sigma2
    try:
        low = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:  # cannot happen for sigma2 > 0
        raise NumericalError("system matrix is not positive definite") from exc
    half = scipy.linalg.solve_triangular(low, data.y, lower=True)
    return 2.0 * float(np.sum(np.log(np.diagonal(low)))) + float(half @ half)


def _pair_qr(
    top_left: np.ndarray, bottom: np.ndarray, pre: PreprocessedData
) -> tuple[np.ndarray, np.ndarray, float]:
    """Triangle of the evaluation stack [top_left r_d2; bottom 0], shared by A, B and C.

    ``top_left`` is the (n+1) x n upper-trapezoidal product of r_d1 with an
    upper-triangular factor, ``bottom`` the n x n upper-triangular prior
    block.  The top block is then the (n+1)-square triangle and the bottom
    block upper trapezoidal, so LAPACK xTPQRT factors the pair without
    touching the zeros of a dense (2n+1) x (n+1) stack.  Returns
    ``(r1, r2, r)`` in the positive-diagonal convention.
    """
    n = pre.n
    top = np.empty((n + 1, n + 1), order="F")
    top[:, :n] = top_left
    top[:, n] = pre.r_d2
    pair = np.zeros((n, n + 1), order="F")
    pair[:, :n] = bottom
    r, _, _, _ = scipy.linalg.lapack.dtpqrt(
        n, min(_TPQRT_BLOCK, n + 1), top, pair, overwrite_a=True, overwrite_b=True
    )
    r = _positive_diagonal(r)
    if np.any(np.diagonal(r)[:n] <= 0):
        raise NumericalError("stacked QR produced a singular triangle")
    return r[:n, :n], r[:n, n], float(r[n, n])


def _objective(
    r1: np.ndarray, r: float, sigma2: float, pre: PreprocessedData, *logdet_prior: float
) -> float:
    """r^2/sigma^2 + (N - n) log sigma^2 + [logdet_prior terms] + 2 log det r1.

    The prior's log-determinant terms are added one by one, in order.
    """
    value = r**2 / sigma2 + (pre.n_samples - pre.n) * np.log(sigma2)
    for term in logdet_prior:
        value += term
    return float(value + 2.0 * float(np.sum(np.log(np.diagonal(r1)))))


def nll_algorithm_a(hyper, sigma2: float, pre: PreprocessedData) -> ObjectiveEvaluation:
    """Conventional evaluator: numerical Cholesky of the dense kernel.

    Steps: (1) build K and factorize it numerically (no closed forms) as
    K = F F^T with F upper triangular, F = J chol(J K J) J for the order
    reversal J; (2) multiply the factor into the compressed data; (3) QR
    of the pair [r_d1 F r_d2; sigma I 0] (see :func:`_pair_qr`);
    (4) evaluate.  In g = F z the kernel determinant is absorbed into the
    triangle.  The factorization is the vulnerable step: it fails once the
    trailing entries of K underflow (lam^n out of double range).
    """
    h = _coerce(hyper).require_strict()
    sigma2 = _check_sigma2(sigma2)
    k = _kernel.build_dc_kernel(h, pre.n)
    try:
        factor = np.linalg.cholesky(k[::-1, ::-1])[::-1, ::-1]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "numerical Cholesky of the kernel matrix failed "
            f"(ill-conditioned at c={h.c}, lam={h.lam}, rho={h.rho}, n={pre.n})"
        ) from exc
    r1, r2, r_scalar = _pair_qr(pre.r_d1 @ factor, np.sqrt(sigma2) * np.eye(pre.n), pre)
    return ObjectiveEvaluation(
        algorithm="a",
        value=_objective(r1, r_scalar, sigma2, pre),
        r1=r1,
        r2=r2,
        r_scalar=r_scalar,
        flops=algorithm_a_flops(pre.n),
    )


def nll_algorithm_b(hyper, sigma2: float, pre: PreprocessedData) -> ObjectiveEvaluation:
    """Algorithm A with the factorization step replaced by the closed form U W^(1/2)."""
    h = _coerce(hyper).require_strict()
    sigma2 = _check_sigma2(sigma2)
    factor = _kernel.dc_cholesky_factor(h, pre.n)
    r1, r2, r_scalar = _pair_qr(pre.r_d1 @ factor, np.sqrt(sigma2) * np.eye(pre.n), pre)
    return ObjectiveEvaluation(
        algorithm="b",
        value=_objective(r1, r_scalar, sigma2, pre),
        r1=r1,
        r2=r2,
        r_scalar=r_scalar,
        flops=algorithm_b_flops(pre.n),
    )


def _stacked_qr_c(
    h: DcHyperparams, sigma2: float, pre: PreprocessedData
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Triangle of evaluator C's stack, built on the decay-scaled coordinates.

    The DC kernel is K = S T S with S = diag(lam^(i/2)) and T the AR(1)
    covariance c rho^|i-j|, so K^-1 = D D^T with D = S^-1 D~, where D~ is
    the bidiagonal inverse factor of T: diagonal 1/sqrt(c (1 - rho^2))
    (last entry 1/sqrt(c)) and subdiagonal -rho times the diagonal.  In
    the coordinates g = S g~ the stack [r_d1 r_d2; sigma D^T 0] becomes

        [ r_d1 S      r_d2 ]     = [ r_d1 r_d2; sigma D^T 0 ] diag(S, 1),
        [ sigma D~^T  0    ]

    where nothing overflows when lam^n underflows (D itself carries
    lam^(-n/2); the smallest powers in S may underflow to 0 harmlessly).
    The pair is factored by :func:`_pair_qr`.

    Returns ``(r1s, r2, r, scale)`` with ``scale`` the diagonal of S and
    R1 = r1s S^-1, in the positive-diagonal convention.
    """
    n = pre.n
    scale = h.lam ** (np.arange(1, n + 1) / 2.0)
    d = np.sqrt(sigma2 / (h.c * (1.0 - h.rho**2)))
    bottom = np.zeros((n, n))
    idx = np.arange(n)
    bottom[idx, idx] = d
    bottom[n - 1, n - 1] = np.sqrt(sigma2 / h.c)  # T's last weight has no (1 - rho^2)
    # D~^T is upper bidiagonal: row j also carries D~[j+1, j] = -rho d
    bottom[idx[:-1], idx[:-1] + 1] = -h.rho * d
    return (*_pair_qr(pre.r_d1 * scale, bottom, pre), scale)


def _unscaled_r1(r1s: np.ndarray, h: DcHyperparams) -> np.ndarray:
    """R1 = r1s diag(lam^(-i/2)), the triangle of the unscaled stack."""
    n = r1s.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or 0 * inf below the diagonal
        r1 = r1s * h.lam ** (-np.arange(1, n + 1) / 2.0)
    if not np.all(np.isfinite(r1)):
        raise SingularKernelError(
            f"the triangle R1 = R1~ diag(lam^(-i/2)) overflows double precision "
            f"at lam={h.lam}, n={n}"
        )
    return r1


def _value_c(
    r1s: np.ndarray, r: float, h: DcHyperparams, sigma2: float, pre: PreprocessedData
) -> float:
    """Evaluator C's value, with the closed-form log det T as prior terms."""
    n = pre.n
    return _objective(r1s, r, sigma2, pre, n * np.log(h.c), (n - 1) * np.log1p(-h.rho**2))


def nll_algorithm_c(hyper, sigma2: float, pre: PreprocessedData) -> ObjectiveEvaluation:
    """Stable evaluator built on the closed-form factor of the inverse kernel.

    Steps: (1) write down the bidiagonal factor D~ of the inverse AR(1)
    part of the kernel (three distinct scalars) and scale the data columns
    by lam^(i/2); (2) QR of the triangular-pentagonal pair
    [r_d1 S r_d2; sigma D~^T 0] (see :func:`_stacked_qr_c`); (3) assemble
    the value from r, the triangle's log-diagonal and the closed-form
    log-determinant of the AR(1) part:

        r^2/sigma^2 + (N - n) log sigma^2 + n log c
        + (n-1) log(1 - rho^2) + 2 log det R1~.

    The (n(n+1)/2) log lam term of log det K cancels exactly against the
    scaling of R1~, so the value stays finite wherever lam^n underflows.
    No dense kernel, no numerical factorization.  ``r1`` is returned
    unscaled (R1 = R1~ diag(lam^(-i/2))); where that overflows,
    :class:`SingularKernelError` is raised.  ``flops`` is the paper's
    analytic model of a dense stack QR, not the count dtpqrt executes.
    """
    h = _coerce(hyper).require_strict()
    sigma2 = _check_sigma2(sigma2)
    r1s, r2, r_scalar, _ = _stacked_qr_c(h, sigma2, pre)
    return ObjectiveEvaluation(
        algorithm="c",
        value=_value_c(r1s, r_scalar, h, sigma2, pre),
        r1=_unscaled_r1(r1s, h),
        r2=r2,
        r_scalar=r_scalar,
        flops=algorithm_c_flops(pre.n),
    )


def map_estimate(hyper, sigma2: float, pre: PreprocessedData) -> np.ndarray:
    """MAP impulse-response estimate by back substitution of R1 g = R2.

    Solved in the decay-scaled coordinates of :func:`_stacked_qr_c`:
    g = diag(lam^(i/2)) R1~^-1 R2, finite wherever the objective is.
    """
    h = _coerce(hyper).require_strict()
    sigma2 = _check_sigma2(sigma2)
    r1s, r2, _, scale = _stacked_qr_c(h, sigma2, pre)
    try:
        return scale * scipy.linalg.solve_triangular(r1s, r2)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError("triangular solve for the MAP estimate failed") from exc


# --- derivatives ---------------------------------------------------------------
#
# A symmetric tridiagonal matrix B is held as one band vector of length
# 2n - 1: its main diagonal, then its first off-diagonal.  For the band
# vectors v of a symmetric M and q of g g^T, with off-diagonals doubled,
# tr(M B) = B @ v and g^T B g = B @ q, so a stack of bands is traced in one
# product.


def _ar1_precision(h: DcHyperparams, n: int, orders: int) -> np.ndarray:
    """Band vectors of d^k T^-1 / d rho^k for k < orders, one per row.

    T^-1 is the closed-form tridiagonal precision of the AR(1) part
    T = c rho^|i-j| of the kernel: with f = 1/(1 - rho^2), its main
    diagonal is (f/c) (1, 1 + rho^2, ..., 1 + rho^2, 1) and its
    off-diagonal -rho f/c; at n = 1 it is 1/c, which does not depend on rho.
    """
    rho = h.rho
    f = 1.0 / (1.0 - rho**2)
    # (ends of the main diagonal, its interior, the off-diagonal) of each order
    coefficients = (
        (f, (1.0 + rho**2) * f, -rho * f),
        (2.0 * rho * f**2, 4.0 * rho * f**2, -(1.0 + rho**2) * f**2),
        ((2.0 + 6.0 * rho**2) * f**3, (4.0 + 12.0 * rho**2) * f**3,
         -2.0 * rho * (3.0 + rho**2) * f**3),
    )
    out = np.empty((orders, 2 * n - 1))
    for row, (end, inner, off) in zip(out, coefficients):
        row[:n] = inner / h.c
        row[n:] = off / h.c
        row[0] = row[n - 1] = end / h.c
    if n == 1:
        out[:, 0] = 0.0
        out[0, 0] = 1.0 / h.c
    return out


def _band_positions(n: int) -> np.ndarray:
    """(i + j)/2, 1-based, at each entry of a band vector."""
    return np.concatenate((np.arange(1.0, n + 1), np.arange(1.5, n)))


def _band_matmul(m: np.ndarray, band: np.ndarray) -> np.ndarray:
    """M B for a dense M and a band vector, in O(n^2)."""
    n = m.shape[0]
    sub = band[n:]
    out = m * band[:n]
    out[:, 1:] += m[:, :-1] * sub
    out[:, :-1] += m[:, 1:] * sub
    return out


def _band_vec(band: np.ndarray, g: np.ndarray) -> np.ndarray:
    """B g for a band vector."""
    n = g.shape[0]
    sub = band[n:]
    out = band[:n] * g
    out[:-1] += sub * g[1:]
    out[1:] += sub * g[:-1]
    return out


def _value_gradient_pieces(hyper, sigma2: float, pre: PreprocessedData):
    """Value and gradient in (c, lam, rho, sigma^2), with what the Hessian reuses.

    One stacked QR (as evaluator C) gives R1~, R2 and r; one LAPACK dtrtri
    gives W = R1~^-1, so M~^-1 = W W^T for M~ = R1~^T R1~ = S M S, and
    g~ = W R2 (the MAP estimate is S g~).  Since
    K^-1 = S^-1 T^-1 S^-1 with S = diag(lam^(i/2)), each
    B_eta = S (dK^-1/d eta) S is tridiagonal in closed form:
    B_c = -T^-1/c, B_lam[i, j] = -(i+j)/(2 lam) T^-1[i, j] and
    B_rho = dT^-1/d rho.  The traces read only the main and first
    off-diagonal of M~^-1, row dot products of W.

    Returns ``(value, grad, w, g, rows, x)``: ``rows`` holds the band
    vectors of T^-1, dT^-1/d rho and (i+j)/2 T^-1, ``x`` those of M~^-1
    and g~ g~^T (off-diagonals doubled).
    """
    h = _coerce(hyper).require_strict()
    sigma2 = _check_sigma2(sigma2)
    n = pre.n
    r1s, r2, r, _ = _stacked_qr_c(h, sigma2, pre)
    w, info = scipy.linalg.lapack.dtrtri(r1s)
    if info != 0:
        raise NumericalError("inverting the stacked-QR triangle failed")
    g = w @ r2
    x = np.empty((2, 2 * n - 1))
    np.einsum("ij,ij->i", w, w, out=x[0, :n])
    np.einsum("ij,ij->i", w[:-1], w[1:], out=x[0, n:])
    np.multiply(g, g, out=x[1, :n])
    np.multiply(g[:-1], g[1:], out=x[1, n:])
    x[:, n:] *= 2.0
    prec = _ar1_precision(h, n, 2)
    rows = np.vstack((prec, _band_positions(n) * prec[0]))
    (tr_t, q_t), (tr_rho, q_rho), (tr_pos, q_pos) = (rows @ x.T).tolist()
    grad = np.array([
        n / h.c - (sigma2 * tr_t + q_t) / h.c,
        n * (n + 1) / (2.0 * h.lam) - (sigma2 * tr_pos + q_pos) / h.lam,
        -2.0 * h.rho * (n - 1) / (1.0 - h.rho**2) + sigma2 * tr_rho + q_rho,
        (pre.n_samples - n) / sigma2 + tr_t + q_t / sigma2 - r**2 / sigma2**2,
    ])
    return _value_c(r1s, r, h, sigma2, pre), grad, w, g, rows, x


def nll_value_and_gradient(
    hyper, sigma2: float, pre: PreprocessedData
) -> tuple[float, np.ndarray]:
    """Objective value and its gradient in (c, lam, rho, sigma^2).

    The value is evaluator C's, bit for bit (same stacked QR, same
    summation).  The gradient comes from the same triangle and one
    triangular inverse W = R1~^-1, in the decay-scaled coordinates
    (see :func:`_value_gradient_pieces`):

        dl/d eta     = d log det K/d eta + sigma^2 tr(M~^-1 B_eta) + g~^T B_eta g~
        dl/d sigma^2 = (N - n)/sigma^2 + tr(M~^-1 T^-1) + g~^T T^-1 g~ / sigma^2
                       - r^2/sigma^4

    The cost past the QR is n^3/3 flops for dtrtri plus O(n^2); no dense
    kernel is formed, and the gradient is finite wherever the value is.
    """
    value, grad, *_ = _value_gradient_pieces(hyper, sigma2, pre)
    return value, grad


def nll_gradient_hessian(
    hyper, sigma2: float, pre: PreprocessedData
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and Hessian of the objective in (c, lam, rho).

    The gradient is that of :func:`nll_value_and_gradient`.  The Hessian
    adds the dense M~^-1 = W W^T and the closed-form tridiagonal
    B_ij = S (d^2 K^-1/d eta_i d eta_j) S:

        d^2 l/d eta_i d eta_j = d^2 log det K + sigma^2 tr(M~^-1 B_ij)
                                - sigma^4 tr(M~^-1 B_i M~^-1 B_j)
                                + g~^T B_ij g~
                                - 2 sigma^2 (B_i g~)^T M~^-1 (B_j g~),

    each trace O(n^2).  The kernel is never formed, inverted or
    factorized.
    """
    _, grad, w, g, (t, t_rho, pos_t), x = _value_gradient_pieces(hyper, sigma2, pre)
    h, sigma2, n = _coerce(hyper), float(sigma2), pre.n
    pos = _band_positions(n)
    first = (-t / h.c, -pos_t / h.lam, t_rho)
    pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    second = np.stack((
        2.0 / h.c**2 * t,
        pos_t / (h.c * h.lam),
        -t_rho / h.c,
        (pos + 1.0) * pos_t / h.lam**2,
        -pos / h.lam * t_rho,
        _ar1_precision(h, n, 3)[2],
    ))
    logdet = np.diag([
        -n / h.c**2,
        -n * (n + 1) / (2.0 * h.lam**2),
        -2.0 * (n - 1) * (1.0 + h.rho**2) / (1.0 - h.rho**2) ** 2,
    ])
    traces, quads = second @ x[0], second @ x[1]
    m_inv = w @ w.T
    mb = [_band_matmul(m_inv, band) for band in first]
    wb = [w.T @ _band_vec(band, g) for band in first]
    hess = np.empty((3, 3))
    for k, (i, j) in enumerate(pairs):
        hess[i, j] = hess[j, i] = (
            logdet[i, j]
            + sigma2 * traces[k]
            - sigma2**2 * float(np.sum(mb[i] * mb[j].T))
            + quads[k]
            - 2.0 * sigma2 * float(wb[i] @ wb[j])
        )
    return grad[:3], hess
