"""Dense reference derivatives of the marginal-likelihood objective.

The structured routes (``nll_value_and_gradient``, ``nll_gradient_hessian``)
read every derivative off evaluator C's decay-scaled triangle and the
closed-form tridiagonal AR(1) precision.  The functions here compute the
same derivatives the direct way, with the dense K^-1, the dense
``dc_kernel_gradient`` / ``dc_kernel_hessian`` arrays and solves against the
unscaled triangle R1, and serve as the oracle the structured routes are
checked against.  They raise ``SingularKernelError`` where K^-1 or R1 leaves
double range.
"""

import numpy as np
import scipy.linalg

from dcsysid import (
    dc_inverse,
    dc_kernel_gradient,
    dc_kernel_hessian,
    nll_algorithm_c,
)


def _m_solve(r1, b):
    # (R1^T R1)^-1 b via two triangular solves
    z = scipy.linalg.solve_triangular(r1, b, trans="T")
    return scipy.linalg.solve_triangular(r1, z)


def dense_gradient_hessian(h, sigma2, pre):
    """Gradient and Hessian in (c, lam, rho) by the dense trace form

        dl/deta_i        = tr((X1 - X2) dK_i)
        d2l/deta_i eta_j = tr((X1 - X2) d2K_ij)
                           + tr((X1 dK_i X2 - (X1 - X2) dK_i X1) dK_j)

    with X1 = K^-1 - sigma^2 K^-1 (R1^T R1)^-1 K^-1 and
    X2 = K^-1 R1^-1 R2 (K^-1 R1^-1 R2)^T.
    """
    n = pre.n
    ev = nll_algorithm_c(h, sigma2, pre)
    kinv = dc_inverse(h, n).to_dense()
    x1 = kinv - sigma2 * kinv @ _m_solve(ev.r1, kinv)
    ghat = scipy.linalg.solve_triangular(ev.r1, ev.r2)
    uvec = kinv @ ghat
    x2 = np.outer(uvec, uvec)
    g_mat = x1 - x2
    dks = np.stack(dc_kernel_gradient(h, n))
    d2ks = dc_kernel_hessian(h, n)
    grad = np.array([np.sum(g_mat * dks[i]) for i in range(3)])
    hess = np.empty((3, 3))
    for i in range(3):
        term = x1 @ dks[i] @ x2 - g_mat @ dks[i] @ x1
        for j in range(3):
            hess[i, j] = np.sum(g_mat * d2ks[i, j]) + np.sum(term * dks[j])
    return grad, hess


def dense_sigma2_derivative(h, sigma2, pre):
    """d(objective)/d(sigma^2) with the dense K^-1 and the unscaled R1."""
    n = pre.n
    ev = nll_algorithm_c(h, sigma2, pre)
    kinv = dc_inverse(h, n).to_dense()
    z = _m_solve(ev.r1, pre.r_d1.T @ pre.r_d2)
    return float(
        (pre.n_samples - n) / sigma2
        + np.trace(_m_solve(ev.r1, kinv))
        + (z @ (kinv @ z)) / sigma2
        - ev.r_scalar**2 / sigma2**2
    )
