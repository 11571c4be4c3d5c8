import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from dcsysid import (
    DcHyperparams,
    ParameterError,
    SingularKernelError,
    TridiagonalMatrix,
    build_dc_kernel,
    build_tc_kernel,
    dc_cholesky_factor,
    dc_condition_number,
    dc_factorize,
    dc_inverse,
    dc_inverse_cholesky_factors,
    dc_kernel_gradient,
    dc_kernel_hessian,
    dc_logdet,
)

strict_hypers = st.builds(
    DcHyperparams,
    c=st.floats(1e-3, 1e3),
    lam=st.floats(0.05, 0.98),
    rho=st.floats(-0.95, 0.95),
)


def kernel_reference(h, n):
    """Elementwise definition, written as plain loops."""
    k = np.empty((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            k[i - 1, j - 1] = h.c * h.lam ** ((i + j) / 2.0) * h.rho ** abs(i - j)
    return k


class TestHyperparams:
    def test_box_validation(self):
        with pytest.raises(ParameterError):
            DcHyperparams(c=-0.1, lam=0.5, rho=0.0)
        with pytest.raises(ParameterError):
            DcHyperparams(c=1.0, lam=1.0, rho=0.0)
        with pytest.raises(ParameterError):
            DcHyperparams(c=1.0, lam=-0.2, rho=0.0)
        with pytest.raises(ParameterError):
            DcHyperparams(c=1.0, lam=0.5, rho=1.2)
        with pytest.raises(ParameterError):
            DcHyperparams(c=np.nan, lam=0.5, rho=0.0)
        with pytest.raises(ParameterError):
            DcHyperparams(c="one", lam=0.5, rho=0.0)

    def test_boundary_is_legal_for_construction(self):
        h = DcHyperparams(c=0.0, lam=0.0, rho=1.0)
        assert build_dc_kernel(h, 3).shape == (3, 3)

    def test_require_strict_rejects_boundary(self):
        for c, lam, rho in [(0.0, 0.5, 0.2), (1.0, 0.0, 0.2), (1.0, 0.5, 1.0), (1.0, 0.5, -1.0)]:
            with pytest.raises(SingularKernelError):
                DcHyperparams(c=c, lam=lam, rho=rho).require_strict()

    def test_fields_coerced_to_float(self):
        h = DcHyperparams(c=np.float64(1.0), lam=np.float32(0.5), rho=0)
        assert type(h.c) is float and type(h.lam) is float and type(h.rho) is float


class TestBuildKernel:
    def test_matches_elementwise_definition(self):
        h = DcHyperparams(c=2.3, lam=0.77, rho=-0.41)
        np.testing.assert_allclose(build_dc_kernel(h, 9), kernel_reference(h, 9), rtol=1e-14)

    def test_symmetric_positive_semidefinite(self):
        h = DcHyperparams(c=1.0, lam=0.9, rho=0.8)
        k = build_dc_kernel(h, 30)
        np.testing.assert_array_equal(k, k.T)
        assert np.linalg.eigvalsh(k).min() > -1e-12 * np.abs(k).max()

    def test_tc_specialization(self):
        # two float routes to the same closed form; equal to rounding
        c, lam, n = 1.7, 0.64, 15
        tc = build_tc_kernel(c, lam, n)
        dc = build_dc_kernel(DcHyperparams(c=c, lam=lam, rho=np.sqrt(lam)), n)
        np.testing.assert_allclose(tc, dc, rtol=1e-13)
        i, j = np.ogrid[1 : n + 1, 1 : n + 1]
        np.testing.assert_array_equal(tc, c * lam ** np.maximum(i, j).astype(float))

    def test_scale_covariance_exact(self):
        base = build_dc_kernel(DcHyperparams(c=1.0, lam=0.6, rho=0.25), 12)
        scaled = build_dc_kernel(DcHyperparams(c=3.5, lam=0.6, rho=0.25), 12)
        np.testing.assert_array_equal(scaled, 3.5 * base)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            build_dc_kernel(DcHyperparams(c=1.0, lam=0.5, rho=0.1), 0)

    def test_accepts_plain_triple(self):
        np.testing.assert_array_equal(
            build_dc_kernel((1.2, 0.5, 0.3), 4),
            build_dc_kernel(DcHyperparams(c=1.2, lam=0.5, rho=0.3), 4),
        )


class TestFactorizations:
    @settings(max_examples=40, deadline=None)
    @given(h=strict_hypers, n=st.integers(1, 64))
    def test_reconstructions(self, h, n):
        k = build_dc_kernel(h, n)
        fact = dc_factorize(h, n)
        kinv = dc_inverse(h, n).to_dense()
        scale_k = np.abs(k).max()
        scale_inv = np.abs(kinv).max()
        assert np.abs(fact.u @ (fact.w[:, None] * fact.u.T) - k).max() <= 1e-12 * scale_k
        assert np.abs((fact.l * fact.v) @ fact.l.T - kinv).max() <= 1e-10 * scale_inv
        assert (
            np.abs(fact.d_cholesky @ fact.d_cholesky.T - kinv).max() <= 1e-10 * scale_inv
        )

    def test_unit_triangular_shapes(self):
        h = DcHyperparams(c=0.8, lam=0.7, rho=-0.5)
        fact = dc_factorize(h, 6)
        np.testing.assert_array_equal(np.diag(fact.u), np.ones(6))
        np.testing.assert_array_equal(np.diag(fact.l), np.ones(6))
        assert np.allclose(fact.u, np.triu(fact.u))
        assert np.allclose(fact.l, np.tril(fact.l))
        assert fact.w.shape == (6,) and fact.v.shape == (6,)
        assert np.all(fact.w > 0) and np.all(fact.v > 0)

    def test_cholesky_factor_matches_numerical(self):
        h = DcHyperparams(c=1.3, lam=0.85, rho=0.55)
        k = build_dc_kernel(h, 20)
        f = dc_cholesky_factor(h, 20)
        np.testing.assert_allclose(f @ f.T, k, rtol=0, atol=1e-13 * np.abs(k).max())

    def test_inverse_factor_scalars(self):
        h = DcHyperparams(c=2.0, lam=0.8, rho=0.3)
        n = 10
        d_main, d_sub = dc_inverse_cholesky_factors(h, n)
        assert d_main.shape == (n,) and d_sub.shape == (n - 1,)
        d = np.diag(d_main) + np.diag(d_sub, -1)
        np.testing.assert_allclose(
            d @ d.T, dc_inverse(h, n).to_dense(), rtol=1e-12
        )

    def test_strict_required(self):
        with pytest.raises(SingularKernelError):
            dc_factorize(DcHyperparams(c=0.0, lam=0.5, rho=0.2), 4)
        with pytest.raises(SingularKernelError):
            dc_inverse(DcHyperparams(c=1.0, lam=0.5, rho=1.0), 4)

    def test_unrepresentable_inverse_is_reported(self):
        # lam^-n overflows double precision: numerically singular, named as such
        h = DcHyperparams(c=1.0, lam=0.01, rho=0.3)
        with pytest.raises(SingularKernelError):
            dc_inverse(h, 300)
        with pytest.raises(SingularKernelError):
            dc_inverse_cholesky_factors(h, 300)


class TestInverse:
    def test_identity_product(self):
        h = DcHyperparams(c=1.0, lam=0.75, rho=0.6)
        for n in (1, 2, 3, 8, 32):
            k = build_dc_kernel(h, n)
            kinv = dc_inverse(h, n).to_dense()
            assert np.abs(k @ kinv - np.eye(n)).max() <= 1e-8

    def test_exactly_banded(self):
        inv = dc_inverse(DcHyperparams(c=1.0, lam=0.5, rho=0.4), 7)
        dense = inv.to_dense()
        off = np.abs(np.subtract.outer(np.arange(7), np.arange(7)))
        np.testing.assert_array_equal(dense[off > 1], 0.0)

    def test_order_one(self):
        h = DcHyperparams(c=2.0, lam=0.5, rho=0.7)
        inv = dc_inverse(h, 1)
        np.testing.assert_allclose(inv.to_dense(), [[1.0 / (2.0 * 0.5)]], rtol=1e-15)

    def test_scale_covariance(self):
        a, alpha = dc_inverse((1.0, 0.7, 0.2), 9).to_dense(), 4.0
        b = dc_inverse((alpha, 0.7, 0.2), 9).to_dense()
        np.testing.assert_allclose(b, a / alpha, rtol=1e-14)

    def test_tridiagonal_matvec(self):
        tri = TridiagonalMatrix(n=4, main=np.arange(1.0, 5.0), sub=np.array([0.5, -0.5, 0.25]))
        x = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_allclose(tri.matvec(x), tri.to_dense() @ x, rtol=1e-15)


class TestLogdet:
    def test_matches_numerical(self):
        h = DcHyperparams(c=1.8, lam=0.8, rho=-0.35)
        for n in (1, 5, 32):
            sign, ld = np.linalg.slogdet(build_dc_kernel(h, n))
            assert sign == 1.0
            assert abs(dc_logdet(h, n) - ld) <= 1e-8

    def test_survives_underflow_regime(self):
        # det itself underflows past double precision; the log must not
        value = dc_logdet(DcHyperparams(c=1.0, lam=0.6, rho=0.2), 200)
        assert np.isfinite(value)
        assert value < -5000.0

    def test_scale_shift(self):
        h1, ha = DcHyperparams(1.0, 0.7, 0.4), DcHyperparams(5.0, 0.7, 0.4)
        n = 11
        assert dc_logdet(ha, n) - dc_logdet(h1, n) == pytest.approx(n * np.log(5.0), abs=1e-10)


class TestConditionNumber:
    def test_matches_dense_when_computable(self):
        h = DcHyperparams(c=1.0, lam=0.9, rho=0.5)
        k = build_dc_kernel(h, 40)
        np.testing.assert_allclose(
            dc_condition_number(h, 40), np.linalg.cond(k), rtol=1e-6
        )

    def test_large_order(self):
        h = DcHyperparams(c=1.0, lam=0.95, rho=0.3)
        n = 300
        np.testing.assert_allclose(
            dc_condition_number(h, n),
            np.linalg.cond(build_dc_kernel(h, n)),
            rtol=0.05,
        )

    @pytest.mark.parametrize(
        "lam, rho, n",
        [
            (1e-4, 0.5, 40),
            (1e-3, 0.98, 60),
            (1e-4, -1 + 1e-4, 30),
            (1 - 1e-4, 1 - 1e-4, 40),
        ],
    )
    def test_matches_high_precision_reference(self, lam, rho, n):
        # enough digits to resolve lam_min(K) ~ lam^n next to lam_max(K) ~ 1
        with mp.workdps(int(-n * np.log10(lam)) + 40):
            i = range(1, n + 1)
            k = mp.matrix(
                [[mp.mpf(lam) ** (mp.mpf(a + b) / 2) * mp.mpf(rho) ** abs(a - b) for b in i]
                 for a in i]
            )
            eig = mp.eigsy(k, eigvals_only=True)
            reference = float(max(eig) / min(eig))
        np.testing.assert_allclose(
            dc_condition_number(DcHyperparams(2.5, lam, rho), n), reference, rtol=1e-9
        )

    def test_finite_where_the_norms_overflow(self):
        # ||K^-1|| ~ 1e223, so ||K^-1 x||^2 overflows; the condition number must not
        h, n = DcHyperparams(c=1.0, lam=0.6, rho=0.98), 1000
        cond = dc_condition_number(h, n)
        kinv = dc_inverse(h, n)
        top = kinv.main.max()
        kinv_max = top * scipy.linalg.eigh_tridiagonal(
            kinv.main / top, kinv.sub / top, eigvals_only=True
        )[-1]
        independent = np.linalg.eigvalsh(build_dc_kernel(h, n))[-1] * kinv_max
        assert np.isfinite(cond)
        np.testing.assert_allclose(cond, independent, rtol=1e-9)

    def test_order_one(self):
        assert dc_condition_number(DcHyperparams(c=3.0, lam=0.4, rho=0.9), 1) == 1.0

    def test_unrepresentable_inverse_raises(self):
        with pytest.raises(SingularKernelError):
            dc_condition_number(DcHyperparams(c=1.0, lam=1e-4, rho=0.5), 100)


class TestDerivatives:
    def finite_difference(self, h, n, eps=1e-6):
        params = np.array([h.c, h.lam, h.rho])
        out = []
        for i in range(3):
            step = np.zeros(3)
            step[i] = eps
            kp = build_dc_kernel(DcHyperparams(*(params + step)), n)
            km = build_dc_kernel(DcHyperparams(*(params - step)), n)
            out.append((kp - km) / (2 * eps))
        return out

    def test_gradient_matches_finite_differences(self):
        h = DcHyperparams(c=1.4, lam=0.7, rho=-0.45)
        n = 6
        grads = dc_kernel_gradient(h, n)
        fd = self.finite_difference(h, n)
        for analytic, numeric in zip(grads, fd):
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)

    def test_gradient_finite_at_rho_zero(self):
        grads = dc_kernel_gradient(DcHyperparams(c=1.0, lam=0.6, rho=0.0), 5)
        for g in grads:
            assert np.all(np.isfinite(g))

    def test_hessian_matches_finite_differences(self):
        h = DcHyperparams(c=1.4, lam=0.7, rho=-0.45)
        n = 5
        hess = dc_kernel_hessian(h, n)
        eps = 1e-5
        params = np.array([h.c, h.lam, h.rho])
        for i in range(3):
            step = np.zeros(3)
            step[i] = eps
            gp = dc_kernel_gradient(DcHyperparams(*(params + step)), n)
            gm = dc_kernel_gradient(DcHyperparams(*(params - step)), n)
            for j in range(3):
                np.testing.assert_allclose(
                    hess[i, j], (gp[j] - gm[j]) / (2 * eps), rtol=1e-4, atol=1e-7
                )

    def test_hessian_symmetric_and_finite_at_rho_zero(self):
        hess = dc_kernel_hessian(DcHyperparams(c=1.0, lam=0.6, rho=0.0), 6)
        assert np.all(np.isfinite(hess))
        np.testing.assert_allclose(hess, np.swapaxes(hess, 0, 1), rtol=1e-12, atol=0)
