import numpy as np
import pytest

from dcsysid import (
    DcHyperparams,
    NumericalError,
    RankDeficiencyError,
    SingularKernelError,
    algorithm_a_flops,
    algorithm_b_flops,
    algorithm_c_flops,
    build_dc_kernel,
    dc_inverse,
    dc_inverse_cholesky_factors,
    map_estimate,
    nll_algorithm_a,
    nll_algorithm_b,
    nll_algorithm_c,
    nll_gradient_hessian,
    nll_naive,
    nll_value_and_gradient,
    preprocess,
    preprocess_matrices,
    preprocessing_flops,
)
from dense_oracle import dense_gradient_hessian, dense_sigma2_derivative
from test_acceptance import _derivative_problem, _random_problem


class TestPreprocess:
    def test_shapes_and_sign_convention(self, fir_problem):
        data, _, _ = fir_problem(seed=0, n=12, n_samples=100)
        pre = preprocess(data)
        assert pre.r_d1.shape == (13, 12)
        assert pre.r_d2.shape == (13,)
        assert pre.n == 12 and pre.n_samples == 100
        assert np.all(np.diagonal(pre.r_d1) > 0)

    def test_gram_identities(self, fir_problem):
        data, _, _ = fir_problem(seed=1, n=10, n_samples=80)
        pre = preprocess(data)
        phi_t, y = data.phi_t, data.y
        np.testing.assert_allclose(pre.r_d1.T @ pre.r_d1, phi_t.T @ phi_t, rtol=1e-10)
        np.testing.assert_allclose(pre.r_d1.T @ pre.r_d2, phi_t.T @ y, rtol=1e-10)
        assert pre.r_d2 @ pre.r_d2 == pytest.approx(y @ y, rel=1e-12)
        assert pre.y_norm2 == pytest.approx(y @ y, rel=1e-12)

    def test_block_built_from_inputs_matches_regressor(self, fir_problem):
        data, _, _ = fir_problem(seed=2, n=12, n_samples=90)
        pre = preprocess(data)
        ref = preprocess_matrices(data.phi_t, data.y)
        np.testing.assert_array_equal(pre.r_d1, ref.r_d1)
        np.testing.assert_array_equal(pre.r_d2, ref.r_d2)
        assert pre.y_norm2 == ref.y_norm2

    def test_too_few_samples(self):
        with pytest.raises(RankDeficiencyError):
            preprocess_matrices(np.ones((4, 4)), np.ones(4))

    def test_rank_deficiency_names_column(self):
        phi_t = np.zeros((20, 3))
        phi_t[:, 1] = np.arange(20.0)
        with pytest.raises(RankDeficiencyError) as err:
            preprocess_matrices(phi_t, np.ones(20))
        assert err.value.column == 0

    def test_sample_count_override(self):
        rng = np.random.default_rng(2)
        phi_t = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        pre = preprocess_matrices(phi_t, y, n_samples=500)
        assert pre.n_samples == 500
        with pytest.raises(ValueError):
            preprocess_matrices(phi_t, y, n_samples=10)


class TestObjectiveAgreement:
    def test_four_way(self, fir_problem):
        for seed in range(5):
            data, _, h = fir_problem(seed=seed, n=15, n_samples=120, sigma2=0.4)
            pre = preprocess(data)
            reference = nll_naive(h, 0.4, data)
            for evaluate in (nll_algorithm_a, nll_algorithm_b, nll_algorithm_c):
                value = evaluate(h, 0.4, pre).value
                assert value == pytest.approx(reference, rel=1e-8)

    def test_triangle_identities(self, fir_problem):
        data, _, h = fir_problem(seed=3, n=9, n_samples=70, sigma2=0.25)
        pre = preprocess(data)
        ev = nll_algorithm_c(h, 0.25, pre)
        kinv = dc_inverse(h, 9).to_dense()
        np.testing.assert_allclose(
            ev.r1.T @ ev.r1, 0.25 * kinv + data.phi_t.T @ data.phi_t, rtol=1e-8
        )
        np.testing.assert_allclose(ev.r1.T @ ev.r2, data.phi_t.T @ data.y, rtol=1e-8)
        assert ev.r2 @ ev.r2 + ev.r_scalar**2 == pytest.approx(data.y @ data.y, rel=1e-8)

    def test_compressed_stack_equals_direct_qr(self, fir_problem):
        data, _, h = fir_problem(seed=4, n=8, n_samples=60, sigma2=0.3)
        pre = preprocess(data)
        ev = nll_algorithm_c(h, 0.3, pre)
        d_main, d_sub = dc_inverse_cholesky_factors(h, 8)
        d = np.diag(d_main) + np.diag(d_sub, -1)
        tall = np.zeros((60 + 8, 9))
        tall[:60, :8] = data.phi_t
        tall[:60, 8] = data.y
        tall[60:, :8] = np.sqrt(0.3) * d.T
        r = np.linalg.qr(tall, mode="r")
        signs = np.sign(np.diagonal(r))
        r = signs[:, None] * r
        np.testing.assert_allclose(r[:8, :8], ev.r1, rtol=1e-8)
        np.testing.assert_allclose(r[:8, 8], ev.r2, rtol=1e-8)
        assert abs(r[8, 8]) == pytest.approx(ev.r_scalar, rel=1e-8)

    def test_value_invariant_to_recompression(self, fir_problem):
        data, _, h = fir_problem(seed=5, n=11, n_samples=140, sigma2=0.2)
        pre = preprocess(data)
        re_pre = preprocess_matrices(pre.r_d1, pre.r_d2, n_samples=pre.n_samples)
        a = nll_algorithm_c(h, 0.2, pre).value
        b = nll_algorithm_c(h, 0.2, re_pre).value
        assert b == pytest.approx(a, rel=1e-10)

    def test_naive_allows_zero_c(self, fir_problem):
        data, _, _ = fir_problem(seed=6, n=6, n_samples=50, sigma2=0.5)
        h0 = DcHyperparams(c=0.0, lam=0.5, rho=0.2)
        value = nll_naive(h0, 0.5, data)
        big_n = data.n_samples
        expected = big_n * np.log(0.5) + data.y @ data.y / 0.5
        assert value == pytest.approx(expected, rel=1e-12)

    def test_fast_paths_require_strict_hyper(self, fir_problem):
        data, _, _ = fir_problem(seed=7, n=5, n_samples=40)
        pre = preprocess(data)
        h0 = DcHyperparams(c=0.0, lam=0.5, rho=0.2)
        for evaluate in (nll_algorithm_a, nll_algorithm_b, nll_algorithm_c):
            with pytest.raises(SingularKernelError):
                evaluate(h0, 0.3, pre)

    def test_sigma2_must_be_positive(self, fir_problem):
        data, _, h = fir_problem(seed=8, n=5, n_samples=40)
        pre = preprocess(data)
        with pytest.raises(ValueError):
            nll_algorithm_c(h, 0.0, pre)
        with pytest.raises(ValueError):
            nll_naive(h, -1.0, data)

    def test_numerical_cholesky_failure_is_reported(self):
        rng = np.random.default_rng(9)
        n, big_n = 60, 100
        pre = preprocess_matrices(rng.standard_normal((big_n, n)), rng.standard_normal(big_n))
        # neighbor correlation within one ulp of 1: the dense factorization
        # breaks down, while the closed-form route never factorizes at all
        h = DcHyperparams(c=1.0, lam=0.9, rho=1.0 - 1e-15)
        with pytest.raises(NumericalError):
            nll_algorithm_a(h, 0.1, pre)
        assert np.isfinite(nll_algorithm_c(h, 0.1, pre).value)

    @pytest.mark.parametrize("lam", [2e-3, 1e-3, 1e-4])
    def test_stable_where_lam_to_the_n_underflows(self, fir_problem, lam):
        # lam^125 is below 1e-308: the inverse kernel D D^T is not
        # representable, but the decay-scaled stack never forms it
        data, _, _ = fir_problem(seed=15, n=125, n_samples=300, sigma2=0.2)
        pre = preprocess(data)
        h = DcHyperparams(c=1.0, lam=lam, rho=0.98)
        assert nll_algorithm_c(h, 0.2, pre).value == pytest.approx(
            nll_naive(h, 0.2, data), rel=1e-10
        )
        assert np.all(np.isfinite(map_estimate(h, 0.2, pre)))

    def test_unrepresentable_triangle_is_reported(self):
        # R1 carries lam^(-n/2) = 1e320: C refuses to return it, while the
        # MAP estimate, solved in the scaled coordinates, stays finite
        rng = np.random.default_rng(16)
        n, big_n = 160, 200
        pre = preprocess_matrices(rng.standard_normal((big_n, n)), rng.standard_normal(big_n))
        h = DcHyperparams(c=1.0, lam=1e-4, rho=0.5)
        with pytest.raises(SingularKernelError, match="overflows"):
            nll_algorithm_c(h, 0.1, pre)
        assert np.all(np.isfinite(map_estimate(h, 0.1, pre)))


class TestMapEstimate:
    def test_matches_dense_formula(self, fir_problem):
        data, _, h = fir_problem(seed=10, n=14, n_samples=110, sigma2=0.3)
        pre = preprocess(data)
        g_hat = map_estimate(h, 0.3, pre)
        k = build_dc_kernel(h, 14)
        big = data.phi_t @ k @ data.phi_t.T + 0.3 * np.eye(data.n_samples)
        dense = k @ data.phi_t.T @ np.linalg.solve(big, data.y)
        np.testing.assert_allclose(g_hat, dense, rtol=1e-8)

    def test_noiseless_interpolation(self, fir_problem):
        # with vanishing noise the MAP estimate approaches the true response
        data, g_true, h = fir_problem(seed=11, n=8, n_samples=200, sigma2=0.0)
        pre = preprocess(data)
        g_hat = map_estimate(h, 1e-10, pre)
        np.testing.assert_allclose(g_hat, g_true, rtol=1e-4)


class TestDerivatives:
    def test_gradient_matches_finite_differences(self, fir_problem):
        data, _, h = fir_problem(seed=12, n=10, n_samples=90, sigma2=0.35)
        pre = preprocess(data)
        grad, _ = nll_gradient_hessian(h, 0.35, pre)
        eps = 1e-6
        params = np.array([h.c, h.lam, h.rho])
        for i in range(3):
            step = np.zeros(3)
            step[i] = eps
            up = nll_algorithm_c(DcHyperparams(*(params + step)), 0.35, pre).value
            dn = nll_algorithm_c(DcHyperparams(*(params - step)), 0.35, pre).value
            assert grad[i] == pytest.approx((up - dn) / (2 * eps), rel=1e-5)

    def test_hessian_matches_gradient_differences(self, fir_problem):
        data, _, h = fir_problem(seed=13, n=8, n_samples=70, sigma2=0.3)
        pre = preprocess(data)
        _, hess = nll_gradient_hessian(h, 0.3, pre)
        np.testing.assert_allclose(hess, hess.T, rtol=1e-8)
        eps = 1e-5
        params = np.array([h.c, h.lam, h.rho])
        for i in range(3):
            step = np.zeros(3)
            step[i] = eps
            gp, _ = nll_gradient_hessian(DcHyperparams(*(params + step)), 0.3, pre)
            gm, _ = nll_gradient_hessian(DcHyperparams(*(params - step)), 0.3, pre)
            np.testing.assert_allclose(hess[i], (gp - gm) / (2 * eps), rtol=1e-4)

    def test_match_the_dense_oracle(self):
        # criterion 07's 20 problems, plus orders 1 and 2, where T^-1 has no
        # off-diagonal or no interior
        problems = [_derivative_problem(seed) for seed in range(20)]
        for n in (1, 2):
            rng = np.random.default_rng(40 + n)
            pre = preprocess_matrices(rng.standard_normal((30, n)), rng.standard_normal(30))
            problems.append((pre, DcHyperparams(c=1.3, lam=0.7, rho=-0.4), 0.3))
        worst = 0.0
        for pre, h, sigma2 in problems:
            grad_ref, hess_ref = dense_gradient_hessian(h, sigma2, pre)
            d_sigma2_ref = dense_sigma2_derivative(h, sigma2, pre)
            grad, hess = nll_gradient_hessian(h, sigma2, pre)
            _, grad4 = nll_value_and_gradient(h, sigma2, pre)
            scale = np.max(np.abs(grad_ref))
            worst = max(
                worst,
                np.max(np.abs(grad - grad_ref)) / scale,
                np.max(np.abs(grad4[:3] - grad_ref)) / scale,
                abs(grad4[3] - d_sigma2_ref) / abs(d_sigma2_ref),
                np.max(np.abs(hess - hess_ref)) / np.max(np.abs(hess_ref)),
            )
        assert worst <= 1e-10

    def test_value_is_evaluator_c_bit_for_bit(self):
        # criterion 05's 50 problems
        for seed in range(50):
            data, h, sigma2 = _random_problem(500 + seed)
            pre = preprocess(data)
            value, _ = nll_value_and_gradient(h, sigma2, pre)
            assert value == nll_algorithm_c(h, sigma2, pre).value

    @pytest.mark.parametrize("lam", [3e-3, 1e-3, 1e-4])
    def test_finite_where_the_dense_inverse_overflows(self, fir_problem, lam):
        # lam^-125 leaves double range, so the dense K^-1 of the oracle
        # does; C's value is finite, and so are derivatives read off C's
        # decay-scaled triangle
        data, _, _ = fir_problem(seed=15, n=125, n_samples=300, sigma2=0.2)
        pre = preprocess(data)
        h, sigma2 = DcHyperparams(c=1.0, lam=lam, rho=0.98), 0.2
        with pytest.raises(SingularKernelError):
            dense_gradient_hessian(h, sigma2, pre)
        _, grad4 = nll_value_and_gradient(h, sigma2, pre)
        grad, hess = nll_gradient_hessian(h, sigma2, pre)
        assert np.all(np.isfinite(grad4)) and np.all(np.isfinite(hess))
        np.testing.assert_array_equal(grad, grad4[:3])
        point = np.array([h.c, h.lam, h.rho, sigma2])
        for i in range(4):
            # relative steps in lam and sigma^2: criterion 07's absolute
            # 1e-6 * max(1, lam) would exceed lam itself
            step = 1e-6 * (point[i] if i in (1, 3) else max(1.0, abs(point[i])))
            plus, minus = point.copy(), point.copy()
            plus[i] += step
            minus[i] -= step
            fd = (nll_algorithm_c(DcHyperparams(*plus[:3]), plus[3], pre).value
                  - nll_algorithm_c(DcHyperparams(*minus[:3]), minus[3], pre).value) / (2 * step)
            assert grad4[i] == pytest.approx(fd, rel=1e-5)


class TestFlopAccounting:
    def test_closed_formulas(self):
        n, big_n = 25, 400
        assert preprocessing_flops(n, big_n) == 2 * 26**2 * (400 - 26 / 3)
        qr = 2 * 26**2 * (2 * 25 + 1 - 26 / 3)
        a = algorithm_a_flops(n)
        assert a["cholesky"] == 25**3 / 3 + 25**2 / 2 + 25 / 6
        assert a["matmul"] == 25**2 * 26
        assert a["qr"] == qr
        assert a["objective"] == 2 * 25 + 6
        assert a["total"] == sum(v for k, v in a.items() if k != "total")
        b = algorithm_b_flops(n)
        assert "cholesky" not in b
        assert b["total"] == a["total"] - a["cholesky"]
        c = algorithm_c_flops(n)
        assert c["qr"] == qr
        assert c["objective"] == n + 20
        assert c["total"] == qr + n + 20

    def test_attached_to_evaluations(self, fir_problem):
        data, _, h = fir_problem(seed=14, n=7, n_samples=50)
        pre = preprocess(data)
        for evaluate, tally in (
            (nll_algorithm_a, algorithm_a_flops),
            (nll_algorithm_b, algorithm_b_flops),
            (nll_algorithm_c, algorithm_c_flops),
        ):
            ev = evaluate(h, 0.3, pre)
            assert ev.flops == tally(7)
        assert nll_algorithm_c(h, 0.3, pre).algorithm == "c"

    def test_evaluation_cost_ordering(self):
        for n in range(8, 501):
            assert algorithm_c_flops(n)["total"] < algorithm_a_flops(n)["total"]
            assert algorithm_b_flops(n)["total"] < algorithm_a_flops(n)["total"]
