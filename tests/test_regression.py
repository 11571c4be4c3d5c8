import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsysid import (
    CsvFormatError,
    IllPosedError,
    RegressionData,
    build_regressor,
    load_csv,
    ls_estimate,
    preprocess,
    preprocess_matrices,
    simulate_fir,
)


class TestBuildRegressor:
    def test_small_example(self):
        # row t holds u(t-1), ..., u(t-n) with zeros before the data starts
        u = np.array([1.0, 2.0, 3.0, 4.0])
        expected = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [2.0, 1.0, 0.0],
                [3.0, 2.0, 1.0],
            ]
        )
        np.testing.assert_array_equal(build_regressor(u, 3), expected)

    def test_columns_are_delayed_copies(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(30)
        phi_t = build_regressor(u, 5)
        for k in range(5):
            np.testing.assert_array_equal(phi_t[k + 1 :, k], u[: 30 - k - 1])
            np.testing.assert_array_equal(phi_t[: k + 1, k], 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        scale=st.floats(-5, 5),
        n=st.integers(1, 8),
        n_samples=st.integers(1, 20),
        seed=st.integers(0, 100),
    )
    def test_linearity(self, scale, n, n_samples, seed):
        u = np.random.default_rng(seed).standard_normal(n_samples)
        np.testing.assert_allclose(
            build_regressor(scale * u, n), scale * build_regressor(u, n), rtol=1e-12
        )

    def test_order_exceeding_samples(self):
        phi_t = build_regressor(np.array([1.0, 2.0]), 4)
        assert phi_t.shape == (2, 4)
        np.testing.assert_array_equal(phi_t[:, 2:], 0.0)


class TestSimulateFir:
    def test_zero_initial_conditions(self):
        # impulse at t=1 appears in the output starting at t=2: y(t) uses u(t-1)
        g = np.array([2.0, -1.0, 0.5])
        u = np.array([1.0, 0.0, 0.0, 0.0])
        y = simulate_fir(g, u)
        np.testing.assert_allclose(y, [0.0, 2.0, -1.0, 0.5], rtol=1e-15)

    def test_matches_delayed_convolution(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal(6)
        u = rng.standard_normal(40)
        expected = np.concatenate([[0.0], np.convolve(u, g)[:39]])
        np.testing.assert_allclose(simulate_fir(g, u), expected, rtol=1e-12)

    def test_noise_is_seed_deterministic(self):
        g = np.ones(3)
        u = np.arange(10.0)
        a = simulate_fir(g, u, sigma2=0.5, seed=7)
        b = simulate_fir(g, u, sigma2=0.5, seed=7)
        c = simulate_fir(g, u, sigma2=0.5, seed=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noise_variance_scales(self):
        g = np.array([1.0])
        u = np.zeros(200_000)
        y = simulate_fir(g, u, sigma2=4.0, seed=0)
        assert y.var() == pytest.approx(4.0, rel=0.05)


class TestLsEstimate:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal(8)
        u = rng.standard_normal(100)
        data = RegressionData(u=u, y=simulate_fir(g, u), n=8)
        g_hat, sigma2_hat = ls_estimate(preprocess(data))
        np.testing.assert_allclose(g_hat, g, rtol=1e-8)
        assert sigma2_hat == pytest.approx(0.0, abs=1e-16)

    def test_residual_variance_estimate(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal(5)
        u = rng.standard_normal(20_000)
        y = simulate_fir(g, u, sigma2=0.7, seed=4)
        _, sigma2_hat = ls_estimate(preprocess(RegressionData(u=u, y=y, n=5)))
        assert sigma2_hat == pytest.approx(0.7, rel=0.05)

    def test_underdetermined_raises(self):
        u = np.ones(4)
        with pytest.raises(IllPosedError):
            ls_estimate(preprocess(RegressionData(u=u, y=u, n=4)))

    def test_rank_deficient_raises(self):
        data = RegressionData(u=np.zeros(10), y=np.zeros(10), n=3)
        with pytest.raises(IllPosedError):
            ls_estimate(preprocess(data))

    def test_matches_lstsq(self):
        rng = np.random.default_rng(5)
        for n_samples, n in ((60, 8), (500, 50), (2000, 125)):
            u = rng.standard_normal(n_samples)
            y = simulate_fir(rng.standard_normal(n), u, sigma2=0.3, seed=n)
            data = RegressionData(u=u, y=y, n=n)
            phi_t = data.phi_t
            g_ref, _, rank, _ = np.linalg.lstsq(phi_t, y, rcond=None)
            assert rank == n
            resid = y - phi_t @ g_ref
            sigma2_ref = float(resid @ resid) / (n_samples - n)
            pre = preprocess(data)
            # the same triangle handed back as compressed input, with the true N
            compressed = preprocess_matrices(pre.r_d1, pre.r_d2, n_samples=n_samples)
            for source in (pre, compressed):
                g_ls, sigma2_hat = ls_estimate(source)
                np.testing.assert_allclose(g_ls, g_ref, rtol=1e-12, atol=0)
                assert sigma2_hat == pytest.approx(sigma2_ref, rel=1e-12)

    def test_svd_rank_deficiency_raises(self):
        # unit diagonal passes the compression's diagonal test, but the
        # bidiagonal I - 2J has a smallest singular value near 2^-(n-1)
        n = 60
        phi_t = np.zeros((2 * n, n))
        phi_t[:n, :n] = np.eye(n) - 2.0 * np.eye(n, k=1)
        _, _, rank, _ = np.linalg.lstsq(phi_t, np.ones(2 * n), rcond=None)
        assert rank < n
        pre = preprocess_matrices(phi_t, np.ones(2 * n))
        with pytest.raises(IllPosedError, match="rank deficient"):
            ls_estimate(pre)


class TestRegressionData:
    def test_eager_regressor(self):
        u = np.array([1.0, 2.0, 3.0])
        data = RegressionData(u=u, y=np.zeros(3), n=2)
        np.testing.assert_array_equal(data.phi_t, build_regressor(u, 2))
        assert data.n_samples == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RegressionData(u=np.ones(3), y=np.ones(4), n=2)
        with pytest.raises(ValueError):
            RegressionData(u=np.array([1.0, np.nan]), y=np.ones(2), n=1)
        with pytest.raises(ValueError):
            RegressionData(u=np.ones(3), y=np.ones(3), n=0)
        with pytest.raises(TypeError):
            RegressionData(u=np.ones(3), y=np.ones(3), n=2.0)

    def test_warns_when_order_exceeds_samples(self):
        with pytest.warns(UserWarning):
            RegressionData(u=np.ones(3), y=np.ones(3), n=5)


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_plain_rows(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0\n3.0,4.0\n")
        u, y = load_csv(path)
        np.testing.assert_array_equal(u, [1.0, 3.0])
        np.testing.assert_array_equal(y, [2.0, 4.0])

    def test_header_detected(self, tmp_path):
        path = self.write(tmp_path, "u,y\n1.0,2.0\n")
        u, y = load_csv(path)
        np.testing.assert_array_equal(u, [1.0])
        np.testing.assert_array_equal(y, [2.0])

    def test_wrong_field_count(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0\n3.0\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        assert err.value.line == 2

    def test_non_numeric_body(self, tmp_path):
        path = self.write(tmp_path, "u,y\n1.0,2.0\nbad,4.0\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        assert err.value.line == 3

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(CsvFormatError):
            load_csv(path)
