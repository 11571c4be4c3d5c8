import json

import numpy as np
import pytest
import scipy.linalg.lapack

import dcsysid.kernel
import dcsysid.likelihood
import dcsysid.tuner
from dcsysid import (
    IdentificationResult,
    TunerConfig,
    TuningError,
    fit_metric,
    ls_estimate,
    preprocess,
    tune,
)


class TestTunerConfig:
    def test_defaults(self):
        cfg = TunerConfig()
        assert cfg.solver == "derivative-free"
        assert cfg.sigma2_policy == "ls-residual"
        assert cfg.restarts == 5 and cfg.max_evals == 2000

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown tuner option"):
            TunerConfig.from_mapping({"retsarts": 3})

    def test_validation(self):
        with pytest.raises(ValueError):
            TunerConfig(solver="newton")
        with pytest.raises(ValueError):
            TunerConfig(bounds_lam=(0.5, 0.2))
        with pytest.raises(ValueError):
            TunerConfig(bounds_c=(0.0, 10.0))  # outside the admissible box
        with pytest.raises(ValueError):
            TunerConfig(bounds_rho=(-2.0, 0.5))
        with pytest.raises(ValueError):
            TunerConfig(restarts=0)
        with pytest.raises(ValueError):
            TunerConfig(max_evals=0)
        with pytest.raises(ValueError):
            TunerConfig(tol_obj=0.0)

    def test_sigma2_policy_coupling(self):
        with pytest.raises(ValueError):
            TunerConfig(sigma2_policy="fixed")  # needs a value
        with pytest.raises(ValueError):
            TunerConfig(sigma2_value=0.5)  # value without the fixed policy
        cfg = TunerConfig(sigma2_policy="fixed", sigma2_value=0.5)
        assert cfg.sigma2_value == 0.5

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"restarts": 2, "bounds_lam": [0.4, 0.9]}))
        cfg = TunerConfig.from_json(path)
        assert cfg.restarts == 2
        assert cfg.bounds_lam == (0.4, 0.9)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            TunerConfig.from_json(path)


QUICK = dict(restarts=2, max_evals=300)


class TestTune:
    def test_finds_good_hyperparameters(self, fir_problem):
        data, g_true, _ = fir_problem(seed=0, n=12, n_samples=250, sigma2=0.2)
        result = tune(data, TunerConfig(**QUICK))
        assert isinstance(result, IdentificationResult)
        assert 0 < result.hyper_hat.lam < 1
        assert fit_metric(result.g_hat, g_true) > 50.0
        assert np.isfinite(result.objective)
        assert result.diagnostics["n_evals_total"] > 0

    def test_deterministic(self, fir_problem):
        data, _, _ = fir_problem(seed=1, n=8, n_samples=120)
        first = tune(data, TunerConfig(**QUICK))
        second = tune(data, TunerConfig(**QUICK))
        assert first.objective == second.objective
        assert (first.hyper_hat.c, first.hyper_hat.lam, first.hyper_hat.rho) == (
            second.hyper_hat.c,
            second.hyper_hat.lam,
            second.hyper_hat.rho,
        )
        np.testing.assert_array_equal(first.g_hat, second.g_hat)

    def test_reports_best_restart(self, fir_problem):
        data, _, _ = fir_problem(seed=2, n=8, n_samples=120)
        result = tune(data, TunerConfig(restarts=3, max_evals=200))
        values = [
            rec["value"] for rec in result.diagnostics["starts"] if rec["value"] is not None
        ]
        assert result.objective == min(values)

    def test_solvers_agree_on_objective(self, fir_problem):
        data, _, _ = fir_problem(seed=3, n=10, n_samples=200, sigma2=0.3)
        free = tune(data, TunerConfig(restarts=3, max_evals=500))
        assisted = tune(
            data, TunerConfig(solver="gradient-assisted", restarts=3, max_evals=500)
        )
        assert assisted.objective == pytest.approx(free.objective, rel=1e-3)

    def test_sigma2_policies(self, fir_problem):
        data, _, _ = fir_problem(seed=4, n=8, n_samples=150, sigma2=0.4)
        _, s2_ls = ls_estimate(preprocess(data))

        residual = tune(data, TunerConfig(**QUICK))
        assert residual.sigma2_hat == pytest.approx(s2_ls)

        fixed = tune(
            data, TunerConfig(sigma2_policy="fixed", sigma2_value=0.4, **QUICK)
        )
        assert fixed.sigma2_hat == 0.4

        joint = tune(data, TunerConfig(sigma2_policy="joint", restarts=2, max_evals=600))
        assert joint.sigma2_hat > 0
        # the jointly tuned objective cannot be worse than the plug-in one
        assert joint.objective <= residual.objective + 1e-6

    def test_gradient_assisted_joint_policy(self, fir_problem):
        # the sigma^2 component of the gradient steers the joint search
        data, _, _ = fir_problem(seed=4, n=8, n_samples=150, sigma2=0.4)
        free = tune(data, TunerConfig(sigma2_policy="joint", restarts=2, max_evals=600))
        assisted = tune(data, TunerConfig(
            solver="gradient-assisted", sigma2_policy="joint", restarts=2, max_evals=600
        ))
        assert assisted.objective == pytest.approx(free.objective, rel=1e-6)
        assert assisted.sigma2_hat == pytest.approx(free.sigma2_hat, rel=1e-5)

    def test_gradient_step_is_one_qr_and_one_triangular_inverse(self, fir_problem, monkeypatch):
        data, _, _ = fir_problem(seed=3, n=10, n_samples=200, sigma2=0.3)
        counts = {"qr": 0, "dtrtri": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return wrapper

        def refuse(*args, **kwargs):
            raise AssertionError("dense kernel route reached")

        monkeypatch.setattr(dcsysid.likelihood, "_stacked_qr_c",
                            counted("qr", dcsysid.likelihood._stacked_qr_c))
        monkeypatch.setattr(scipy.linalg.lapack, "dtrtri",
                            counted("dtrtri", scipy.linalg.lapack.dtrtri))
        for module, name in ((dcsysid.kernel, "dc_inverse"), (dcsysid.tuner, "dc_inverse"),
                             (dcsysid.kernel, "dc_kernel_gradient"),
                             (dcsysid.kernel, "dc_kernel_hessian"),
                             (dcsysid.tuner, "nll_algorithm_c")):
            monkeypatch.setattr(module, name, refuse)
        result = tune(data, TunerConfig(
            solver="gradient-assisted", sigma2_policy="joint", restarts=2, max_evals=40
        ))
        evals = result.diagnostics["n_evals_total"]
        # one of each per step, plus the gradient_norm diagnostic's; the MAP
        # estimate adds one QR
        assert counts == {"qr": evals + 2, "dtrtri": evals + 1}
        assert result.diagnostics["gradient_norm"] is not None

    def test_evaluation_budget_of_one(self, fir_problem):
        data, _, _ = fir_problem(seed=5, n=6, n_samples=80)
        result = tune(data, TunerConfig(restarts=3, max_evals=1))
        assert result.diagnostics["n_evals_total"] == 3
        for rec in result.diagnostics["starts"]:
            assert rec["n_evals"] == 1

    def test_boundary_hit_is_warned(self, fir_problem):
        data, _, _ = fir_problem(seed=6, n=8, n_samples=150)
        # squeeze lam into a sliver far from the optimum so the search pins it
        cfg = TunerConfig(bounds_lam=(1e-4, 2e-4), **QUICK)
        result = tune(data, cfg)
        assert any("lam" in w for w in result.diagnostics["warnings"])

    def test_all_restarts_failing_raises(self, fir_problem):
        data, _, _ = fir_problem(seed=7, n=6, n_samples=80, sigma2=0.5)
        # residual term r^2/sigma^2 overflows for every candidate
        cfg = TunerConfig(
            sigma2_policy="fixed", sigma2_value=1e-300, restarts=2, max_evals=50
        )
        with pytest.raises(TuningError) as err:
            tune(data, cfg)
        assert err.value.diagnostics["starts"]

    def test_gradient_norm_reported(self, fir_problem):
        data, _, _ = fir_problem(seed=8, n=8, n_samples=200, sigma2=0.3)
        result = tune(data, TunerConfig(restarts=3, max_evals=800))
        assert result.diagnostics["gradient_norm"] is not None
        assert result.diagnostics["gradient_norm"] < 1.0


class TestFitMetric:
    def test_perfect_fit(self):
        g = np.array([1.0, 2.0, -0.5])
        assert fit_metric(g, g) == 100.0

    def test_sign_flip_example(self):
        assert fit_metric(np.array([-1.0, 1.0]), np.array([1.0, -1.0])) == -100.0

    def test_constant_truth_rejected(self):
        with pytest.raises(ValueError):
            fit_metric(np.array([1.0, 2.0]), np.array([3.0, 3.0]))

    def test_non_finite_estimate_sentinel(self):
        assert fit_metric(np.array([np.nan, 1.0]), np.array([1.0, -1.0])) == -1e6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_metric(np.ones(3), np.ones(4))
