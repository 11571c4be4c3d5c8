import csv
import json

import numpy as np
import pytest

import dcsysid
from dcsysid import (
    DcHyperparams,
    algorithm_a_flops,
    algorithm_c_flops,
    build_dc_kernel,
    dc_logdet,
)
from dcsysid.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_report(text):
    return json.loads(text)


@pytest.fixture
def dataset(tmp_path, capsys):
    path = tmp_path / "data.csv"
    code = main(
        [
            "simulate",
            "--g",
            "dc-draw(1.5, 0.85, 0.6, 10, 5)",
            "-N",
            "300",
            "--sigma2",
            "0.05",
            "--seed",
            "9",
            "--out",
            str(path),
        ]
    )
    report = read_report(capsys.readouterr().out)
    assert code == 0
    return path, report


class TestSimulate:
    def test_writes_csv_and_report(self, dataset):
        path, report = dataset
        assert report["command"] == "simulate"
        assert report["version"] == dcsysid.__version__
        assert report["seed"] == 9
        results = report["results"]
        assert results["impulse_length"] == 10
        assert len(results["g_true"]) == 10
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["u", "y"]
        assert len(rows) == 301

    def test_deterministic_given_seed(self, tmp_path, capsys):
        args = ["simulate", "--g", "dc-draw(1, 0.8, 0.5, 4, 1)", "-N", "50", "--seed", "3"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_impulse_from_file(self, tmp_path, capsys):
        gfile = tmp_path / "g.txt"
        gfile.write_text("1.0\n-0.5\n0.25\n")
        out = tmp_path / "sim.csv"
        code, text, _ = run(
            capsys, ["simulate", "--g", str(gfile), "-N", "20", "--out", str(out)]
        )
        assert code == 0
        assert read_report(text)["results"]["g_true"] == [1.0, -0.5, 0.25]

    def test_requires_out(self, capsys):
        code, _, err = run(capsys, ["simulate", "--g", "dc-draw(1,0.5,0.2,3,0)", "-N", "10"])
        assert code == 2
        assert "out" in err

    def test_malformed_draw_spec(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        for spec in ("dc-draw(1, 0.5, 0.2)", "dc-draw(1, 0.5, 0.2, three, 0)", "missing.txt"):
            code, _, _ = run(capsys, ["simulate", "--g", spec, "-N", "10", "--out", out])
            assert code == 2


class TestIdentify:
    def test_round_trip(self, dataset, tmp_path, capsys):
        path, sim_report = dataset
        report_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            ["identify", str(path), "-n", "10", "--out", str(report_path)],
        )
        assert code == 0
        report = read_report(report_path.read_text())
        assert report["command"] == "identify"
        assert report["input_sha256"] == sim_report["results"]["output_sha256"]
        results = report["results"]
        assert results["order"] == 10 and results["n_samples"] == 300
        assert 0.0 < results["hyperparameters"]["lam"] < 1.0
        assert len(results["g_hat"]) == 10
        # the simulated response should be identified reasonably well
        g_true = np.array(sim_report["results"]["g_true"])
        g_hat = np.array(results["g_hat"])
        assert dcsysid.fit_metric(g_hat, g_true) > 60.0

    def test_fixed_sigma2_flag(self, dataset, tmp_path, capsys):
        path, _ = dataset
        code, text, _ = run(
            capsys, ["identify", str(path), "-n", "6", "--sigma2", "0.05"]
        )
        assert code == 0
        report = read_report(text)
        assert report["results"]["sigma2"] == 0.05
        assert report["results"]["diagnostics"]["sigma2_policy"] == "fixed"
        # the flag takes precedence over the config file's noise policy
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma2_policy": "joint", "restarts": 1, "max_evals": 50}))
        code, text, _ = run(
            capsys, ["identify", str(path), "-n", "6", "--config", str(cfg), "--sigma2", "0.05"]
        )
        assert code == 0
        results = read_report(text)["results"]
        assert results["sigma2"] == 0.05
        assert results["diagnostics"]["sigma2_policy"] == "fixed"
        assert len(results["diagnostics"]["starts"]) == 1

    def test_config_file(self, dataset, tmp_path, capsys):
        path, _ = dataset
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"restarts": 2, "max_evals": 150}))
        code, text, _ = run(
            capsys, ["identify", str(path), "-n", "6", "--config", str(cfg)]
        )
        assert code == 0
        assert len(read_report(text)["results"]["diagnostics"]["starts"]) == 2

    def test_unknown_config_key(self, dataset, tmp_path, capsys):
        path, _ = dataset
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"restart": 2}))
        code, _, err = run(capsys, ["identify", str(path), "-n", "6", "--config", str(cfg)])
        assert code == 2
        assert "unknown" in err
        cfg.write_text("[1, 2]")
        code, _, err = run(capsys, ["identify", str(path), "-n", "6", "--config", str(cfg)])
        assert code == 2
        assert "JSON object" in err

    def test_plot_data_included(self, dataset, capsys):
        path, _ = dataset
        code, text, _ = run(
            capsys, ["identify", str(path), "-n", "4", "--plot-data"]
        )
        assert code == 0
        plot = read_report(text)["results"]["plot_data"]
        assert len(plot["u"]) == 300 and len(plot["y"]) == 300

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, ["identify", "nope.csv", "-n", "4"])
        assert code == 2

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("u,y\n1.0,hello\n")
        code, _, err = run(capsys, ["identify", str(bad), "-n", "2"])
        assert code == 2
        assert "line 2" in err

    def test_too_few_samples_is_numerical_failure(self, tmp_path, capsys):
        small = tmp_path / "small.csv"
        small.write_text("1.0,1.0\n2.0,2.0\n3.0,3.0\n")
        code, _, _ = run(capsys, ["identify", str(small), "-n", "3"])
        assert code == 4

    def test_tuning_failure_exit_code(self, dataset, tmp_path, capsys):
        path, _ = dataset
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "sigma2_policy": "fixed",
                    "sigma2_value": 1e-300,
                    "restarts": 1,
                    "max_evals": 30,
                }
            )
        )
        code, _, err = run(capsys, ["identify", str(path), "-n", "4", "--config", str(cfg)])
        assert code == 5
        assert "tuning" in err


class TestKernelInfo:
    def test_matches_library(self, capsys):
        code, text, _ = run(
            capsys, ["kernel-info", "-n", "12", "--c", "2.0", "--lam", "0.8", "--rho", "0.4"]
        )
        assert code == 0
        results = read_report(text)["results"]
        h = DcHyperparams(c=2.0, lam=0.8, rho=0.4)
        assert results["logdet"] == pytest.approx(dc_logdet(h, 12), rel=1e-12)
        assert results["condition_number"] == pytest.approx(
            np.linalg.cond(build_dc_kernel(h, 12)), rel=1e-6
        )
        assert results["inverse_band"]["nonzeros"] == 23
        for residual in results["factorization_residuals"].values():
            assert residual < 1e-10

    @pytest.mark.parametrize(
        "order, lam, rho, cond",
        [("60", "1e-3", "0.98", 2.5301102171e178), ("1000", "0.6", "0.98", 5.03604e223)],
    )
    def test_finite_on_strongly_decaying_kernels(self, capsys, order, lam, rho, cond):
        # the condition number leaves 1/eps far behind and norms of K^-1 overflow
        code, text, err = run(
            capsys, ["kernel-info", "-n", order, "--lam", lam, "--rho", rho]
        )
        assert code == 0, err
        results = read_report(text)["results"]
        assert np.isfinite(results["logdet"])
        assert results["condition_number"] == pytest.approx(cond, rel=1e-5)
        assert np.all(np.isfinite(results["inverse_band"]["main"]))
        assert np.all(np.isfinite(results["inverse_band"]["sub"]))
        for residual in results["factorization_residuals"].values():
            assert np.isfinite(residual)
        assert results["factorization_residuals"]["inverse_vs_ddt"] < 1e-10
        assert results["factorization_residuals"]["identity_vs_k_kinv"] < 1e-10

    def test_domain_error(self, capsys):
        code, _, _ = run(capsys, ["kernel-info", "-n", "5", "--lam", "1.5", "--rho", "0.2"])
        assert code == 2
        code, _, _ = run(capsys, ["kernel-info", "-n", "5", "--lam", "0.5", "--rho", "1.0"])
        assert code == 2


class TestComplete:
    def band_file(self, tmp_path, matrix, m):
        lines = [f"{matrix.shape[0]} {m}"]
        for offset in range(m + 1):
            lines.append(" ".join(repr(float(v)) for v in np.diag(matrix, offset)))
        path = tmp_path / "band.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_dc_band_round_trip(self, tmp_path, capsys):
        k = build_dc_kernel(DcHyperparams(c=1.0, lam=0.7, rho=0.4), 6)
        path = self.band_file(tmp_path, k, 1)
        code, text, _ = run(capsys, ["complete", str(path)])
        assert code == 0
        results = read_report(text)["results"]
        assert results["feasible"] is True
        np.testing.assert_allclose(np.array(results["completed"]), k, rtol=1e-9)
        assert results["inverse_band_certificate"] < 1e-9 * np.abs(np.linalg.inv(k)).max()
        sign, logdet = np.linalg.slogdet(k)
        assert results["log_det"] == pytest.approx(logdet, abs=1e-8)

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = tmp_path / "band.txt"
        path.write_text("3 1\n1.0 1.0 1.0\n5.0 0.5\n")
        code, _, err = run(capsys, ["complete", str(path)])
        assert code == 3
        assert "block 0" in err

    def test_format_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "band.txt"
        path.write_text("3 1\n1.0 2.0\n")
        code, _, _ = run(capsys, ["complete", str(path)])
        assert code == 2


class TestBench:
    def test_report_contents(self, capsys):
        code, text, _ = run(
            capsys,
            ["bench", "-n", "15", "--samples", "80", "--evals", "10", "--seed", "2"],
        )
        assert code == 0
        results = read_report(text)["results"]
        for name in ("a", "b", "c"):
            stats = results["algorithms"][name]
            assert stats["failures"] == 0
            assert stats["time_total_seconds"] > 0
            assert stats["flops"]["total"] > 0
        # all evaluators computed the same objective on the same data
        value = results["algorithms"]["c"]["value"]
        assert results["agreement"]["a_minus_c"] <= 1e-6 * abs(value)
        assert results["agreement"]["b_minus_c"] <= 1e-6 * abs(value)
        assert results["savings_percent"]["c_vs_a"] is not None
        gradient = results["gradient"]
        assert gradient["failures"] == 0
        assert gradient["time_per_eval_seconds"] > 0
        assert gradient["c_evaluations"] > 0
        predicted = 1.0 - algorithm_c_flops(15)["total"] / algorithm_a_flops(15)["total"]
        assert results["predicted_savings_percent"]["c_vs_a"] == pytest.approx(
            100.0 * predicted, rel=1e-12
        )

    def test_argument_validation(self, capsys):
        code, _, _ = run(capsys, ["bench", "-n", "10", "--samples", "5"])
        assert code == 2
        code, _, _ = run(capsys, ["bench", "-n", "3", "--evals", "0"])
        assert code == 2


class TestReportPlumbing:
    def test_csv_format_flattens(self, capsys):
        code, text, _ = run(
            capsys, ["kernel-info", "-n", "3", "--lam", "0.5", "--rho", "0.1", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["key", "value"]
        keys = {row[0] for row in rows[1:]}
        assert "results.logdet" in keys
        assert "results.inverse_band.main.0" in keys

    def test_argv_echoed(self, capsys):
        argv = ["kernel-info", "-n", "3", "--lam", "0.5", "--rho", "0.1"]
        _, text, _ = run(capsys, argv)
        report = read_report(text)
        assert report["argv"] == argv
        assert report["elapsed_seconds"] >= 0

    def test_usage_errors(self, capsys):
        assert main([]) == 2
        assert main(["kernel-info", "-n", "3", "--lam", "0.5", "--rho", "0.1", "--nope"]) == 2
        assert main(["not-a-command"]) == 2
        capsys.readouterr()

    def test_help_and_version_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert dcsysid.__version__ in out
