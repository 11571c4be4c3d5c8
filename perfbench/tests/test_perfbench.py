"""The benchmark's own tests: contract, arithmetic, checks and tiny workloads.

    python3 -m pytest perfbench/tests -q
"""

import copy
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dcsysid
import spec
from envelope import PinningError, pin_blas_threads
from inputs import generate
from run import tail_latency
from tracing import Span, Tracer, self_times, totals_by_name
from worker import measure
from workloads import load

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "mc-n50": {"size": {"n": 5, "N": 60, "snr": 10.0}, "pool": 2,
               "tuner": {"restarts": 1, "max_evals": 60}},
    "grad-n125": {"size": {"n": 6, "N": 80, "snr": 10.0}, "pool": 2,
                  "tuner": {"solver": "gradient-assisted", "sigma2_policy": "joint",
                            "restarts": 1, "max_evals": 30}},
    "long-n125": {"size": {"n": 5, "N": 300, "snr": 10.0}, "pool": 2,
                  "tuner": {"restarts": 1, "max_evals": 60}},
    "complete-n160": {"size": {"n": 8, "m_random": 2}, "pool": 2},
}


def tiny(name: str, directory: Path, seed: int = 3):
    workload_spec = copy.deepcopy(spec.WORKLOADS[name])
    workload_spec.update(TINY[name])
    generate(name, workload_spec, seed, directory)
    return load(workload_spec, directory)


def test_benchmark_json_mirrors_spec():
    on_disk = json.loads((REPO / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_spec_meets_the_contract():
    doc = spec.benchmark_json()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert 1 <= doc["run_seconds"] <= 60


def test_every_prediction_names_a_metric_and_workload():
    for name, layer in spec.PER_LAYER.items():
        for metric, workload in layer.moves + layer.unchanged:
            assert metric in spec.END_TO_END, name
            assert workload in spec.WORKLOADS, name


def test_inputs_depend_on_the_seed_alone(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for directory, seed in ((a, 5), (b, 5), (c, 6)):
        directory.mkdir()
        tiny("long-n125", directory, seed)
    assert (a / "case1.csv").read_bytes() == (b / "case1.csv").read_bytes()
    assert (a / "case1.csv").read_bytes() != (c / "case1.csv").read_bytes()


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),  # overlaps a: [1, 5] is covered once
        Span("c", 9.0, 12.0, parent=0),  # runs past its parent: only [9, 10] counts
        Span("a", 1.5, 2.5, parent=1),  # a grandchild does not reduce the root
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])
    totals = totals_by_name(spans)
    assert totals["a"].calls == 2
    assert totals["a"].inclusive == pytest.approx(3.0)
    assert totals["a"].exclusive == pytest.approx(2.0)


def test_wrapper_records_nesting_errors_and_flops():
    tracer = Tracer()

    @dataclasses.dataclass
    class Evaluation:
        value: float
        flops: dict

    inner = tracer.wrap(lambda: Evaluation(float("inf"), {"total": 7.0}), "inner")

    def fail():
        raise ValueError("no")

    with tracer.span("op"):
        inner()
        with pytest.raises(ValueError):
            tracer.wrap(fail, "inner")()
    root, ok, bad = tracer.spans
    assert (ok.parent, bad.parent) == (0, 0)
    assert (ok.flops, ok.finite, bad.error) == (7.0, False, "ValueError")
    assert totals_by_name(tracer.spans)["inner"].finite == 0


def test_tail_is_the_highest_percentile_with_ten_beyond():
    latencies = [float(v) for v in range(30)]
    assert tail_latency(latencies) == (19.0, pytest.approx(100 * 20 / 30), 10)
    assert tail_latency(latencies[:20]) == (9.0, 50.0, 10)
    assert tail_latency(latencies[:19]) == (9.0, 50.0, 9)


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_tiny_workload_runs_clean(name, tmp_path):
    workload = tiny(name, tmp_path)
    result = measure(workload, seconds=0.05, trace=False)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 2
    assert result["fits"]
    traced = measure(workload, seconds=0.05, trace=True)
    assert traced["failed"] == 0, traced["failures"]
    assert set(traced["per_layer"]) == set(spec.PER_LAYER)
    assert 0.9 < traced["per_layer"]["trace.coverage"] <= 1.0


def test_a_wrong_objective_counts_as_failed(tmp_path, monkeypatch):
    workload = tiny("mc-n50", tmp_path)
    honest = dcsysid.tune

    def off_by_1e3(data, config):
        result = honest(data, config)
        result.objective *= 1.0 + 1e-3
        return result

    monkeypatch.setattr(dcsysid, "tune", off_by_1e3)
    result = measure(workload, seconds=0.05, trace=False)
    assert result["failed"] == result["attempted"]
    assert "nll_naive gives" in result["failures"][0]


def test_a_tampered_completion_counts_as_failed(tmp_path, monkeypatch):
    workload = tiny("complete-n160", tmp_path)
    honest = workload.collect

    def tampered(k, code):
        out = honest(k, code)
        out["completed"][0, 0] *= 1.0 + 1e-15
        return out

    monkeypatch.setattr(workload, "collect", tampered)
    result = measure(workload, seconds=0.05, trace=False)
    assert result["failed"] == result["attempted"]
    assert "differs from the input band" in result["failures"][0]


def test_cli_reports_do_not_outlive_their_check(tmp_path):
    workload = tiny("complete-n160", tmp_path)
    result = measure(workload, seconds=0.05, trace=False)
    assert result["failed"] == 0, result["failures"]
    assert not list(tmp_path.glob("report-*"))


def test_pinning_refuses_after_numpy_is_loaded():
    with pytest.raises(PinningError):
        pin_blas_threads()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-n50", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
