"""Smoke tests: each script in scripts/ runs end to end with tiny arguments."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("run_monte_carlo", ["--runs", "1", "-n", "6", "-N", "60", "--restarts", "1",
                             "--max-evals", "30"]),
    ],
)
def test_script_main_runs(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    out = capsys.readouterr().out
    assert out.strip()
