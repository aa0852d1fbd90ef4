"""Run the demo scripts against the sources in src/, one subprocess each.

Demo 05 needs the four MNIST IDX files; without ROCKRELAX_MNIST_DIR only
its imports are checked (it exits early with a usage message).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
MNIST_DIR = os.environ.get("ROCKRELAX_MNIST_DIR")


def run_demo(name):
    return subprocess.run([sys.executable, str(DEMOS / name)],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, cwd=ROOT)


@pytest.mark.parametrize("name", [
    "01_reweighting_closed_form.py",
    "02_contamination_and_pruning.py",
    "03_erm_vs_reweighting.py",
    "04_adversarial_training.py",
])
def test_demo_exits_cleanly(name):
    result = run_demo(name)
    assert result.returncode == 0, result.stderr


@pytest.mark.skipif(bool(MNIST_DIR), reason="the full-scale run below covers the imports")
def test_digits_demo_imports_without_data():
    result = run_demo("05_digits_three_class.py")
    assert result.returncode == 1
    assert "set ROCKRELAX_MNIST_DIR" in result.stderr, result.stderr


@pytest.mark.skipif(
    not MNIST_DIR,
    reason="set ROCKRELAX_MNIST_DIR to a directory with the four standard IDX files")
def test_digits_demo_full_scale():
    result = run_demo("05_digits_three_class.py")
    assert result.returncode == 0, result.stderr
