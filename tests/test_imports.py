"""Import hygiene: training loads no scipy; only the LP oracle imports it, on first use.

Each check runs in a fresh interpreter, since this test process has
scipy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from rockrelax.reweight import reweight_objective, solve_reweight

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("module", ["rockrelax", "rockrelax.trainer", "rockrelax.cli"])
def test_import_loads_no_scipy(module):
    loaded = run_fresh(f"import sys, {module}; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded == "[]"


def test_oracle_imports_scipy_on_first_use():
    out = run_fresh(
        "import sys, rockrelax\n"
        "assert 'scipy' not in sys.modules\n"
        "shift, value = rockrelax.oracle_lp([0.0, 1.0, 3.0], 2.0)\n"
        "print('scipy' in sys.modules, repr(value))")
    loaded, value = out.split()
    assert loaded == "True"
    # gamma 2 moves the weight of loss 3 (above 0 + gamma) onto loss 0:
    # 1/3 * 1 in loss plus gamma/2 * ||(1/3, 0, -1/3)||_1 = 2/3 in penalty
    expected = reweight_objective([0.0, 1.0, 3.0], solve_reweight([0.0, 1.0, 3.0], 2.0), 2.0)
    assert expected == pytest.approx(1.0)
    assert float(value) == pytest.approx(expected, abs=1e-9)
