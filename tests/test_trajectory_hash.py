"""The float64 training trajectories match the recorded goldens bit for bit.

`tools/trajectory_hash.py` hashes a 36-run matrix per batch size.  The
goldens hold only on the environment that recorded them (numpy build, BLAS
and its CPU kernels, machine), so on any other fingerprint the test skips.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "trajectory_golden.json").read_text())

_spec = importlib.util.spec_from_file_location("trajectory_hash", ROOT / "tools" / "trajectory_hash.py")
trajectory_hash = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory_hash)


@pytest.mark.parametrize("batch_size", trajectory_hash.BATCH_SIZES)
def test_trajectory_digest_matches_golden(batch_size):
    here = trajectory_hash.fingerprint()
    if here != GOLDEN["fingerprint"]:
        pytest.skip(f"goldens recorded on {GOLDEN['fingerprint']}, this environment is {here}")
    assert trajectory_hash.digest(batch_size) == GOLDEN["digests"][str(batch_size)]
