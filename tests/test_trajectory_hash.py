"""The float64 training trajectories match the recorded goldens bit for bit.

`tools/trajectory_hash.py` hashes a 36-run matrix per batch size.  The
goldens hold only on the environment that recorded them (numpy build, BLAS
and its CPU kernels, machine), so on any other fingerprint the tests skip.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "trajectory_golden.json").read_text())

_spec = importlib.util.spec_from_file_location("trajectory_hash", ROOT / "tools" / "trajectory_hash.py")
trajectory_hash = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory_hash)


def skip_on_other_fingerprint():
    here = trajectory_hash.fingerprint()
    if here != GOLDEN["fingerprint"]:
        pytest.skip(f"goldens recorded on {GOLDEN['fingerprint']}, this environment is {here}")


@pytest.mark.parametrize("batch_size", trajectory_hash.BATCH_SIZES)
def test_trajectory_digest_matches_golden(batch_size):
    skip_on_other_fingerprint()
    assert trajectory_hash.digest(batch_size) == GOLDEN["digests"][str(batch_size)]


def test_digests_do_not_depend_on_the_blas_thread_count():
    # the fingerprint leaves the thread count out; at these widths one thread
    # gives the goldens too
    skip_on_other_fingerprint()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "trajectory_hash.py")],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [f"{GOLDEN['digests'][str(size)]}  batch {size}"
                                for size in trajectory_hash.BATCH_SIZES]
