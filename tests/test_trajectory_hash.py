"""The float64 training trajectories match the recorded goldens bit for bit.

`tools/trajectory_hash.py` hashes a 36-run matrix per batch size, and three
runs at the wide `MNIST3_WIDTHS` on one BLAS thread, once in full and once
over the final theta bytes alone.  The goldens hold only
on the environment that recorded them (numpy build, BLAS and its CPU
kernels, machine), so on any other fingerprint the tests skip.
"""

import ctypes
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rockrelax.models import MNIST3_WIDTHS, SCRATCH_MAX_BYTES, Architecture
from rockrelax.trainer import TrainConfig, run

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
    key = str(batch_size)
    assert trajectory_hash.digest(batch_size) == (GOLDEN["digests"][key],
                                                  GOLDEN["theta_digests"][key])


def test_wide_digest_matches_golden():
    skip_on_other_fingerprint()
    assert trajectory_hash.wide_digest() == (GOLDEN["digests"]["wide"],
                                             GOLDEN["theta_digests"]["wide"])


def test_goldens_hold_a_theta_digest_per_digest():
    assert set(GOLDEN["theta_digests"]) == set(GOLDEN["digests"])


def test_theta_digest_covers_the_final_theta_alone():
    data = trajectory_hash.splits(0)
    config = TrainConfig(epochs_per_iteration=1, max_iterations=2)
    h, theta_h = hashlib.sha256(), hashlib.sha256()
    trajectory_hash._hash_run(h, theta_h, data, config, Architecture((10, 3)))
    model, _ = run(*data, config, Architecture((10, 3)))
    assert theta_h.hexdigest() == hashlib.sha256(model.theta.tobytes()).hexdigest()
    assert h.hexdigest() != theta_h.hexdigest()


def test_wide_training_set_spans_several_blocks_of_the_full_set_pass():
    train = trajectory_hash.wide_splits()[0]
    rows = SCRATCH_MAX_BYTES // (8 * max(MNIST3_WIDTHS[1:-1]))
    assert train.features.shape[0] > 2 * rows and train.features.shape[0] % rows


def test_digests_do_not_depend_on_the_blas_thread_count():
    # the fingerprint leaves the thread count out; at 10-16-16-3 one thread gives
    # the goldens too, and the wide digest pins its runs to one thread
    skip_on_other_fingerprint()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "trajectory_hash.py")],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [f"{GOLDEN['digests'][str(size)]}  batch {size}"
                                for size in trajectory_hash.BATCH_SIZES] + [
                                    f"{GOLDEN['digests']['wide']}  wide"]


def test_one_blas_thread_restores_the_thread_count():
    get = trajectory_hash._openblas("scipy_openblas_get_num_threads64_")
    if get is None:
        pytest.skip("numpy bundles no OpenBLAS")
    get.restype = ctypes.c_int
    before = get()
    with trajectory_hash.one_blas_thread():
        assert get() == 1
    assert get() == before
