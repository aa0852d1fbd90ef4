"""SHA-256 digests over the float64 trajectories of seeded training runs.

A change that claims to keep training bit-exact must print the same digests
as its parent commit.  Each digest covers a 36-run matrix: seeds 0-1 x
erm/rrm/arrm x CCE/MAE/MSE x {fixed gamma 0.4, gamma auto-tuned to prune
40%} on 3-class blobs (200 per class, dim 10, separation 4, 40% NCAR, split
0.64/0.16/0.2) with widths 10-16-16-3, 4 iterations x 2 epochs and
eps_train 0.05 for arrm.  Each run contributes its final theta bytes, the
repr of its iteration records and its summary as sorted JSON.

One line is printed per batch size, as `<digest>  batch <size>`: batch 16
divides the 384 training rows evenly, batch 23 leaves a ragged last batch
of 16 rows.

A third digest, printed as `<digest>  wide`, covers the wide layers: erm,
rrm and arrm (CCE, fixed gamma 0.4 and mu 0.5, eps_train 0.05 for arrm) at
`MNIST3_WIDTHS` on 3-class 784-dim blobs (1,400 per class, separation 40)
squashed into [0, 1] like IDX pixels / 255, with 40% NCAR, split
0.8/0.1/0.1, seed 0, 2 iterations x 1 epoch at batch 32.  Its 3,360
training rows take more than two of the 1,638-row blocks in which full-set
passes run the 320-wide layers at the 4 MiB `SCRATCH_MAX_BYTES`, and are
no multiple of 1,638, so the digest exercises the blocked pass.

    python tools/trajectory_hash.py

The tool puts the checkout's `src/` first on `sys.path`, so it hashes the
package next to it, not an installed copy, and needs no PYTHONPATH.

The digests depend on the numpy build, the BLAS and the CPU it dispatches
to.  `tests/test_trajectory_hash.py` compares them with the goldens in
`tests/trajectory_golden.json`, recorded together with `fingerprint()` of
the environment that produced them, and skips on any other fingerprint.

The fingerprint leaves out the BLAS thread count: at 10-16-16-3 one
OpenBLAS thread gives the same digests as two, and a test checks the
goldens at `OPENBLAS_NUM_THREADS=1`.  Wider layers differ: one SGD epoch at
`MNIST3_WIDTHS` gives another theta on one thread than on two.  So the wide
digest is computed with the OpenBLAS bundled with numpy pinned to one
thread, and the previous count restored afterwards; a numpy without that
OpenBLAS leaves the count as it is (its fingerprint differs from the
goldens' anyway).

A change that alters a trajectory on purpose rewrites that file with

    python tools/trajectory_hash.py --json > tests/trajectory_golden.json
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rockrelax.data import ContaminatedDataset, inject_ncar, make_synthetic_blobs, split
from rockrelax.models import MNIST3_WIDTHS, Architecture, LossKind
from rockrelax.reweight import ReweightConfig
from rockrelax.trainer import TrainConfig, run

ARCH = Architecture((10, 16, 16, 3))
REWEIGHTS = (ReweightConfig(gamma=0.4, mu=0.5), ReweightConfig(contamination_estimate=0.4))
BATCH_SIZES = (16, 23)
WIDE_ARCH = Architecture(MNIST3_WIDTHS)
MODES = ("erm", "rrm", "arrm")


def _noisy_splits(ds: ContaminatedDataset, fractions, seed: int):
    """40% NCAR on `ds`, split into train, validation and a clean test set."""
    observed, chosen = inject_ncar(ds.clean_labels, 0.4, 3, seed=seed + 100)
    ds = ContaminatedDataset(ds.features, observed, ds.clean_labels, chosen, 3)
    train, val, test = split(ds, fractions, seed=seed + 200)
    return train, val, ContaminatedDataset.clean(test.features, test.clean_labels, 3)


def splits(seed: int):
    return _noisy_splits(make_synthetic_blobs(3, 200, 10, 4.0, seed=seed), (0.64, 0.16, 0.2), seed)


def wide_splits():
    blobs = make_synthetic_blobs(3, 1400, 784, 40.0, seed=0)
    ds = ContaminatedDataset.clean(np.clip(0.5 + 0.15 * blobs.features, 0.0, 1.0),
                                   blobs.clean_labels, 3)
    return _noisy_splits(ds, (0.8, 0.1, 0.1), 0)


def _openblas(symbol: str):
    """`symbol` of the OpenBLAS bundled with numpy, or None when there is none."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        try:
            return getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
    return None


def _openblas_core() -> str | None:
    """The CPU kernel set chosen at run time by the OpenBLAS bundled with numpy, if any."""
    fn = _openblas("scipy_openblas_get_corename64_")
    if fn is None:
        return None
    fn.argtypes, fn.restype = [], ctypes.c_char_p
    return fn().decode()


@contextlib.contextmanager
def one_blas_thread():
    """Pin the OpenBLAS bundled with numpy, if any, to one thread for the block."""
    get = _openblas("scipy_openblas_get_num_threads64_")
    pin = _openblas("scipy_openblas_set_num_threads64_")
    if get is None or pin is None:
        yield
        return
    get.argtypes, get.restype = [], ctypes.c_int
    pin.argtypes, pin.restype = [ctypes.c_int], None
    before = get()
    pin(1)
    try:
        yield
    finally:
        pin(before)


def fingerprint() -> dict:
    """What the float64 trajectories depend on besides the code."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 cannot report its build as data
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": _openblas_core(),
        "simd": sorted(config.get("SIMD Extensions", {}).get("found", [])),
        "machine": platform.machine(),
    }


def _hash_run(h, data, config: TrainConfig, arch: Architecture) -> None:
    model, record = run(*data, config, arch)
    h.update(model.theta.tobytes())
    h.update(repr(record.iterations).encode())
    h.update(json.dumps(record.summary(), sort_keys=True, default=str).encode())


def digest(batch_size: int) -> str:
    h = hashlib.sha256()
    for seed in (0, 1):
        data = splits(seed)
        for mode in MODES:
            for kind in LossKind:
                for rw in REWEIGHTS:
                    config = TrainConfig(
                        mode=mode, loss_kind=kind,
                        epsilon_train=0.05 if mode == "arrm" else 0.0,
                        epochs_per_iteration=2, batch_size=batch_size, learning_rate=0.1,
                        reweight=rw, max_iterations=4, seed=seed)
                    _hash_run(h, data, config, ARCH)
    return h.hexdigest()


def wide_digest() -> str:
    h = hashlib.sha256()
    data = wide_splits()
    with one_blas_thread():
        for mode in MODES:
            config = TrainConfig(
                mode=mode, epsilon_train=0.05 if mode == "arrm" else 0.0,
                epochs_per_iteration=1, batch_size=32, learning_rate=0.1,
                reweight=REWEIGHTS[0], max_iterations=2, seed=0)
            _hash_run(h, data, config, WIDE_ARCH)
    return h.hexdigest()


def digests() -> dict[str, str]:
    """Every digest, keyed by batch size and `wide`."""
    return {**{str(size): digest(size) for size in BATCH_SIZES}, "wide": wide_digest()}


if __name__ == "__main__":
    if sys.argv[1:] == ["--json"]:
        print(json.dumps({"fingerprint": fingerprint(), "digests": digests()}, indent=2))
    else:
        for key, value in digests().items():
            print(f"{value}  {'wide' if key == 'wide' else f'batch {key}'}")
