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

    python tools/trajectory_hash.py

The tool puts the checkout's `src/` first on `sys.path`, so it hashes the
package next to it, not an installed copy, and needs no PYTHONPATH.

The digests depend on the numpy build, the BLAS and the CPU it dispatches
to.  `tests/test_trajectory_hash.py` compares them with the goldens in
`tests/trajectory_golden.json`, recorded together with `fingerprint()` of
the environment that produced them, and skips on any other fingerprint.

The fingerprint leaves out the BLAS thread count: at these widths one
OpenBLAS thread gives the same digests as two, and a test checks the
goldens at `OPENBLAS_NUM_THREADS=1`.  Wider layers can differ: one SGD
epoch at `MNIST3_WIDTHS` gives another theta on one thread than on two.

A change that alters a trajectory on purpose rewrites that file with

    python tools/trajectory_hash.py --json > tests/trajectory_golden.json
"""

from __future__ import annotations

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
from rockrelax.models import Architecture, LossKind
from rockrelax.reweight import ReweightConfig
from rockrelax.trainer import TrainConfig, run

ARCH = Architecture((10, 16, 16, 3))
REWEIGHTS = (ReweightConfig(gamma=0.4, mu=0.5), ReweightConfig(contamination_estimate=0.4))
BATCH_SIZES = (16, 23)


def splits(seed: int):
    ds = make_synthetic_blobs(3, 200, 10, 4.0, seed=seed)
    observed, chosen = inject_ncar(ds.clean_labels, 0.4, 3, seed=seed + 100)
    ds = ContaminatedDataset(ds.features, observed, ds.clean_labels, chosen, 3)
    train, val, test = split(ds, (0.64, 0.16, 0.2), seed=seed + 200)
    test = ContaminatedDataset(test.features, test.clean_labels, test.clean_labels,
                               np.empty(0, dtype=int), 3)
    return train, val, test


def _openblas_core() -> str | None:
    """The CPU kernel set chosen at run time by the OpenBLAS bundled with numpy, if any."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [], ctypes.c_char_p
        return fn().decode()
    return None


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


def digest(batch_size: int) -> str:
    h = hashlib.sha256()
    for seed in (0, 1):
        data = splits(seed)
        for mode in ("erm", "rrm", "arrm"):
            for kind in LossKind:
                for rw in REWEIGHTS:
                    config = TrainConfig(
                        mode=mode, loss_kind=kind,
                        epsilon_train=0.05 if mode == "arrm" else 0.0,
                        epochs_per_iteration=2, batch_size=batch_size, learning_rate=0.1,
                        reweight=rw, max_iterations=4, seed=seed)
                    model, record = run(*data, config, ARCH)
                    h.update(model.theta.tobytes())
                    h.update(repr(record.iterations).encode())
                    h.update(json.dumps(record.summary(), sort_keys=True, default=str).encode())
    return h.hexdigest()


if __name__ == "__main__":
    if sys.argv[1:] == ["--json"]:
        golden = {"fingerprint": fingerprint(),
                  "digests": {str(size): digest(size) for size in BATCH_SIZES}}
        print(json.dumps(golden, indent=2))
    else:
        for size in BATCH_SIZES:
            print(f"{digest(size)}  batch {size}")
