"""One SHA-256 digest over the float64 trajectories of 36 seeded training runs.

A change that claims to keep training bit-exact must print the same digest
as its parent commit.  The matrix is seeds 0-1 x erm/rrm/arrm x CCE/MAE/MSE
x {fixed gamma 0.4, gamma auto-tuned to prune 40%} on 3-class blobs (200 per
class, dim 10, separation 4, 40% NCAR, split 0.64/0.16/0.2) with widths
10-16-16-3, 4 iterations x 2 epochs, batch 16 and eps_train 0.05 for arrm.
Each run contributes its final theta bytes, the repr of its iteration
records and its summary as sorted JSON.

    PYTHONPATH=src python tools/trajectory_hash.py
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from rockrelax.data import ContaminatedDataset, inject_ncar, make_synthetic_blobs, split
from rockrelax.models import Architecture, LossKind
from rockrelax.reweight import ReweightConfig
from rockrelax.trainer import TrainConfig, run

ARCH = Architecture((10, 16, 16, 3))
REWEIGHTS = (ReweightConfig(gamma=0.4, mu=0.5), ReweightConfig(contamination_estimate=0.4))


def splits(seed: int):
    ds = make_synthetic_blobs(3, 200, 10, 4.0, seed=seed)
    observed, chosen = inject_ncar(ds.clean_labels, 0.4, 3, seed=seed + 100)
    ds = ContaminatedDataset(ds.features, observed, ds.clean_labels, chosen, 3)
    train, val, test = split(ds, (0.64, 0.16, 0.2), seed=seed + 200)
    test = ContaminatedDataset(test.features, test.clean_labels, test.clean_labels,
                               np.empty(0, dtype=int), 3)
    return train, val, test


def digest() -> str:
    h = hashlib.sha256()
    for seed in (0, 1):
        data = splits(seed)
        for mode in ("erm", "rrm", "arrm"):
            for kind in LossKind:
                for rw in REWEIGHTS:
                    config = TrainConfig(
                        mode=mode, loss_kind=kind,
                        epsilon_train=0.05 if mode == "arrm" else 0.0,
                        epochs_per_iteration=2, batch_size=16, learning_rate=0.1,
                        reweight=rw, max_iterations=4, seed=seed)
                    model, record = run(*data, config, ARCH)
                    h.update(model.theta.tobytes())
                    h.update(repr(record.iterations).encode())
                    h.update(json.dumps(record.summary(), sort_keys=True, default=str).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
