"""Head-to-head: plain ERM vs the reweighting loop under 60% label noise.

At 60% contamination a majority of training labels are wrong, yet the
reweighting loop recovers most of the lost accuracy by pruning high-loss
samples each outer iteration.
"""

import numpy as np

from rockrelax import (
    Architecture,
    ContaminatedDataset,
    LossKind,
    ReweightConfig,
    TrainConfig,
    inject_ncar,
    make_synthetic_blobs,
    run,
    split,
)

ARCH = Architecture((10, 64, 64, 3))


def splits(seed, rate=0.6):
    blobs = make_synthetic_blobs(3, 1000, 10, 6.0, seed=seed)
    observed, chosen = inject_ncar(blobs.clean_labels, rate, 3, seed=seed + 100)
    ds = ContaminatedDataset(blobs.features, observed, blobs.clean_labels, chosen, 3)
    train, val, test = split(ds, (0.64, 0.16, 0.2), seed=seed + 200)
    test = ContaminatedDataset.clean(test.features, test.clean_labels, 3)
    return train, val, test


def cfg(mode, seed):
    return TrainConfig(mode=mode, loss_kind=LossKind.CCE, epochs_per_iteration=10,
                       batch_size=32, learning_rate=0.1,
                       reweight=ReweightConfig(gamma=0.4, mu=0.5, contamination_estimate=0.6),
                       max_iterations=10, seed=seed)


gaps = []
print("seed   erm    reweighted   gap")
for seed in (0, 1, 2):
    train, val, test = splits(seed)
    _, erm = run(train, val, test, cfg("erm", seed), ARCH)
    _, rrm = run(train, val, test, cfg("rrm", seed), ARCH)
    gap = rrm.test_at_peak_validation - erm.test_at_peak_validation
    gaps.append(gap)
    print(f"{seed:4d}  {erm.test_at_peak_validation:.3f}  {rrm.test_at_peak_validation:.3f}"
          f"        {100 * gap:+.1f} pts")
print(f"mean gap: {100 * float(np.mean(gaps)):.1f} points")
