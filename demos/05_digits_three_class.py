"""Three-digit image experiment at full scale (requires the IDX files).

Point ROCKRELAX_MNIST_DIR at a directory containing the four standard IDX
files (train-images-idx3-ubyte, train-labels-idx1-ubyte, t10k-images-idx3-ubyte,
t10k-labels-idx1-ubyte). The script keeps digits 0-2, contaminates 60% of the
training labels, and compares ERM with the reweighting loop on a bias-free
(784, 320, 320, 200, 3) network. Expect on the order of half an hour.
"""

import os
import sys
from pathlib import Path

from rockrelax import (
    Architecture,
    ContaminatedDataset,
    LossKind,
    ReweightConfig,
    TrainConfig,
    inject_ncar,
    load_idx,
    run,
    split,
    subset_classes,
)
from rockrelax.models import MNIST3_WIDTHS

root = os.environ.get("ROCKRELAX_MNIST_DIR")
if not root:
    sys.exit("set ROCKRELAX_MNIST_DIR to the directory holding the IDX files")
root = Path(root)

features, labels = load_idx(root / "train-images-idx3-ubyte",
                            root / "train-labels-idx1-ubyte")
tfeat, tlab = load_idx(root / "t10k-images-idx3-ubyte", root / "t10k-labels-idx1-ubyte")
pool = subset_classes(ContaminatedDataset.clean(features, labels, 10), {0, 1, 2})
test = subset_classes(ContaminatedDataset.clean(tfeat, tlab, 10), {0, 1, 2})
print(f"training pool {pool.n}, test {test.n}")

observed, chosen = inject_ncar(pool.clean_labels, 0.6, 3, seed=0)
cont = ContaminatedDataset(pool.features, observed, pool.clean_labels, chosen, 3)
train, val = split(cont, (0.8, 0.2), seed=0)

base = dict(loss_kind=LossKind.CCE, epochs_per_iteration=10, batch_size=32,
            learning_rate=0.1, reweight=ReweightConfig(gamma=0.4, mu=0.5),
            max_iterations=10, seed=0)
for mode in ("erm", "rrm"):
    _, rec = run(train, val, test, TrainConfig(mode=mode, **base),
                 Architecture(MNIST3_WIDTHS))
    print(f"{mode}: test accuracy at peak validation {rec.test_at_peak_validation:.3f}")
