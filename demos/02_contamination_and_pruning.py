"""Inject label noise into synthetic blobs and watch the reweighter find it.

Trains the reweighting loop on a 20%-contaminated 3-class problem and prints,
per outer iteration, how many contaminated vs clean samples have been pushed
into the bottom weight bucket (weight near zero = pruned).
"""

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

rate = 0.2
blobs = make_synthetic_blobs(3, 800, 10, 6.0, seed=0)
observed, chosen = inject_ncar(blobs.clean_labels, rate, 3, seed=100)
ds = ContaminatedDataset(blobs.features, observed, blobs.clean_labels, chosen, 3)
train, val, test = split(ds, (0.64, 0.16, 0.2), seed=200)
test = ContaminatedDataset.clean(test.features, test.clean_labels, 3)

cfg = TrainConfig(mode="rrm", loss_kind=LossKind.CCE, epochs_per_iteration=10,
                  batch_size=32, learning_rate=0.1,
                  reweight=ReweightConfig(gamma=0.4, mu=0.5, contamination_estimate=rate),
                  max_iterations=10, seed=0)

model, record = run(train, val, test, cfg, Architecture((10, 64, 64, 3)))

n_cont = train.contaminated_set.size
n_clean = train.n - n_cont
print(f"train size {train.n}, contaminated {n_cont}")
print("iter  pruned  bottom-bucket: contaminated  clean   precision  recall")
for r in record.iterations:
    print(f"{r.iteration:4d}  {r.pruned_count:6d}  "
          f"{r.hist_contaminated[-1]:21d}  {r.hist_clean[-1]:5d}   "
          f"{r.pruned_precision:.3f}      {r.pruned_recall:.3f}")

last = record.iterations[-1]
ratio = (last.hist_contaminated[-1] / n_cont) / max(last.hist_clean[-1] / n_clean, 1e-12)
print(f"selectivity: contaminated samples are {ratio:.0f}x more likely to be pruned")
print(f"test accuracy at peak validation: {record.test_at_peak_validation:.3f}")
