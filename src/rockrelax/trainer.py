"""Block-coordinate training loop: weighted SGD epochs alternating with re-weighting.

Each outer iteration runs `epochs_per_iteration` epochs of per-sample
weighted SGD (optionally on FGSM-perturbed batches), then recomputes the
shift vector u from the full-training-set losses.  An ERM baseline is the
same loop with the re-weighting step disabled (u stays identically zero).
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from rockrelax.data import ContaminatedDataset
from rockrelax.errors import InvalidInputError
from rockrelax.models import (
    Architecture,
    LossKind,
    ModelState,
    _check_features,
    _check_labels,
    _losses,
    fgsm_perturb,
    forward,
    grad_params_weighted,
    init_params,
    loss_per_sample,
)
from rockrelax.reweight import (
    LossPartition,
    ReweightConfig,
    WeightShift,
    auto_tune_gamma,
    blend_weights,
    partition_losses,
    solve_reweight,  # unused here; perfbench's tracer wraps it by name, its smoke test needs it
    tv_distance,
)

MODES = ("erm", "rrm", "arrm")

# Weight-histogram bucket edges in units of 1/N (applied to q = u * N).
# Mirrors the evolution-tracking scheme: strongly positive, near zero,
# then graded quarters of 1/N down to the full-prune value -1/N.
BUCKET_LABELS = (
    ">>0",
    "~0",
    "(-1/4N, 0)",
    "(-1/2N, -1/4N]",
    "(-3/4N, -1/2N]",
    "(-1/N, -3/4N]",
)
_NEAR_ZERO = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    `patience` (at least 1) is the number of iterations without a new peak
    validation accuracy after which the run stops.  Its default equals the
    default `max_iterations` (10) and the first iteration always sets a
    peak, so early stopping never fires by default; set `patience` below
    `max_iterations` to use it.
    """

    mode: str = "rrm"
    loss_kind: LossKind = LossKind.CCE
    epsilon_train: float = 0.0
    epochs_per_iteration: int = 10
    batch_size: int = 32
    learning_rate: float = 0.1
    reweight: ReweightConfig = field(default_factory=ReweightConfig)
    max_iterations: int = 10
    seed: int = 0
    patience: int = 10

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidInputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.loss_kind, LossKind):
            raise InvalidInputError(f"loss_kind must be a LossKind, got {self.loss_kind!r}")
        if not 0 <= self.epsilon_train <= 1:
            raise InvalidInputError(f"epsilon_train must lie in [0, 1], got {self.epsilon_train}")
        if (self.mode == "arrm") != (self.epsilon_train > 0):
            raise InvalidInputError("arrm mode requires epsilon_train > 0; erm/rrm require 0")
        for name in ("epochs_per_iteration", "batch_size", "max_iterations", "patience", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer would not echo as JSON
        if self.epochs_per_iteration < 1 or self.batch_size < 1 or self.max_iterations < 1:
            raise InvalidInputError("epochs, batch size, and iterations must be >= 1")
        if self.patience < 1:
            raise InvalidInputError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if not self.learning_rate > 0:
            raise InvalidInputError(f"learning rate must be positive, got {self.learning_rate}")
        if not math.isfinite(self.learning_rate):
            raise InvalidInputError(f"learning rate must be finite, got {self.learning_rate}")


@dataclass
class IterationRecord:
    iteration: int
    mean_loss: float
    min_loss: float
    max_loss: float
    train_accuracy: float
    validation_accuracy: float
    test_accuracy: float
    tv: float
    pruned_count: int
    pruned_precision: float
    pruned_recall: float
    hist_contaminated: tuple[int, ...]
    hist_clean: tuple[int, ...]


@dataclass
class RunRecord:
    """Per-iteration metrics plus run-level summary bookkeeping.

    `peak_model` is the model whose test accuracy `test_at_peak_validation`
    reports.  It is kept by reference (gradient_step never writes to the
    model it is given) and is not part of the summary.
    """

    config: dict
    iterations: list[IterationRecord] = field(default_factory=list)
    test_at_peak_validation: float = float("nan")
    peak_validation_accuracy: float = float("nan")
    peak_model: ModelState | None = field(default=None, repr=False, compare=False)

    @property
    def max_test_accuracy(self) -> float:
        """The largest recorded test accuracy; NaN with no iteration or an empty test set."""
        return max((rec.test_accuracy for rec in self.iterations), default=float("nan"))

    def summary(self) -> dict:
        return {
            "config": self.config,
            "iterations_run": len(self.iterations),
            "test_at_peak_validation": self.test_at_peak_validation,
            "max_test_accuracy": self.max_test_accuracy,
            "peak_validation_accuracy": self.peak_validation_accuracy,
            "final_test_accuracy": self.iterations[-1].test_accuracy if self.iterations else None,
        }

    def to_csv(self, path):
        """One row per iteration: the scalar fields, then one column per histogram bucket."""
        scalars = [f.name for f in fields(IterationRecord) if not f.name.startswith("hist_")]
        buckets = range(len(BUCKET_LABELS))
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(scalars + [f"hist_contaminated_{i}" for i in buckets]
                       + [f"hist_clean_{i}" for i in buckets])
            for rec in self.iterations:
                w.writerow([getattr(rec, name) for name in scalars]
                           + list(rec.hist_contaminated) + list(rec.hist_clean))


def weight_histogram(u: WeightShift, contaminated_set) -> dict:
    """Bucketed counts of u (in units of 1/N), split contaminated vs clean.

    `contaminated_set` holds distinct indices, as ContaminatedDataset's does.
    """
    q = u.shifts * u.n
    # a bucket is 5 less the number of its edges q lies above; the cast keeps
    # the first sum an integer one, since numpy adds bool arrays as a logical or
    bucket = 5 - ((q > -0.75).astype(int) + (q > -0.5) + (q > -0.25)
                  + (q >= -_NEAR_ZERO) + (q > _NEAR_ZERO))
    k = len(BUCKET_LABELS)
    contaminated = np.bincount(bucket[np.asarray(contaminated_set, dtype=int)], minlength=k)
    return {
        "buckets": BUCKET_LABELS,
        "contaminated": tuple(contaminated),
        "clean": tuple(np.bincount(bucket, minlength=k) - contaminated),
    }


def accuracy(model: ModelState, features: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose most probable class is their label; NaN on an empty set.

    Labels are checked as `loss_per_sample` checks them: one integer in
    [0, k) per row, so an empty set takes no labels.
    """
    probs = forward(model, features)
    labels = np.asarray(labels)
    n, k = probs.shape
    _check_labels(labels, k, n)
    return float(np.mean(probs.argmax(axis=1) == labels)) if n else float("nan")


def gradient_step(model: ModelState, dataset: ContaminatedDataset, u: WeightShift,
                  config: TrainConfig, rng: np.random.Generator) -> ModelState:
    """Run epochs_per_iteration epochs of weighted SGD; returns the updated model.

    Per-batch update: theta -= lr * (N / batch) * sum_i w_i grad_i with
    w_i = 1/N + u_i looked up by global sample id, so uniform weights
    reproduce the plain mean-gradient SGD step and a fully-pruned sample
    contributes nothing.  Theta is updated in place in one private working
    copy, through one gradient buffer reused by every batch; the caller's
    model is left untouched.
    """
    n = dataset.n
    if n == 0:
        raise InvalidInputError("the training set holds no samples")
    if u.n != n:
        raise InvalidInputError(f"shift vector length {u.n} != dataset size {n}")
    weights = u.weights()
    if np.any(weights < 0):
        raise InvalidInputError("sample weights must be non-negative")
    work = model.with_theta(model.theta.copy())
    theta = work.theta
    grad = np.empty_like(theta)
    eps = config.epsilon_train
    for _ in range(config.epochs_per_iteration):
        order = rng.permutation(n)
        labels, sample_weights = dataset.observed_labels[order], weights[order]
        for start in range(0, n, config.batch_size):
            batch = slice(start, start + config.batch_size)
            ids = order[batch]
            x = dataset.features.take(ids, axis=0)  # a copy, like features[ids], but faster
            y = labels[batch]
            if eps > 0:
                x = fgsm_perturb(work, x, y, eps, config.loss_kind)
            grad_params_weighted(work, x, y, sample_weights[batch], config.loss_kind, out=grad)
            grad *= config.learning_rate * (n / ids.size)
            theta -= grad
    return model.with_theta(theta)


def reweight_step(model: ModelState, dataset: ContaminatedDataset, u_prev: WeightShift,
                  config: TrainConfig, losses: np.ndarray | None = None
                  ) -> tuple[WeightShift, LossPartition]:
    """Recompute u from full-training-set losses (unperturbed, eval mode).

    `losses` are the per-sample losses of `model` on `dataset` when the
    caller has them already.  When None, they are computed here in one
    pass: `loss_per_sample(forward(model, features), observed_labels,
    loss_kind)` bit for bit, with the same input checks, but for CCE over at
    most `CLASS_MAJOR_MAX_K` classes without the probability matrix.  A loss
    vector whose length differs from u_prev's is rejected by the blend.
    """
    c = losses
    if c is None:
        c = _losses(model, dataset.features, dataset.observed_labels, config.loss_kind)
    rw = config.reweight
    if rw.contamination_estimate is not None:
        gamma, mu = auto_tune_gamma(c, rw.contamination_estimate), 1.0
    else:
        gamma, mu = rw.gamma, rw.mu
    part = partition_losses(c, gamma)
    return blend_weights(u_prev, WeightShift.from_partition(part), mu), part


def _pruned_metrics(part: LossPartition, dataset: ContaminatedDataset) -> tuple[int, float, float]:
    """(|chi|, share of chi that is contaminated, share of contaminated in chi)."""
    pruned, contaminated = part.chi.size, dataset.contaminated_set.size
    hits = int(np.count_nonzero(dataset.contamination_mask()[part.chi]))
    precision = hits / pruned if pruned else 0.0
    recall = hits / contaminated if contaminated else 0.0
    return pruned, precision, recall


def _check_fits(dataset: ContaminatedDataset, architecture: Architecture, name: str) -> None:
    """Raise InvalidInputError, its message led by `name`, unless `dataset` fits `architecture`.

    The feature width must be the input width.  Observed labels train the
    model and clean labels score it, so both must lie in [0, outputs).
    """
    try:
        _check_features(architecture, dataset.features)
        for labels in (dataset.observed_labels, dataset.clean_labels):
            _check_labels(labels, architecture.num_classes, dataset.n)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{name} holds {exc}") from exc


def run(train: ContaminatedDataset, validation: ContaminatedDataset,
        test: ContaminatedDataset, config: TrainConfig,
        architecture: Architecture) -> tuple[ModelState, RunRecord]:
    """Full training loop with metric capture and validation-based early stop.

    Test accuracy is reported both at peak validation accuracy and as the
    maximum over iterations; the model returned is the final one, and
    `record.peak_model` is the one at peak validation.  All three sets are
    checked against the architecture before the first epoch.  Each iteration's
    (n, k) probability matrix of the training set lives only for its loss and
    accuracy, so it is not held through reweighting, evaluation and the next
    epochs.
    """
    for name, dataset in (("train set", train), ("validation set", validation),
                          ("test set", test)):
        _check_fits(dataset, architecture, name)
    model = init_params(architecture, config.seed)
    rng = np.random.default_rng(config.seed)
    u = WeightShift.zero(train.n)
    record = RunRecord(config=_config_echo(config))
    stale = 0
    for it in range(1, config.max_iterations + 1):
        model = gradient_step(model, train, u, config, rng)
        probs = forward(model, train.features)
        c = loss_per_sample(probs, train.observed_labels, config.loss_kind)
        train_acc = float(np.mean(probs.argmax(axis=1) == train.observed_labels))
        del probs  # freed before the reweighting step and the evaluation passes
        if config.mode == "erm":
            pruned, precision, recall = 0, 0.0, 0.0
        else:
            u, part = reweight_step(model, train, u, config, losses=c)
            pruned, precision, recall = _pruned_metrics(part, train)
        val_acc = accuracy(model, validation.features, validation.observed_labels)
        test_acc = accuracy(model, test.features, test.clean_labels)
        hist = weight_histogram(u, train.contaminated_set)
        record.iterations.append(IterationRecord(
            iteration=it,
            mean_loss=float(c.mean()),
            min_loss=float(c.min()),
            max_loss=float(c.max()),
            train_accuracy=train_acc,
            validation_accuracy=val_acc,
            test_accuracy=test_acc,
            tv=tv_distance(u),
            pruned_count=pruned,
            pruned_precision=precision,
            pruned_recall=recall,
            hist_contaminated=hist["contaminated"],
            hist_clean=hist["clean"],
        ))
        # true at the first iteration (the peak starts as NaN), on a new maximum, and
        # on a NaN val_acc: without a validation split every model is a peak, so the
        # final one is reported and patience never runs out
        if not val_acc <= record.peak_validation_accuracy:
            stale = 0
            record.peak_validation_accuracy = val_acc
            record.test_at_peak_validation = test_acc
            record.peak_model = model
        else:
            stale += 1
            if stale >= config.patience:
                break
    return model, record


def evaluate_fgsm_sweep(model: ModelState, test: ContaminatedDataset,
                        epsilons, kind: LossKind) -> dict[float, float]:
    """Accuracy on the test set under FGSM attacks of varying strength (eps = 0: unperturbed)."""
    x, y = test.features, test.clean_labels
    return {float(eps): accuracy(model, fgsm_perturb(model, x, y, eps, kind), y)
            for eps in epsilons}


def _config_echo(config: TrainConfig) -> dict:
    d = asdict(config)
    d["loss_kind"] = config.loss_kind.value
    return d
