"""Block-coordinate training loop: weighted SGD epochs alternating with re-weighting.

Each outer iteration runs `epochs_per_iteration` epochs of per-sample
weighted SGD (optionally on FGSM-perturbed batches), then recomputes the
shift vector u from the full-training-set losses.  An ERM baseline is the
same loop with the re-weighting step disabled (u stays identically zero).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from rockrelax.data import ContaminatedDataset
from rockrelax.errors import InvalidInputError
from rockrelax.models import (
    Architecture,
    LossKind,
    ModelState,
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
    solve_reweight,  # unused here; perfbench's tracer wraps it by its name in this module
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

    `patience` is the number of iterations without a new peak validation
    accuracy after which the run stops.  Its default equals the default
    `max_iterations` (10) and the first iteration always sets a peak, so
    early stopping never fires by default; set `patience` below
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
        if not 0 <= self.epsilon_train <= 1:
            raise InvalidInputError(f"epsilon_train must lie in [0, 1], got {self.epsilon_train}")
        if (self.mode == "arrm") != (self.epsilon_train > 0):
            raise InvalidInputError("arrm mode requires epsilon_train > 0; erm/rrm require 0")
        if self.epochs_per_iteration < 1 or self.batch_size < 1 or self.max_iterations < 1:
            raise InvalidInputError("epochs, batch size, and iterations must be >= 1")
        if not self.learning_rate > 0:
            raise InvalidInputError(f"learning rate must be positive, got {self.learning_rate}")


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
    """Per-iteration metrics plus run-level summary bookkeeping."""

    config: dict
    iterations: list[IterationRecord] = field(default_factory=list)
    test_at_peak_validation: float = float("nan")
    max_test_accuracy: float = float("nan")
    peak_validation_accuracy: float = float("nan")

    def append(self, rec: IterationRecord):
        if self.iterations and rec.iteration <= self.iterations[-1].iteration:
            raise InvalidInputError("iteration records must be appended in order")
        self.iterations.append(rec)

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
        scalar_fields = [
            "iteration", "mean_loss", "min_loss", "max_loss", "train_accuracy",
            "validation_accuracy", "test_accuracy", "tv", "pruned_count",
            "pruned_precision", "pruned_recall",
        ]
        hist_fields = [f"hist_contaminated_{i}" for i in range(len(BUCKET_LABELS))]
        hist_fields += [f"hist_clean_{i}" for i in range(len(BUCKET_LABELS))]
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(scalar_fields + hist_fields)
            for rec in self.iterations:
                d = asdict(rec)
                row = [d[k] for k in scalar_fields]
                row += list(rec.hist_contaminated) + list(rec.hist_clean)
                w.writerow(row)

    def to_json(self, path):
        with open(path, "w") as f:
            json.dump(self.summary(), f, indent=2, default=str)


def weight_histogram(u: WeightShift, contaminated_set) -> dict:
    """Bucketed counts of u (in units of 1/N), split contaminated vs clean."""
    n = u.n
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(contaminated_set, dtype=int)] = True
    q = u.shifts * n
    bucket = np.empty(n, dtype=int)
    bucket[q > _NEAR_ZERO] = 0
    bucket[np.abs(q) <= _NEAR_ZERO] = 1
    neg = q < -_NEAR_ZERO
    bucket[neg & (q > -0.25)] = 2
    bucket[(q <= -0.25) & (q > -0.5)] = 3
    bucket[(q <= -0.5) & (q > -0.75)] = 4
    bucket[q <= -0.75] = 5
    k = len(BUCKET_LABELS)
    return {
        "buckets": BUCKET_LABELS,
        "contaminated": tuple(np.bincount(bucket[mask], minlength=k)),
        "clean": tuple(np.bincount(bucket[~mask], minlength=k)),
    }


def accuracy(model: ModelState, features: np.ndarray, labels: np.ndarray) -> float:
    if features.shape[0] == 0:
        return float("nan")
    return float(np.mean(forward(model, features).argmax(axis=1) == labels))


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
        for start in range(0, n, config.batch_size):
            ids = order[start:start + config.batch_size]
            x = dataset.features[ids]
            y = dataset.observed_labels[ids]
            if eps > 0:
                x = fgsm_perturb(work, x, y, eps, config.loss_kind)
            grad_params_weighted(work, x, y, weights[ids], config.loss_kind, out=grad)
            grad *= config.learning_rate * (n / ids.size)
            theta -= grad
    return model.with_theta(theta)


def reweight_step(model: ModelState, dataset: ContaminatedDataset, u_prev: WeightShift,
                  config: TrainConfig, losses: np.ndarray | None = None
                  ) -> tuple[WeightShift, LossPartition]:
    """Recompute u from full-training-set losses (unperturbed, eval mode).

    `losses` are the per-sample losses of `model` on `dataset` when the
    caller has them already; when None they are computed here.  A loss
    vector whose length differs from u_prev's is rejected by the blend.
    """
    c = losses
    if c is None:
        c = loss_per_sample(forward(model, dataset.features), dataset.observed_labels,
                            config.loss_kind)
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


def run(train: ContaminatedDataset, validation: ContaminatedDataset,
        test: ContaminatedDataset, config: TrainConfig,
        architecture: Architecture) -> tuple[ModelState, RunRecord]:
    """Full training loop with metric capture and validation-based early stop.

    Test accuracy is reported both at peak validation accuracy and as the
    maximum over iterations; the model returned is the final one.
    """
    model = init_params(architecture, config.seed)
    rng = np.random.default_rng(config.seed)
    u = WeightShift.zero(train.n)
    record = RunRecord(config=_config_echo(config))
    best_val, stale = -np.inf, 0
    for it in range(1, config.max_iterations + 1):
        model = gradient_step(model, train, u, config, rng)
        probs = forward(model, train.features)
        c = loss_per_sample(probs, train.observed_labels, config.loss_kind)
        if config.mode == "erm":
            pruned, precision, recall = 0, 0.0, 0.0
        else:
            u, part = reweight_step(model, train, u, config, losses=c)
            pruned, precision, recall = _pruned_metrics(part, train)
        val_acc = accuracy(model, validation.features, validation.observed_labels)
        test_acc = accuracy(model, test.features, test.clean_labels)
        hist = weight_histogram(u, train.contaminated_set)
        record.append(IterationRecord(
            iteration=it,
            mean_loss=float(c.mean()),
            min_loss=float(c.min()),
            max_loss=float(c.max()),
            train_accuracy=float(np.mean(probs.argmax(axis=1) == train.observed_labels)),
            validation_accuracy=val_acc,
            test_accuracy=test_acc,
            tv=tv_distance(u),
            pruned_count=pruned,
            pruned_precision=precision,
            pruned_recall=recall,
            hist_contaminated=hist["contaminated"],
            hist_clean=hist["clean"],
        ))
        if np.isnan(record.max_test_accuracy) or test_acc > record.max_test_accuracy:
            record.max_test_accuracy = test_acc
        if np.isnan(val_acc):
            # no validation split: fall back to the final model for reporting
            record.test_at_peak_validation = test_acc
            continue
        if val_acc > best_val:
            best_val, stale = val_acc, 0
            record.peak_validation_accuracy = val_acc
            record.test_at_peak_validation = test_acc
        else:
            stale += 1
            if stale >= config.patience:
                break
    return model, record


def evaluate_fgsm_sweep(model: ModelState, test: ContaminatedDataset,
                        epsilons, kind: LossKind) -> dict[float, float]:
    """Accuracy on the test set under FGSM attacks of varying strength."""
    out = {}
    for eps in epsilons:
        x = fgsm_perturb(model, test.features, test.clean_labels, eps, kind) if eps > 0 \
            else test.features
        out[float(eps)] = float(np.mean(forward(model, x).argmax(axis=1) == test.clean_labels))
    return out


def _config_echo(config: TrainConfig) -> dict:
    d = asdict(config)
    d["loss_kind"] = config.loss_kind.value
    return d
