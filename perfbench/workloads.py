"""The benchmark's workloads: training problems, the ops of one round, the warm-up.

Round k runs `trainer.run` once per config in `Workload.rounds[k % len]`
(in an order drawn from the workload seed), then `reweight_reps` calls
of `trainer.reweight_step` per model.  Reweighting models are the rrm models
the round just trained (`reweight_models == "trained"`) or linear models
re-initialised at seeds drawn from the workload seed (`"init"`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from clock import loss_scan, sgd_batch, small_ops
from rockrelax import trainer
from rockrelax.data import ContaminatedDataset, inject_ncar, make_synthetic_blobs, split
from rockrelax.models import MNIST3_WIDTHS, Architecture, LossKind, init_params
from rockrelax.reweight import ReweightConfig, WeightShift
from rockrelax.trainer import TrainConfig

MODES = ("erm", "rrm", "arrm")
EPSILON_TRAIN = 0.1
NOISE_RATE = 0.6


@dataclass(frozen=True)
class Problem:
    train: ContaminatedDataset
    validation: ContaminatedDataset
    test: ContaminatedDataset


@dataclass(frozen=True)
class Workload:
    name: str
    widths: tuple[int, ...]
    make_problems: Callable[[dict], dict[int, Problem]]  # data timings -> problems by run seed
    rounds: tuple[tuple[TrainConfig, ...], ...]
    reweight: TrainConfig
    reweight_models: str
    reweight_reps: int
    gap_gate: float | None  # minimum mean rrm - erm test-accuracy gap, or None
    warmup_rows: int
    reference: Callable  # clock reference loop shaped like the workload's hot loop

    @property
    def runs(self) -> tuple[TrainConfig, ...]:
        return tuple(c for r in self.rounds for c in r)

    @property
    def architecture(self) -> Architecture:
        return Architecture(self.widths)


def _timed(timings: dict, name: str, fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    timings[name] = timings.get(name, 0.0) + time.perf_counter() - start
    return out


def _pristine(ds: ContaminatedDataset) -> ContaminatedDataset:
    return ContaminatedDataset.clean(ds.features, ds.clean_labels, ds.num_classes)


def _contaminate(timings, ds: ContaminatedDataset, seed: int) -> ContaminatedDataset:
    observed, chosen = _timed(timings, "inject_ncar", inject_ncar, ds.clean_labels,
                              NOISE_RATE, ds.num_classes, seed)
    return ContaminatedDataset(ds.features, observed, ds.clean_labels, chosen, ds.num_classes)


def _blobs(timings, per_class, dim, separation, seed) -> ContaminatedDataset:
    return _timed(timings, "make_synthetic_blobs", make_synthetic_blobs, 3, per_class, dim,
                  separation, seed)


def _take(ds: ContaminatedDataset, rows: slice) -> ContaminatedDataset:
    return ContaminatedDataset.clean(ds.features[rows], ds.clean_labels[rows], ds.num_classes)


def _config(mode: str, seed: int, epochs: int, iterations: int,
            reweight: ReweightConfig) -> TrainConfig:
    return TrainConfig(mode=mode, loss_kind=LossKind.CCE,
                       epsilon_train=EPSILON_TRAIN if mode == "arrm" else 0.0,
                       epochs_per_iteration=epochs, batch_size=32, learning_rate=0.1,
                       reweight=reweight, max_iterations=iterations, seed=seed)


def blob_gate(small: bool = False) -> Workload:
    """The criterion-5 CI gate: seeds 0, 1, 2 in each mode, gamma auto-tuned at 0.6."""
    per_class, epochs, iterations = (40, 1, 2) if small else (1000, 10, 10)
    seeds = (0, 1, 2)

    def make_problems(timings):
        problems = {}
        for seed in seeds:
            ds = _contaminate(timings, _blobs(timings, per_class, 10, 6.0, seed), seed + 100)
            train, val, test = _timed(timings, "split", split, ds, (0.64, 0.16, 0.2), seed + 200)
            problems[seed] = Problem(train, val, _pristine(test))
        return problems

    rw = ReweightConfig(gamma=0.4, mu=0.5, contamination_estimate=NOISE_RATE)
    rounds = tuple(tuple(_config(m, s, epochs, iterations, rw) for m in MODES) for s in seeds)
    return Workload("blob-gate", (10, 64, 64, 3), make_problems, rounds,
                    reweight=_config("rrm", 0, epochs, iterations, rw),
                    reweight_models="trained", reweight_reps=5,
                    gap_gate=None if small else 0.05, warmup_rows=per_class * 3,
                    reference=small_ops)


def mnist_shaped(small: bool = False) -> Workload:
    """MNIST3_WIDTHS on synthetic 784-dim features in [0, 1], 18623-sample pool, 3147 test."""
    pool_n, test_n = (600, 150) if small else (18623, 3147)
    widths = ((784, 16, 3) if small else MNIST3_WIDTHS)

    def make_problems(timings):
        per_class = -(-(pool_n + test_n) // 3)
        blobs = _blobs(timings, per_class, 784, 40.0, 0)
        # squash into [0, 1] like IDX pixels / 255, keeping the class structure
        ds = ContaminatedDataset.clean(np.clip(0.5 + 0.15 * blobs.features, 0.0, 1.0),
                                       blobs.clean_labels, 3)
        pool = _contaminate(timings, _take(ds, slice(0, pool_n)), 1)
        train, val = _timed(timings, "split", split, pool, (0.8, 0.2), 2)
        return {0: Problem(train, val, _take(ds, slice(pool_n, pool_n + test_n)))}

    rw = ReweightConfig(gamma=0.4, mu=0.5)
    runs = tuple(_config(m, 0, 1, 2, rw) for m in MODES)
    return Workload("mnist-shaped", widths, make_problems, (runs,), reweight=runs[1],
                    reweight_models="trained", reweight_reps=6, gap_gate=None,
                    warmup_rows=256 if small else 1024, reference=sgd_batch)


def reweight_large_n(small: bool = False) -> Workload:
    """N = 10^5 blobs (dim 8) under a linear softmax, gamma auto-tuned at 0.6 (mu = 1)."""
    train_n, test_n = (2000, 300) if small else (100_000, 6000)
    pool_n = train_n * 5 // 4

    def make_problems(timings):
        per_class = -(-(pool_n + test_n) // 3)
        ds = _blobs(timings, per_class, 8, 6.0, 0)
        pool = _contaminate(timings, _take(ds, slice(0, pool_n)), 1)
        train, val = _timed(timings, "split", split, pool, (0.8, 0.2), 2)
        return {0: Problem(train, val, _take(ds, slice(pool_n, pool_n + test_n)))}

    rw = ReweightConfig(gamma=0.4, mu=0.5, contamination_estimate=NOISE_RATE)
    runs = tuple(_config(m, 0, 1, 2, rw) for m in MODES)
    # erm takes a sixth of rrm's time here, so it runs thrice per round for as many samples
    return Workload("reweight-large-n", (8, 3), make_problems, (runs + runs[:1] * 2,),
                    reweight=runs[1],
                    reweight_models="init", reweight_reps=1, gap_gate=None,
                    warmup_rows=512 if small else 4096, reference=loss_scan)


WORKLOADS = {w.__name__.replace("_", "-"): w for w in (blob_gate, mnist_shaped, reweight_large_n)}

# Linear models re-initialised per round for `reweight_models == "init"`.
INIT_MODELS = 3


def reweight_models(workload: Workload, trained: list, rng: np.random.Generator) -> list:
    """(model, problem key) pairs for one round's reweight_step ops."""
    if workload.reweight_models == "trained":
        return trained
    seeds = rng.integers(0, 2**31, size=INIT_MODELS)
    return [(init_params(workload.architecture, int(s)), workload.reweight.seed) for s in seeds]


def warm_up(workload: Workload, problems: dict[int, Problem]):
    """One untimed pass over every code path a round takes, on a slice of the data."""
    problem = next(iter(problems.values()))
    arch = workload.architecture
    model = init_params(arch, 0)
    trainer.accuracy(model, problem.train.features, problem.train.observed_labels)
    rows = slice(0, workload.warmup_rows)
    part = ContaminatedDataset(
        problem.train.features[rows], problem.train.observed_labels[rows],
        problem.train.clean_labels[rows],
        np.flatnonzero(problem.train.contamination_mask()[rows]), problem.train.num_classes)
    for config in {c.mode: c for c in workload.runs}.values():
        trainer.run(part, part, part, replace(config, epochs_per_iteration=1, max_iterations=1),
                    arch)
    trainer.reweight_step(model, part, WeightShift.zero(part.n), workload.reweight)
