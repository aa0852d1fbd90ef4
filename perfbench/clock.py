"""Wall-clock timing rescaled to a nominal machine speed.

The benchmark host shares its CPUs with other tenants: the same code runs up
to 25% slower or faster for stretches of seconds to minutes.  Around every
timed op the clock also times a short reference loop shaped like the
workload's hot loop.  A run's op times are multiplied by the loop's nominal
time over its mean time in the run (the mean without its top and bottom
tenth), so they read as seconds at the nominal speed.  The raw wall times and
every reference sample are kept in the full result.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(0)
_X = np.arange(64.0)
_A, _W = _RNG.uniform(size=(32, 784)), _RNG.standard_normal((784, 320))
_C = _RNG.exponential(size=100_000)


def small_ops():
    """Interpreter-bound: 300 tiny numpy calls, like blob-gate's per-batch work."""
    acc = 0.0
    for i in range(300):
        acc += float((_X * i).sum())
    return acc


def batch_matmul():
    """BLAS-bound: three (32, 784) @ (784, 320) products, mnist-shaped's first layer."""
    for _ in range(3):
        _A @ _W


def loss_scan():
    """Memory-bound: 40 threshold counts over 10^5 losses, auto_tune_gamma's inner step."""
    for i in range(40):
        np.count_nonzero(_C > 0.05 * i)


def sgd_batch():
    """Both halves of an MNIST-shaped SGD batch: interpreter overhead and BLAS."""
    small_ops()
    batch_matmul()


# Mean time of each reference loop inside benchmark runs on the 2-vCPU Xeon VM
# the baseline was taken on.
NOMINAL_S = {small_ops: 1.0e-3, sgd_batch: 2.0e-3, loss_scan: 1.0e-3}


def trimmed_mean(values, cut: float = 0.1) -> float | None:
    """Mean without the lowest and highest `cut` share of the values."""
    values = sorted(values)
    drop = int(len(values) * cut)
    return statistics.fmean(values[drop:len(values) - drop]) if values else None


class Clock:
    def __init__(self, reference=small_ops):
        self.reference_loop = reference
        self.reference = []

    def sample(self):
        start = time.perf_counter()
        self.reference_loop()
        self.reference.append(time.perf_counter() - start)

    def timed(self, fn):
        """(wall seconds, result) of fn(), with a reference sample on each side."""
        self.sample()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self.sample()
        return wall, result

    def factor(self) -> float:
        """Multiplier from this run's wall seconds to nominal-speed seconds."""
        return NOMINAL_S[self.reference_loop] / trimmed_mean(self.reference)
