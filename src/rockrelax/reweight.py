"""Closed-form solver for the total-variation-penalized reweighting problem.

For a fixed model, the inner problem

    min_{u in U}  sum_i (1/N + u_i) c_i  +  (gamma/2) ||u||_1,
    U = {u : sum_i u_i = 0,  1/N + u_i >= 0}

admits a closed-form optimizer obtained by partitioning the per-sample
losses c around the breakpoints c_min and c_min + gamma.  Samples with
loss above c_min + gamma are pruned (weight exactly zero); the freed
probability mass is spread uniformly over the minimum-loss samples.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from rockrelax.errors import InvalidInputError

# Feasibility tolerance for membership in U.
FEAS_TOL = 1e-12

# Absolute tolerance for classifying a loss as sitting exactly on a
# breakpoint (c_min or c_min + gamma).  Losses within it of c_min join I_min,
# and losses within it of c_min + gamma are kept; any consistent rule is
# optimal because boundary assignment is a degree of freedom of the solution set.
PARTITION_TOL = 1e-9

# Smallest positive gamma returned when auto-tuning degenerates (the
# requested quantile collapses onto the minimum loss).
GAMMA_FLOOR_SCALE = 1e-9

# Coordinates per block in check_kkt.  A block's dozen temporaries then fit
# in a core's cache, which halves the certificate's time at N = 10^6, and a
# failing block ends the check early.
KKT_BLOCK = 1 << 14


def _as_loss_vector(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise InvalidInputError("loss vector must be a non-empty 1-d array")
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("loss vector contains non-finite entries")
    return c


@dataclass(frozen=True)
class WeightShift:
    """Per-sample probability shifts u relative to the uniform weight 1/N.

    Feasibility requires the shifts to sum to zero and to keep every
    probability 1/N + u_i non-negative.
    """

    shifts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shifts", np.asarray(self.shifts, dtype=float))

    @property
    def n(self) -> int:
        return self.shifts.size

    def weights(self) -> np.ndarray:
        """The probability vector 1/N + u."""
        return 1.0 / self.n + self.shifts

    def is_feasible(self, tol: float = FEAS_TOL) -> bool:
        u = self.shifts
        return (
            bool(np.all(np.isfinite(u)))
            and abs(float(u.sum())) <= tol * max(1, self.n)
            and bool(np.all(u >= -1.0 / self.n - tol))
        )

    @classmethod
    def zero(cls, n: int) -> "WeightShift":
        return cls(np.zeros(n))

    @classmethod
    def from_partition(cls, part: LossPartition) -> "WeightShift":
        """The closed-form optimizer (see solve_reweight) for an existing partition."""
        n = part.n
        u = np.zeros(n)
        # i_min always holds the minimum loss; an empty chi writes 0.0 there
        u[part.i_min] = part.chi.size / (n * part.i_min.size)
        u[part.chi] = -1.0 / n
        return cls(u)


@dataclass(frozen=True)
class LossPartition:
    """The two index sets the closed form reads, out of n samples.

    i_min holds the losses at the minimum and chi the losses above
    c_min + gamma (the pruned set); every other sample keeps its weight.
    """

    c_min: float
    gamma: float
    n: int
    i_min: np.ndarray
    chi: np.ndarray

    @property
    def pruned_fraction(self) -> float:
        return self.chi.size / self.n


@dataclass(frozen=True)
class ReweightConfig:
    """Hyperparameters of the re-weighting step.

    gamma is the total-variation price, mu the blend step applied to the
    new optimizer, and contamination_estimate (if given) switches on
    auto-tuning of gamma with mu forced to 1.
    """

    gamma: float = 0.4
    mu: float = 0.5
    contamination_estimate: float | None = None

    def __post_init__(self):
        if not self.gamma > 0:
            raise InvalidInputError(f"gamma must be positive, got {self.gamma}")
        if not 0 < self.mu <= 1:
            raise InvalidInputError(f"mu must lie in (0, 1], got {self.mu}")
        if self.contamination_estimate is not None and not 0 <= self.contamination_estimate <= 1:
            raise InvalidInputError(
                f"contamination estimate must lie in [0, 1], got {self.contamination_estimate}"
            )


def _pruned(c, upper):
    """The pruning rule for a loss c outside I_min, with upper = c_min + gamma.

    No loss in I_min passes it when upper > c_min.
    """
    return c - upper > PARTITION_TOL


def partition_losses(c, gamma: float) -> LossPartition:
    """Split out i_min and the pruned set chi around the breakpoints c_min and c_min + gamma."""
    c = _as_loss_vector(c)
    if not gamma > 0:
        raise InvalidInputError(f"gamma must be positive, got {gamma}")
    c_min = float(c.min())
    is_min = c <= c_min + PARTITION_TOL
    return LossPartition(
        c_min=c_min,
        gamma=float(gamma),
        n=c.size,
        i_min=np.flatnonzero(is_min),
        chi=np.flatnonzero(~is_min & _pruned(c, c_min + gamma)),
    )


def solve_reweight(c, gamma: float) -> WeightShift:
    """Closed-form optimizer of the inner reweighting problem.

    Pruned samples (loss above c_min + gamma) get u_i = -1/N; their mass
    |chi|/N is spread uniformly over the minimum-loss samples; everything
    in between keeps u_i = 0.
    """
    return WeightShift.from_partition(partition_losses(c, gamma))


def blend_weights(u_prev: WeightShift, u_star: WeightShift, mu: float) -> WeightShift:
    """Convex blend mu * u_star + (1 - mu) * u_prev; stays feasible by convexity.

    At mu = 1 u_star itself is returned: 1.0 * u* is u*, and 0 * u_prev
    adds only signed zeros for a finite u_prev, so the arithmetic would
    change no bit of a u* without -0.0 entries (as `from_partition` builds).
    """
    if u_prev.n != u_star.n:
        raise InvalidInputError(f"length mismatch: {u_prev.n} vs {u_star.n}")
    if not 0 < mu <= 1:
        raise InvalidInputError(f"mu must lie in (0, 1], got {mu}")
    if mu == 1:
        return u_star
    return WeightShift(mu * u_star.shifts + (1.0 - mu) * u_prev.shifts)


def auto_tune_gamma(c, c_prime: float) -> float:
    """Set gamma so that at least a fraction c_prime of samples is pruned.

    Picks the largest distinct loss value ell above c_min for which
    `partition_losses(c, ell - c_min)` prunes a fraction >= c_prime (up to
    FEAS_TOL), then returns ell - c_min.  Pruning is counted with the
    partition's own rule, `_pruned`, so losses within PARTITION_TOL above
    ell are not counted as pruned.  Tied losses are kept or pruned
    together; where meeting c_prime would cut through a tie, ell moves
    below the tie, so ties are resolved toward more pruning.
    When no such ell exists (the quantile collapses onto the minimum loss)
    a tiny positive floor is returned so gamma stays valid.

    Let m be the fewest pruned samples that meet c_prime.  `_pruned` is
    monotone in the loss, so the pruned losses are the largest ones, and
    ell prunes at least m samples exactly when it prunes the m-th largest
    loss t.  Cost is O(N): besides the minimum, one selection finds t, and
    at most two passes follow.  The first finds the largest loss below t,
    which is ell whenever it prunes t and t itself does not; only otherwise
    does the second test every loss against t.
    """
    c = _as_loss_vector(c)
    if not 0 <= c_prime <= 1:
        raise InvalidInputError(f"contamination estimate must lie in [0, 1], got {c_prime}")
    n = c.size
    c_min = float(c.min())
    floor = GAMMA_FLOOR_SCALE * max(1.0, abs(c_min))
    # Smallest m with m / n >= c_prime - FEAS_TOL in floats; m <= n as c_prime <= 1.
    m = bisect.bisect_left(range(n + 1), c_prime - FEAS_TOL, key=lambda m: m / n)
    if m == 0:
        top = float(c.max())
        return top - c_min if c_min < top else floor
    parts = np.partition(c, n - m)
    t = float(parts[n - m])

    def prunes_t(ell: float) -> bool:
        return _pruned(t, c_min + (ell - c_min))

    below = parts[:n - m]
    ell = float(np.max(below, where=below < t, initial=-np.inf))
    if c_min < ell and prunes_t(ell) and not prunes_t(t):
        return ell - c_min
    # Rounding in c_min + (ell - c_min) can let t, or a loss above it, prune t.
    ell = float(np.max(c, where=(c > c_min) & _pruned(t, c_min + (c - c_min)), initial=-np.inf))
    return ell - c_min if c_min < ell else floor


def reweight_objective(c, u: WeightShift, gamma: float) -> float:
    """Inner objective sum_i (1/N + u_i) c_i + (gamma/2) ||u||_1."""
    c = _as_loss_vector(c)
    if c.size != u.n:
        raise InvalidInputError(f"length mismatch: {c.size} vs {u.n}")
    return float(u.weights() @ c + 0.5 * gamma * np.abs(u.shifts).sum())


def check_kkt(c, u: WeightShift, gamma: float, tol: float = 1e-9) -> bool:
    """Certify optimality of a feasible u via the subdifferential conditions.

    A feasible u is optimal iff lambda = c_min + gamma/2 lies in the
    per-coordinate subdifferential interval determined by the sign and
    saturation of u_i:

        u_i > 0        -> lambda = c_i + gamma/2
        u_i = 0        -> lambda in [c_i - gamma/2, c_i + gamma/2]
        -1/N < u_i < 0 -> lambda = c_i - gamma/2
        u_i = -1/N     -> lambda <= c_i - gamma/2
    """
    c = _as_loss_vector(c)
    if c.size != u.n:
        raise InvalidInputError(f"length mismatch: {c.size} vs {u.n}")
    if not u.is_feasible(tol=max(FEAS_TOL, tol)):
        return False
    half = 0.5 * gamma
    lam = float(c.min()) + half
    u, inv_n = u.shifts, 1.0 / u.n
    return all(_kkt_block_holds(c[i:i + KKT_BLOCK], u[i:i + KKT_BLOCK], lam, half, inv_n, tol)
               for i in range(0, c.size, KKT_BLOCK))


def _kkt_block_holds(c, u, lam, half, inv_n, tol) -> bool:
    """check_kkt's per-coordinate conditions on one block of coordinates."""
    # Each coordinate falls in the first matching case: saturated, zero, positive, negative.
    saturated = np.abs(u + inv_n) <= tol
    zero = ~saturated & (np.abs(u) <= tol)
    positive = ~saturated & ~zero & (u > 0)
    negative = ~(saturated | zero | positive)
    lo, hi = c - half, c + half
    ok = ((saturated & (lam <= lo + tol))
          | (zero & (lo - tol <= lam) & (lam <= hi + tol))
          | (positive & (np.abs(lam - hi) <= tol))
          | (negative & (np.abs(lam - lo) <= tol)))
    return bool(ok.all())


def tv_distance(u: WeightShift) -> float:
    """Total-variation distance between 1/N + u and the uniform distribution."""
    return 0.5 * float(np.abs(u.shifts).sum())
