"""Randomized self-verification suites.

Each suite cross-checks an implementation path against an independent
oracle: the closed-form reweighting solution against a brute LP, the
optimality certificate, the relaxation ordering, and backprop gradients
against central finite differences.  Used by the `verify` CLI command and
by the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rockrelax.models import (
    Architecture,
    LossKind,
    ModelState,
    forward,
    grad_input,
    grad_params_weighted,
    loss_per_sample,
)
from rockrelax.oracle import oracle_lp, oracle_lp_relaxed
from rockrelax.reweight import (
    check_kkt,
    partition_losses,
    reweight_objective,
    solve_reweight,
    tv_distance,
)


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    first_failure: dict | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, ok: bool, instance: dict):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = instance


@dataclass
class VerificationReport:
    suites: list[SuiteResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)

    def lines(self) -> list[str]:
        out = []
        for s in self.suites:
            status = "PASS" if s.ok else "FAIL"
            out.append(f"{status} {s.name}: {s.passed} passed, {s.failed} failed")
        return out


def oracle_equivalence_suite(trials: int = 1000, seed: int = 0,
                             tol: float = 1e-9) -> SuiteResult:
    """Closed-form objective vs brute LP optimum, plus optimality certificate."""
    rng = np.random.default_rng(seed)
    suite = SuiteResult("oracle-equivalence")
    gammas = (0.1, 1.0, 10.0)
    for t in range(trials):
        n = int(rng.integers(2, 7))
        # distinct entries avoid the arbitrary boundary classification
        c = rng.uniform(0, 10, size=n)
        while np.unique(c).size < n:
            c = rng.uniform(0, 10, size=n)
        gamma = gammas[t % len(gammas)]
        u = solve_reweight(c, gamma)
        val = reweight_objective(c, u, gamma)
        _, lp_val = oracle_lp(c, gamma)
        ok = abs(val - lp_val) <= tol and check_kkt(c, u, gamma)
        suite.record(ok, {"c": c.tolist(), "gamma": gamma,
                          "closed_form": val, "lp": lp_val})
    return suite


def pruning_identity_suite(trials: int = 1000, seed: int = 1) -> SuiteResult:
    """Exact pruning structure: u = -1/N on chi, 0 off i_min and chi, tv = |chi|/N."""
    rng = np.random.default_rng(seed)
    suite = SuiteResult("pruning-identities")
    for t in range(trials):
        n = int(rng.integers(2, 7))
        c = rng.uniform(0, 10, size=n)
        gamma = float(rng.choice([0.1, 1.0, 10.0]))
        u = solve_reweight(c, gamma)
        part = partition_losses(c, gamma)
        ok = (
            np.all(u.shifts[part.chi] == -1.0 / n)
            and np.all(np.delete(u.shifts, np.r_[part.i_min, part.chi]) == 0.0)
            and abs(tv_distance(u) - part.chi.size / n) <= 1e-12
        )
        suite.record(bool(ok), {"c": c.tolist(), "gamma": gamma, "u": u.shifts.tolist()})
    return suite


def relaxation_ordering_suite(trials: int = 1000, seed: int = 2) -> SuiteResult:
    """Dropping the sum-to-zero constraint can only lower the optimum."""
    rng = np.random.default_rng(seed)
    suite = SuiteResult("relaxation-ordering")
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        c = rng.uniform(0, 10, size=n)
        gamma = float(rng.choice([0.1, 1.0, 10.0]))
        _, constrained = oracle_lp(c, gamma)
        relaxed = oracle_lp_relaxed(c, 0.5 * gamma)
        suite.record(relaxed <= constrained + 1e-9,
                     {"c": c.tolist(), "gamma": gamma,
                      "relaxed": relaxed, "constrained": constrained})
    return suite


def _fd_grad(f, x0, step):
    g = np.zeros_like(x0)
    for j in range(x0.size):
        hi, lo = x0.copy(), x0.copy()
        hi[j] += step
        lo[j] -= step
        g[j] = (f(hi) - f(lo)) / (2 * step)
    return g


def gradient_check_suite(trials: int = 100, seed: int = 3, step: float = 1e-5,
                         rel_tol: float = 1e-4) -> SuiteResult:
    """Parameter and input gradients vs central finite differences.

    Models are kept tiny (<= 50 parameters) so the finite-difference
    oracle stays exact enough at the given step.
    """
    rng = np.random.default_rng(seed)
    suite = SuiteResult("gradient-check")
    kinds = (LossKind.CCE, LossKind.MAE, LossKind.MSE)
    for t in range(trials):
        widths = (4, 5, 3) if t % 2 == 0 else (5, 3)
        arch = Architecture(widths)
        model = ModelState(arch, rng.normal(0, 0.7, size=arch.num_params))
        kind = kinds[t % len(kinds)]
        nb = int(rng.integers(1, 5))
        x = rng.uniform(size=(nb, widths[0]))
        y = rng.integers(0, 3, size=nb)
        w = rng.uniform(0.1, 1.0, size=nb)

        grad = grad_params_weighted(model, x, y, w, kind)

        def theta_obj(theta):
            return float(w @ loss_per_sample(forward(model.with_theta(theta), x), y, kind))

        fd_theta = _fd_grad(theta_obj, model.theta, step)
        rel_theta = np.linalg.norm(grad - fd_theta) / max(np.linalg.norm(fd_theta), 1e-8)

        gx = grad_input(model, x[0], int(y[0]), kind)

        def x_obj(xv):
            return float(loss_per_sample(forward(model, xv[None, :]), y[:1], kind)[0])

        fd_x = _fd_grad(x_obj, x[0].copy(), step)
        rel_x = np.linalg.norm(gx - fd_x) / max(np.linalg.norm(fd_x), 1e-8)

        suite.record(rel_theta <= rel_tol and rel_x <= rel_tol,
                     {"widths": list(widths), "kind": kind.value,
                      "rel_theta": rel_theta, "rel_x": rel_x})
    return suite


def run_all(seed: int = 0, lp_trials: int = 1000, grad_trials: int = 100) -> VerificationReport:
    return VerificationReport(suites=[
        oracle_equivalence_suite(lp_trials, seed),
        pruning_identity_suite(lp_trials, seed + 1),
        relaxation_ordering_suite(lp_trials, seed + 2),
        gradient_check_suite(grad_trials, seed + 3),
    ])
