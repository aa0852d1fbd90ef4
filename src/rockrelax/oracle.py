"""Independent linear-programming oracle for the inner reweighting problem.

Verification only: solves the same problem as the closed form, but via a
generic epigraph LP (scipy HiGHS) with no knowledge of the loss-partition
structure.  Restricted to small N so the tests stay exact and fast.
"""

from __future__ import annotations

import numpy as np

from rockrelax.errors import InvalidInputError, UnsupportedScaleError
from rockrelax.reweight import WeightShift, _as_loss_vector

ORACLE_MAX_N = 10


def _epigraph_lp(c: np.ndarray, l1_penalty: float, sum_to_zero: bool):
    """Minimize u.c + l1_penalty * ||u||_1 over {u_i >= -1/N}, optionally with sum u = 0.

    Epigraph variables t_i >= |u_i| linearize the penalty; the constant
    mean(c) from the uniform part of the weights is added back at the end.
    """
    # imported here so that training, which never calls the oracle, loads no scipy
    from scipy.optimize import linprog

    n = c.size
    # Variables [u_1..u_n, t_1..t_n].
    obj = np.concatenate([c, np.full(n, l1_penalty)])
    # t_i >= u_i  and  t_i >= -u_i.
    a_ub = np.zeros((2 * n, 2 * n))
    a_ub[:n, :n] = np.eye(n)
    a_ub[:n, n:] = -np.eye(n)
    a_ub[n:, :n] = -np.eye(n)
    a_ub[n:, n:] = -np.eye(n)
    b_ub = np.zeros(2 * n)
    if sum_to_zero:
        a_eq = np.concatenate([np.ones(n), np.zeros(n)])[None, :]
        b_eq = np.zeros(1)
    else:
        a_eq = b_eq = None
    bounds = [(-1.0 / n, None)] * n + [(0.0, None)] * n
    res = linprog(obj, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        raise InvalidInputError(f"oracle LP failed: {res.message}")
    u = res.x[:n]
    return u, float(res.fun) + float(c.mean())


def _check_scale(c: np.ndarray) -> np.ndarray:
    if c.size > ORACLE_MAX_N:
        raise UnsupportedScaleError(f"oracle supports N <= {ORACLE_MAX_N}, got {c.size}")
    return c


def oracle_lp(c, gamma: float) -> tuple[WeightShift, float]:
    """Exact optimizer and optimum of the constrained inner problem.

    Penalty coefficient is gamma/2 on ||u||_1, matching the closed-form
    objective.
    """
    c = _check_scale(_as_loss_vector(c))
    if not gamma > 0:
        raise InvalidInputError(f"gamma must be positive, got {gamma}")
    u, val = _epigraph_lp(c, 0.5 * gamma, sum_to_zero=True)
    return WeightShift(u), val


def oracle_lp_relaxed(c, l1_penalty: float) -> float:
    """Optimum with the sum-to-zero constraint dropped (weights budgeted alone).

    l1_penalty is the explicit coefficient on ||u||_1; callers comparing
    against oracle_lp must pass gamma/2 so both sides use the identical
    objective and the relaxation ordering is structurally forced.
    """
    c = _check_scale(_as_loss_vector(c))
    if not l1_penalty > 0:
        raise InvalidInputError(f"l1 penalty must be positive, got {l1_penalty}")
    _, val = _epigraph_lp(c, l1_penalty, sum_to_zero=False)
    return val
