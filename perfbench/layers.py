"""Per-layer numbers: trace-derived metrics, the matmul floor and the reweight kernel sweep."""

from __future__ import annotations

import math
import time

import numpy as np

from rockrelax.reweight import auto_tune_gamma, check_kkt, partition_losses, solve_reweight

from tracing import EVAL_SPANS, WRAPPED, Tracer

# Nominal sweep sizes; the metric names carry these even when a smoke run shrinks them.
KERNEL_SIZES = (10**4, 10**5, 10**6)
TUNE_SIZES = (10**4, 3 * 10**4, 10**5)
TIES_SIZE = 10**5
TIES_LEVELS = 1000  # distinct loss values in the tie-heavy vector: unique_frac = 1%
PRUNE_TARGET = 0.6


def size_tag(n: int) -> str:
    exp = int(math.floor(math.log10(n)))
    return f"n{n // 10**exp}e{exp}"


def _median_seconds(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _reps(n: int) -> int:
    return 5 if n <= 10**4 else 3 if n <= 10**5 else 1


def _slope(sizes, seconds) -> float:
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


def kernel_sweep(seed: int, shrink: int = 1) -> tuple[dict, list]:
    """Time solve_reweight / partition_losses / check_kkt / auto_tune_gamma as N grows.

    Returns (metrics, checks).  Losses are exponential draws (all distinct);
    gamma is set so that 60% of samples are pruned.
    """
    rng = np.random.default_rng(seed)
    metrics, checks = {}, []
    kernel_s = {"solve_reweight": [], "partition_losses": [], "check_kkt": []}
    for nominal in KERNEL_SIZES:
        n = nominal // shrink
        c = rng.exponential(size=n)
        gamma = float(np.quantile(c, 1.0 - PRUNE_TARGET) - c.min())
        u = solve_reweight(c, gamma)
        reps = _reps(nominal)
        kernel_s["solve_reweight"].append(_median_seconds(lambda: solve_reweight(c, gamma), reps))
        kernel_s["partition_losses"].append(
            _median_seconds(lambda: partition_losses(c, gamma), reps))
        kernel_s["check_kkt"].append(_median_seconds(lambda: check_kkt(c, u, gamma), reps))
        checks.append((f"sweep check_kkt {size_tag(nominal)}", check_kkt(c, u, gamma), ""))
    for name, seconds in kernel_s.items():
        for nominal, s in zip(KERNEL_SIZES, seconds):
            metrics[f"reweight.{name}.ms-{size_tag(nominal)}"] = (s * 1e3, "ms")
        metrics[f"reweight.{name}.slope"] = (_slope(KERNEL_SIZES, seconds), "exponent")

    tune_s = []
    vectors = [(size_tag(n), n, rng.exponential(size=n // shrink)) for n in TUNE_SIZES]
    ties = rng.integers(0, TIES_LEVELS, size=TIES_SIZE // shrink) / 100.0
    vectors.append((size_tag(TIES_SIZE) + "-ties", TIES_SIZE, ties))
    for tag, nominal, c in vectors:
        reps = 1 if nominal >= 10**5 else _reps(nominal)
        seconds = _median_seconds(lambda: auto_tune_gamma(c, PRUNE_TARGET), reps)
        metrics[f"reweight.auto_tune_gamma.ms-{tag}"] = (seconds * 1e3, "ms")
        pruned = partition_losses(c, auto_tune_gamma(c, PRUNE_TARGET)).pruned_fraction
        checks.append((f"sweep auto_tune pruned {tag}", pruned >= PRUNE_TARGET, f"{pruned:.4f}"))
        if not tag.endswith("ties"):
            tune_s.append(seconds)
    metrics["reweight.auto_tune_gamma.slope"] = (_slope(TUNE_SIZES, tune_s), "exponent")
    return metrics, checks


def _layer_mats(widths, rng):
    return [rng.standard_normal((a, b)) / math.sqrt(a) for a, b in zip(widths[:-1], widths[1:])]


def matmul_floor_us(widths, batch: int, seed: int) -> float:
    """Plain numpy forward + backward matmuls of one batch: the floor under a gradient call."""
    rng = np.random.default_rng(seed)
    mats = _layer_mats(widths, rng)
    x = rng.uniform(size=(batch, widths[0]))

    def once():
        acts, h = [x], x
        for w in mats:
            h = h @ w
            acts.append(h)
        delta = h
        for li in range(len(mats) - 1, -1, -1):
            acts[li].T @ delta
            if li:
                delta = delta @ mats[li].T

    per_call = _median_seconds(once, 3)
    calls = max(1, int(0.02 / max(per_call, 1e-7)))
    block = []
    for _ in range(15):
        start = time.perf_counter()
        for _ in range(calls):
            once()
        block.append((time.perf_counter() - start) / calls)
    return float(np.median(block)) * 1e6


def batch_gflop(widths, batch: int) -> float:
    """Matmul flops of one batch: forward, weight gradients and backpropagated deltas."""
    sizes = [a * b for a, b in zip(widths[:-1], widths[1:])]
    return 2.0 * batch * (2 * sum(sizes) + sum(sizes[1:])) / 1e9


def trace_metrics(tracer: Tracer, run_ops: set, iterations: int, batches: int) -> dict:
    """Per-layer metrics from the spans of one traced round.

    `run_ops` holds the op ids of the round's `run()` calls; `iterations`
    and `batches` are the outer iterations and SGD batches those calls
    made.  A metric whose span never occurred is None.
    """
    spans = tracer.spans
    own = tracer.self_times()
    in_run = [s.op in run_ops for s in spans]
    called = tracer.called()

    def total(name, direct=False, self_time=False):
        out = 0.0
        for i, s in enumerate(spans):
            if s.name != name or not in_run[i]:
                continue
            if direct and (s.parent < 0 or spans[s.parent].name != "run"):
                continue
            out += own[i] if self_time else s.duration_s
        return out

    def per(value, base, needs):
        return value / base if base and needs in called else None

    def pct_us(name, q):
        values = [s.duration_s for s in spans if s.name == name]
        return float(np.percentile(values, q)) * 1e6 if values else None

    fwd = [s for i, s in enumerate(spans) if s.name == "forward" and in_run[i]]
    run_s = total("run")
    losses = tracer.losses
    return {
        "trainer.gradient_step.self_us_per_batch": (
            per(total("gradient_step", self_time=True) * 1e6, batches, "gradient_step"), "us"),
        "models.grad_params_weighted.us_p50": (pct_us("grad_params_weighted", 50), "us"),
        "models.grad_params_weighted.us_p99": (pct_us("grad_params_weighted", 99), "us"),
        "models.fgsm_perturb.us_p50": (pct_us("fgsm_perturb", 50), "us"),
        "models.forward.calls_per_iter": (per(len(fwd), iterations, "forward"), "count"),
        "models.forward.rows_per_iter": (
            per(sum(s.rows for s in fwd), iterations, "forward"), "count"),
        "models.forward.s_per_iter": (
            per(sum(s.duration_s for s in fwd), iterations, "forward"), "s"),
        "trainer.reweight_step.s_per_iter": (
            per(total("reweight_step"), iterations, "reweight_step"), "s"),
        "trainer.accuracy.s_per_iter": (per(total("accuracy"), iterations, "accuracy"), "s"),
        "trainer.run.self_s_per_iter": (
            per(total("run", self_time=True), iterations, "run"), "s"),
        "trainer.phase_share.sgd": (
            per(total("gradient_step", direct=True), run_s, "gradient_step"), "fraction"),
        "trainer.phase_share.reweight": (
            per(total("reweight_step", direct=True), run_s, "reweight_step"), "fraction"),
        "trainer.phase_share.eval": (
            per(sum(total(n, direct=True) for n in EVAL_SPANS), run_s, "run"), "fraction"),
        "reweight.unique_frac": (
            float(np.mean([np.unique(c).size / c.size for c, _ in losses])) if losses else None,
            "fraction"),
        "reweight.pruned_frac": (
            float(np.mean([p for _, p in losses])) if losses else None, "fraction"),
    }


def absent_spans(tracer: Tracer) -> list:
    """Wrapped names that were missing from the trainer or never called."""
    return sorted(set(WRAPPED) - tracer.called() | set(tracer.absent))
