"""rockrelax benchmark: one workload per invocation, one JSON result as the last line.

    python3 perfbench/run.py --workload blob-gate --seed 0 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 the result holds the end-to-end metrics, with --trace 1
the per-layer metrics (an untraced and a traced pass over the workload's
rounds, plus the reweight kernel sweep).  The full result, environment block and
any failure tracebacks go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 3


def import_seconds() -> float:
    """Wall time of `import rockrelax.trainer` (numpy, scipy included) in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import rockrelax.trainer; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(proc.stdout)


def git_commit(root: Path):
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(ROOT), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)), "dtype": "float64",
        "workload": workload, "seed": seed,
    }


class Ledger:
    """Ops attempted and failed, their wall times and outcomes, and named checks."""

    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failures = []
        self.runs = []       # dicts: mode, seed, seconds, samples, test_acc, round
        self.reweights = []  # seconds per reweight_step op
        self.checks = []     # (name, ok, detail)
        self.first_acc = {}  # (mode, seed) -> test_at_peak_validation of its first run

    def fail(self, op: str, error: str, detail: str):
        self.failures.append({"op": op, "error": error, "detail": detail})

    def attempt(self, op: str, fn, check):
        """Time fn(); check(result) outside the timed region.

        Returns (wall seconds, result), or (None, None) if the op failed.
        """
        self.attempted += 1
        try:
            seconds, result = self.clock.timed(fn)
            problem = check(result)
        except Exception as exc:  # a failed op is counted, not fatal
            self.fail(op, type(exc).__name__, traceback.format_exc())
            return None, None
        if problem:
            self.fail(op, "CheckFailed", problem)
            return None, None
        return seconds, result


def check_run(ledger: Ledger, config, result) -> str | None:
    import numpy as np

    model, record = result
    acc = record.test_at_peak_validation
    if not record.iterations or not np.isfinite(acc) or not 0 <= acc <= 1:
        return f"test_at_peak_validation = {acc}"
    if not np.all(np.isfinite(model.theta)):
        return "non-finite parameters"
    first = ledger.first_acc.setdefault((config.mode, config.seed), acc)
    if acc != first:
        return f"not deterministic: test accuracy {acc!r} after {first!r}"
    return None


def check_reweight(model, train, config, result) -> str | None:
    """u feasible, the undiluted optimizer passes the KKT certificate, enough pruned."""
    from rockrelax.models import forward, loss_per_sample
    from rockrelax.reweight import WeightShift, check_kkt

    u, part = result
    if not u.is_feasible():
        return "u infeasible"
    c = loss_per_sample(forward(model, train.features), train.observed_labels,
                        config.loss_kind)
    mu = 1.0 if config.reweight.contamination_estimate is not None else config.reweight.mu
    if not check_kkt(c, WeightShift(u.shifts / mu), part.gamma):
        return "KKT certificate fails"
    target = config.reweight.contamination_estimate
    if target is not None and part.pruned_fraction < target:
        return f"pruned fraction {part.pruned_fraction:.4f} < {target}"
    return None


def measure_round(workload, problems, seed: int, round_no: int, ledger: Ledger,
                  tracer=None) -> float:
    """Round `round_no` of ops; returns the summed wall time of the ops."""
    import numpy as np

    from rockrelax import trainer
    from rockrelax.reweight import WeightShift
    from workloads import reweight_models

    rng = np.random.default_rng([seed, round_no])
    configs = workload.rounds[round_no % len(workload.rounds)]
    op_seconds, trained = 0.0, []
    for index in rng.permutation(len(configs)):
        config = configs[index]
        p = problems[config.seed]
        if tracer is not None:
            tracer.op = ledger.attempted
            tracer.run_ops.add(tracer.op)
        seconds, result = ledger.attempt(
            f"run {config.mode} seed {config.seed}",
            lambda: trainer.run(p.train, p.validation, p.test, config, workload.architecture),
            lambda r: check_run(ledger, config, r))
        if seconds is None:
            continue
        model, record = result
        iterations = len(record.iterations)
        ledger.runs.append({
            "mode": config.mode, "seed": config.seed, "seconds": seconds, "round": round_no,
            "iterations": iterations,
            "samples": p.train.n * config.epochs_per_iteration * iterations,
            "batches": iterations * config.epochs_per_iteration
            * math.ceil(p.train.n / config.batch_size),
            "test_acc": record.test_at_peak_validation,
        })
        op_seconds += seconds
        if config.mode == "rrm":
            trained.append((model, config.seed))
    config = workload.reweight
    for model, key in reweight_models(workload, trained, rng):
        train = problems[key].train
        for _ in range(workload.reweight_reps):
            if tracer is not None:
                tracer.op = ledger.attempted
            seconds, _ = ledger.attempt(
                "reweight_step",
                lambda: trainer.reweight_step(model, train, WeightShift.zero(train.n), config),
                lambda r: check_reweight(model, train, config, r))
            if seconds is not None:
                ledger.reweights.append(seconds)
                op_seconds += seconds
    return op_seconds


def measure(workload, problems, seed: int, ledger: Ledger, first_round: int, seconds: float,
            tracer=None) -> float:
    """Whole rounds, at least one per entry of `workload.rounds`, while the next fits in
    `seconds`; returns the summed wall time of the ops."""
    start, op_seconds, done = time.perf_counter(), 0.0, 0
    while True:
        op_seconds += measure_round(workload, problems, seed, first_round + done, ledger,
                                    tracer)
        done += 1
        elapsed = time.perf_counter() - start
        if done >= len(workload.rounds) and elapsed * (done + 1) / done > seconds:
            return op_seconds


def end_to_end(ledger: Ledger, setup_s: float) -> dict:
    """End-to-end metrics; times in seconds at the nominal machine speed (see clock.py).

    Per-call times are trimmed means: on this shared host they spread about
    half as much between runs as medians do.
    """
    from clock import trimmed_mean

    k = ledger.clock.factor()

    def mode_s(mode):
        return trimmed_mean([k * r["seconds"] for r in ledger.runs if r["mode"] == mode])

    runs = ledger.runs
    train_s = k * sum(r["seconds"] for r in runs)
    rrm_acc = [acc for (mode, _), acc in ledger.first_acc.items() if mode == "rrm"]
    return {
        # raw: the reference samples describe the measuring period, not the set-up before it
        "setup_s": (setup_s, "s"),
        "train_samples_per_s": (sum(r["samples"] for r in runs) / train_s if train_s else None,
                                "samples/s"),
        "erm_run_s": (mode_s("erm"), "s"),
        "rrm_run_s": (mode_s("rrm"), "s"),
        "arrm_run_s": (mode_s("arrm"), "s"),
        "rrm_test_acc": (float(statistics.fmean(rrm_acc)) if rrm_acc else None, "fraction"),
        "reweight_step_s": (trimmed_mean([k * s for s in ledger.reweights]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": ((ledger.attempted - len(ledger.failures)) / ledger.attempted
                         if ledger.attempted else None, "fraction"),
    }


def gap_check(workload, ledger: Ledger) -> dict:
    """Mean rrm - erm test accuracy over the workload's seeds, in points."""
    acc = {(r["mode"], r["seed"]): r["test_acc"] for r in ledger.runs}
    seeds = sorted({c.seed for c in workload.runs})
    gaps = [acc[("rrm", s)] - acc[("erm", s)] for s in seeds
            if ("rrm", s) in acc and ("erm", s) in acc]
    gap = 100.0 * statistics.fmean(gaps) if len(gaps) == len(seeds) else None
    if workload.gap_gate is not None:
        ok = gap is not None and gap >= 100 * workload.gap_gate
        ledger.checks.append(("rrm_gap_pts", ok, f"{gap} >= {100 * workload.gap_gate}"))
    return {"rrm_gap_pts": gap, "per_seed_gap_pts": [100 * g for g in gaps]}


def per_layer(workload, seed, ledger, plain_s, tracer, traced_s, data_s, shrink) -> dict:
    """Per-layer metrics: raw wall times, from the traced rounds, the sweep and set-up."""
    from layers import absent_spans, batch_gflop, kernel_sweep, matmul_floor_us, trace_metrics

    traced_runs = [r for r in ledger.runs if r["round"] >= len(workload.rounds)]
    m = trace_metrics(tracer, tracer.run_ops, sum(r["iterations"] for r in traced_runs),
                      sum(r["batches"] for r in traced_runs))
    batch = workload.runs[0].batch_size
    floor = matmul_floor_us(workload.widths, batch, seed)
    grad_p50 = m["models.grad_params_weighted.us_p50"][0]
    m["models.matmul_floor_us"] = (floor, "us")
    m["models.grad_overhead_ratio"] = (grad_p50 / floor if grad_p50 else None, "ratio")
    m["models.batch_gflop"] = (batch_gflop(workload.widths, batch), "GFLOP")
    sweep, checks = kernel_sweep(seed, shrink)
    m.update(sweep)
    ledger.checks.extend(checks)
    for name in ("make_synthetic_blobs", "inject_ncar", "split"):
        m[f"data.{name}.s"] = (statistics.median(t[name] for t in data_s), "s")
    m["trace_overhead"] = (traced_s / plain_s - 1.0 if plain_s else None, "fraction")
    ledger.checks.append(("trace nesting", tracer.nesting_ok(), "spans nest inside parents"))
    return {"metrics": m, "absent_spans": absent_spans(tracer)}


def bench(workload, seed: int, seconds: float, trace: bool, shrink: int = 1) -> dict:
    """Set up, measure, check; returns the full result (metrics as name -> (value, unit))."""
    from clock import Clock
    from rockrelax import trainer
    from tracing import Tracer
    from workloads import warm_up

    ledger, extra = Ledger(Clock(workload.reference)), {}
    # set-up = package imports + data generation + warm-up, each the median of SETUP_REPS
    import_times = [import_seconds() for _ in range(SETUP_REPS)]
    setup_times, data_s, problems = [], [], None
    for _ in range(SETUP_REPS):
        problems = None  # release the previous copy before building the next
        timings, start = {}, time.perf_counter()
        problems = workload.make_problems(timings)
        warm_up(workload, problems)
        setup_times.append(time.perf_counter() - start)
        data_s.append(timings)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    if trace:
        # one pass of every round untraced, then the same rounds traced
        plain_s = measure(workload, problems, seed, ledger, 0, 0.0)
        tracer = Tracer()
        tracer.install(trainer)
        try:
            traced_s = measure(workload, problems, seed, ledger, len(workload.rounds), 0.0,
                               tracer)
        finally:
            tracer.uninstall(trainer)
        extra = per_layer(workload, seed, ledger, plain_s, tracer, traced_s, data_s, shrink)
        metrics = extra.pop("metrics")
        extra["spans"] = tracer.to_json()
    else:
        measure(workload, problems, seed, ledger, 0, seconds)
        metrics = end_to_end(ledger, setup_s)
    extra.update(gap_check(workload, ledger))
    ok = not ledger.failures and all(ok for _, ok, _ in ledger.checks)
    return {
        "correct": ok, "attempted": ledger.attempted, "failed": len(ledger.failures),
        "metrics": metrics, "checks": ledger.checks, "failures": ledger.failures,
        "speed_factor": ledger.clock.factor(),
        "reference_s": ledger.clock.reference,
        "import_wall_s": import_times, "setup_wall_s": setup_times, "runs": ledger.runs,
        "reweight_wall_s": ledger.reweights, **extra,
    }


def write_outputs(result: dict, env: dict, trace: bool):
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{env['workload']}-seed{env['seed']}-trace{int(trace)}"
    spans = result.pop("spans", None)
    if spans is not None:
        with gzip.open(OUT_DIR / f"{stem}-spans.json.gz", "wt") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "rows"],
                       "spans": spans}, f)
    with open(OUT_DIR / f"{stem}.json", "w") as f:
        json.dump({"environment": env, **result}, f, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rockrelax" / "__init__.py").is_file():
        print(f"error: no rockrelax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    env = environment(args.workload, args.seed)
    result = bench(workload, args.seed, args.seconds, bool(args.trace))

    for name, (value, unit) in result["metrics"].items():
        print(f"{name:45s} {value!s:>24} {unit}")
    for name, ok, detail in result["checks"]:
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    for failure in result["failures"]:
        print(f"FAILED op {failure['op']}: {failure['error']}")
    print("environment " + json.dumps(env))
    write_outputs(dict(result), env, bool(args.trace))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
