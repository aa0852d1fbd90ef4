"""Command-line harness: inject, train, verify, report.

Configs are strict JSON documents (unknown keys rejected, schema
versioned).  Every artifact embeds its config so results trace back to
exact inputs.  Exit codes: 0 success, 2 config/schema, 3 I/O, 4 numeric,
5 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from rockrelax import __version__
from rockrelax.data import (
    ContaminatedDataset,
    ContaminationKernel,
    inject_kernel,
    inject_ncar,
    load_cache,
    load_idx,
    make_synthetic_blobs,
    save_cache,
    split,
    subset_classes,
)
from rockrelax.errors import FormatError, InvalidInputError, NumericError, SchemaError
from rockrelax.models import Architecture, LossKind, save_checkpoint
from rockrelax.reweight import ReweightConfig
from rockrelax.trainer import BUCKET_LABELS, TrainConfig, evaluate_fgsm_sweep, run
from rockrelax.verify import run_all

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_VERIFY = 5

SCHEMA_VERSION = 1

OUTPUT_ROOT_ENV = "ROCKRELAX_OUTPUT_ROOT"


# ---------------------------------------------------------------- config

def _check_keys(doc: dict, allowed: dict, context: str):
    """Reject unknown keys and recurse into nested sections."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{context}: expected an object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise SchemaError(f"{context}: unknown keys {sorted(unknown)}")
    for key, sub in allowed.items():
        if isinstance(sub, dict) and key in doc:
            _check_keys(doc[key], sub, f"{context}.{key}")


INJECT_SCHEMA = {
    "schema_version": None,
    "source": {"kind": None, "images": None, "labels": None, "num_classes": None,
               "samples_per_class": None, "input_dim": None, "separation": None},
    "keep_classes": None,
    "contamination": {"mode": None, "rate": None, "kernel_path": None},
    "seed": None,
    "output": None,
}

TRAIN_SCHEMA = {
    "schema_version": None,
    "train_cache": None,
    "test_cache": None,
    "validation_fraction": None,
    "architecture": None,
    "train": {"mode": None, "loss": None, "epsilon_train": None,
              "epochs_per_iteration": None, "batch_size": None,
              "learning_rate": None, "gamma": None, "mu": None,
              "contamination_estimate": None, "max_iterations": None,
              "patience": None},
    "seeds": None,
    "epsilon_test": None,
    "output_dir": None,
}


def load_config(path, schema: dict) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config {path} is not valid JSON: {exc}") from exc
    _check_keys(doc, schema, "config")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"config schema_version must be {SCHEMA_VERSION}")
    return doc


def _resolve_output(path_str: str) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    path = Path(path_str)
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _require(doc: dict, key: str, context: str = "config"):
    if key not in doc:
        raise SchemaError(f"{context}: missing required key {key!r}")
    return doc[key]


# ---------------------------------------------------------------- inject

def _load_source(source: dict, seed: int) -> ContaminatedDataset:
    kind = _require(source, "kind", "config.source")
    if kind == "idx":
        features, labels = load_idx(_require(source, "images", "config.source"),
                                    _require(source, "labels", "config.source"))
        num_classes = int(source.get("num_classes", int(labels.max()) + 1))
        return ContaminatedDataset.clean(features, labels, num_classes)
    if kind == "blobs":
        return make_synthetic_blobs(
            int(_require(source, "num_classes", "config.source")),
            int(_require(source, "samples_per_class", "config.source")),
            int(_require(source, "input_dim", "config.source")),
            float(_require(source, "separation", "config.source")),
            seed=seed,
        )
    raise SchemaError(f"config.source.kind must be 'idx' or 'blobs', got {kind!r}")


def cmd_inject(args) -> int:
    doc = load_config(args.config, INJECT_SCHEMA)
    seed = int(args.seed if args.seed is not None else doc.get("seed", 0))
    dataset = _load_source(_require(doc, "source"), seed)
    if "keep_classes" in doc:
        dataset = subset_classes(dataset, doc["keep_classes"])
    cont = doc.get("contamination", {"mode": "none"})
    mode = cont.get("mode", "none")
    rate = float(cont.get("rate", 0.0))
    if mode == "ncar":
        observed, chosen = inject_ncar(dataset.clean_labels, rate, dataset.num_classes, seed)
    elif mode == "kernel":
        kernel = ContaminationKernel.from_file(_require(cont, "kernel_path", "config.contamination"))
        if kernel.num_classes != dataset.num_classes:
            raise SchemaError(f"kernel is {kernel.num_classes}-class but dataset has "
                              f"{dataset.num_classes} classes")
        observed, chosen = inject_kernel(dataset.clean_labels, rate, kernel, seed)
    elif mode == "none":
        observed, chosen = dataset.clean_labels.copy(), np.empty(0, dtype=int)
    else:
        raise SchemaError(f"contamination mode must be ncar|kernel|none, got {mode!r}")
    dataset = ContaminatedDataset(dataset.features, observed, dataset.clean_labels,
                                  chosen, dataset.num_classes)
    out = _resolve_output(_require(doc, "output"))
    out.parent.mkdir(parents=True, exist_ok=True)
    save_cache(out, dataset, seed=seed, rate=rate)
    print(f"wrote {out}: N={dataset.n} |C|={chosen.size} rate={rate} seed={seed}")
    return EXIT_OK


# ----------------------------------------------------------------- train

# Numeric keys of the `train` section that map one-to-one onto TrainConfig fields.
_TRAIN_CASTS = {"epsilon_train": float, "epochs_per_iteration": int, "batch_size": int,
                "learning_rate": float, "max_iterations": int, "patience": int}


def _train_config(doc: dict, mode_override: str | None) -> TrainConfig:
    """TrainConfig from the `train` section; a key it leaves out keeps the dataclass default."""
    t = _require(doc, "train")
    kw = {key: cast(t[key]) for key, cast in _TRAIN_CASTS.items() if key in t}
    if mode_override or "mode" in t:
        kw["mode"] = mode_override or t["mode"]
    if "loss" in t:
        kw["loss_kind"] = LossKind(t["loss"])
    rw = {key: float(t[key]) for key in ("gamma", "mu") if key in t}
    if "contamination_estimate" in t:
        rw["contamination_estimate"] = t["contamination_estimate"]
    return TrainConfig(reweight=ReweightConfig(**rw), **kw)


def _run_one_seed(config: TrainConfig, arch: Architecture, train_ds: ContaminatedDataset,
                  test_ds: ContaminatedDataset, val_frac: float, epsilon_test: list[float],
                  out_dir: Path) -> dict:
    seed = config.seed
    train_part, val_part = split(train_ds, (1.0 - val_frac, val_frac), seed=seed)
    _, record = run(train_part, val_part, test_ds, config, arch)
    # the checkpoint and the FGSM sweep use the model the summary reports on
    model = record.peak_model

    seed_dir = out_dir / f"seed_{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(seed_dir / "checkpoint.npz", model, seed=seed,
                    extra={"mode": config.mode, "version": __version__,
                           "model": "peak_validation"})
    record.to_csv(seed_dir / "record.csv")
    summary = record.summary()
    summary["seed"] = seed
    summary["version"] = __version__
    if epsilon_test:
        summary["epsilon_test_accuracy"] = evaluate_fgsm_sweep(
            model, test_ds, epsilon_test, config.loss_kind)
    with open(seed_dir / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, default=str)
    return summary


def _failure(seed: int, exc: BaseException) -> dict:
    """A failed seed's entry in aggregate.json.

    An exception re-raised from a pool worker carries the worker's
    formatted traceback on its cause (concurrent.futures'
    `_RemoteTraceback.tb`); that one is kept, since the local traceback
    only shows the re-raise.
    """
    remote = getattr(exc.__cause__, "tb", None)
    tb = remote if isinstance(remote, str) else "".join(traceback.format_exception(exc))
    return {"seed": seed, "type": type(exc).__name__, "message": str(exc), "traceback": tb}


def cmd_train(args) -> int:
    doc = load_config(args.config, TRAIN_SCHEMA)
    for key in ("train_cache", "test_cache", "architecture", "train", "output_dir"):
        _require(doc, key)
    # every seed shares these, so a bad value fails the run once, before any seed starts
    try:
        seeds = [args.seed] if args.seed is not None else [int(s) for s in doc.get("seeds", [0])]
        epsilon_test = [float(e) for e in (args.epsilon_test or doc.get("epsilon_test", []))]
        val_frac = float(doc.get("validation_fraction", 0.2))
        config = _train_config(doc, args.mode)
        arch = Architecture(tuple(doc["architecture"]))
    except (ValueError, TypeError) as exc:  # InvalidInputError is a ValueError
        raise SchemaError(f"config: {exc}") from exc
    if not all(0 <= e <= 1 for e in epsilon_test):
        raise SchemaError(f"config: epsilon_test values must lie in [0, 1], got {epsilon_test}")
    if not 0 <= val_frac < 1:
        raise SchemaError(f"config: validation_fraction must lie in [0, 1), got {val_frac}")
    train_ds, _ = load_cache(doc["train_cache"])
    test_ds, _ = load_cache(doc["test_cache"])
    for key, ds in (("train_cache", train_ds), ("test_cache", test_ds)):
        if ds.input_dim != arch.input_dim:
            raise SchemaError(f"config.{key} holds {ds.input_dim}-dim features, "
                              f"but the architecture takes {arch.input_dim}")
    out_dir = _resolve_output(doc["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    shared = (arch, train_ds, test_ds, val_frac, epsilon_test, out_dir)
    summaries, failures = [], []
    if args.workers > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            futures = {seed: pool.submit(_run_one_seed, replace(config, seed=seed), *shared)
                       for seed in seeds}
            for seed, fut in futures.items():
                try:
                    summaries.append(fut.result())
                except Exception as exc:  # per-seed isolation
                    failures.append(_failure(seed, exc))
    else:
        for seed in seeds:
            try:
                summaries.append(_run_one_seed(replace(config, seed=seed), *shared))
            except Exception as exc:
                failures.append(_failure(seed, exc))

    for failure in failures:
        # when no seed succeeded, the traceback is the first thing to read
        detail = "" if summaries else "\n" + failure["traceback"]
        print(f"seed {failure['seed']} failed: {failure['type']}: {failure['message']}{detail}",
              file=sys.stderr)
    aggregate = {
        "config": doc,
        "mode": config.mode,
        "seeds": [s["seed"] for s in summaries],
    }
    if summaries:
        peaks = np.array([s["test_at_peak_validation"] for s in summaries], dtype=float)
        maxes = np.array([s["max_test_accuracy"] for s in summaries], dtype=float)
        aggregate.update({
            "test_at_peak_validation_mean": float(peaks.mean()),
            # population std, matching mean +/- std reporting over seeds
            "test_at_peak_validation_std": float(peaks.std()),
            "max_test_accuracy_mean": float(maxes.mean()),
            "max_test_accuracy_std": float(maxes.std()),
        })
        if epsilon_test:
            aggregate["epsilon_test_accuracy_mean"] = {
                str(eps): float(np.mean([s["epsilon_test_accuracy"][eps] for s in summaries]))
                for eps in summaries[0]["epsilon_test_accuracy"]
            }
    aggregate.update({"failed_seeds": [f["seed"] for f in failures], "failures": failures,
                      "version": __version__})
    with open(out_dir / "aggregate.json", "w") as f:
        json.dump(aggregate, f, indent=2, default=str)
    if failures and not summaries:
        print(f"{aggregate['mode']}: every seed failed -> {out_dir}")
        return EXIT_NUMERIC
    if summaries:
        print(f"{aggregate['mode']}: test@peak-val "
              f"{aggregate['test_at_peak_validation_mean']:.4f} "
              f"± {aggregate['test_at_peak_validation_std']:.4f} "
              f"over {len(summaries)} seed(s) -> {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    report = run_all(seed=args.seed, lp_trials=args.lp_trials, grad_trials=args.grad_trials)
    for line in report.lines():
        print(line)
    if not report.ok:
        failing = next(s for s in report.suites if not s.ok)
        replay = _resolve_output(args.replay_file)
        replay.parent.mkdir(parents=True, exist_ok=True)
        with open(replay, "w") as f:
            json.dump({"suite": failing.name, "instance": failing.first_failure}, f, indent=2)
        print(f"first failing instance written to {replay}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------- report

def cmd_report(args) -> int:
    run_dirs = [Path(d) for d in args.run_dirs]
    missing = [str(d) for d in run_dirs if not (d / "aggregate.json").exists()]
    if missing:
        print("missing artifacts:\n  " + "\n  ".join(missing), file=sys.stderr)
        return EXIT_IO
    aggregates = [json.loads((d / "aggregate.json").read_text()) for d in run_dirs]

    out_dir = _resolve_output(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # accuracy comparison: baseline columns with reweighted values in parentheses
    lines = ["run  mode  test@peak-val  max-test"]
    rows = []
    for d, agg in zip(run_dirs, aggregates):
        if not agg["seeds"]:
            # a failures-only aggregate: no accuracies to tabulate
            lines.append(f"{d.name}  {agg['mode']}  every seed failed")
        else:
            lines.append(
                f"{d.name}  {agg['mode']}  "
                f"{100 * agg['test_at_peak_validation_mean']:.1f} ± "
                f"{100 * agg['test_at_peak_validation_std']:.1f}  "
                f"{100 * agg['max_test_accuracy_mean']:.1f}"
            )
            rows.append([d.name, agg["mode"],
                         agg["test_at_peak_validation_mean"],
                         agg["test_at_peak_validation_std"],
                         agg["max_test_accuracy_mean"],
                         agg["max_test_accuracy_std"]])
        for failure in agg.get("failures", []):
            lines.append(f"  seed {failure['seed']} failed: {failure['type']}: {failure['message']}")
    by_mode = {agg["mode"]: agg for agg in aggregates if agg["seeds"]}
    if "erm" in by_mode and len(by_mode) > 1:
        base = by_mode["erm"]
        for mode, agg in by_mode.items():
            if mode == "erm":
                continue
            lines.append(
                f"comparison: {100 * base['test_at_peak_validation_mean']:.0f} "
                f"({100 * agg['test_at_peak_validation_mean']:.0f}) "
                f"[erm ({mode})]"
            )
    table_txt = "\n".join(lines)
    (out_dir / "comparison.txt").write_text(table_txt + "\n")
    with open(out_dir / "comparison.csv", "w") as f:
        f.write("run,mode,test_at_peak_val_mean,test_at_peak_val_std,"
                "max_test_mean,max_test_std\n")
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")

    # weight-evolution export: iterations x buckets x {contaminated, clean}
    with open(out_dir / "weight_evolution.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["run", "seed", "iteration", "bucket", "population", "count"])
        for d in run_dirs:
            for seed_dir in sorted(d.glob("seed_*")):
                with open(seed_dir / "record.csv") as rf:
                    for rec in csv.DictReader(rf):
                        for bi, label in enumerate(BUCKET_LABELS):
                            w.writerow([d.name, seed_dir.name, rec["iteration"],
                                        label, "contaminated",
                                        rec[f"hist_contaminated_{bi}"]])
                            w.writerow([d.name, seed_dir.name, rec["iteration"],
                                        label, "clean", rec[f"hist_clean_{bi}"]])
    print(table_txt)
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rockrelax",
        description="Robust training under label noise via loss reweighting.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_inject = sub.add_parser("inject", help="build a contaminated dataset cache")
    p_inject.add_argument("--config", required=True)
    p_inject.add_argument("--seed", type=int, default=None)
    p_inject.set_defaults(func=cmd_inject)

    p_train = sub.add_parser("train", help="run training over a seed list")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None,
                         help="override the config seed list with a single seed")
    p_train.add_argument("--mode", choices=["erm", "rrm", "arrm"], default=None)
    p_train.add_argument("--epsilon-test", type=float, nargs="*", default=None,
                         help="post-training FGSM attack strengths to sweep")
    p_train.add_argument("--workers", type=int, default=1,
                         help="seed-parallel worker pool size")
    p_train.set_defaults(func=cmd_train)

    p_verify = sub.add_parser("verify", help="run the randomized verification suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--lp-trials", type=int, default=1000)
    p_verify.add_argument("--grad-trials", type=int, default=100)
    p_verify.add_argument("--replay-file", default="verify_failure.json")
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="tabulate finished runs")
    p_report.add_argument("run_dirs", nargs="+")
    p_report.add_argument("--output-dir", default="report")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (FormatError, FileNotFoundError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
