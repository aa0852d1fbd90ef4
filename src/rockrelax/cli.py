"""Command-line harness: inject, train, verify, report.

Configs are strict JSON documents (every key typed, unknown keys rejected,
schema versioned).  Every artifact embeds its config so results trace back to
exact inputs.  `report` reads every input before it writes anything.  Exit
codes: 0 success, 2 config/schema or a bad flag, 3 I/O (a missing or malformed
file, named in the message), 4 every `train` seed failed, 5 verification
failure.  An unexpected failure prints its traceback and exits 1, as Python does.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from functools import partial
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
from rockrelax.errors import FormatError, InvalidInputError, SchemaError, file_faults
from rockrelax.models import Architecture, LossKind, save_checkpoint
from rockrelax.reweight import ReweightConfig
from rockrelax.trainer import (BUCKET_LABELS, MODES, TrainConfig, _check_fits,
                               evaluate_fgsm_sweep, run)
from rockrelax.verify import run_all

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_VERIFY = 5

SCHEMA_VERSION = 1

# each is written to aggregate.json as <key>_mean and <key>_std, and read from it by report
_AGGREGATE_KEYS = ("test_at_peak_validation", "max_test_accuracy")


# ---------------------------------------------------------------- config

INJECT_SCHEMA = {
    "schema_version": int,
    "source": {"kind": str, "images": str, "labels": str, "num_classes": int,
               "samples_per_class": int, "input_dim": int, "separation": float},
    "keep_classes": [int],
    "contamination": {"mode": str, "rate": float, "kernel_path": str},
    "seed": int,
    "output": str,
}

TRAIN_SCHEMA = {
    "schema_version": int,
    "train_cache": str,
    "test_cache": str,
    "validation_fraction": float,
    "architecture": [int],
    "train": {"mode": str, "loss": str, "epsilon_train": float,
              "epochs_per_iteration": int, "batch_size": int,
              "learning_rate": float, "gamma": float, "mu": float,
              "contamination_estimate": float, "max_iterations": int,
              "patience": int},
    "seeds": [int],
    "epsilon_test": [float],
    "output_dir": str,
}


def _check(value, spec, context: str):
    """`value` checked against `spec`: a type, `[type]` for an array, or a dict for an object.
    JSON true/false is never a number; an int where a float is declared becomes a float,
    and a float must be finite (JSON's Infinity, NaN and 1e400 parse, but are rejected)."""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise SchemaError(f"{context}: expected an object, got {value!r}")
        if unknown := set(value) - set(spec):
            raise SchemaError(f"{context}: unknown keys {sorted(unknown)}")
        return {key: _check(v, spec[key], f"{context}.{key}") for key, v in value.items()}
    if isinstance(spec, list):
        if not isinstance(value, list):
            raise SchemaError(f"{context}: expected an array, got {value!r}")
        return [_check(v, spec[0], f"{context}[{i}]") for i, v in enumerate(value)]
    accepted = (int, float) if spec is float else spec
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise SchemaError(f"{context}: expected {spec.__name__}, got {value!r}")
    if spec is not float:
        return spec(value)
    try:
        number = float(value)
    except OverflowError:
        raise SchemaError(f"{context}: integer beyond the float range") from None
    if not math.isfinite(number):
        raise SchemaError(f"{context}: expected a finite number, got {value!r}")
    return number


def load_config(path, schema: dict) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise SchemaError(f"config {path} is not valid JSON: {exc}") from exc
    doc = _check(doc, schema, "config")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"config.schema_version: must be {SCHEMA_VERSION}")
    return doc


def _require(doc: dict, key: str, context: str = "config"):
    if key not in doc:
        raise SchemaError(f"{context}: missing required key {key!r}")
    return doc[key]


@contextmanager
def _config_values(context: str):
    """Report a ValueError or TypeError raised by a bad config value as SchemaError.

    SchemaError and FormatError (a fault in a file the config names) pass unchanged.
    """
    try:
        yield
    except (SchemaError, FormatError):
        raise
    except (ValueError, TypeError) as exc:  # InvalidInputError is a ValueError
        raise SchemaError(f"{context}: {exc}") from exc


# ---------------------------------------------------------------- inject

def _load_source(source: dict, seed: int) -> ContaminatedDataset:
    kind = _require(source, "kind", "config.source")
    if kind == "idx":
        features, labels = load_idx(_require(source, "images", "config.source"),
                                    _require(source, "labels", "config.source"))
        num_classes = source.get("num_classes", int(labels.max()) + 1)
        return ContaminatedDataset.clean(features, labels, num_classes)
    if kind == "blobs":
        keys = ("num_classes", "samples_per_class", "input_dim", "separation")
        return make_synthetic_blobs(*(_require(source, k, "config.source") for k in keys),
                                    seed=seed)
    raise SchemaError(f"config.source.kind: expected 'idx' or 'blobs', got {kind!r}")


def cmd_inject(args) -> int:
    doc = load_config(args.config, INJECT_SCHEMA)
    cont = doc.get("contamination", {"mode": "none"})
    mode = cont.get("mode", "none")
    if mode not in ("ncar", "kernel", "none"):
        raise SchemaError(f"config.contamination.mode: expected ncar|kernel|none, got {mode!r}")
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    if seed < 0:
        raise SchemaError(f"config.seed: must be >= 0, got {seed}")
    if mode == "kernel":
        # a fault in the kernel file is the file's, not the config's
        kernel = ContaminationKernel.from_file(_require(cont, "kernel_path", "config.contamination"))
    # "none" is NCAR at rate 0, and the rate recorded is the 0 applied
    rate = 0.0 if mode == "none" else cont.get("rate", 0.0)
    with _config_values("config.source"):
        dataset = _load_source(_require(doc, "source"), seed)
    if "keep_classes" in doc:
        with _config_values("config.keep_classes"):
            dataset = subset_classes(dataset, doc["keep_classes"])
    with _config_values("config.contamination"):
        if mode == "kernel":
            if kernel.num_classes != dataset.num_classes:
                raise SchemaError(f"config.contamination.kernel_path: a {kernel.num_classes}"
                                  f"-class kernel for a {dataset.num_classes}-class dataset")
            observed, chosen = inject_kernel(dataset.clean_labels, rate, kernel, seed)
        else:
            observed, chosen = inject_ncar(dataset.clean_labels, rate, dataset.num_classes, seed)
        dataset = ContaminatedDataset(dataset.features, observed, dataset.clean_labels,
                                      chosen, dataset.num_classes)
    out = Path(_require(doc, "output"))
    out.parent.mkdir(parents=True, exist_ok=True)
    save_cache(out, dataset, seed=seed, rate=rate)
    print(f"wrote {out}: N={dataset.n} |C|={chosen.size} rate={rate} seed={seed}")
    return EXIT_OK


# ----------------------------------------------------------------- train

def _train_config(doc: dict, mode_override: str | None) -> TrainConfig:
    """TrainConfig from the `train` section; a key it leaves out keeps the dataclass default."""
    kw = dict(_require(doc, "train"))
    if mode_override:
        kw["mode"] = mode_override
    if "loss" in kw:
        kw["loss_kind"] = LossKind(kw.pop("loss"))
    rw = {key: kw.pop(key) for key in ("gamma", "mu", "contamination_estimate") if key in kw}
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
        json.dump(summary, f, indent=2)
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
    seeds = [args.seed] if args.seed is not None else doc.get("seeds", [0])
    epsilon_test = (args.epsilon_test if args.epsilon_test is not None
                    else doc.get("epsilon_test", []))
    val_frac = doc.get("validation_fraction", 0.2)
    with _config_values("config.train"):
        config = _train_config(doc, args.mode)
    with _config_values("config.architecture"):
        arch = Architecture(tuple(doc["architecture"]))
    if not seeds or len(set(seeds)) < len(seeds) or min(seeds) < 0:
        raise SchemaError(f"config.seeds: must be non-empty, distinct and >= 0, got {seeds}")
    if not all(0 <= e <= 1 for e in epsilon_test):
        raise SchemaError(f"config.epsilon_test: values must lie in [0, 1], got {epsilon_test}")
    if not 0 <= val_frac < 1:
        raise SchemaError(f"config.validation_fraction: must lie in [0, 1), got {val_frac}")
    train_ds, _ = load_cache(doc["train_cache"])
    if np.rint((1.0 - val_frac) * train_ds.n) < 1:  # split's rounding, the same for every seed
        raise SchemaError(f"config.validation_fraction: {val_frac} leaves no training sample "
                          f"of the {train_ds.n} in config.train_cache")
    test_ds, _ = load_cache(doc["test_cache"])
    for key, ds in (("train_cache", train_ds), ("test_cache", test_ds)):
        try:
            _check_fits(ds, arch, f"config.{key}")
        except InvalidInputError as exc:
            raise SchemaError(str(exc)) from exc
    out_dir = Path(doc["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    shared = (arch, train_ds, test_ds, val_frac, epsilon_test, out_dir)
    summaries, failures = [], []
    # a fork-started pool starts all its workers at the first submit, so size it to the seeds
    workers = min(args.workers, len(seeds))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        jobs = {seed: partial(_run_one_seed, replace(config, seed=seed), *shared) for seed in seeds}
        if pool is not None:  # every seed is submitted before the first result is awaited
            jobs = {seed: pool.submit(job).result for seed, job in jobs.items()}
        for seed, job in jobs.items():
            try:
                summaries.append(job())
            except Exception as exc:  # per-seed isolation
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
        for key in _AGGREGATE_KEYS:
            values = np.array([s[key] for s in summaries], dtype=float)
            aggregate[f"{key}_mean"] = float(values.mean())
            # population std, matching mean +/- std reporting over seeds
            aggregate[f"{key}_std"] = float(values.std())
        if epsilon_test:
            aggregate["epsilon_test_accuracy_mean"] = {
                str(eps): float(np.mean([s["epsilon_test_accuracy"][eps] for s in summaries]))
                for eps in summaries[0]["epsilon_test_accuracy"]
            }
    aggregate.update({"failed_seeds": [f["seed"] for f in failures], "failures": failures,
                      "version": __version__})
    with open(out_dir / "aggregate.json", "w") as f:
        json.dump(aggregate, f, indent=2)
    if not summaries:
        print(f"{config.mode}: every seed failed -> {out_dir}")
        return EXIT_NUMERIC
    print(f"{config.mode}: test@peak-val {aggregate['test_at_peak_validation_mean']:.4f} "
          f"± {aggregate['test_at_peak_validation_std']:.4f} "
          f"over {len(summaries)} seed(s) -> {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    suites = run_all(seed=args.seed, lp_trials=args.lp_trials, grad_trials=args.grad_trials)
    for s in suites:
        print(f"{'PASS' if s.ok else 'FAIL'} {s.name}: {s.passed} passed, {s.failed} failed")
    failing = next((s for s in suites if not s.ok), None)
    if failing is not None:
        replay = Path(args.replay_file)
        replay.parent.mkdir(parents=True, exist_ok=True)
        with open(replay, "w") as f:
            json.dump({"suite": failing.name, "instance": failing.first_failure}, f, indent=2)
        print(f"first failing instance written to {replay}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------- report

def cmd_report(args) -> int:
    # every input is read, and every output row built, before anything is written
    lines = ["run  mode  test@peak-val  max-test"]
    rows, evolution = [], []
    by_mode = {}  # mode -> test_at_peak_validation_mean, of runs with a finished seed
    for d in map(Path, args.run_dirs):
        path = d / "aggregate.json"
        with file_faults(path, "run aggregate"):
            agg = json.loads(path.read_text())
            mode, seeds = agg["mode"], agg["seeds"]
            # the seeds train finished; any other seed_* directory is left from an earlier run
            if not isinstance(seeds, list) or len({s for s in seeds if type(s) is int}) < len(seeds):
                raise ValueError(f"seeds: expected a list of distinct integers, got {seeds!r}")
            if not seeds:
                # a failures-only aggregate: no accuracies to tabulate
                lines.append(f"{d.name}  {mode}  every seed failed")
            else:
                stats = [agg[f"{key}_{stat}"] for key in _AGGREGATE_KEYS for stat in ("mean", "std")]
                # a bool is an int to Python; NaN passes, since an empty test set writes it
                if any(type(v) is bool or not isinstance(v, (int, float)) for v in stats):
                    raise ValueError(f"accuracy statistics: expected numbers, got {stats!r}")
                peak_mean, peak_std, max_mean, _ = stats
                lines.append(f"{d.name}  {mode}  {100 * peak_mean:.1f} ± {100 * peak_std:.1f}  "
                             f"{100 * max_mean:.1f}")
                rows.append([d.name, mode, *stats])
                by_mode[mode] = peak_mean
            for failure in agg.get("failures", []):
                lines.append(f"  seed {failure['seed']} failed: {failure['type']}: {failure['message']}")
        # weight evolution: seeds x iterations x buckets x {contaminated, clean}
        for seed in seeds:
            path = d / f"seed_{seed}" / "record.csv"
            with file_faults(path, "run record"), open(path) as f:
                reader = csv.DictReader(f)
                for rec in reader:
                    # DictReader files a missing cell as None, and extra cells under the key None
                    if None in rec or None in rec.values():
                        raise ValueError(f"line {reader.line_num} does not have the header's "
                                         f"{len(reader.fieldnames)} cells")
                    for bi, label in enumerate(BUCKET_LABELS):
                        for population in ("contaminated", "clean"):
                            evolution.append([d.name, f"seed_{seed}", rec["iteration"], label,
                                              population, rec[f"hist_{population}_{bi}"]])
    # accuracy comparison: the erm value with each reweighted one in parentheses
    if "erm" in by_mode:
        lines += [f"comparison: {100 * by_mode['erm']:.0f} ({100 * peak:.0f}) [erm ({mode})]"
                  for mode, peak in by_mode.items() if mode != "erm"]
    table_txt = "\n".join(lines)

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "comparison.txt").write_text(table_txt + "\n")
    with open(out_dir / "comparison.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["run", "mode", "test_at_peak_val_mean", "test_at_peak_val_std",
                    "max_test_mean", "max_test_std"])
        w.writerows(rows)
    with open(out_dir / "weight_evolution.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["run", "seed", "iteration", "bucket", "population", "count"])
        w.writerows(evolution)
    print(table_txt)
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


# ------------------------------------------------------------------ main

def _int_at_least(low: int):
    """An argparse type for an int of at least `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names a non-int "invalid int value"
    return parse


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
    p_train.add_argument("--mode", choices=MODES, default=None)
    p_train.add_argument("--epsilon-test", type=float, nargs="*", default=None,
                         help="post-training FGSM attack strengths to sweep")
    p_train.add_argument("--workers", type=_int_at_least(1), default=1,
                         help="seed-parallel worker pool size (at most one per seed)")
    p_train.set_defaults(func=cmd_train)

    p_verify = sub.add_parser("verify", help="run the randomized verification suites")
    p_verify.add_argument("--seed", type=_int_at_least(0), default=0)
    p_verify.add_argument("--lp-trials", type=_int_at_least(1), default=1000)
    p_verify.add_argument("--grad-trials", type=_int_at_least(1), default=100)
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
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
