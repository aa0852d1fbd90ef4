import csv
import json
import multiprocessing
import re
import shutil
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from rockrelax import cli
from rockrelax.cli import (EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_SCHEMA, EXIT_VERIFY,
                          INJECT_SCHEMA, TRAIN_SCHEMA, _failure, _train_config, load_config,
                          main)
from rockrelax.data import ContaminatedDataset, load_cache, mnist_kernel_path, save_cache, write_idx
from rockrelax.errors import NumericError
from rockrelax.models import load_checkpoint
from rockrelax.trainer import MODES, IterationRecord, RunRecord, TrainConfig, accuracy


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def inject_config(tmp_path, rate=0.4, mode="ncar", out="train_cache.npz", **source_kw):
    source = {"kind": "blobs", "num_classes": 3, "samples_per_class": 40,
              "input_dim": 5, "separation": 8.0}
    source.update(source_kw)
    return {
        "schema_version": 1,
        "source": source,
        "contamination": {"mode": mode, "rate": rate},
        "seed": 0,
        "output": str(tmp_path / out),
    }


def train_config(tmp_path):
    return {
        "schema_version": 1,
        "train_cache": str(tmp_path / "train_cache.npz"),
        "test_cache": str(tmp_path / "test_cache.npz"),
        "validation_fraction": 0.2,
        "architecture": [5, 8, 3],
        "train": {"mode": "rrm", "loss": "cce", "epochs_per_iteration": 2,
                  "batch_size": 16, "learning_rate": 0.1, "gamma": 0.4,
                  "mu": 0.5, "max_iterations": 2},
        "seeds": [0, 1],
        "epsilon_test": [0.0, 0.1],
        "output_dir": str(tmp_path / "runs" / "rrm"),
    }


@pytest.fixture
def caches(tmp_path):
    cfg = write_json(tmp_path / "inject.json", inject_config(tmp_path))
    assert main(["inject", "--config", cfg]) == EXIT_OK
    clean = inject_config(tmp_path, rate=0.0, mode="none", out="test_cache.npz")
    clean["seed"] = 99
    cfg2 = write_json(tmp_path / "inject_test.json", clean)
    assert main(["inject", "--config", cfg2]) == EXIT_OK
    return tmp_path


class TestInject:
    def test_writes_cache_with_bookkeeping(self, caches, capsys):
        ds, header = load_cache(caches / "train_cache.npz")
        assert ds.n == 120
        assert ds.contaminated_set.size == round(0.4 * 120)
        assert header["rate"] == 0.4

    def test_rate_zero_empty_c(self, tmp_path):
        cfg = write_json(tmp_path / "i.json", inject_config(tmp_path, rate=0.0))
        assert main(["inject", "--config", cfg]) == EXIT_OK
        ds, _ = load_cache(tmp_path / "train_cache.npz")
        assert ds.contaminated_set.size == 0
        np.testing.assert_array_equal(ds.observed_labels, ds.clean_labels)

    def test_malformed_kernel_file_schema_error(self, tmp_path):
        (tmp_path / "kernel.txt").write_text("not a matrix\n")
        doc = inject_config(tmp_path, mode="kernel")
        doc["contamination"]["kernel_path"] = str(tmp_path / "kernel.txt")
        cfg = write_json(tmp_path / "i.json", doc)
        assert main(["inject", "--config", cfg]) == EXIT_IO

    def test_kernel_contamination_flips_every_chosen_label(self, tmp_path):
        doc = inject_config(tmp_path, mode="kernel", num_classes=10)
        doc["contamination"]["kernel_path"] = str(mnist_kernel_path())
        assert main(["inject", "--config", write_json(tmp_path / "i.json", doc)]) == EXIT_OK
        ds, header = load_cache(tmp_path / "train_cache.npz")
        chosen = ds.contaminated_set
        assert ds.num_classes == 10 and chosen.size == round(0.4 * ds.n)
        assert np.all(ds.observed_labels[chosen] != ds.clean_labels[chosen])
        assert header["rate"] == 0.4

    def test_kernel_of_another_class_count_is_a_config_error(self, tmp_path, capsys):
        doc = inject_config(tmp_path, mode="kernel")
        doc["contamination"]["kernel_path"] = str(mnist_kernel_path())
        assert main(["inject", "--config", write_json(tmp_path / "i.json", doc)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith(
            "config error: config.contamination.kernel_path: "
            "a 10-class kernel for a 3-class dataset")
        assert not (tmp_path / "train_cache.npz").exists()

    @pytest.mark.parametrize("rows", [
        "0 0.45 0.45\n0.5 0 0.5\n0.5 0.5 0\n",
        "0.2 0.4 0.4\n0.5 0 0.5\n0.5 0.5 0\n",
    ], ids=["row-sums-to-0.9", "non-zero-diagonal"])
    def test_kernel_file_that_is_not_a_kernel_io_error(self, tmp_path, capsys, rows):
        (tmp_path / "kernel.txt").write_text(rows)
        doc = inject_config(tmp_path, mode="kernel")
        doc["contamination"]["kernel_path"] = str(tmp_path / "kernel.txt")
        assert main(["inject", "--config", write_json(tmp_path / "i.json", doc)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o error: invalid kernel file ")
        assert not (tmp_path / "train_cache.npz").exists()

    def test_unknown_key_rejected(self, tmp_path):
        doc = inject_config(tmp_path)
        doc["contamination_rate"] = 0.5
        cfg = write_json(tmp_path / "i.json", doc)
        assert main(["inject", "--config", cfg]) == EXIT_SCHEMA

    def test_bad_schema_version(self, tmp_path):
        doc = inject_config(tmp_path)
        doc["schema_version"] = 99
        cfg = write_json(tmp_path / "i.json", doc)
        assert main(["inject", "--config", cfg]) == EXIT_SCHEMA

    def test_keep_classes_subsets_and_relabels(self, tmp_path):
        doc = inject_config(tmp_path, rate=0.0, mode="none")
        doc["keep_classes"] = [0, 2]
        assert main(["inject", "--config", write_json(tmp_path / "i.json", doc)]) == EXIT_OK
        ds, _ = load_cache(tmp_path / "train_cache.npz")
        assert ds.num_classes == 2 and ds.n == 80
        assert np.bincount(ds.clean_labels).tolist() == [40, 40]

    @pytest.mark.parametrize("keep", [[0, 7], [-1, 0], [3]])
    def test_keep_classes_outside_source_rejected(self, tmp_path, capsys, keep):
        # the blobs source has classes 0..2
        doc = inject_config(tmp_path)
        doc["keep_classes"] = keep
        assert main(["inject", "--config", write_json(tmp_path / "i.json", doc)]) == EXIT_SCHEMA
        assert "config error: config.keep_classes" in capsys.readouterr().err
        assert not (tmp_path / "train_cache.npz").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("contamination", "rate", "abc"),
        ("source", "samples_per_class", "ten"),
        (None, "seed", "x"),
        ("contamination", "rate", 1.5),
        ("source", "separation", -1),
    ])
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, section, key, value):
        doc = inject_config(tmp_path)
        (doc[section] if section else doc)[key] = value
        assert main(["inject", "--config", write_json(tmp_path / "i.json", doc)]) == EXIT_SCHEMA
        # a wrong type is caught at load and names its key; a value out of range is
        # caught by the constructor that reads the section, which the error names
        path = ".".join(filter(None, ("config", section, key)))
        expected = path if isinstance(value, str) else f"config.{section}"
        assert capsys.readouterr().err.startswith(f"config error: {expected}: ")
        assert not (tmp_path / "train_cache.npz").exists()

    def test_num_classes_below_the_labels_rejected(self, tmp_path, capsys):
        write_idx(tmp_path / "images.idx", tmp_path / "labels.idx", np.zeros((6, 4)),
                  np.array([0, 1, 2, 0, 1, 2]), rows=2, cols=2)
        doc = inject_config(tmp_path, rate=0.0, mode="none")
        doc["source"] = {"kind": "idx", "images": str(tmp_path / "images.idx"),
                         "labels": str(tmp_path / "labels.idx"), "num_classes": 2}
        assert main(["inject", "--config", write_json(tmp_path / "i.json", doc)]) == EXIT_SCHEMA
        assert "do not fit 2 classes" in capsys.readouterr().err
        assert not (tmp_path / "train_cache.npz").exists()

    @pytest.mark.parametrize("num_classes", [None, 3], ids=["no-num-classes", "num-classes"])
    def test_idx_without_samples_io_error(self, tmp_path, capsys, num_classes):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(images, labels, np.zeros((0, 4)), np.zeros(0, dtype=int), rows=2, cols=2)
        doc = inject_config(tmp_path, rate=0.0, mode="none")
        doc["source"] = {"kind": "idx", "images": str(images), "labels": str(labels)}
        if num_classes is not None:
            doc["source"]["num_classes"] = num_classes
        assert main(["inject", "--config", write_json(tmp_path / "i.json", doc)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == f"i/o error: {images}: holds no samples\n"
        assert not (tmp_path / "train_cache.npz").exists()

    def test_idx_header_beyond_the_file_io_error(self, tmp_path, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(images, labels, np.zeros((6, 4)), np.array([0, 1, 2, 0, 1, 2]), rows=2, cols=2)
        # (2^32 - 1)^3 pixels: the header is checked against the file before any read
        images.write_bytes(np.array([2051, *[2**32 - 1] * 3], dtype=">u4").tobytes() + bytes(24))
        doc = inject_config(tmp_path, rate=0.0, mode="none")
        doc["source"] = {"kind": "idx", "images": str(images), "labels": str(labels)}
        assert main(["inject", "--config", write_json(tmp_path / "i.json", doc)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: invalid IDX file {images}: truncated data: ")
        assert not (tmp_path / "train_cache.npz").exists()

    def test_idx_bytes_after_the_data_io_error(self, tmp_path, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(images, labels, np.zeros((6, 4)), np.array([0, 1, 2, 0, 1, 2]), rows=2, cols=2)
        labels.write_bytes(labels.read_bytes() + b"\x01\x02")
        doc = inject_config(tmp_path, rate=0.0, mode="none")
        doc["source"] = {"kind": "idx", "images": str(images), "labels": str(labels)}
        assert main(["inject", "--config", write_json(tmp_path / "i.json", doc)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == (f"i/o error: invalid IDX file {labels}: "
                       "trailing data: 2 bytes after the 6 its header declares\n")
        assert not (tmp_path / "train_cache.npz").exists()

    @pytest.mark.parametrize("source", ["blobs", "idx"])
    @pytest.mark.parametrize("flag", [False, True], ids=["key", "flag"])
    def test_negative_seed_rejected_before_the_source_loads(self, tmp_path, capsys, source,
                                                             flag):
        doc = inject_config(tmp_path)
        if source == "idx":
            write_idx(tmp_path / "images.idx", tmp_path / "labels.idx", np.zeros((6, 4)),
                      np.array([0, 1, 2, 0, 1, 2]), rows=2, cols=2)
            doc["source"] = {"kind": "idx", "images": str(tmp_path / "images.idx"),
                             "labels": str(tmp_path / "labels.idx")}
        args = ["--seed", "-1"] if flag else []
        doc["seed"] = 0 if flag else -1
        assert main(["inject", "--config", write_json(tmp_path / "i.json", doc), *args]) \
            == EXIT_SCHEMA
        assert capsys.readouterr().err == "config error: config.seed: must be >= 0, got -1\n"
        assert not (tmp_path / "train_cache.npz").exists()

    def test_mode_none_records_the_applied_rate(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "i.json", inject_config(tmp_path, rate=0.4, mode="none"))
        assert main(["inject", "--config", cfg]) == EXIT_OK
        ds, header = load_cache(tmp_path / "train_cache.npz")
        assert ds.contaminated_set.size == 0 and header["rate"] == 0.0
        assert "|C|=0 rate=0.0 " in capsys.readouterr().out

    def test_mode_none_writes_the_cache_of_ncar_at_rate_zero(self, tmp_path):
        for mode, rate in (("none", 0.4), ("ncar", 0.0)):
            doc = inject_config(tmp_path, rate=rate, mode=mode, out=f"{mode}.npz")
            assert main(["inject", "--config", write_json(tmp_path / "i.json", doc)]) == EXIT_OK
        with np.load(tmp_path / "none.npz") as none, np.load(tmp_path / "ncar.npz") as ncar:
            assert sorted(none.files) == sorted(ncar.files)
            for key in none.files:
                assert none[key].dtype == ncar[key].dtype, key
                assert np.array_equal(none[key], ncar[key]), key
            assert none["rate"] == 0.0


class TestTrain:
    def test_multi_seed_artifacts_and_aggregate(self, caches):
        cfg = write_json(caches / "train.json", train_config(caches))
        assert main(["train", "--config", cfg]) == EXIT_OK
        out = caches / "runs" / "rrm"
        for seed in (0, 1):
            seed_dir = out / f"seed_{seed}"
            assert (seed_dir / "checkpoint.npz").exists()
            assert (seed_dir / "record.csv").exists()
            summary = json.loads((seed_dir / "summary.json").read_text())
            assert summary["seed"] == seed
            assert "epsilon_test_accuracy" in summary
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["seeds"] == [0, 1]
        assert 0 <= agg["test_at_peak_validation_mean"] <= 1
        assert agg["test_at_peak_validation_std"] >= 0
        assert set(agg["epsilon_test_accuracy_mean"]) == {"0.0", "0.1"}

    def test_mode_and_seed_overrides(self, caches):
        cfg = write_json(caches / "train.json", train_config(caches))
        assert main(["train", "--config", cfg, "--mode", "erm", "--seed", "5"]) == EXIT_OK
        agg = json.loads((caches / "runs" / "rrm" / "aggregate.json").read_text())
        assert agg["mode"] == "erm" and agg["seeds"] == [5]

    def test_mode_choices_are_the_trainers_modes(self):
        train = cli.build_parser()._subparsers._group_actions[0].choices["train"]
        mode = next(a for a in train._actions if a.dest == "mode")
        assert tuple(mode.choices) == MODES

    @pytest.mark.parametrize("flag,swept", [([], None), (["0.2"], {"0.2"})])
    def test_epsilon_test_flag_replaces_the_config_sweep(self, caches, flag, swept):
        # the config sweeps [0.0, 0.1]; the bare flag turns the sweep off
        cfg = write_json(caches / "train.json", train_config(caches))
        assert main(["train", "--config", cfg, "--seed", "0", "--epsilon-test", *flag]) == EXIT_OK
        out = caches / "runs" / "rrm"
        summary = json.loads((out / "seed_0" / "summary.json").read_text())
        agg = json.loads((out / "aggregate.json").read_text())
        for doc, key in ((summary, "epsilon_test_accuracy"), (agg, "epsilon_test_accuracy_mean")):
            assert (set(doc[key]) if key in doc else None) == swept

    def test_checkpoint_is_the_reported_model(self, caches):
        doc = train_config(caches)
        # with these settings validation peaks before the last iteration on both seeds
        doc["train"].update(learning_rate=0.5, max_iterations=4)
        assert main(["train", "--config", write_json(caches / "train.json", doc)]) == EXIT_OK
        test_ds, _ = load_cache(caches / "test_cache.npz")
        for seed in (0, 1):
            seed_dir = caches / "runs" / "rrm" / f"seed_{seed}"
            summary = json.loads((seed_dir / "summary.json").read_text())
            model, saved_seed, meta = load_checkpoint(seed_dir / "checkpoint.npz")
            assert saved_seed == seed and meta["model"] == "peak_validation"
            reloaded = accuracy(model, test_ds.features, test_ds.clean_labels)
            assert reloaded == summary["test_at_peak_validation"]
            assert summary["epsilon_test_accuracy"]["0.0"] == reloaded
            assert summary["final_test_accuracy"] != reloaded

    def test_empty_train_section_keeps_dataclass_defaults(self):
        assert _train_config({"train": {}}, None) == TrainConfig()
        assert _train_config({"train": {}}, "erm") == TrainConfig(mode="erm")

    @pytest.mark.parametrize("section,value", [
        ("train", {"mode": "bogus"}),
        ("train", {"loss": "hinge"}),
        ("train", {"gamma": -1}),
        ("architecture", [4, 8, 3]),  # the caches hold 5-dim features
        ("epsilon_test", [-0.1]),
        ("validation_fraction", 1.0),
        ("seeds", ["first"]),
        ("architecture", [5, 8, 2]),  # the caches hold 3-class labels
    ])
    def test_bad_config_fails_once_before_any_seed(self, caches, capsys, section, value):
        doc = train_config(caches)
        if section == "train":
            doc["train"].update(value)
        else:
            doc[section] = value
        assert main(["train", "--config", write_json(caches / "train.json", doc)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.count("config error") == 1
        out = caches / "runs" / "rrm"
        assert not list(out.glob("seed_*")) and not (out / "aggregate.json").exists()

    def test_clean_label_beyond_output_width_rejected(self, caches, capsys):
        # observed labels fit 2 outputs, but a flipped sample's clean label is 2
        clean = np.array([0, 1, 2, 0, 1, 2])
        observed = np.where(clean == 2, 0, clean)
        ds = ContaminatedDataset(np.zeros((6, 5)), observed, clean, np.array([2, 5]), 3)
        save_cache(caches / "train_cache.npz", ds)
        doc = train_config(caches)
        doc["architecture"] = [5, 8, 2]
        assert main(["train", "--config", write_json(caches / "train.json", doc)]) == EXIT_SCHEMA
        assert "config.train_cache holds labels in [0, 2]" in capsys.readouterr().err
        out = caches / "runs" / "rrm"
        assert not list(out.glob("seed_*")) and not (out / "aggregate.json").exists()

    def test_output_wider_than_class_count_trains(self, caches):
        doc = train_config(caches)
        doc["architecture"] = [5, 8, 4]
        assert main(["train", "--config", write_json(caches / "train.json", doc)]) == EXIT_OK
        agg = json.loads((caches / "runs" / "rrm" / "aggregate.json").read_text())
        assert agg["seeds"] == [0, 1] and agg["failed_seeds"] == []

    def test_workers_do_not_change_results(self, caches):
        for workers in (1, 2):
            doc = train_config(caches)
            doc["output_dir"] = str(caches / "runs" / f"workers_{workers}")
            cfg = write_json(caches / f"train_{workers}.json", doc)
            assert main(["train", "--config", cfg, "--workers", str(workers)]) == EXIT_OK
        for seed in (0, 1):
            one, two = (caches / "runs" / f"workers_{w}" / f"seed_{seed}" for w in (1, 2))
            for name in ("summary.json", "record.csv"):
                assert (one / name).read_bytes() == (two / name).read_bytes()
            theta_one = load_checkpoint(one / "checkpoint.npz")[0].theta
            theta_two = load_checkpoint(two / "checkpoint.npz")[0].theta
            assert np.array_equal(theta_one, theta_two)

    def test_cache_header_below_its_labels_io_error(self, caches, capsys):
        with np.load(caches / "train_cache.npz") as z:
            arrays = dict(z)
        arrays["num_classes"] = np.array(2)  # the labels reach class 2
        np.savez_compressed(caches / "train_cache.npz", **arrays)
        cfg = write_json(caches / "train.json", train_config(caches))
        assert main(["train", "--config", cfg]) == EXIT_IO
        assert "do not fit 2 classes" in capsys.readouterr().err

    def test_float_label_cache_rejected_before_any_seed(self, caches, capsys):
        with np.load(caches / "train_cache.npz") as z:
            arrays = dict(z)
        arrays["observed_labels"] = arrays["observed_labels"].astype(float)
        np.savez_compressed(caches / "train_cache.npz", **arrays)
        cfg = write_json(caches / "train.json", train_config(caches))
        assert main(["train", "--config", cfg]) == EXIT_IO
        assert "labels must be integers, got dtype float64" in capsys.readouterr().err
        out_dir = caches / "runs" / "rrm"
        assert not list(out_dir.glob("seed_*"))
        assert not (out_dir / "aggregate.json").exists()

    @pytest.mark.parametrize("fault", [
        "nan-feature", "string-features", "no-features", "wrong-version", "not-an-npz",
        "bare-npy",
        # a truncated archive must not leave its file open (a ResourceWarning)
        pytest.param("truncated", marks=pytest.mark.filterwarnings("error")),
    ])
    def test_faulty_cache_rejected_before_any_seed(self, caches, capsys, fault):
        path = caches / "train_cache.npz"
        with np.load(path) as z:
            arrays = dict(z)
        if fault == "nan-feature":
            arrays["features"][7, 2] = np.nan
        elif fault == "string-features":
            arrays["features"] = arrays["features"].astype(str)
        elif fault == "no-features":
            del arrays["features"]
        elif fault == "wrong-version":
            arrays["version"] = np.array(2)
        np.savez_compressed(path, **arrays)
        if fault == "not-an-npz":
            path.write_text("features,label\n0.1,2\n")
        elif fault == "bare-npy":
            with open(path, "wb") as f:
                np.save(f, arrays["features"])
        elif fault == "truncated":
            path.write_bytes(path.read_bytes()[:200])
        cfg = write_json(caches / "train.json", train_config(caches))
        assert main(["train", "--config", cfg]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: invalid dataset cache {path}: ")
        assert "Traceback" not in err
        assert not (caches / "runs").exists()

    def test_pool_is_capped_at_the_seed_count(self, caches, monkeypatch):
        sizes = []

        class InProcessPool:
            """Records its size and runs each job at submit, starting no process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        cfg = write_json(caches / "train.json", train_config(caches))
        assert main(["train", "--config", cfg, "--workers", "64"]) == EXIT_OK
        assert sizes == [2]
        agg = json.loads((caches / "runs" / "rrm" / "aggregate.json").read_text())
        assert agg["seeds"] == [0, 1]

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_workers_below_one_rejected(self, caches, capsys, workers):
        cfg = write_json(caches / "train.json", train_config(caches))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", cfg, "--workers", workers])
        assert exc.value.code == EXIT_SCHEMA
        assert "--workers" in capsys.readouterr().err
        assert not (caches / "runs").exists()

    @pytest.mark.parametrize("seeds,flag", [([0, -1], []), ([0, 1], ["--seed", "-1"])],
                             ids=["config", "flag"])
    def test_negative_seed_rejected_before_any_seed(self, caches, capsys, seeds, flag):
        doc = train_config(caches)
        doc["seeds"] = seeds
        cfg = write_json(caches / "train.json", doc)
        assert main(["train", "--config", cfg, *flag]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("config error: config.seeds: must be non-empty, distinct and >= 0")
        assert "Traceback" not in err
        assert not (caches / "runs").exists()

    @pytest.mark.parametrize("patience", [0, -2])
    def test_patience_below_one_rejected(self, caches, capsys, patience):
        doc = train_config(caches)
        doc["train"]["patience"] = patience
        assert main(["train", "--config", write_json(caches / "train.json", doc)]) == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            f"config error: config.train: patience must be >= 1, got {patience}\n")
        assert not (caches / "runs").exists()

    @staticmethod
    def three_sample_run(tmp_path, validation_fraction):
        """`train` on a 3-sample train cache; returns its exit code."""
        doc = inject_config(tmp_path, samples_per_class=1)
        assert main(["inject", "--config", write_json(tmp_path / "i.json", doc)]) == EXIT_OK
        doc = inject_config(tmp_path, out="test_cache.npz")
        assert main(["inject", "--config", write_json(tmp_path / "t.json", doc)]) == EXIT_OK
        doc = train_config(tmp_path)
        doc["validation_fraction"] = validation_fraction
        return main(["train", "--config", write_json(tmp_path / "train.json", doc)])

    def test_empty_training_split_rejected_before_any_seed(self, tmp_path, capsys):
        # 0.1 of 3 samples rounds the training part to 0
        assert self.three_sample_run(tmp_path, 0.9) == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            "config error: config.validation_fraction: 0.9 leaves no training sample "
            "of the 3 in config.train_cache\n")
        assert not (tmp_path / "runs").exists()

    def test_one_training_sample_is_enough(self, tmp_path):
        # 0.2 of 3 samples rounds the training part to 1
        assert self.three_sample_run(tmp_path, 0.8) == EXIT_OK
        agg = json.loads((tmp_path / "runs" / "rrm" / "aggregate.json").read_text())
        assert agg["seeds"] == [0, 1] and agg["failed_seeds"] == []

    def test_missing_cache_io_error(self, tmp_path):
        doc = train_config(tmp_path)
        cfg = write_json(tmp_path / "train.json", doc)
        assert main(["train", "--config", cfg]) != EXIT_OK


class TestConfigTypes:
    @pytest.mark.parametrize("command,path,value", [
        ("inject", "keep_classes", "02"),
        ("inject", "source.samples_per_class", "40"),
        ("train", "architecture", "583"),
        ("train", "seeds", "01"),
        ("train", "train.batch_size", True),
        ("train", "train.epochs_per_iteration", 1.9),
        ("train", "train.epochs_per_iteration", 2.0),
        ("train", "train.contamination_estimate", True),
        ("train", "train.contamination_estimate", None),
        ("train", "epsilon_test[0]", [True]),
        ("train", "seeds", []),
        ("train", "seeds", [3, 3]),
    ])
    def test_bad_value_names_its_key(self, caches, capsys, command, path, value):
        doc = (inject_config(caches, out="new_cache.npz") if command == "inject"
               else train_config(caches))
        *parents, key = path.split("[")[0].split(".")
        section = doc
        for parent in parents:
            section = section[parent]
        section[key] = value
        cfg = write_json(caches / "config.json", doc)
        assert main([command, "--config", cfg]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith(f"config error: config.{path}: ")
        assert not (caches / "new_cache.npz").exists() and not (caches / "runs").exists()

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e400", "9" * 400],
                             ids=["inf", "-inf", "nan", "1e400", "400-digit-int"])
    @pytest.mark.parametrize("command,path", [
        ("train", "train.learning_rate"),
        ("train", "epsilon_test[0]"),
        ("inject", "contamination.rate"),
    ])
    def test_non_finite_float_names_its_key(self, caches, capsys, command, path, literal):
        # Python's json parses these; a float key must still hold a finite number
        doc = (inject_config(caches, out="new_cache.npz") if command == "inject"
               else train_config(caches))
        *parents, key = path.split("[")[0].split(".")
        section = doc
        for parent in parents:
            section = section[parent]
        section[key] = ["@raw@"] if path.endswith("]") else "@raw@"
        cfg = caches / "config.json"
        cfg.write_text(json.dumps(doc).replace('"@raw@"', literal))
        assert main([command, "--config", str(cfg)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config.{path}: ") and "Traceback" not in err
        assert not (caches / "new_cache.npz").exists() and not (caches / "runs").exists()

    def test_integer_too_long_to_parse_is_a_config_error(self, caches, capsys):
        doc = train_config(caches)
        doc["train"]["learning_rate"] = "@raw@"
        cfg = caches / "config.json"
        cfg.write_text(json.dumps(doc).replace('"@raw@"', "9" * 5000))
        assert main(["train", "--config", str(cfg)]) == EXIT_SCHEMA
        assert "is not valid JSON" in capsys.readouterr().err
        assert not (caches / "runs").exists()

    def test_duplicate_seed_rejected_before_the_pool_starts(self, caches, capsys):
        doc = train_config(caches)
        doc["seeds"] = [4, 4]
        cfg = write_json(caches / "train.json", doc)
        assert main(["train", "--config", cfg, "--workers", "2"]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith("config error: config.seeds: ")
        assert not (caches / "runs").exists()

    def test_integer_where_float_declared_loads_and_trains(self, caches):
        doc = inject_config(caches, out="int_separation.npz", separation=8)
        assert main(["inject", "--config", write_json(caches / "i.json", doc)]) == EXIT_OK
        from_int, _ = load_cache(caches / "int_separation.npz")
        from_float, _ = load_cache(caches / "train_cache.npz")
        assert np.array_equal(from_int.features, from_float.features)
        doc = train_config(caches)
        doc["train"]["learning_rate"] = 1
        doc["seeds"] = [0]
        assert main(["train", "--config", write_json(caches / "train.json", doc)]) == EXIT_OK
        agg = json.loads((caches / "runs" / "rrm" / "aggregate.json").read_text())
        assert agg["seeds"] == [0] and agg["failed_seeds"] == []
        assert isinstance(agg["config"]["train"]["learning_rate"], float)

    @pytest.mark.parametrize("edit,expected", [
        (lambda doc: {k: v for k, v in doc.items() if k != "output"},
         "config: missing required key 'output'"),
        (lambda doc: {**doc, "source": {**doc["source"], "kind": "csv"}},
         "config.source.kind: expected 'idx' or 'blobs', got 'csv'"),
        (lambda doc: {**doc, "contamination": {**doc["contamination"], "mode": "flip"}},
         "config.contamination.mode: expected ncar|kernel|none, got 'flip'"),
        (lambda doc: [doc], "config: expected an object, got ["),
        (None, "cannot read config "),
    ], ids=["no-output", "csv-source", "flip-mode", "array-document", "missing-file"])
    def test_config_error_branch_names_its_key(self, tmp_path, capsys, edit, expected):
        if edit is None:
            cfg = str(tmp_path / "absent.json")
            expected += cfg
        else:
            cfg = write_json(tmp_path / "i.json", edit(inject_config(tmp_path)))
        assert main(["inject", "--config", cfg]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith(f"config error: {expected}")
        assert not list(tmp_path.glob("*.npz"))

    def test_readme_configs_load(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert len(blocks) == 2
        for block, schema in zip(blocks, (INJECT_SCHEMA, TRAIN_SCHEMA)):
            (tmp_path / "config.json").write_text(block)
            assert load_config(tmp_path / "config.json", schema)["schema_version"] == 1


def failing_seed_one(real_run):
    def run(train, validation, test, config, architecture):
        if config.seed == 1:
            raise NumericError("diverged on purpose")
        return real_run(train, validation, test, config, architecture)
    return run


class TestFailedSeeds:
    @pytest.mark.parametrize("workers", [
        1,
        pytest.param(2, marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="pool workers see the patched trainer only when forked")),
    ])
    def test_one_failing_seed_keeps_its_cause(self, caches, monkeypatch, capsys, workers):
        monkeypatch.setattr(cli, "run", failing_seed_one(cli.run))
        cfg = write_json(caches / "train.json", train_config(caches))
        assert main(["train", "--config", cfg, "--workers", str(workers)]) == EXIT_OK
        agg = json.loads((caches / "runs" / "rrm" / "aggregate.json").read_text())
        assert agg["seeds"] == [0] and agg["failed_seeds"] == [1]
        [failure] = agg["failures"]
        assert failure["seed"] == 1
        assert failure["type"] == "NumericError"
        assert failure["message"] == "diverged on purpose"
        # the frame that raised, from the worker when there is a pool
        assert "in run\n" in failure["traceback"]
        assert 'raise NumericError("diverged on purpose")' in failure["traceback"]
        assert "seed 1 failed: NumericError: diverged on purpose" in capsys.readouterr().err

    def test_all_seeds_failing_prints_tracebacks(self, caches, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run", failing_seed_one(cli.run))
        cfg = write_json(caches / "train.json", train_config(caches))
        assert main(["train", "--config", cfg, "--seed", "1"]) == EXIT_NUMERIC
        assert "Traceback" in capsys.readouterr().err
        run_dir = caches / "runs" / "rrm"
        agg = json.loads((run_dir / "aggregate.json").read_text())
        assert sorted(agg) == ["config", "failed_seeds", "failures", "mode", "seeds", "version"]
        assert agg["mode"] == "rrm" and agg["seeds"] == [] and agg["failed_seeds"] == [1]
        [failure] = agg["failures"]
        assert failure["type"] == "NumericError"
        assert 'raise NumericError("diverged on purpose")' in failure["traceback"]

        out = caches / "report"
        assert main(["report", str(run_dir), "--output-dir", str(out)]) == EXIT_OK
        text = (out / "comparison.txt").read_text()
        assert "rrm  rrm  every seed failed" in text
        assert "seed 1 failed: NumericError: diverged on purpose" in text
        assert "missing artifacts" not in capsys.readouterr().err

    def test_worker_traceback_is_kept(self):
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            exc = pool.submit(int, "not a number").exception()
        failure = _failure(3, exc)
        assert failure["type"] == "ValueError"
        assert failure["traceback"] == exc.__cause__.tb
        assert "invalid literal" in failure["traceback"]


class TestVerify:
    def test_quick_verify_passes(self, capsys):
        assert main(["verify", "--lp-trials", "30", "--grad-trials", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    @pytest.mark.parametrize("flag", ["--lp-trials", "--grad-trials"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_rejected(self, capsys, flag, trials):
        with pytest.raises(SystemExit) as exc:
            main(["verify", flag, trials])
        assert exc.value.code == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "PASS" not in captured.out

    def test_negative_seed_rejected(self, capsys):
        # exit 2 naming the flag, as inject and train treat a negative seed
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "-1"])
        assert exc.value.code == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert "argument --seed: must be at least 0, got -1" in captured.err
        assert "PASS" not in captured.out

    def test_verify_exit_code_constant(self, monkeypatch, tmp_path, capsys):
        import rockrelax.verify as verify_mod

        assert EXIT_VERIFY == 5
        monkeypatch.setattr(verify_mod, "solve_reweight", broken_solve)
        replay = tmp_path / "replays" / "failure.json"
        assert main(["verify", "--lp-trials", "200", "--grad-trials", "2",
                     "--replay-file", str(replay)]) == EXIT_VERIFY
        captured = capsys.readouterr()
        # both LP suites fail, and the replay holds the first one's instance
        lines = captured.out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "FAIL oracle-equivalence", "FAIL pruning-identities",
            "PASS relaxation-ordering", "PASS gradient-check"]
        assert f"first failing instance written to {replay}" in captured.err
        doc = json.loads(replay.read_text())
        assert doc["suite"] == "oracle-equivalence"
        assert set(doc["instance"]) == {"c", "gamma", "closed_form", "lp"}

    def test_mutated_solver_detected(self, monkeypatch):
        # an off-by-one in the pruning rule must trip the oracle suite
        import rockrelax.verify as verify_mod

        monkeypatch.setattr(verify_mod, "solve_reweight", broken_solve)
        suite = verify_mod.oracle_equivalence_suite(trials=200, seed=0)
        assert suite.failed > 0
        assert suite.first_failure is not None


def broken_solve(c, gamma):
    """solve_reweight with an off-by-one: it forgets to prune the last element of chi."""
    from rockrelax.reweight import WeightShift, partition_losses

    c = np.asarray(c, dtype=float)
    part = partition_losses(c, gamma)
    n = c.size
    u = np.zeros(n)
    if part.chi.size > 1:
        keep = part.chi[:-1]
        u[part.i_min] = keep.size / (n * part.i_min.size)
        u[keep] = -1.0 / n
    elif part.chi.size:
        u[part.i_min] = part.chi.size / (n * part.i_min.size)
        u[part.chi] = -1.0 / n
    return WeightShift(u)


ERM_AGGREGATE = {"mode": "erm", "seeds": [0, 1], "test_at_peak_validation_mean": 0.75,
                 "test_at_peak_validation_std": 0.05, "max_test_accuracy_mean": 0.8,
                 "max_test_accuracy_std": 0.1, "failed_seeds": [], "failures": []}


def write_run(run_dir, aggregate, seeds=()):
    """A run directory built by hand: `aggregate` as its aggregate.json, and per seed a
    two-iteration record.csv whose histogram counts spell seed, iteration and bucket."""
    for seed in seeds:
        record = RunRecord(config={})
        for it in (1, 2):
            counts = [100 * seed + 10 * it + bucket for bucket in range(6)]
            record.iterations.append(IterationRecord(
                it, 1.0, 0.5, 2.0, 0.8, 0.7, 0.75, 0.1, 3, 0.5, 0.5,
                hist_contaminated=tuple(counts), hist_clean=tuple(1000 + c for c in counts)))
        (run_dir / f"seed_{seed}").mkdir(parents=True)
        record.to_csv(run_dir / f"seed_{seed}" / "record.csv")
    run_dir.mkdir(parents=True, exist_ok=True)
    write_json(run_dir / "aggregate.json", aggregate)


class TestReport:
    def test_comparison_and_weight_evolution(self, caches):
        cfg_doc = train_config(caches)
        cfg = write_json(caches / "train.json", cfg_doc)
        assert main(["train", "--config", cfg]) == EXIT_OK
        cfg_doc["output_dir"] = str(caches / "runs" / "erm")
        cfg2 = write_json(caches / "train_erm.json", cfg_doc)
        assert main(["train", "--config", cfg2, "--mode", "erm"]) == EXIT_OK

        out = caches / "report"
        assert main(["report", str(caches / "runs" / "rrm"), str(caches / "runs" / "erm"),
                     "--output-dir", str(out)]) == EXIT_OK
        assert (out / "comparison.txt").exists()
        assert (out / "comparison.csv").exists()
        evolution = (out / "weight_evolution.csv").read_text().strip().splitlines()
        # header + iterations x 6 buckets x 2 populations x seeds x runs
        assert len(evolution) == 1 + 2 * 2 * 2 * 6 * 2
        text = (out / "comparison.txt").read_text()
        assert "(" in text and "erm" in text

    def test_comparison_csv_quotes_a_comma_in_the_run_name(self, caches):
        doc = train_config(caches)
        doc["seeds"] = [0]
        doc["output_dir"] = str(caches / "runs" / "a,b")
        assert main(["train", "--config", write_json(caches / "train.json", doc)]) == EXIT_OK
        out = caches / "report"
        assert main(["report", doc["output_dir"], "--output-dir", str(out)]) == EXIT_OK
        with open(out / "comparison.csv", newline="") as f:
            header, row = csv.reader(f)
        assert len(header) == len(row) == 6
        assert row[:2] == ["a,b", "rrm"]
        agg = json.loads((caches / "runs" / "a,b" / "aggregate.json").read_text())
        assert float(row[2]) == agg["test_at_peak_validation_mean"]

    def test_reads_only_the_listed_seeds(self, caches):
        # a later one-seed train into the same directory leaves seed_1 behind, unlisted
        cfg = write_json(caches / "train.json", train_config(caches))
        assert main(["train", "--config", cfg]) == EXIT_OK
        assert main(["train", "--config", cfg, "--seed", "0"]) == EXIT_OK
        run = caches / "runs" / "rrm"
        assert (run / "seed_1" / "record.csv").exists()
        out = caches / "report"
        assert main(["report", str(run), "--output-dir", str(out)]) == EXIT_OK
        lines = (out / "weight_evolution.csv").read_text().splitlines()
        # header + 2 iterations x 6 buckets x 2 populations of seed 0 alone
        assert len(lines) == 1 + 2 * 6 * 2
        assert {line.split(",")[1] for line in lines[1:]} == {"seed_0"}

    @pytest.mark.parametrize("fault", ["no-aggregate", "not-json", "no-mode", "json-array",
                                       "seeds-a-string", "repeated-seed", "accuracy-a-bool",
                                       "record-without-a-hist-column", "no-record",
                                       "listed-seed-without-a-directory",
                                       "truncated-record-row", "record-row-with-an-extra-cell"])
    def test_malformed_aggregate_io_error(self, tmp_path, capsys, fault):
        run = tmp_path / "run"
        write_run(run, ERM_AGGREGATE, seeds=[0, 1])
        path, what = run / "aggregate.json", "run aggregate"
        if fault == "no-aggregate":
            path.unlink()
        elif fault == "not-json":
            path.write_text('{"seeds": [0], "mode": ')
        elif fault == "no-mode":
            write_json(path, {key: v for key, v in ERM_AGGREGATE.items() if key != "mode"})
        elif fault == "json-array":
            write_json(path, [ERM_AGGREGATE])
        elif fault in ("seeds-a-string", "repeated-seed"):
            # "01" would name seed_0 and seed_1, both present; [0, 0] would count seed 0 twice
            seeds = "01" if fault == "seeds-a-string" else [0, 0]
            write_json(path, dict(ERM_AGGREGATE, seeds=seeds))
        elif fault == "accuracy-a-bool":
            # a bool is an int to Python: it would be reported as 100.0 and written as True
            write_json(path, dict(ERM_AGGREGATE, test_at_peak_validation_mean=True))
        elif fault == "listed-seed-without-a-directory":
            shutil.rmtree(run / "seed_1")
            path, what = run / "seed_1" / "record.csv", "run record"
        else:
            path, what = run / "seed_0" / "record.csv", "run record"
            if fault == "no-record":
                path.unlink()
            else:
                with open(path, newline="") as f:
                    rows = list(csv.reader(f))
                if fault == "record-without-a-hist-column":
                    rows = [row[:-1] for row in rows]
                elif fault == "truncated-record-row":  # as a run killed while writing leaves it
                    rows[-1] = rows[-1][:15]
                else:
                    rows[1].append("7")
                with open(path, "w", newline="") as f:
                    csv.writer(f).writerows(rows)
        out = tmp_path / "report"
        assert main(["report", str(run), "--output-dir", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: invalid {what} {path}: ")
        assert "Traceback" not in err
        assert not (out / "comparison.txt").exists()
        assert not (out / "weight_evolution.csv").exists()

    def test_nan_accuracy_is_reported(self, tmp_path):
        # an empty test set writes NaN statistics, which report tabulates as they are
        write_run(tmp_path / "run", dict(ERM_AGGREGATE, max_test_accuracy_mean=float("nan"),
                                         max_test_accuracy_std=float("nan")), seeds=[0, 1])
        out = tmp_path / "report"
        assert main(["report", str(tmp_path / "run"), "--output-dir", str(out)]) == EXIT_OK
        assert "run  erm  75.0 ± 5.0  nan" in (out / "comparison.txt").read_text()
        with open(out / "comparison.csv", newline="") as f:
            _, row = csv.reader(f)
        assert row[4:] == ["nan", "nan"]

    def test_exact_bytes(self, tmp_path):
        failure = {"traceback": "Traceback (most recent call last): ..."}
        write_run(tmp_path / "erm", ERM_AGGREGATE, seeds=[0, 1])
        write_run(tmp_path / "rrm", {
            "mode": "rrm", "seeds": [3], "test_at_peak_validation_mean": 0.85,
            "test_at_peak_validation_std": 0.0, "max_test_accuracy_mean": 0.9,
            "max_test_accuracy_std": 0.0, "failed_seeds": [4],
            "failures": [dict(failure, seed=4, type="NumericError", message="diverged")]}, seeds=[3])
        write_run(tmp_path / "dead", {
            "mode": "arrm", "seeds": [], "failed_seeds": [5],
            "failures": [dict(failure, seed=5, type="ValueError", message="bad")]})
        out = tmp_path / "report"
        assert main(["report", *(str(tmp_path / run) for run in ("erm", "rrm", "dead")),
                     "--output-dir", str(out)]) == EXIT_OK
        assert (out / "comparison.txt").read_text() == (
            "run  mode  test@peak-val  max-test\n"
            "erm  erm  75.0 ± 5.0  80.0\n"
            "rrm  rrm  85.0 ± 0.0  90.0\n"
            "  seed 4 failed: NumericError: diverged\n"
            "dead  arrm  every seed failed\n"
            "  seed 5 failed: ValueError: bad\n"
            "comparison: 75 (85) [erm (rrm)]\n")
        assert (out / "comparison.csv").read_text() == (
            "run,mode,test_at_peak_val_mean,test_at_peak_val_std,max_test_mean,max_test_std\n"
            "erm,erm,0.75,0.05,0.8,0.1\n"
            "rrm,rrm,0.85,0.0,0.9,0.0\n")
        lines = (out / "weight_evolution.csv").read_bytes().split(b"\r\n")
        # 2 seeds of erm and 1 of rrm, x 2 iterations x 6 buckets x 2 populations
        assert len(lines) == 1 + 3 * 2 * 6 * 2 + 1 and lines[-1] == b""
        assert lines[:6] == [
            b"run,seed,iteration,bucket,population,count",
            b"erm,seed_0,1,>>0,contaminated,10",
            b"erm,seed_0,1,>>0,clean,1010",
            b"erm,seed_0,1,~0,contaminated,11",
            b"erm,seed_0,1,~0,clean,1011",
            b'erm,seed_0,1,"(-1/4N, 0)",contaminated,12',
        ]
        assert lines[13] == b"erm,seed_0,2,>>0,contaminated,20"
        assert lines[25] == b"erm,seed_1,1,>>0,contaminated,110"
        assert lines[49] == b"rrm,seed_3,1,>>0,contaminated,310"
