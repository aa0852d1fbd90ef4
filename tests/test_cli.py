import csv
import json
import multiprocessing
import re
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
from rockrelax.trainer import TrainConfig, accuracy


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

    def test_missing_artifacts_listed(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == EXIT_IO
        assert "missing artifacts" in capsys.readouterr().err

    def test_malformed_aggregate_io_error(self, tmp_path, capsys):
        path = tmp_path / "run" / "aggregate.json"
        path.parent.mkdir()
        path.write_text('{"seeds": [0], "mode": ')
        out = tmp_path / "report"
        assert main(["report", str(path.parent), "--output-dir", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: invalid run aggregate {path}: ")
        assert "Traceback" not in err
        assert not (out / "comparison.txt").exists()
