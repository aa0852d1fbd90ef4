import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rockrelax import cli
from rockrelax.cli import (EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_SCHEMA, EXIT_VERIFY, _failure,
                          _train_config, main)
from rockrelax.data import load_cache
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
        assert main(["inject", "--config", cfg]) != EXIT_OK

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

    def test_missing_cache_io_error(self, tmp_path):
        doc = train_config(tmp_path)
        cfg = write_json(tmp_path / "train.json", doc)
        assert main(["train", "--config", cfg]) != EXIT_OK


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

    def test_verify_exit_code_constant(self):
        # the failure path is exercised via the mutation test below
        assert EXIT_VERIFY == 5

    def test_mutated_solver_detected(self, monkeypatch, tmp_path, capsys):
        # an off-by-one in the pruning rule must trip the oracle suite
        import rockrelax.verify as verify_mod
        from rockrelax.reweight import WeightShift, partition_losses

        def broken_solve(c, gamma):
            c = np.asarray(c, dtype=float)
            part = partition_losses(c, gamma)
            n = c.size
            u = np.zeros(n)
            if part.chi.size > 1:
                keep = part.chi[:-1]  # forgets to prune the last element
                u[part.i_min] = keep.size / (n * part.i_min.size)
                u[keep] = -1.0 / n
            elif part.chi.size:
                u[part.i_min] = part.chi.size / (n * part.i_min.size)
                u[part.chi] = -1.0 / n
            return WeightShift(u)

        monkeypatch.setattr(verify_mod, "solve_reweight", broken_solve)
        suite = verify_mod.oracle_equivalence_suite(trials=200, seed=0)
        assert suite.failed > 0
        assert suite.first_failure is not None


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

    def test_missing_artifacts_listed(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == EXIT_IO
        assert "missing artifacts" in capsys.readouterr().err
