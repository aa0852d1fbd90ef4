"""`tools/bench.py` summarises paired runs by the benchmark's rules.

The tests feed it synthetic run results; none runs the benchmark.  One builds a
scratch git repository to check which files the change side's tree holds.
"""

import importlib.util
import json
import os
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

LOWER = {"name": "run_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "acc", "better": "higher", "bound": 0.02}


def pairs_of(metric, parent, change):
    return [({metric["name"]: p}, {metric["name"]: c}) for p, c in zip(parent, change)]


def result(correct=True, failed=0, **values):
    values = {m["name"]: 1.0 for m in bench.BENCHMARK["end_to_end"]} | values
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


class TestSummarize:
    def test_wins_ratios_and_quartiles(self):
        # a tie counts for neither side; lower is better
        s = bench.summarize(pairs_of(LOWER, [2.0, 2.0, 4.0, 1.0], [1.0, 2.0, 5.0, 0.5]), LOWER)
        assert s["wins"] == 2 and s["pairs"] == 4
        assert s["ratios"] == [0.5, 1.0, 1.25, 0.5]
        assert s["parent"] == {"median": 2.0, "q1": 1.75, "q3": 2.5,
                               "values": [2.0, 2.0, 4.0, 1.0]}
        assert s["change"]["median"] == 1.5
        assert s["worse_by"] == -0.25

    def test_higher_is_better(self):
        s = bench.summarize(pairs_of(HIGHER, [0.8, 0.8], [0.9, 0.7]), HIGHER)
        assert s["wins"] == 1
        assert s["worse_by"] == 0.0  # equal medians

    def test_worse_by_is_a_share_of_the_parent_median(self):
        s = bench.summarize(pairs_of(HIGHER, [0.5], [0.45]), HIGHER)
        assert s["worse_by"] == pytest.approx(0.1)
        s = bench.summarize(pairs_of(LOWER, [2.0], [3.0]), LOWER)
        assert s["worse_by"] == 0.5

    @pytest.mark.parametrize("change,gain", [
        ([0.5] * 9 + [1.5], True),        # 9 of 10 won, gap 0.5 above an IQR of 0
        ([0.5] * 8 + [1.5] * 2, False),   # 8 of 10
        ([0.5] * 9 + [1.0], True),        # a tie is no win, but 9 wins remain
        ([0.5] * 8 + [1.0] * 2, False),   # 8 wins and 2 ties
    ])
    def test_gain_needs_nine_tenths_of_the_pairs(self, change, gain):
        assert bench.summarize(pairs_of(LOWER, [1.0] * 10, change), LOWER)["gain"] is gain

    def test_gain_needs_a_median_gap_above_the_parent_iqr(self):
        parent = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]  # IQR 0.9
        for shift, gain in ((0.85, False), (0.95, True)):
            change = [p - shift for p in parent]  # every pair won
            s = bench.summarize(pairs_of(LOWER, parent, change), LOWER)
            assert s["wins"] == 10 and s["gain"] is gain


class TestProblem:
    def test_a_good_run_has_none(self):
        assert bench.problem(result()) is None

    @pytest.mark.parametrize("run,why", [
        (result(correct=False), "not correct"),
        (result(failed=2), "2 failed ops"),
        (result(rrm_run_s=None), "no value for ['rrm_run_s']"),
        ({"error": "exit 2, no result line: boom"}, "exit 2, no result line: boom"),
    ])
    def test_a_bad_run_names_its_fault(self, run, why):
        assert bench.problem(run) == why


ENV = {"git_commit": None, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
       "blas": "scipy-openblas 0.3.30", "blas_threads": 2, "nproc": 2, "dtype": "float64"}


def test_bench_once_reads_the_last_line_in_the_child_environment(tmp_path):
    # a stand-in perfbench/run.py that prints its environment line, as run.py does, and
    # reports the environment variable it was given
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, os, sys\n"
        "print('a metric line')\n"
        f"print('environment ' + json.dumps({ENV!r} | {{'workload': sys.argv[2]}}))\n"
        "print(json.dumps({'argv': sys.argv[1:],"
        " 'threshold': os.environ.get('MALLOC_MMAP_THRESHOLD_')}))\n")
    before = os.environ.get("MALLOC_MMAP_THRESHOLD_")
    out = bench.bench_once(tmp_path, "blob-gate", 7, 1.5)
    assert out == {"argv": ["--workload", "blob-gate", "--seed", "7", "--seconds", "1.5",
                            "--trace", "0"], "threshold": "131072",
                   "environment": ENV | {"workload": "blob-gate"}}
    assert os.environ.get("MALLOC_MMAP_THRESHOLD_") == before
    (tmp_path / "perfbench" / "run.py").write_text("print('{}')\n")
    assert bench.bench_once(tmp_path, "blob-gate", 7, 1.5) == {"environment": None}
    (tmp_path / "perfbench" / "run.py").write_text("import sys\nsys.exit(3)\n")
    assert bench.bench_once(tmp_path, "blob-gate", 7, 1.5)["error"].startswith("exit 3")


DIGESTS = {"16": "ab" * 32, "23": "cd" * 32}


def test_digests_run_the_trees_own_tool(tmp_path):
    # a stand-in tools/trajectory_hash.py that prints what the real one prints with --json,
    # and fails unless it runs in its own tree and is given --json
    assert bench.digests(tmp_path) is None  # a tree without the tool
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "trajectory_hash.py").write_text(
        "import json, os, sys\n"
        f"assert sys.argv[1:] == ['--json'] and os.path.samefile('.', {str(tmp_path)!r})\n"
        f"print(json.dumps({{'fingerprint': {{'numpy': '2.4.6'}}, 'digests': {DIGESTS!r}}}))\n")
    assert bench.digests(tmp_path) == DIGESTS
    (tmp_path / "tools" / "trajectory_hash.py").write_text("import sys\nsys.exit(3)\n")
    with pytest.raises(bench.subprocess.CalledProcessError):
        bench.digests(tmp_path)


WORKING_TREE = "7ee" * 13 + "7"


def test_pairs_alternate_and_a_bad_run_fails_the_tool(tmp_path, monkeypatch):
    calls, trees = [], []

    def side_of(tree):  # a tree that was not extracted, such as the checkout, raises KeyError
        return "change" if dict((into, t) for t, into in trees)[tree] == WORKING_TREE else "parent"

    def fake_bench_once(tree, workload, seed, seconds):
        side = side_of(tree)
        calls.append((workload, seed, side))
        if (workload, seed, side) == ("w2", 1, "parent"):
            return result(correct=False)
        env = ENV | {"git_commit": None if side == "parent" else "ab" * 20,
                     "workload": workload, "seed": seed}
        return result(rrm_run_s=2.0 if side == "parent" else 1.0) | {"environment": env}

    # git, the working tree and the extraction are stubbed, so the test needs no git work tree
    monkeypatch.setattr(bench, "git", lambda *args: "c0ffee" * 7)
    monkeypatch.setattr(bench, "working_tree", lambda: WORKING_TREE)
    monkeypatch.setattr(bench, "extract", lambda treeish, into: trees.append((treeish, into)))
    monkeypatch.setattr(bench, "bench_once", fake_bench_once)
    # the parent tree stands for one without the digest tool
    monkeypatch.setattr(bench, "digests",
                        lambda tree: DIGESTS if side_of(tree) == "change" else None)
    out = tmp_path / "bench.json"
    argv = ["--against", "HEAD", "--workloads", "w1", "w2", "--pairs", "3", "--seconds", "1",
            "--output", str(out)]
    assert bench.main(argv) == 1
    # each pair shares one seed, a new one per pair, and pairs alternate which side runs first
    assert calls == [(w, seed, side) for w in ("w1", "w2") for seed, sides in
                     ((0, ("parent", "change")), (1, ("change", "parent")),
                      (2, ("parent", "change"))) for side in sides]
    # both sides run in trees extracted by one rule, and both trees are removed
    assert sorted(t for t, _ in trees) == sorted(["c0ffee" * 7, WORKING_TREE])
    assert all(not Path(into).exists() for _, into in trees)
    doc = json.loads(out.read_text())
    assert doc["change_tree"] == WORKING_TREE and doc["parent_tree"] == "c0ffee" * 7
    assert doc["bad_runs"] == [{"workload": "w2", "seed": 1, "side": "parent",
                                "problem": "not correct"}]
    # each side's environment as its first run printed it, without the workload and seed
    assert doc["environment"] == {"parent": ENV, "change": ENV | {"git_commit": "ab" * 20}}
    assert doc["digests"] == {"parent": None, "change": DIGESTS}
    assert doc["summary"]["w1"]["rrm_run_s"]["pairs"] == 3
    assert doc["summary"]["w2"]["rrm_run_s"]["pairs"] == 2  # the bad run's pair is left out
    assert doc["summary"]["w1"]["rrm_run_s"]["wins"] == 3
    assert doc["summary"]["w1"]["rrm_run_s"]["ratios"] == [0.5, 0.5, 0.5]
    assert len(doc["runs"]) == 12


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git on PATH")
def test_working_tree_holds_what_git_add_all_would_stage(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    monkeypatch.setattr(bench, "ROOT", repo)
    for args in (("init", "-q"), ("config", "user.name", "bench test"),
                 ("config", "user.email", "bench@example.com"),
                 ("config", "commit.gpgsign", "false")):
        bench.git(*args)
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "edited.txt").write_text("committed\n")
    (repo / "deleted.txt").write_text("committed\n")
    bench.git("add", "-A")
    bench.git("commit", "-q", "-m", "start")
    (repo / "edited.txt").write_text("edited, not staged\n")
    (repo / "deleted.txt").unlink()
    (repo / "untracked.txt").write_text("untracked\n")
    (repo / "ignored.txt").write_text("ignored\n")
    index = (repo / ".git" / "index").read_bytes()

    tree = bench.working_tree()
    assert (repo / ".git" / "index").read_bytes() == index
    out = tmp_path / "out"
    out.mkdir()
    bench.extract(tree, out)
    assert sorted(p.name for p in out.iterdir()) == [".gitignore", "edited.txt", "untracked.txt"]
    assert (out / "edited.txt").read_text() == "edited, not staged\n"

    # on a clean checkout the working tree is HEAD's tree; an ignored file stays out
    bench.git("add", "-A")
    bench.git("commit", "-q", "-m", "clean")
    assert bench.working_tree() == bench.git("rev-parse", "HEAD^{tree}") == tree
