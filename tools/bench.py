"""Paired end-to-end benchmark runs of a git revision against the working tree.

    python tools/bench.py --against REV [--workloads W ...] [--pairs 10] [--seconds 36]
                          [--output BENCH_<label>.json]

Both sides run in fresh temporary trees made by one rule, `extract(treeish, into)`,
which is `git archive <treeish> | tar -x`.  The parent's tree-ish is REV's commit.
The change's is a tree object that `working_tree()` writes from the working tree
through a throwaway index: tracked files as they are on disk, uncommitted edits
included, and untracked files that git does not ignore, without deleted or ignored
files.  The repository's own index is left as it is.  On a clean checkout,
`--against HEAD` therefore runs the same files on both sides: an A/A run, which
measures the noise floor of the gain rule.

Each pair runs `BENCHMARK.json`'s `command` with `--trace 0` once in each tree with
the same seed: pair i uses seed i, and pairs alternate which side runs first, the
parent in even pairs.  The children inherit this process's environment unchanged.

The output holds every run's end-to-end metrics and, per workload and metric
of `BENCHMARK.json`, both sides' medians and quartiles, the change/parent
ratio of each pair, the pairs the change won in the metric's `better`
direction (ties count for neither), how much worse the change's median is
than the parent's (a share of the parent's median; compare it with the
metric's `bound`), and `gain`: whether the change won at least nine tenths
of the pairs and its median beats the parent's by more than the parent's
interquartile range.  `environment` holds each side's environment line (git
commit, Python, numpy, scipy, BLAS, `blas_threads`, `nproc`, dtype), as its
first run printed it, without the workload and seed.
Neither tree is a git work tree, so both sides' `git_commit` reads null;
`parent_commit`, `parent_tree` and `change_tree` name what ran, and equal
tree ids mean both sides ran the same files.  `digests` holds each tree's
trajectory digests (the `digests` of `tools/trajectory_hash.py --json`, run
once per tree before the pairs), null for a tree without that tool; equal
digests show that the change kept training bit-exact.  `--output` defaults
to `BENCH_<short commit of REV>.json`.

A run that does not end in a result line, is not `correct` or has a failed
op is listed under `bad_runs`, its pair is left out of the summary, and the
tool exits 1.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV_PREFIX = "environment "


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True, capture_output=True,
                          text=True).stdout.strip()


def working_tree() -> str:
    """The id of a tree object holding the working tree as `git add -A` would stage it,
    written through a throwaway index so that the repository's own index is untouched."""
    with tempfile.TemporaryDirectory() as scratch:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(scratch, "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def extract(treeish: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", treeish], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def digests(tree: Path) -> dict | None:
    """The `digests` that `tools/trajectory_hash.py --json` prints in `tree`, or None when
    the tree has no such tool.  A failing tool raises, its stderr passed through."""
    if not (tree / "tools" / "trajectory_hash.py").is_file():
        return None
    out = subprocess.run([sys.executable, "tools/trajectory_hash.py", "--json"], cwd=tree,
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)["digests"]


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of the benchmark's command in `tree`: its result line, with its
    environment line under `environment` (None when it printed none), or why it has none."""
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {proc.returncode}, no result line: {proc.stderr[-2000:]}"}
    envs = [line[len(ENV_PREFIX):] for line in lines if line.startswith(ENV_PREFIX)]
    result["environment"] = json.loads(envs[-1]) if envs else None
    return result


def problem(result: dict) -> str | None:
    """Why a run's result cannot be compared, or None when it can."""
    if "error" in result:
        return result["error"]
    if result.get("correct") is not True:
        return "not correct"
    if result.get("failed") != 0:
        return f"{result.get('failed')} failed ops"
    missing = [m["name"] for m in BENCHMARK["end_to_end"]
               if result["metrics"].get(m["name"], {}).get("value") is None]
    return f"no value for {missing}" if missing else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metric: dict) -> dict:
    """Parent against change over (parent metrics, change metrics) pairs, for one metric."""
    parent = [p[metric["name"]] for p, _ in pairs]
    change = [c[metric["name"]] for _, c in pairs]
    sign = 1 if metric["better"] == "higher" else -1
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {
        "better": metric["better"], "bound": metric["bound"],
        "parent": {"median": p_med, "q1": p1, "q3": p3, "values": parent},
        "change": {"median": c_med, "q1": c1, "q3": c3, "values": change},
        "ratios": [c / p if p else None for p, c in zip(parent, change)],
        "wins": wins,
        "pairs": len(pairs),
        "worse_by": -sign * (c_med - p_med) / abs(p_med) if p_med else None,
        "gain": wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p3 - p1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:  # no pair is no evidence
        parser.error(f"argument --pairs: must be at least 1, got {args.pairs}")

    commit = git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    treeishes = {"parent": commit, "change": working_tree()}
    change = git("describe", "--always", "--dirty")  # read with the tree, not after the runs
    output = Path(args.output or f"BENCH_{commit[:7]}.json")
    runs, bad, summary = [], [], {}
    environment = {"parent": None, "change": None}
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: Path(scratch, side) for side in treeishes}
        for side, tree in trees.items():
            tree.mkdir()
            extract(treeishes[side], tree)
        tree_digests = {side: digests(tree) for side, tree in trees.items()}
        for workload in args.workloads:
            compared = []
            for seed in range(args.pairs):
                order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
                metrics, ok = {}, True
                for side in order:
                    result = bench_once(trees[side], workload, seed, args.seconds)
                    why = problem(result)
                    if environment[side] is None and result.get("environment"):
                        environment[side] = {k: v for k, v in result["environment"].items()
                                             if k not in ("workload", "seed")}
                    metrics[side] = {k: m["value"] for k, m in result.get("metrics", {}).items()}
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "metrics": metrics[side]})
                    if why:
                        ok = False
                        bad.append({"workload": workload, "seed": seed, "side": side,
                                    "problem": why})
                    print(f"{workload} seed {seed} {side}: {why or 'ok'}", file=sys.stderr)
                if ok:
                    compared.append((metrics["parent"], metrics["change"]))
            if compared:
                summary[workload] = {m["name"]: summarize(compared, m)
                                     for m in BENCHMARK["end_to_end"]}
    doc = {"against": args.against, "parent_commit": commit,
           "parent_tree": git("rev-parse", f"{commit}^{{tree}}"),
           "change": change, "change_tree": treeishes["change"],
           "seconds": args.seconds,
           "pairs": args.pairs, "environment": environment,
           "digests": tree_digests,
           "bad_runs": bad,
           "summary": summary, "runs": runs}
    output.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {output}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
