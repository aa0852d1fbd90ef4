"""Small-size smoke test of the benchmark: every metric in BENCHMARK.json is emitted.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from rockrelax import trainer  # noqa: E402
from tracing import WRAPPED, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_spec():
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(name, trace):
    result = run.bench(workloads.WORKLOADS[name](small=True), seed=1, seconds=0,
                       trace=bool(trace), shrink=100)
    expected = names("per_layer" if trace else "end_to_end")
    assert {k: u for k, (_, u) in result["metrics"].items()} == expected
    assert result["failed"] == 0, result["failures"]
    assert all(v is not None for v, _ in result["metrics"].values()), result["metrics"]


def test_absent_span_is_reported_not_fatal():
    """A name the trainer stops defining or calling shows up as absent."""
    tracer = Tracer()
    saved = trainer.weight_histogram
    del trainer.weight_histogram
    try:
        tracer.install(trainer)
        model = trainer.init_params(trainer.Architecture((2, 3)), 0)
        trainer.accuracy(model, trainer.np.zeros((4, 2)), trainer.np.zeros(4, dtype=int))
    finally:
        tracer.uninstall(trainer)
        trainer.weight_histogram = saved
    from layers import absent_spans, trace_metrics
    absent = absent_spans(tracer)
    assert "weight_histogram" in absent and "gradient_step" in absent
    assert "accuracy" not in absent and "forward" not in absent
    metrics = trace_metrics(tracer, set(), 0, 0)
    assert metrics["trainer.gradient_step.self_us_per_batch"][0] is None
    assert all(getattr(trainer, n) is not None for n in WRAPPED)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "blob-gate",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
