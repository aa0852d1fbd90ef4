"""In-memory span tracing around the names `rockrelax.trainer` looks up at call time.

`trainer.run` and its helpers call `gradient_step`, `forward`,
`reweight_step`, ... through the trainer module's globals, so replacing
those globals with timing wrappers records one span per call without
touching the package.  A name that the trainer no longer defines, or no
longer calls, is reported as an absent span instead of failing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

WRAPPED = (
    "run", "gradient_step", "reweight_step", "accuracy", "forward", "loss_per_sample",
    "grad_params_weighted", "fgsm_perturb", "auto_tune_gamma", "solve_reweight",
    "partition_losses", "blend_weights", "weight_histogram",
)

# Spans directly under `run` that count as evaluation rather than SGD or reweighting.
EVAL_SPANS = ("forward", "loss_per_sample", "accuracy", "weight_histogram")


def _rows(args) -> int:
    """Rows of `forward`'s feature matrix; 0 if a later signature moved it."""
    return getattr(args[1], "shape", (0,))[0] if len(args) > 1 else 0


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a top-level call
    op: int      # id of the benchmark op that caused the span
    rows: int    # rows of the feature matrix for `forward`, else 0

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


@dataclass
class Tracer:
    """Spans in call order; `spans[i].parent` indexes the enclosing span."""

    spans: list = field(default_factory=list)
    losses: list = field(default_factory=list)  # (loss vector, pruned fraction) per partition
    absent: list = field(default_factory=list)
    run_ops: set = field(default_factory=set)  # op ids of `run()` calls
    op: int = -1
    _stack: list = field(default_factory=list)
    _saved: dict = field(default_factory=dict)

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                rows = _rows(args) if name == "forward" else 0
                spans[index] = Span(name, start, end, parent, self.op, rows)
            if name == "partition_losses" and args and hasattr(result, "pruned_fraction"):
                self.losses.append((args[0], result.pruned_fraction))
            return result

        return traced

    def install(self, module):
        for name in WRAPPED:
            fn = getattr(module, name, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._saved[name] = fn
            setattr(module, name, self.wrap(name, fn))

    def uninstall(self, module):
        for name, fn in self._saved.items():
            setattr(module, name, fn)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration_s for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration_s
        return own

    def nesting_ok(self) -> bool:
        """Every span closed, inside its parent, and children no longer than the parent."""
        covered = [0] * len(self.spans)
        for s in self.spans:
            if s is None or s.end_ns < s.start_ns:
                return False
            if s.parent >= 0:
                p = self.spans[s.parent]
                if s.start_ns < p.start_ns or s.end_ns > p.end_ns:
                    return False
                covered[s.parent] += s.end_ns - s.start_ns
        return all(c <= s.end_ns - s.start_ns for c, s in zip(covered, self.spans))

    def called(self) -> set:
        return {s.name for s in self.spans}

    def to_json(self) -> list:
        return [[s.name, s.start_ns, s.end_ns, s.parent, s.op, s.rows] for s in self.spans]
