"""In-memory spans around feedsim's public functions, installed from outside.

The tracer replaces attributes of a freshly imported feedsim package (and
methods of the exact engine class) with wrappers that record one span per
call: name, start, end, parent span and process CPU time, plus counters a
hook derives from the call's arguments and result. Nothing inside feedsim
changes; a fresh import drops the wrappers again.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    cpu: float   # process CPU seconds, all threads
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


Hook = Callable[[tuple, dict, object], dict]


def _csv_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


def _solver_work(args, kwargs, result):
    diagnostics = kwargs.get("diagnostics")
    if diagnostics is None:
        return {}
    return {"grid_points": diagnostics.get("grid_points", 0),
            "checks": len(diagnostics.get("evaluations", ()))}


def _engine_terms(args, kwargs, result):
    engine, focal_counts = args[0], args[1]
    return {"terms": getattr(engine, "term_count", 0) * len(focal_counts)}


def _samples(args, kwargs, result):
    return {"samples": int(kwargs["samples"])}


# (span name, attribute of the feedsim package, counter hook)
PACKAGE_TARGETS: tuple[tuple[str, str, Hook | None], ...] = (
    ("model.load_config", "load_config", None),
    ("model.require_valid", "require_valid", None),
    ("model.validate_config", "validate_config", None),
    ("solver.find_d_opt", "find_d_opt", _solver_work),
    ("payoff.expected_payoff_exact", "expected_payoff_exact", None),
    ("payoff.expected_payoff_mc", "expected_payoff_mc", _samples),
    ("metrics.run_experiment", "run_experiment", None),
    ("metrics.write_sweep_csv", "write_sweep_csv", _csv_bytes),
    ("metrics.error_rate_exact", "error_rate_exact", None),
    ("metrics.error_rate_mc", "error_rate_mc", _samples),
    ("ingest.read_annotation_csv", "read_annotation_csv",
     lambda a, k, r: {"records": len(r)}),
    ("ingest.estimate_confusion", "estimate_confusion",
     lambda a, k, r: {"dropped": r[1].dropped_records}),
    ("aggregation.majority_vote", "majority_vote", None),
    ("incentive.settle_round", "settle_round", None),
)

# (span name, method of feedsim.enumeration.ExactEnumerator, counter hook)
ENGINE_TARGETS: tuple[tuple[str, str, Hook | None], ...] = (
    ("enumeration.payoffs", "payoffs", _engine_terms),
    ("enumeration.error_rates", "error_rates", _engine_terms),
)


class Tracer:
    """Records spans of wrapped calls; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0)
            self.spans.append(span)
            self._stack.append(index)
            cpu0 = time.process_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.process_time() - cpu0
                self._stack.pop()
            if hook is not None:
                span.counts = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, fs) -> None:
        """Wrap the public functions of a freshly imported feedsim package.

        A target a later version no longer has is listed in `missing` and its
        metrics read zero, rather than failing the run.
        """
        for name, attr, hook in PACKAGE_TARGETS:
            if hasattr(fs, attr):
                setattr(fs, attr, self.wrap(name, getattr(fs, attr), hook))
            else:
                self.missing.append(name)
        engine_cls = getattr(getattr(fs, "enumeration", None), "ExactEnumerator", None)
        for name, attr, hook in ENGINE_TARGETS:
            if engine_cls is not None and hasattr(engine_cls, attr):
                setattr(engine_cls, attr, self.wrap(name, getattr(engine_cls, attr), hook))
            else:
                self.missing.append(name)

    # -- summaries -------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def count(self, name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Summed duration of `name` spans minus the time their children cover."""
        indices = {i for i, s in enumerate(self.spans) if s.name == name}
        children = sum(s.seconds for s in self.spans if s.parent in indices)
        return sum(self.spans[i].seconds for i in indices) - children

    def median_us(self, name: str) -> float:
        spans = self.named(name)
        return statistics.median(s.seconds for s in spans) * 1e6 if spans else 0.0

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "cpu": s.cpu, **({"counts": s.counts} if s.counts else {})}
            for s in self.spans
        ]
