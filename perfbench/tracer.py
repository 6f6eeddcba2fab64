"""In-memory spans around the benchmark's calls into satfactor's layers.

Spans are recorded from the benchmark's own code, around each public call,
so the package under test is never edited to be measured.  A disabled
tracer calls straight through, which is how the untraced run measures the
end-to-end metrics.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Records one span per call when enabled.

    A span holds its name, start and end (``time.perf_counter``), the index
    of the span that was open when it began, the task id, and the exact
    counts its layer reported, read from the call's result at the same
    boundary by ``counters[name]``.
    """

    def __init__(self, enabled: bool, counters: dict | None = None):
        self.enabled = enabled
        self.counters = counters or {}
        self.spans: list[dict] = []
        self.task: int | None = None
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = {
            "id": len(self.spans),
            "name": name,
            "task": self.task,
            "parent": self._open[-1] if self._open else None,
            "counts": {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        count = self.counters.get(name)
        if count is not None:
            span["counts"] = count(result)
        return result


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _busy(spans: list[dict], name: str) -> float:
    return sum(_duration(s) for s in spans if s["name"] == name)


def _count(spans: list[dict], name: str, key: str) -> int:
    return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def self_time(spans: list[dict], name: str) -> float:
    """Time inside spans called ``name`` not covered by their child spans."""
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += _duration(s)
    return sum(_duration(s) - child_s[s["id"]] for s in spans if s["name"] == name)


def layer_metrics(spans: list[dict], overhead_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit).

    Layers a workload never calls read 0.  Names ending in a count unit are
    exact: a change in one means a different search or a different
    instance, not a faster implementation.
    """
    solve_s = _busy(spans, "solver.solve")
    parse_s = _busy(spans, "cnf.parse_dimacs")
    return {
        "solver.solve.busy_s": (solve_s, "s"),
        "solver.props_per_s": (_rate(_count(spans, "solver.solve", "propagations"), solve_s), "1/s"),
        "solver.conflicts_per_s": (_rate(_count(spans, "solver.solve", "conflicts"), solve_s), "1/s"),
        "solver.conflicts": (_count(spans, "solver.solve", "conflicts"), "count"),
        "solver.decisions": (_count(spans, "solver.solve", "decisions"), "count"),
        "solver.propagations": (_count(spans, "solver.solve", "propagations"), "count"),
        "solver.unknown": (_count(spans, "solver.solve", "unknown"), "count"),
        "encoder.encode.busy_s": (_busy(spans, "encoder.encode"), "s"),
        "encoder.decode.busy_s": (_busy(spans, "encoder.decode"), "s"),
        "encoder.vars": (_count(spans, "encoder.encode", "vars"), "count"),
        "encoder.clauses": (_count(spans, "encoder.encode", "clauses"), "count"),
        "cnf.write_dimacs.busy_s": (_busy(spans, "cnf.write_dimacs"), "s"),
        "cnf.write_dimacs.bytes": (_count(spans, "cnf.write_dimacs", "bytes"), "count"),
        "cnf.parse_dimacs.busy_s": (parse_s, "s"),
        "cnf.parse_dimacs.clauses_per_s": (_rate(_count(spans, "cnf.parse_dimacs", "clauses"), parse_s), "1/s"),
        "cnf.unit_propagate.busy_s": (_busy(spans, "cnf.unit_propagate"), "s"),
        "cnf.unit_propagate.units": (_count(spans, "cnf.unit_propagate", "units"), "count"),
        "analysis.build_vig.busy_s": (_busy(spans, "analysis.build_vig"), "s"),
        "analysis.vig.edges": (_count(spans, "analysis.build_vig", "edges"), "count"),
        "analysis.cnm.busy_s": (_busy(spans, "analysis.cnm"), "s"),
        "analysis.cnm.communities": (_count(spans, "analysis.cnm", "communities"), "count"),
        "bench.run_experiment.busy_s": (_busy(spans, "bench.run_experiment"), "s"),
        "bench.self_s": (self_time(spans, "bench.run_experiment"), "s"),
        "numtheory.generate.busy_s": (_busy(spans, "numtheory.generate"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
