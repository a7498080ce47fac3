"""In-memory spans around the public functions each sshcsim layer exposes.

The tracer replaces names in the ``sshcsim.cli`` namespace (as the CLI
imports them), ``sshcsim.run``, and the ``write_csv`` methods of ``Waveform``
and ``SweepResult`` with wrappers that record a span (id, parent id, op id,
name, start, end) and count the work each call did, read from its result.
Nothing under ``src/`` is changed; ``installed()`` restores every name.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import sshcsim
import sshcsim.cli
from sshcsim import SweepResult, Waveform

from workloads import ledger_residual_ratio


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    op_id: int
    name: str
    start_ns: int
    end_ns: int


def _size(path) -> int:
    return os.path.getsize(path) if isinstance(path, str) else 0


def _count_run(counts, args, result):
    counts["transient.samples"] += len(result.waveform)
    counts["transient.events"] += len(result.events)


def _count_rows_csv(counts, args, result):
    # Waveform.write_csv(self, out) and write_flip_events_csv(events, out).
    counts["csv.rows"] += len(args[0])
    counts["csv.bytes"] += _size(args[1])


def _count_sweep_csv(counts, args, result):
    counts["csv.rows"] += len(args[0].axis_values)
    counts["csv.bytes"] += _size(args[1])


def _count_line_chart(counts, args, result):
    counts["svg.points"] += len(args[1]) * len(args[2])
    counts["svg.bytes"] += _size(args[0])


# (span name, attribute, counter) of names in sshcsim.cli; sshcsim.cli.run
# and sshcsim.run share one wrapper. Span names start with the layer.
_CLI_NAMES: List[Tuple[str, str, Optional[Callable]]] = [
    ("config.parse_config", "parse_config", lambda c, a, r: c.update({"config.calls": 1})),
    ("flip.flip_efficiency_series", "flip_efficiency_series",
     lambda c, a, r: c.update({"flip.flips": len(r.efficiencies)})),
    ("flip.steady_state_efficiency", "steady_state_efficiency", None),
    ("flip.cycles_to_converge", "cycles_to_converge", None),
    ("flip.optimal_single_flip_ct", "optimal_single_flip_ct", None),
    ("compare.harvest_report", "harvest_report", lambda c, a, r: c.update({"compare.reports": 1})),
    ("compare.sweep_ct_ratio", "sweep_ct_ratio",
     lambda c, a, r: c.update({"compare.reports": len(r.reports)})),
    ("compare.sweep_storage_voltage", "sweep_storage_voltage",
     lambda c, a, r: c.update({"compare.reports": len(r.reports)})),
    ("transient.write_flip_events_csv", "write_flip_events_csv", _count_rows_csv),
    ("svg.line_chart", "line_chart", _count_line_chart),
]
_METHODS = [
    ("transient.Waveform.write_csv", Waveform, "write_csv", _count_rows_csv),
    ("compare.SweepResult.write_csv", SweepResult, "write_csv", _count_sweep_csv),
]

# Per-layer time metric each span name feeds (self time, seconds per op).
SPAN_METRIC = {
    "cli.main": "cli.self_s",
    "config.parse_config": "config.parse_s",
    "flip.flip_efficiency_series": "flip.series_s",
    "flip.steady_state_efficiency": "flip.series_s",
    "flip.cycles_to_converge": "flip.series_s",
    "flip.optimal_single_flip_ct": "flip.series_s",
    "compare.harvest_report": "compare.report_s",
    "compare.sweep_ct_ratio": "compare.report_s",
    "compare.sweep_storage_voltage": "compare.report_s",
    "compare.SweepResult.write_csv": "compare.write_csv_s",
    "transient.run": "transient.run_s",
    "transient.Waveform.write_csv": "transient.write_csv_s",
    "transient.write_flip_events_csv": "transient.events_csv_s",
    "svg.line_chart": "svg.line_chart_s",
}


class Tracer:
    """Records spans and per-op counts while its wrappers are installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[int, Counter] = defaultdict(Counter)
        self.ledger_residual_max = 0.0
        self.op_id = -1
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = Span(span_id, parent, self.op_id, name, start, end)
            if counter is not None:
                counter(self.counts[self.op_id], args, result)
            return result

        return traced

    def traced_run(self, fn: Callable) -> Callable:
        traced = self.wrap("transient.run", fn, _count_run)

        def run(cfg):
            result = traced(cfg)
            self.ledger_residual_max = max(
                self.ledger_residual_max, ledger_residual_ratio(cfg, result)
            )
            return result

        return run

    @contextmanager
    def installed(self, op_id: int):
        """Install the wrappers for op `op_id`; restore the names on exit."""
        self.op_id = op_id
        traced_run = self.traced_run(sshcsim.transient.run)
        patches = [
            (sshcsim, "run", traced_run),
            (sshcsim.cli, "run", traced_run),
            (sshcsim.cli, "main", self.wrap("cli.main", sshcsim.cli.main)),
        ]
        for name, attr, counter in _CLI_NAMES:
            patches.append((sshcsim.cli, attr, self.wrap(name, getattr(sshcsim.cli, attr), counter)))
        for name, owner, attr, counter in _METHODS:
            patches.append((owner, attr, self.wrap(name, getattr(owner, attr), counter)))
        with _patched(patches):
            yield self

    def aggregate(self, n_ops: int) -> Dict[str, float]:
        """Self time per layer metric and counts, both per op, plus rates."""
        child_ns: Dict[int, int] = Counter()
        for s in self.spans:
            if s.parent_id is not None:
                child_ns[s.parent_id] += s.end_ns - s.start_ns
        self_ns: Dict[str, int] = Counter()
        main_ns = 0
        for s in self.spans:
            dur = s.end_ns - s.start_ns
            self_ns[SPAN_METRIC[s.name]] += dur - child_ns[s.span_id]
            if s.name == "cli.main":
                main_ns += dur
        counts: Counter = Counter()
        for c in self.counts.values():
            counts.update(c)
        out = {metric: 0.0 for metric in set(SPAN_METRIC.values())}
        for metric, ns in self_ns.items():
            out[metric] = ns / 1e9 / n_ops
        out["cli.main_s"] = main_ns / 1e9 / n_ops
        for key in (
            "config.calls", "flip.flips", "compare.reports", "transient.samples",
            "transient.events", "csv.rows", "csv.bytes", "svg.points", "svg.bytes",
            "cli.files",
        ):
            out[key] = counts[key] / n_ops
        out["transient.ns_per_sample"] = _ratio(
            self_ns["transient.run_s"], counts["transient.samples"]
        )
        csv_ns = sum(
            self_ns[m]
            for m in ("transient.write_csv_s", "transient.events_csv_s", "compare.write_csv_s")
        )
        out["csv.ns_per_row"] = _ratio(csv_ns, counts["csv.rows"])
        out["transient.ledger_residual_max"] = self.ledger_residual_max
        return out

    def op_samples(self) -> Dict[int, int]:
        return {op: c["transient.samples"] for op, c in self.counts.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@contextmanager
def _patched(patches):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextmanager
def alloc_probe(peaks: List[float]):
    """Run every run() call under tracemalloc and append its peak in MB."""
    run = sshcsim.transient.run

    def probed(cfg):
        tracemalloc.start()
        try:
            return run(cfg)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    with _patched([(sshcsim, "run", probed), (sshcsim.cli, "run", probed)]):
        yield
