"""Low-overhead structured tracing + metrics for the reproduction.

The subsystem is a pure leaf: it may be imported from any layer but
imports none of core/exec/experiments (enforced by
``scripts/check_layering.py``), and it is *pure observation* — enabling
it never changes a numeric result (covered by the determinism test in
``tests/exec/``).

Instrumented code calls the module-level helpers unconditionally::

    from repro import telemetry

    with telemetry.span("solve_alpha", budget_w=budget_w) as sp:
        ...
        sp.set(iterations=n)
    telemetry.count("engine.cache.hit")

Telemetry is off by default.  Disabled, every helper is one global load
plus a ``None`` check returning a shared no-op — which is what lets the
instrumentation live permanently in hot paths and still clear the <5 %
fleet fast-path overhead gate.  Enabled (:func:`enable`, or the CLI's
``--telemetry`` flag), a per-process :class:`TelemetryCollector` records
spans, metric instruments, phase timelines, and run-constant arrays,
renderable with :func:`format_report` and exportable with
:func:`~repro.telemetry.sinks.write_sinks`.

The collector is per-process.  Every engine run executes in the
calling process, so a traced session observes all of it — dispatch,
cache traffic and the runs themselves; the tiled executor's threads
record into the same collector.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.render import format_metrics, format_report, format_span_tree
from repro.telemetry.sinks import read_jsonl, write_jsonl, write_npz, write_sinks
from repro.telemetry.timeline import PhaseTimeline, RunArrays, SyncEvent
from repro.telemetry.trace import Span, SpanRecord, TelemetryCollector

__all__ = [
    # control
    "enable",
    "disable",
    "enabled",
    "collector",
    # recording
    "span",
    "record_span",
    "count",
    "gauge",
    "observe",
    "snapshot",
    "timeline",
    "record_arrays",
    "run_scope",
    # reporting / persistence
    "report",
    "format_report",
    "format_span_tree",
    "format_metrics",
    "write_jsonl",
    "write_npz",
    "write_sinks",
    "read_jsonl",
    # data model
    "TelemetryCollector",
    "Span",
    "SpanRecord",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "PhaseTimeline",
    "SyncEvent",
    "RunArrays",
]


class _NullSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: The active collector, or ``None`` when telemetry is disabled.  Every
#: helper below branches on this exactly once.
_collector: TelemetryCollector | None = None


# -- control -------------------------------------------------------------------


def enable(fresh: bool = True) -> TelemetryCollector:
    """Turn telemetry on for this process and return the collector.

    With ``fresh=False`` an existing collector (from a previous enable
    in the same process) is kept, so sessions can be resumed across
    ``disable()`` gaps.
    """
    global _collector
    if fresh or _collector is None:
        _collector = TelemetryCollector()
    return _collector


def disable() -> TelemetryCollector | None:
    """Turn telemetry off; returns the final collector (if any)."""
    global _collector
    c = _collector
    _collector = None
    return c


def enabled() -> bool:
    """Whether a collector is currently active."""
    return _collector is not None


def collector() -> TelemetryCollector | None:
    """The active collector, or ``None`` when disabled."""
    return _collector


# -- recording -----------------------------------------------------------------


def span(name: str, **attrs):
    """A context manager timing one named region (no-op when disabled)."""
    c = _collector
    if c is None:
        return _NULL_SPAN
    return c.span(name, attrs or None)


def record_span(name: str, dur_s: float, **attrs) -> None:
    """Record an externally timed span — e.g. one shard worker's
    accumulated busy seconds, timed inside the worker and reported once
    the pass completes (no-op when disabled)."""
    c = _collector
    if c is not None:
        c.add_span(name, dur_s, attrs or None)


def count(name: str, n: int = 1) -> None:
    """Increment counter ``name`` by ``n`` (no-op when disabled)."""
    c = _collector
    if c is not None:
        c.metrics.counter(name).inc(n)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op when disabled)."""
    c = _collector
    if c is not None:
        c.metrics.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Fold ``value`` into histogram ``name`` (no-op when disabled)."""
    c = _collector
    if c is not None:
        c.metrics.histogram(name).observe(value)


def snapshot() -> dict[str, float] | None:
    """Point-in-time counter and gauge values, or ``None`` when disabled.

    A flat ``{name: value}`` copy safe to serialise and to read while
    recording continues — the allocation service's telemetry stream
    samples this each tick instead of reaching into live instruments.
    """
    c = _collector
    if c is None:
        return None
    out: dict[str, float] = {}
    for name, counter in c.metrics.counters.items():
        out[name] = float(counter.value)
    for name, g in c.metrics.gauges.items():
        out[name] = float(g.value)
    return out


def timeline(kind: str) -> PhaseTimeline | None:
    """A new phase timeline under the current run scope, or ``None``.

    The simulators attach the returned timeline as their observer; the
    ``None`` return when disabled is exactly the machines' "no observer"
    state, so the hot sync loop needs no telemetry-specific branch.
    """
    c = _collector
    if c is None:
        return None
    return c.new_timeline(kind)


def record_arrays(name: str, **arrays: np.ndarray) -> None:
    """Retain per-module arrays under the run scope (no-op when disabled)."""
    c = _collector
    if c is not None:
        c.record_arrays(name, **arrays)


def run_scope(run: str, label: str = ""):
    """Scope subsequent records to ``run`` (no-op context when disabled)."""
    c = _collector
    if c is None:
        return nullcontext()
    return c.run_scope(run, label)


# -- reporting -----------------------------------------------------------------


def report(title: str = "telemetry") -> str:
    """Render the active session (or note that telemetry is disabled)."""
    c = _collector
    if c is None:
        return "-- telemetry disabled (enable with --telemetry)"
    return format_report(c, title)
