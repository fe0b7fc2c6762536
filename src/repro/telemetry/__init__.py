"""Unified observability: metrics registry, span tracing, heartbeats.

The paper's core empirical argument (the Fig 7 / Table 5 bottleneck
analysis) rests on knowing *where time goes* — Pick vs. Prep vs. Train —
yet a search now spans two loop schedules, three execution backends and two
cache layers.  This package is the one place all of that reports to:

* :mod:`repro.telemetry.metrics` — named counters and gauges.
  Per-instance counter sets (:class:`MetricSet`) back every cache-layer
  counter (evaluator memo, persistent eval cache, prefix-transform cache);
  the process-wide :class:`MetricsRegistry` (reached through
  :func:`get_registry`) holds genuinely global series such as the
  engine's in-flight depth and budget refunds.  The worker→parent
  counter shipping of the process backend generalizes into the
  :class:`MetricsSnapshot` ``diff()``/``merge()`` protocol: any metric
  recorded in a pool worker rides back on the result entry and is
  absorbed on merge-back.
* :mod:`repro.telemetry.tracing` — per-trial spans (propose →
  cache-lookup → prep → train), each emitted through
  :meth:`Tracer.emit` into a process-safe JSONL sink, readable back
  torn-line-tolerantly and exportable as Chrome trace-event JSON for
  perfetto / ``about:tracing`` flame views.

Everything here is zero-dependency (stdlib + nothing) and dormant unless
an :class:`~repro.core.context.ExecutionContext` asks for it via
``telemetry_mode`` (``"off"`` / ``"counters"`` / ``"trace"``) and
``telemetry_dir``.
"""

from repro.telemetry.metrics import (
    MetricSet,
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    metric_property,
)
from repro.telemetry.tracing import (
    Tracer,
    make_tracer,
    read_trace,
    summarize_trace,
    to_chrome_trace,
)

#: the three telemetry modes an ExecutionContext accepts
TELEMETRY_MODES: tuple[str, ...] = ("off", "counters", "trace")

#: trace-sink file name inside a telemetry directory
TRACE_FILE_NAME = "trace.jsonl"

def heartbeat_file_name(session_id: str) -> str:
    """The per-session heartbeat file name inside a telemetry directory.

    Sessions sharing one telemetry dir each write their own
    ``heartbeat-<session_id>.json``, so no session clobbers another's.
    """
    return f"heartbeat-{session_id}.json"


__all__ = [
    "MetricSet",
    "MetricsRegistry",
    "MetricsSnapshot",
    "get_registry",
    "metric_property",
    "Tracer",
    "make_tracer",
    "read_trace",
    "summarize_trace",
    "to_chrome_trace",
    "TELEMETRY_MODES",
    "TRACE_FILE_NAME",
    "heartbeat_file_name",
]
