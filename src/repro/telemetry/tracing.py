"""Span tracing: a process-safe JSONL sink with Chrome trace export.

A *span* is one named, timed phase of a trial — ``propose``,
``cache_lookup``, ``prep``, ``train``, or the whole ``trial`` — with
arbitrary scalar attributes (algorithm, iteration, pipeline length).
:class:`Tracer` appends each completed span as one self-contained JSON
line to ``trace.jsonl`` inside the run's telemetry directory:

* **Process-safe.**  Every emit is a single ``os.write`` on an
  ``O_APPEND`` descriptor (the same discipline as the persistent eval
  cache's append-log), so spans from pool workers and the parent
  interleave at line granularity and never tear each other.
* **Torn-line tolerant.**  :func:`read_trace` skips truncated or
  garbled lines (crash mid-write) instead of failing, so a trace cut
  short by a kill is still summarizable.
* **Picklable.**  A tracer pickles down to its path — a process-pool
  worker receiving an evaluator reopens its own descriptor and appends
  to the same file.

Every instrumented site spells a span the same way: it reads its clocks
only when it has a tracer (``None`` means spans off), times the phase,
and calls :meth:`Tracer.emit` with the start and the duration, so an
untraced run pays one ``is None`` check per site.  Timestamps: ``ts`` is
wall-clock (``time.time``) at span start, so events from different
processes land on one comparable axis; ``dur`` is a monotonic
``perf_counter`` difference, so durations are immune to clock steps.
:func:`to_chrome_trace` converts a trace into Chrome trace-event JSON
(complete ``"X"`` events, microsecond units) for perfetto /
``about:tracing`` flame views, and :func:`summarize_trace` aggregates
per-phase / per-algorithm totals — the shape of the paper's Table 5 —
for ``repro trace summary``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.exceptions import ValidationError


class Tracer:
    """Append completed spans to a JSONL trace file.

    Parameters
    ----------
    path:
        The ``trace.jsonl`` sink.  The parent directory is created on
        the first emit, not at construction, so a tracer configured but
        never used leaves no filesystem footprint.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fd: int | None = None

    # ------------------------------------------------------------ emitting
    def emit(self, name: str, *, ts: float, dur: float, **attrs) -> None:
        """Write one completed span (seconds for both ``ts`` and ``dur``)."""
        record = {"name": name, "ts": ts, "dur": dur, "pid": os.getpid()}
        if attrs:
            record["attrs"] = attrs
        line = json.dumps(record, separators=(",", ":")) + "\n"
        # One os.write on an O_APPEND descriptor: atomic with respect to
        # concurrent appenders (other processes' spans), like the eval
        # cache's shard appends.
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self.path,
                               os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        """Release the sink descriptor (reopened on the next emit)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    # ---------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        # Descriptors don't cross process boundaries: a worker re-opens
        # its own O_APPEND handle on first emit.
        return {"path": self.path}

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self._fd = None

    def __repr__(self) -> str:
        return f"Tracer({str(self.path)!r})"


def make_tracer(telemetry_mode: str | None,
                telemetry_dir) -> Tracer | None:
    """Build the tracer a context's telemetry settings describe.

    Only ``telemetry_mode="trace"`` with a ``telemetry_dir`` produces a
    sink; every other combination returns ``None``, which every
    instrumentation site treats as "spans off".
    """
    if telemetry_mode != "trace" or telemetry_dir is None:
        return None
    from repro.telemetry import TRACE_FILE_NAME

    return Tracer(Path(telemetry_dir) / TRACE_FILE_NAME)


# ----------------------------------------------------------------- reading
def read_trace(path) -> list[dict]:
    """Read a JSONL trace back into event dicts, tolerating torn lines.

    A line that is truncated (crash or kill mid-write) or garbled is
    skipped, never fatal — the same contract as the eval-cache replay —
    so a trace from an interrupted run still loads.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ValidationError(f"cannot read trace at {path}: {error}") from error
    events: list[dict] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and isinstance(record.get("name"), str) \
                and "ts" in record and "dur" in record:
            events.append(record)
    return events


def to_chrome_trace(events) -> dict:
    """Convert trace events to Chrome trace-event JSON (perfetto-ready).

    Spans become complete (``"ph": "X"``) events with microsecond
    timestamps/durations; the emitting process id maps to ``pid`` so
    worker activity renders as separate tracks in the flame view.
    """
    trace_events = []
    for event in events:
        trace_events.append({
            "name": event["name"],
            "ph": "X",
            "ts": float(event["ts"]) * 1e6,
            "dur": float(event["dur"]) * 1e6,
            "pid": event.get("pid", 0),
            "tid": event.get("pid", 0),
            "args": event.get("attrs", {}),
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


#: the per-trial phase names a ``trial`` event carries in its attrs
TRIAL_PHASES: tuple[str, ...] = ("pick", "prep", "train")


def summarize_trace(events) -> dict:
    """Aggregate a trace into the paper's Table-5 shape.

    Returns ``{"algorithms": {name: row}, "overall": row, "spans":
    {span name: {count, total}}}`` where each row has per-phase second
    totals, their percentages, the trial count and total trial
    wall-clock.  Only ``trial`` events (one per observed trial, emitted
    by the search session) feed the phase table; every other span is
    tallied under ``"spans"``.
    """
    algorithms: dict[str, dict] = {}
    spans: dict[str, dict] = {}
    for event in events:
        if event["name"] != "trial":
            tally = spans.setdefault(event["name"], {"count": 0, "total": 0.0})
            tally["count"] += 1
            tally["total"] += float(event["dur"])
            continue
        attrs = event.get("attrs", {})
        row = algorithms.setdefault(
            attrs.get("algorithm", "unknown"),
            {"trials": 0, "total": 0.0, **{p: 0.0 for p in TRIAL_PHASES}},
        )
        row["trials"] += 1
        row["total"] += float(event["dur"])
        for phase in TRIAL_PHASES:
            row[phase] += float(attrs.get(phase, 0.0))
    overall = {"trials": 0, "total": 0.0, **{p: 0.0 for p in TRIAL_PHASES}}
    for row in algorithms.values():
        for key in overall:
            overall[key] += row[key]
    for row in list(algorithms.values()) + [overall]:
        phase_total = sum(row[p] for p in TRIAL_PHASES)
        for phase in TRIAL_PHASES:
            row[phase + "_pct"] = (100.0 * row[phase] / phase_total
                                   if phase_total > 0 else 0.0)
    return {"algorithms": algorithms, "overall": overall, "spans": spans}
