"""Metrics: the process-wide registry of named counters and gauges.

:class:`MetricsRegistry` (reached through :func:`get_registry`) holds the
genuinely global series: the execution engine's in-flight gauge, and the
budget-refund and recovery counters.  Series support labels
(``registry.counter("x", session="s1")``), and the whole registry reads
out as one flat ``dict`` for heartbeats and ``/metrics``.

Counters owned by one instance are plain ``int`` attributes of their
owner instead: an evaluator's memo hits, a prefix cache's reused steps, a
persistent eval cache's writes.  A report reasons about *this*
evaluator's counts, not a process-wide aggregate, and a pickled evaluator
arrives in a worker with its counters at zero.  A process or remote
worker's prefix cache ships its counter changes back on each result
entry, and the parent adds them on
(:meth:`repro.core.prefixcache.PrefixTransformCache.absorb`).
"""

from __future__ import annotations

import threading

from repro.exceptions import ValidationError


class Counter:
    """A monotonically increasing registry series."""

    __slots__ = ("name", "labels", "_lock", "value")

    def __init__(self, name: str, labels: tuple, lock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self.value = 0

    def inc(self, value=1) -> None:
        with self._lock:
            self.value += value


class Gauge:
    """A registry series that can go up and down (e.g. in-flight depth)."""

    __slots__ = ("name", "labels", "_lock", "value", "high_water")

    def __init__(self, name: str, labels: tuple, lock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self.value = 0
        self.high_water = 0

    def set(self, value) -> None:
        with self._lock:
            self.value = value
            if value > self.high_water:
                self.high_water = value

    def inc(self, value=1) -> None:
        with self._lock:
            self.value += value
            if self.value > self.high_water:
                self.high_water = self.value

    def dec(self, value=1) -> None:
        with self._lock:
            self.value -= value


class MetricsRegistry:
    """Process-wide named metric series with optional labels.

    ``counter`` / ``gauge`` get-or-create a series; the same ``(name,
    labels)`` always returns the same object, so hot call sites can
    cache the handle.  A name must keep one series kind for the
    registry's lifetime — re-requesting ``"x"`` as a gauge after it was
    created as a counter is a programming error and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: dict = {}

    def _get(self, kind, name: str, labels: dict):
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = kind(name, key[1], self._lock)
                self._series[key] = series
            elif type(series) is not kind:
                raise ValidationError(
                    f"metric {name!r} already registered as "
                    f"{type(series).__name__}, not {kind.__name__}"
                )
            return series

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    @staticmethod
    def _read_series(reading: dict, name: str, labels: tuple,
                     series) -> None:
        """Flatten one series into ``reading`` under its labelled key."""
        key = name
        if labels:
            inner = ",".join(f"{k}={v}" for k, v in labels)
            key = f"{name}{{{inner}}}"
        if isinstance(series, Gauge):
            reading[key] = series.value
            reading[key + ".high_water"] = series.high_water
        else:
            reading[key] = series.value

    def snapshot(self) -> dict:
        """One flat reading of every series (heartbeat payload shape).

        Labelled series flatten to ``name{k=v,...}`` keys; a gauge adds
        its ``.high_water`` reading.
        """
        with self._lock:
            reading: dict = {}
            for (name, labels), series in self._series.items():
                self._read_series(reading, name, labels, series)
            return reading

    def snapshot_for(self, **labels) -> dict:
        """A reading restricted to one label owner (e.g. one session).

        A series is included when it either does not carry any of the
        filtered label keys at all (shared, genuinely process-global
        series such as the engine's in-flight gauge) or carries matching
        values for every filtered key it does have.  Matching labels are
        stripped from the flattened key, so the owner reads its own
        ``budget.refunded_trials{session=...}`` series back under the
        plain historical name — and never sees another owner's series.
        """
        with self._lock:
            reading: dict = {}
            for (name, series_labels), series in self._series.items():
                carried = dict(series_labels)
                if any(key in carried and carried[key] != value
                       for key, value in labels.items()):
                    continue
                rest = tuple(item for item in series_labels
                             if item[0] not in labels)
                self._read_series(reading, name, rest, series)
            return reading

    def reset(self) -> None:
        """Drop every series (tests isolate themselves with this)."""
        with self._lock:
            self._series.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def __repr__(self) -> str:
        return f"MetricsRegistry(series={len(self)})"


#: the process-wide registry; module-level, so each pool worker has its own
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry` singleton."""
    return _REGISTRY
