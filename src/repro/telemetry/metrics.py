"""Metrics: named counters and gauges with a merge protocol.

Two layers, matching how the library actually counts things:

* :class:`MetricSet` — a small, picklable bag of named scalar counters
  owned by *one instance* (a prefix cache, a persistent eval cache, an
  evaluator's memo).  Instance ownership is deliberate: tests and
  ``cache_info()`` reports reason about *this evaluator's* hits, not a
  process-wide aggregate, and a pickled evaluator must carry its counter
  storage into pool workers.  The class exposes plain ``inc``/``get``
  plus :meth:`snapshot`; :func:`metric_property` grafts classic
  attribute access (``cache.hits``, ``cache.hits += 1``) onto a
  ``MetricSet``-backed class so every historical call site keeps
  working.
* :class:`MetricsRegistry` — the process-wide registry behind
  :func:`get_registry`, holding genuinely global series: the execution
  engine's in-flight gauge, budget-refund and recovery counters.
  Series support labels (``registry.counter("x", session="s1")``)
  and the whole registry snapshots to one flat dict for heartbeats.

The worker→parent shipping protocol: after each evaluation a worker
ships its prefix cache's change since the previous shipment
(``now.diff(mark)``, a :class:`MetricsSnapshot`) back on the result
entry under a reserved key, and the parent absorbs it with
:meth:`MetricSet.merge` — so reuse that happened in another address
space still shows up in the parent's reports.  ``MetricsSnapshot`` is a
``dict`` subclass: JSON-serializable, picklable, and directly usable by
every call site that handled the old plain-dict counter deltas.
"""

from __future__ import annotations

import threading

from repro.exceptions import ValidationError


class MetricsSnapshot(dict):
    """A point-in-time reading of named scalar metrics.

    A plain ``dict`` of ``name -> number`` plus the two protocol
    operations: :meth:`diff` (what changed since an earlier snapshot —
    the payload a pool worker ships to its parent) and :meth:`merge`
    (combine readings from several sources into one).
    """

    def diff(self, earlier) -> "MetricsSnapshot":
        """Non-zero changes since ``earlier`` (missing names count as 0)."""
        earlier = earlier or {}
        delta = MetricsSnapshot()
        for name in set(self) | set(earlier):
            change = self.get(name, 0) - earlier.get(name, 0)
            if change:
                delta[name] = change
        return delta

    def merge(self, other) -> "MetricsSnapshot":
        """A new snapshot with ``other``'s values added onto this one's."""
        merged = MetricsSnapshot(self)
        for name, value in (other or {}).items():
            merged[name] = merged.get(name, 0) + value
        return merged

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return dict(self)


class MetricSet:
    """A picklable bag of named scalar metrics owned by one instance.

    Values are created on first touch (initial value 0), so a set can be
    declared with its known names up front — which keeps snapshots
    stable — while still accepting names shipped from elsewhere (worker
    deltas of a newer series).  Increments are plain dict writes: the
    owning object's own lock (when it has one) already serializes them,
    and a torn read only ever costs report precision, never correctness.
    """

    __slots__ = ("_values",)

    def __init__(self, names=()) -> None:
        self._values: dict = {name: 0 for name in names}

    def inc(self, name: str, value=1) -> None:
        """Add ``value`` to ``name`` (creating it at 0 first)."""
        self._values[name] = self._values.get(name, 0) + value

    def get(self, name: str, default=0):
        return self._values.get(name, default)

    def set(self, name: str, value) -> None:
        self._values[name] = value

    def merge(self, delta) -> None:
        """Absorb a snapshot/dict of deltas into this set (in place)."""
        for name, value in (delta or {}).items():
            self._values[name] = self._values.get(name, 0) + value

    def snapshot(self) -> MetricsSnapshot:
        """A point-in-time copy of every value."""
        return MetricsSnapshot(self._values)

    def __getstate__(self) -> dict:
        return dict(self._values)

    def __setstate__(self, state: dict) -> None:
        self._values = dict(state)

    def __contains__(self, name) -> bool:
        return name in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"MetricSet({self._values!r})"


def metric_property(name: str, attr: str = "metrics") -> property:
    """Attribute-style access to one metric of an instance's MetricSet.

    ``hits = metric_property("hits")`` on a class with ``self.metrics``
    makes ``obj.hits`` read — and ``obj.hits += 1`` / ``obj.hits = 0``
    write — the underlying metric, so classes migrating their ad-hoc
    integer counters onto a :class:`MetricSet` keep their historical
    public attribute surface byte-for-byte.
    """

    def fget(self):
        return getattr(self, attr).get(name)

    def fset(self, value) -> None:
        getattr(self, attr).set(name, value)

    return property(fget, fset, doc=f"the {name!r} metric (registry-backed)")


# --------------------------------------------------------------- registry
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
    def _read_series(reading: MetricsSnapshot, name: str, labels: tuple,
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

    def snapshot(self) -> MetricsSnapshot:
        """One flat reading of every series (heartbeat payload shape).

        Labelled series flatten to ``name{k=v,...}`` keys; a gauge adds
        its ``.high_water`` reading.
        """
        with self._lock:
            reading = MetricsSnapshot()
            for (name, labels), series in self._series.items():
                self._read_series(reading, name, labels, series)
            return reading

    def snapshot_for(self, **labels) -> MetricsSnapshot:
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
            reading = MetricsSnapshot()
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


#: the process-wide registry; module-level so pool workers get their own
#: (per-process) instance whose deltas ship back via MetricsSnapshot
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry` singleton."""
    return _REGISTRY
