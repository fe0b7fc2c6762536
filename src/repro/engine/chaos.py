"""Deterministic fault injection: :class:`FaultPlan` + :class:`ChaosBackend`.

The chaos harness exists so every recovery path in
:mod:`repro.engine.backends` is *reproducibly* testable: a
:class:`FaultPlan` schedules faults at specific task indices (worker
kills, raised transient errors, hangs), and a :class:`ChaosBackend` wraps
any real backend and attaches those faults to the matching work items as
they are dispatched.  Every evaluation is dispatched through
``submit_evaluation`` — by ``ExecutionEngine.run`` in LPT order and by
the futures layer in submission order, both deterministic — so task
indices count evaluations in one dispatch order, and two runs of the same
plan hit the same pipelines with the same faults.  Recovery re-dispatches
happen inside the wrapped backend and never consume plan indices.  By
the attribution rule in :mod:`repro.engine.backends`, a one-shot fault
quarantines nobody (its retry runs clean), and a sticky one quarantines
only the task that carries it, so the surviving records of a
crash-and-recover run equal a no-fault run bit for bit.

Wired through :class:`~repro.core.context.ExecutionContext` via the
``chaos`` field / ``REPRO_CHAOS`` env var using a compact spec grammar::

    crash@1,error@4,delay@6:30,crash@8!

``kind@index``, with ``:seconds`` for delay duration and a trailing ``!``
marking the fault sticky (it follows the task through every retry, which
is how quarantine is exercised).

``drop_worker@index`` is the membership fault for the remote backend:
when dispatch reaches that index, a live worker is forcibly
disconnected (lowest worker id, so the victim is deterministic) and the
task itself ships clean — replaying a machine loss mid-search.
"""

from __future__ import annotations

import threading
from typing import Iterator, Mapping

import numpy as np

from repro.engine.backends import ExecutionBackend
from repro.engine.faults import FaultInjection, InjectedFault
from repro.exceptions import ValidationError


class FaultPlan:
    """An immutable schedule mapping task indices to injected faults."""

    __slots__ = ("_faults",)

    def __init__(self, faults: Mapping[int, InjectedFault] | None = None) -> None:
        plan: dict[int, InjectedFault] = {}
        for index, fault in dict(faults or {}).items():
            index = int(index)
            if index < 0:
                raise ValidationError(
                    f"fault plan indices must be >= 0, got {index}"
                )
            if not isinstance(fault, InjectedFault):
                raise ValidationError(
                    f"fault plan values must be InjectedFault, "
                    f"got {type(fault).__name__}"
                )
            plan[index] = fault
        self._faults = plan

    def fault_at(self, index: int) -> InjectedFault | None:
        """The fault planned for task ``index``, or ``None``."""
        return self._faults.get(index)

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self) -> Iterator[tuple[int, InjectedFault]]:
        return iter(sorted(self._faults.items()))

    def counts(self) -> dict[str, int]:
        """Planned faults per kind, e.g. ``{"crash": 2, "delay": 1}``."""
        totals: dict[str, int] = {}
        for fault in self._faults.values():
            totals[fault.kind] = totals.get(fault.kind, 0) + 1
        return totals

    def to_spec(self) -> str:
        """Compact string form; round-trips through :meth:`from_spec`."""
        parts = []
        for index, fault in self:
            part = f"{fault.kind}@{index}"
            if fault.kind == "delay":
                part += f":{fault.delay:g}"
            if fault.sticky:
                part += "!"
            parts.append(part)
        return ",".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``"crash@1,error@4,delay@6:30,crash@8!"`` (see module doc)."""
        faults: dict[int, InjectedFault] = {}
        for raw in str(spec).split(","):
            token = raw.strip()
            if not token:
                continue
            sticky = token.endswith("!")
            if sticky:
                token = token[:-1]
            kind, _, position = token.partition("@")
            if not position:
                raise ValidationError(
                    f"bad fault spec {raw.strip()!r}: expected "
                    f"kind@index[:seconds][!]"
                )
            where, _, seconds = position.partition(":")
            try:
                index = int(where)
            except ValueError:
                raise ValidationError(
                    f"bad fault index in {raw.strip()!r}: {where!r} is not "
                    f"an integer"
                ) from None
            if seconds and kind != "delay":
                raise ValidationError(
                    f"bad fault spec {raw.strip()!r}: only delay faults "
                    f"take a :seconds duration"
                )
            if kind == "delay" and not seconds:
                raise ValidationError(
                    f"bad fault spec {raw.strip()!r}: delay faults need a "
                    f"duration, e.g. delay@{index}:30"
                )
            try:
                delay = float(seconds) if seconds else 0.0
            except ValueError:
                raise ValidationError(
                    f"bad delay duration in {raw.strip()!r}: {seconds!r} is "
                    f"not a number"
                ) from None
            if index in faults:
                raise ValidationError(
                    f"fault plan schedules task {index} twice"
                )
            faults[index] = InjectedFault(kind=kind, delay=delay,
                                          sticky=sticky)
        return cls(faults)

    @classmethod
    def random(cls, seed: int, n_tasks: int, *, crash_rate: float = 0.0,
               error_rate: float = 0.0, delay_rate: float = 0.0,
               delay: float = 30.0, sticky: bool = False) -> "FaultPlan":
        """A seeded random plan over ``n_tasks`` dispatch indices.

        Each index independently draws one uniform variate from
        ``np.random.default_rng(seed)`` and maps it to crash / error /
        delay bands — same seed, same plan, always.
        """
        total = crash_rate + error_rate + delay_rate
        if total > 1.0:
            raise ValidationError(
                f"fault rates must sum to at most 1.0, got {total}"
            )
        rng = np.random.default_rng(seed)
        faults: dict[int, InjectedFault] = {}
        for index in range(int(n_tasks)):
            draw = float(rng.random())
            if draw < crash_rate:
                faults[index] = InjectedFault("crash", sticky=sticky)
            elif draw < crash_rate + error_rate:
                faults[index] = InjectedFault("error", sticky=sticky)
            elif draw < total:
                faults[index] = InjectedFault("delay", delay=delay,
                                              sticky=sticky)
        return cls(faults)

    def __repr__(self) -> str:
        return f"FaultPlan({self.to_spec()!r})"


class ChaosBackend(ExecutionBackend):
    """Wrap a real backend and inject a :class:`FaultPlan` into its work.

    Pure interposition: every evaluation dispatched through this wrapper
    is assigned the next task index (thread-safe counter, dispatch
    order), and indices the plan names get their work item wrapped in a
    :class:`~repro.engine.faults.FaultInjection` before delegation.  The
    *inner* backend's guarded envelope or recovering future then applies
    the fault and survives it.  Deliberately does not
    call ``ExecutionBackend.__init__``: it owns no workers and no
    settings of its own; ``n_workers``, ``eval_timeout``,
    ``retry_policy`` and ``last_crash`` all delegate to the wrapped
    backend.
    """

    name = "chaos"

    def __init__(self, inner: ExecutionBackend, plan: FaultPlan | str) -> None:
        if isinstance(inner, ChaosBackend):
            raise ValidationError("chaos backends do not nest")
        if not isinstance(inner, ExecutionBackend):
            raise ValidationError(
                f"ChaosBackend wraps an ExecutionBackend, "
                f"got {type(inner).__name__}"
            )
        if isinstance(plan, str):
            plan = FaultPlan.from_spec(plan)
        self.inner = inner
        self.plan = plan
        self._lock = threading.Lock()
        self._dispatched = 0

    # ---------------------------------------------------------- delegation
    @property
    def n_workers(self) -> int:
        return self.inner.n_workers

    @property
    def ordered_completion(self) -> bool:
        return self.inner.ordered_completion

    @property
    def last_crash(self) -> dict | None:
        return self.inner.last_crash

    @property
    def eval_timeout(self) -> float | None:
        return self.inner.eval_timeout

    @eval_timeout.setter
    def eval_timeout(self, value) -> None:
        self.inner.eval_timeout = value

    @property
    def retry_policy(self):
        return self.inner.retry_policy

    @retry_policy.setter
    def retry_policy(self, value) -> None:
        self.inner.retry_policy = value

    @property
    def dispatched(self) -> int:
        """Evaluations dispatched so far (= next task index)."""
        with self._lock:
            return self._dispatched

    # ------------------------------------------------------------ injection
    def _next_index(self) -> int:
        with self._lock:
            index = self._dispatched
            self._dispatched += 1
        return index

    def _wrap(self, item):
        fault = self.plan.fault_at(self._next_index())
        if fault is None:
            return item
        if fault.kind == "drop_worker":
            # A membership fault: disconnect a live worker *now*, at this
            # deterministic dispatch index, and ship the item clean — the
            # inner backend's heartbeat/crash machinery owns the fallout.
            drop = getattr(self.inner, "drop_worker", None)
            if drop is None:
                raise ValidationError(
                    f"drop_worker faults need a backend with worker "
                    f"membership (the 'remote' backend); "
                    f"{type(self.inner).__name__} has none"
                )
            drop()
            return item
        return FaultInjection(item, fault)

    # ----------------------------------------------------------------- API
    def map(self, fn, items: list) -> list:
        return self.inner.map(fn, items)

    def submit(self, fn, item):
        return self.inner.submit(fn, item)

    def submit_evaluation(self, evaluator, item):
        return self.inner.submit_evaluation(evaluator, self._wrap(item))

    def wait_any(self, futures) -> None:
        self.inner.wait_any(futures)

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:
        return f"ChaosBackend({self.inner!r}, plan={self.plan!r})"
