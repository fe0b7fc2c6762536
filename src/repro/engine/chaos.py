"""Deterministic fault injection: the :class:`FaultPlan`.

The chaos harness exists so every recovery path in
:mod:`repro.engine.backends` is *reproducibly* testable: a
:class:`FaultPlan` schedules faults at specific task indices (worker
kills, raised transient errors, hangs), and an engine built with
``ExecutionEngine(backend, chaos=plan)`` attaches them
(:meth:`FaultPlan.attach`) to the matching work items as it dispatches
them.  The engine's ``submit_task`` is the only caller of
``backend.submit_evaluation`` — a barrier wave in LPT order, the
completion-driven schedule in submission order, both deterministic — and
each primary takes the next index there, so task indices count
primaries in one dispatch order, and two runs of the same plan hit the
same pipelines with the same faults.  Recovery re-dispatches happen
inside the backend and never consume plan indices.  By the attribution
rule in :mod:`repro.engine.backends`, a one-shot fault quarantines
nobody (its retry runs clean), and a sticky one quarantines only the
task that carries it, so the surviving records of a crash-and-recover
run equal a no-fault run bit for bit.

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

from typing import Iterator, Mapping

import numpy as np

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

    def attach(self, index: int, item, backend):
        """The work item to dispatch as primary ``index`` on ``backend``.

        ``item`` itself when the plan names no fault there, else ``item``
        wrapped in a :class:`~repro.engine.faults.FaultInjection` that the
        backend's recovering future applies and survives.  A
        ``drop_worker`` fault disconnects one of ``backend``'s live
        workers *now*, at this deterministic index, and ships the item
        clean: the backend's heartbeat and crash machinery owns the
        fallout.  A backend without worker membership refuses it.
        """
        fault = self.fault_at(index)
        if fault is None:
            return item
        if fault.kind == "drop_worker":
            drop = getattr(backend, "drop_worker", None)
            if drop is None:
                raise ValidationError(
                    f"drop_worker faults need a backend with worker "
                    f"membership (the 'remote' backend); "
                    f"{type(backend).__name__} has none"
                )
            drop()
            return item
        return FaultInjection(item, fault)

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
