"""Failure taxonomy, retry policy, and the worker side of an evaluation.

Fault tolerance is built from three small pieces that the backends
(:mod:`repro.engine.backends`) compose:

* a **taxonomy** — :class:`WorkerCrashError` (a pool worker died),
  :class:`TransientEvaluationError` (a retryable infrastructure hiccup)
  and :class:`EvaluationTimeoutError` (a deadline expired) — plus
  :func:`is_transient`, which decides whether an error is worth
  retrying at all;
* a :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *seeded* jitter, so recovery never draws from global RNG state
  (RPR001) and never sleeps unboundedly (RPR008);
* the **work-item body** :func:`run_work_item`, which the serial backend
  inline, process-pool workers and remote workers all run: it applies
  the :class:`InjectedFault` a chaos plan (:mod:`repro.engine.chaos`)
  wrapped around the ``(pipeline, fidelity)`` pair as a
  :class:`FaultInjection`, evaluates, and checks the soft deadline.  Each
  transport passes in only its evaluate call, its crash action and its
  deadline.

A task lost to infrastructure resolves to a :func:`failure_entry` — a
normal cache-entry dict with ``failure_kind`` set — so it flows through
the existing record pipeline as a failed :class:`TrialRecord` instead of
killing the search.  Failure entries carry zero timings and accuracy
0.0, which keeps a crash-and-recover run's records bit-for-bit
comparable across repeats of the same fault plan.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ReproError, ValidationError

#: ``failure_kind`` of a trial quarantined after repeated worker crashes
FAILURE_KIND_CRASH = "worker_crash"
#: ``failure_kind`` of a trial that exceeded the evaluation deadline
FAILURE_KIND_TIMEOUT = "timeout"

#: exit code of a chaos-killed worker (distinctive in core dumps / logs)
CRASH_EXIT_CODE = 77


class WorkerCrashError(ReproError):
    """A pool worker died (or was killed) while computing an evaluation."""


class TransientEvaluationError(ReproError):
    """A retryable infrastructure failure during one evaluation attempt.

    Raised for failures that say nothing about the pipeline being
    evaluated — a flaky IPC channel, an injected chaos exception — so
    the same work is expected to succeed on a clean retry.
    """


class EvaluationTimeoutError(ReproError):
    """An evaluation exceeded the context's ``eval_timeout`` deadline.

    Deadline expiry is *permanent* for the task that blew it: retrying a
    deterministic evaluation that just proved it cannot finish in time
    would hang the search for another full deadline.
    """


#: error types a :class:`RetryPolicy` treats as retryable.  ``OSError``
#: covers the IPC layer (broken pipes, fork failures); ``BrokenExecutor``
#: is how ``concurrent.futures`` reports a dead pool.
TRANSIENT_ERROR_TYPES = (
    WorkerCrashError,
    TransientEvaluationError,
    BrokenExecutor,
    OSError,
)


def is_transient(error: BaseException) -> bool:
    """Whether ``error`` is worth retrying (see :data:`TRANSIENT_ERROR_TYPES`).

    :class:`EvaluationTimeoutError` is checked first: it derives from
    nothing transient, but being explicit here keeps the
    timeout-is-permanent decision in one greppable place.
    """
    if isinstance(error, EvaluationTimeoutError):
        return False
    return isinstance(error, TRANSIENT_ERROR_TYPES)


def failure_entry(kind: str) -> dict:
    """The cache-entry shape of an evaluation lost to infrastructure.

    Zero timings on purpose: wall-clock spent crashing or hanging is
    nondeterministic, and two runs of the same fault plan must produce
    identical records.  Entries carrying a ``failure_kind`` are never
    persisted to the evaluation caches (see
    ``PipelineEvaluator.cache_store``) — the fault describes this *run*,
    not the pipeline.
    """
    if kind not in (FAILURE_KIND_CRASH, FAILURE_KIND_TIMEOUT):
        raise ValidationError(
            f"failure kind must be {FAILURE_KIND_CRASH!r} or "
            f"{FAILURE_KIND_TIMEOUT!r}, got {kind!r}"
        )
    return {"accuracy": 0.0, "prep_time": 0.0, "train_time": 0.0,
            "failed": True, "failure_kind": kind}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    Attributes
    ----------
    max_attempts:
        Total tries per task (first attempt included).  A task still
        failing transiently on its ``max_attempts``-th try is
        quarantined as a ``worker_crash`` record.
    base_delay:
        Backoff before the second attempt, in seconds; attempt ``n``
        waits ``base_delay * 2**(n-1)``, capped at ``max_delay``.
    max_delay:
        Upper bound on any single backoff sleep.
    jitter:
        Fractional jitter added on top of the backoff (``0.1`` = up to
        +10%), drawn from a generator seeded by ``(seed, attempt)`` —
        never from global RNG state — so delays are reproducible and
        never influence search results (only wall-clock).
    seed:
        Jitter seed.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if int(self.max_attempts) < 1:
            raise ValidationError(
                f"max_attempts must be at least 1, got {self.max_attempts!r}"
            )
        object.__setattr__(self, "max_attempts", int(self.max_attempts))
        for name in ("base_delay", "max_delay", "jitter"):
            value = float(getattr(self, name))
            if value < 0:
                raise ValidationError(
                    f"{name} must be >= 0, got {getattr(self, name)!r}"
                )
            object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", int(self.seed))

    def should_retry(self, attempt: int,
                     error: BaseException | None = None) -> bool:
        """Whether try number ``attempt`` (1-based) may be followed by another."""
        if attempt >= self.max_attempts:
            return False
        return error is None or is_transient(error)

    def delay(self, attempt: int) -> float:
        """Backoff after try number ``attempt`` failed, in seconds."""
        if attempt < 1:
            raise ValidationError(f"attempt must be >= 1, got {attempt!r}")
        base = min(self.max_delay, self.base_delay * (2.0 ** (attempt - 1)))
        if base <= 0 or self.jitter <= 0:
            return base
        rng = np.random.default_rng(
            (self.seed * 0x9E3779B1 + attempt) % 2**32
        )
        return base * (1.0 + self.jitter * float(rng.random()))

    def sleep(self, attempt: int) -> None:
        """Sleep the backoff for ``attempt`` (the one call site of the delay)."""
        backoff = self.delay(attempt)
        if backoff > 0:
            time.sleep(backoff)


# ----------------------------------------------------------- fault injection
#: the fault kinds a chaos plan can schedule.  ``drop_worker`` is a
#: *membership* fault — it disconnects a live remote worker instead of
#: sabotaging the task itself — and is carried out by the engine before
#: the work item ships (see ``FaultPlan.attach``); it must never reach
#: :func:`run_work_item`.
CHAOS_FAULT_KINDS = ("crash", "error", "delay", "drop_worker")


@dataclass(frozen=True)
class InjectedFault:
    """One planned fault: what goes wrong when its task is evaluated.

    ``crash`` loses the worker (see :func:`run_work_item` for how each
    transport carries it out); ``error`` raises
    :class:`TransientEvaluationError`; ``delay`` sleeps
    ``delay`` seconds before evaluating (a hang, from the watchdog's
    point of view).  A fault fires on the task's *first* attempt only,
    unless ``sticky`` — sticky faults follow the task through every
    retry, which is how quarantine paths are exercised.
    """

    kind: str
    delay: float = 0.0
    sticky: bool = False

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_FAULT_KINDS:
            raise ValidationError(
                f"fault kind must be one of {list(CHAOS_FAULT_KINDS)}, "
                f"got {self.kind!r}"
            )
        delay = float(self.delay)
        if delay < 0:
            raise ValidationError(
                f"fault delay must be >= 0 seconds, got {self.delay!r}"
            )
        object.__setattr__(self, "delay", delay)
        object.__setattr__(self, "sticky", bool(self.sticky))


class FaultInjection:
    """A work item carrying its planned fault: ``(pair, fault)``.

    Shipped to workers in place of the bare ``(pipeline, fidelity)``
    pair; :func:`run_work_item` unwraps it through
    :func:`unwrap_work_item`.
    """

    __slots__ = ("pair", "fault")

    def __init__(self, pair, fault: InjectedFault) -> None:
        self.pair = pair
        self.fault = fault

    def __repr__(self) -> str:
        return f"FaultInjection({self.pair!r}, {self.fault!r})"


def unwrap_work_item(item):
    """``(pair, fault)`` for any work item; ``fault`` is None when clean."""
    if isinstance(item, FaultInjection):
        return item.pair, item.fault
    return item, None


def strip_fault(item):
    """The work item to resubmit after a failed attempt.

    A non-sticky fault fires once: the retry runs clean, which is what
    makes a crash-and-recover run converge to the no-fault results.
    """
    pair, fault = unwrap_work_item(item)
    if fault is not None and fault.sticky:
        return item
    return pair


def run_work_item(item, evaluate, crash, deadline: float | None) -> dict:
    """Run one work item; the worker side of every evaluation.

    ``evaluate(pipeline, fidelity)`` returns the cache entry.  A planned
    ``crash`` calls ``crash()``: the serial backend raises
    :class:`WorkerCrashError` (a loss, recovered like a dead pool), a
    process-pool worker calls ``os._exit(CRASH_EXIT_CODE)`` and a remote
    worker exits or drops its socket.  An ``error`` raises
    :class:`TransientEvaluationError` and a ``delay`` sleeps before
    evaluating.  ``deadline`` is the soft deadline in seconds, ``None``
    where the caller enforces one from outside (the process backend's
    watchdog): it covers fault and evaluation together, and an overrun
    raises :class:`EvaluationTimeoutError` once the work has returned.
    """
    pair, fault = unwrap_work_item(item)
    start = time.monotonic()
    if fault is not None:
        if fault.kind == "drop_worker":
            raise ValidationError(
                "drop_worker is a membership fault handled by the engine "
                "before dispatch; it cannot be applied to a task"
            )
        if fault.kind == "crash":
            crash()
        elif fault.kind == "delay":
            time.sleep(fault.delay)
        elif fault.kind == "error":
            raise TransientEvaluationError(
                "chaos: injected transient evaluation failure"
            )
    entry = evaluate(*pair)
    if deadline is not None and time.monotonic() - start > deadline:
        raise EvaluationTimeoutError(
            f"evaluation exceeded the soft deadline of {deadline}s"
        )
    return entry
