"""The search-lifecycle facade: :class:`SearchSession`.

``SearchAlgorithm.search`` answers "run this search to completion"; a
production service needs more — progress events while the search runs,
graceful interruption, and the ability to persist a long run's state so a
killed process can pick up exactly where it left off.  ``SearchSession``
is that lifecycle object, in the spirit of scikit-learn's ``BaseSearchCV``
facade over its search loops:

* **step-wise driving** — every run (``SearchAlgorithm.search``
  delegates here) goes through the one search loop,
  :meth:`~repro.search.async_driver.AsyncSearchDriver.drive`: the
  ``"sync"`` driver runs it in barrier waves, ``"async"``
  completion-driven.  The session observes every trial as it completes;
* **events** — ``on_trial(session, record)`` after every observed trial,
  ``on_batch(session, iteration, tasks)`` after every proposal-batch
  admission, ``on_checkpoint(session, path)`` after every checkpoint
  write;
* **checkpoint / resume** — :meth:`checkpoint` snapshots the run after
  any completed trial (trial history, budget remainder, RNG stream, the
  algorithm's internal state and the loop's admitted-but-unobserved
  work) into one JSON document;
  :meth:`SearchSession.resume` restores it — in the same process or a
  fresh one — and :meth:`run` continues the search **bit-for-bit
  identically** to a run that was never interrupted (enforced by the
  determinism matrix in ``tests/engine/test_determinism.py``);
* **interruption** — :meth:`stop` ends the run after the current trial,
  leaving the session resumable in memory or via a checkpoint.

Checkpointing requires a :class:`~repro.core.budget.TrialBudget` (the
deterministic budget): a wall-clock budget's remainder is not meaningful
to freeze.  The trial history and all scalars serialize as plain JSON
through :mod:`repro.io.serialization`; the algorithm's internal state
(surrogates, populations, rungs) is arbitrary Python and rides along as a
pickled blob — see :func:`repro.io.serialization.encode_state_blob` for
the trust model.  Checkpoints can also live inside a
:class:`~repro.io.store.ResultStore` next to their run's result file
(``store.save_checkpoint``).
"""

from __future__ import annotations

import json
import time
import uuid
from pathlib import Path

from repro.core.budget import Budget, TrialBudget
from repro.core.context import ExecutionContext
from repro.core.result import SearchResult, TrialRecord
from repro.exceptions import ValidationError
from repro.io.serialization import (
    atomic_write_text,
    decode_state_blob,
    encode_state_blob,
    load_session_checkpoint,
    save_session_checkpoint,
    trial_from_dict,
    trial_to_dict,
)
from repro.search.async_driver import AsyncSearchDriver, fresh_loop_state
from repro.telemetry import heartbeat_file_name
from repro.telemetry.metrics import MetricsSnapshot, get_registry
from repro.telemetry.tracing import make_tracer
from repro.utils.log import get_logger
from repro.utils.random import check_random_state

log = get_logger("search.session")


class SearchSession:
    """Drive one search run through its whole lifecycle.

    Parameters
    ----------
    problem:
        The :class:`~repro.core.problem.AutoFPProblem` to search.
    algorithm:
        The :class:`~repro.search.base.SearchAlgorithm` instance (its
        internal state belongs to this session once the run starts).
    context:
        Runtime configuration; defaults to the problem's own context.
        Decides the driver (``async_mode``) and the default budget.
    on_trial / on_batch / on_checkpoint:
        Optional event callbacks (see the module docstring).
    on_metrics:
        Optional callback ``on_metrics(session, snapshot)`` fired after
        every observed trial when the context's ``telemetry_mode`` is not
        ``"off"``; ``snapshot`` is a
        :class:`~repro.telemetry.metrics.MetricsSnapshot` combining the
        process registry with the evaluator's cache counters (see
        :meth:`metrics_snapshot`).
    checkpoint_path:
        Default path for :meth:`checkpoint` and automatic checkpoints.
    checkpoint_every:
        With ``checkpoint_path`` set, automatically checkpoint after every
        N observed trials — the knob behind the kill-and-resume story.
    session_id:
        Stable identifier of this session, used to label its registry
        metric series and name its heartbeat file so concurrent sessions
        in one process (or one telemetry dir) never collide.  Generated
        when omitted; checkpoints carry it, so a resumed session keeps
        streaming under the identity it was submitted with.
    """

    def __init__(self, problem, algorithm, context: ExecutionContext | None = None,
                 *, on_trial=None, on_batch=None, on_checkpoint=None,
                 on_metrics=None, checkpoint_path=None,
                 checkpoint_every: int | None = None,
                 session_id: str | None = None) -> None:
        self.problem = problem
        self.algorithm = algorithm
        if context is None:
            context = getattr(problem, "context", None) or ExecutionContext()
        self.context = context
        self.session_id = str(session_id) if session_id \
            else f"s{uuid.uuid4().hex[:12]}"
        self.on_trial = on_trial
        self.on_batch = on_batch
        self.on_checkpoint = on_checkpoint
        self.on_metrics = on_metrics
        #: the session's own handle on the trace sink (same JSONL file the
        #: evaluator appends to — O_APPEND keeps concurrent writers safe),
        #: which also receives the loop's ``propose`` spans; None unless
        #: the context enables tracing
        self.tracer = make_tracer(context.telemetry_mode,
                                  context.telemetry_dir)
        self.checkpoint_path = None if checkpoint_path is None \
            else Path(checkpoint_path)
        if checkpoint_every is not None:
            checkpoint_every = int(checkpoint_every)
            if checkpoint_every < 1:
                raise ValidationError(
                    f"checkpoint_every must be at least 1, got {checkpoint_every}"
                )
        self.checkpoint_every = checkpoint_every

        self.result = SearchResult(algorithm=algorithm.name)
        self.stopped = False
        self._driver: str | None = None
        self._budget: Budget | None = None
        self._rng = None
        self._iteration = 0
        self._running = False
        #: the search loop's state between runs (queue of charged tasks,
        #: deferred proposals, counters), as returned by
        #: ``AsyncSearchDriver.drive``; None until the algorithm is set up
        self._state: dict | None = None
        self._checkpoint_request: Path | None = None
        self._stop_request = False
        self._trials_since_checkpoint = 0
        self.last_checkpoint_path: Path | None = None

    # ----------------------------------------------------------------- API
    def run(self, budget: Budget | None = None, *,
            max_trials: int | None = None,
            driver: str | None = None) -> SearchResult:
        """Run (or continue) the search and return the result so far.

        ``budget`` defaults to the restored budget on a resumed session,
        else to ``TrialBudget(max_trials)`` with ``max_trials`` falling
        back to the context's ``default_budget`` (then 50).  ``driver``
        (``"sync"``/``"async"``) defaults to the session's earlier choice,
        then to the context's ``async_mode`` flag.  Calling ``run``
        again after :meth:`stop` continues the same search.
        """
        if self._running:
            raise ValidationError("this session is already running")
        if budget is not None:
            if self._budget is not None and budget is not self._budget:
                raise ValidationError(
                    "a resumed/continued session already has a budget; "
                    "run() must not replace it mid-search"
                )
            self._budget = budget
        elif self._budget is None:
            self._budget = self.context.trial_budget(max_trials)
        if driver is None:
            driver = self._driver
        if driver is None:
            driver = "async" if self.context.async_mode else "sync"
        if driver not in ("sync", "async"):
            raise ValidationError(
                f"driver must be 'sync' or 'async', got {driver!r}"
            )
        if self._driver is not None and driver != self._driver:
            raise ValidationError(
                f"this session ran under the {self._driver!r} driver and "
                f"cannot switch to {driver!r} mid-search"
            )
        self._driver = driver
        if self.checkpoint_every is not None and self.checkpoint_path is not None:
            # Fail before the search starts, not at the first periodic
            # snapshot deep inside the loop.
            self._check_checkpointable(self._budget)
        if self._rng is None:
            self._rng = check_random_state(self.algorithm.random_state)
        self.stopped = False
        self._stop_request = False
        self._running = True
        log.debug("run: algorithm=%s driver=%s budget=%r context=[%s]",
                  self.algorithm.name, driver, self._budget,
                  self.context.describe())
        try:
            if self._state is None:
                self.algorithm._setup(self.problem, self._rng)
                self._state = fresh_loop_state()
            self._state = AsyncSearchDriver(self.algorithm).drive(
                self.problem, self._budget, self.result, self._rng,
                self._state, control=self, barrier=driver == "sync",
            )
        finally:
            # A hard interruption (Ctrl-C, kill) does not write a
            # checkpoint here: a snapshot taken mid-batch would not be at
            # a trial boundary, and overwriting the last *consistent*
            # periodic checkpoint (``checkpoint_every``) with it would
            # break the resume guarantee.
            self._running = False
        if self._checkpoint_request is not None:
            # A request that arrived too late to be serviced inside the
            # loop (e.g. during a pause drain): the run is at rest now, so
            # snapshot the final state.
            path, self._checkpoint_request = self._checkpoint_request, None
            self._write_checkpoint(path, self._state)
        self.stopped = self._stop_request
        return self.result

    def stop(self) -> None:
        """Request a graceful stop after the currently observed trial.

        The run returns its partial result; the session stays resumable —
        call :meth:`run` again to continue in-process, or
        :meth:`checkpoint` to persist and continue elsewhere.
        """
        self._stop_request = True

    def checkpoint(self, path=None) -> Path:
        """Write (or, mid-run, schedule) a checkpoint; returns its path.

        Outside a run the snapshot is written immediately.  During a run
        (i.e. called from an event callback) the write happens right after
        the current trial completes — "after any completed trial" is the
        natural consistency point of the search loop.
        """
        path = Path(path) if path is not None else self.checkpoint_path
        if path is None:
            raise ValidationError(
                "no checkpoint path: pass one to checkpoint() or set "
                "checkpoint_path on the session"
            )
        self._check_checkpointable(self._budget)
        if self._running:
            self._checkpoint_request = path
            return path
        self._write_checkpoint(path, self._state)
        return path

    @classmethod
    def resume(cls, path, *, problem=None,
               context: ExecutionContext | None = None,
               on_trial=None, on_batch=None, on_checkpoint=None,
               on_metrics=None, checkpoint_path=None,
               checkpoint_every: int | None = None,
               ) -> "SearchSession":
        """Restore a session from a checkpoint written by :meth:`checkpoint`.

        ``problem`` may be omitted for registry-built problems (the
        checkpoint carries their provenance and the problem is rebuilt);
        problems built from raw arrays must be re-supplied by the caller.
        Either way the problem's evaluator fingerprint is verified against
        the checkpoint, so a run can never silently continue against
        different data, model or seed.  The restored session's
        :meth:`run` continues bit-for-bit identically to a run that was
        never interrupted.
        """
        document = load_session_checkpoint(path)
        stored_context = ExecutionContext.from_dict(document["context"])
        if context is None:
            context = stored_context
        blob = decode_state_blob(document["state_blob"])
        if not isinstance(blob, dict) \
                or not {"algorithm", "rng", "loop"} <= blob.keys():
            raise ValidationError(
                "checkpoint state blob lacks the algorithm, RNG or loop state"
            )
        algorithm = blob["algorithm"]
        problem_info = document["problem"]
        if problem is None:
            provenance = problem_info.get("provenance")
            if provenance is None:
                raise ValidationError(
                    "this checkpoint's problem was built from raw arrays "
                    "and cannot be rebuilt automatically; pass problem="
                )
            from repro.core.problem import AutoFPProblem

            problem = AutoFPProblem.from_provenance(provenance,
                                                    context=context)
        expected = problem_info.get("fingerprint")
        if expected and problem.evaluator.fingerprint() != expected:
            raise ValidationError(
                "checkpoint fingerprint mismatch: the supplied problem has "
                "different data, model or seed than the interrupted run"
            )
        session = cls(problem, algorithm, context=context,
                      on_trial=on_trial, on_batch=on_batch,
                      on_checkpoint=on_checkpoint, on_metrics=on_metrics,
                      checkpoint_path=(checkpoint_path
                                       if checkpoint_path is not None
                                       else path),
                      checkpoint_every=checkpoint_every,
                      # Keep the interrupted run's identity: its metric
                      # labels and heartbeat file continue seamlessly.
                      session_id=document["session_id"])
        session._driver = document["driver"]
        budget = TrialBudget(document["budget"]["max_trials"])
        budget.used = float(document["budget"]["used"])
        session._budget = budget
        session._rng = blob["rng"]
        session._state = blob["loop"]
        if session._state is not None:
            session._iteration = int(session._state["iteration"])
        for entry in document["trials"]:
            session.result.add(trial_from_dict(entry))
        session.result.baseline_accuracy = document.get("baseline_accuracy")
        return session

    # ------------------------------------------------- driver control hooks
    def _driver_admitted(self, iteration: int, tasks) -> None:
        """AsyncSearchDriver hook: a proposal batch was admitted."""
        self._iteration = iteration
        if self.on_batch is not None:
            self.on_batch(self, iteration, list(tasks))

    def _driver_observed(self, record: TrialRecord, capture) -> bool:
        """AsyncSearchDriver hook: one completion was observed.

        Fires the per-trial events and services checkpoint requests and
        periodic checkpoints.  ``capture`` snapshots the driver's loop
        state for a checkpoint; ``None`` means the driver is already
        pausing (drain notifications), so a checkpoint due now is deferred
        to the post-run snapshot rather than taken of a loop mid-teardown.
        Returns True to pause the driver.
        """
        self._trials_since_checkpoint += 1
        if self.on_trial is not None:
            self.on_trial(self, record)
        if self.context.telemetry_mode != "off":
            self._emit_trial_telemetry(record)
        path = None
        if self._checkpoint_request is not None:
            path, self._checkpoint_request = self._checkpoint_request, None
        elif (self.checkpoint_every is not None
                and self.checkpoint_path is not None
                and self._trials_since_checkpoint >= self.checkpoint_every):
            path = self.checkpoint_path
        if path is not None and capture is None:
            self._checkpoint_request = path  # pausing: write after the run
        elif path is not None:
            self._write_checkpoint(path, capture())
        return capture is not None and self._stop_request

    # ------------------------------------------------------------ telemetry
    def metrics_snapshot(self) -> MetricsSnapshot:
        """One flat reading of everything observable about this run.

        Combines the process-wide registry (engine in-flight depth, budget
        refunds, ...) with the evaluator's per-instance cache counters,
        namespaced ``evaluator.*`` / ``prefix.*``, plus the session's own
        progress gauges.  This is the payload handed to ``on_metrics`` and
        written to the heartbeat file.  Registry series labelled with a
        session id are filtered to *this* session's, so a multi-tenant
        process never leaks one tenant's counters into another's snapshot.
        """
        snapshot = get_registry().snapshot_for(session=self.session_id)
        evaluator = getattr(self.problem, "evaluator", None)
        if evaluator is not None:
            snapshot = snapshot.merge({
                f"evaluator.{name}": value
                for name, value in evaluator.metrics.snapshot().items()
            })
            if evaluator.prefix_cache is not None:
                snapshot = snapshot.merge({
                    f"prefix.{name}": value
                    for name, value in evaluator.prefix_cache.counters().items()
                })
            snapshot = snapshot.merge(evaluator._worker_metrics.snapshot())
        snapshot["session.trials"] = len(self.result)
        snapshot["session.iteration"] = self._iteration
        return snapshot

    def _emit_trial_telemetry(self, record: TrialRecord) -> None:
        """Per-trial observability: trial span, metrics event, heartbeat.

        The ``trial`` trace event carries the algorithm attribution the
        evaluator cannot know (workers see pipelines, not algorithms) and
        the per-phase split ``repro trace summary`` aggregates into the
        paper's Table-5 shape.  Purely observational: nothing here feeds
        back into the search.
        """
        if self.tracer is not None:
            self.tracer.emit(
                "trial", ts=time.time() - record.total_time,
                dur=record.total_time, algorithm=self.algorithm.name,
                iteration=record.iteration, accuracy=record.accuracy,
                fidelity=record.fidelity, pick=record.pick_time,
                prep=record.prep_time, train=record.train_time,
            )
        snapshot = None
        if self.on_metrics is not None:
            snapshot = self.metrics_snapshot()
            self.on_metrics(self, snapshot)
        if self.context.telemetry_dir is not None:
            if snapshot is None:
                snapshot = self.metrics_snapshot()
            self._write_heartbeat(snapshot)

    def _write_heartbeat(self, snapshot: MetricsSnapshot) -> None:
        """Atomically refresh this session's heartbeat file.

        Liveness-probe shaped: one small JSON document a supervisor (or a
        human with ``watch cat``) can poll without touching the trace sink.
        Atomic replace means a reader never sees a torn document.  Each
        session owns ``heartbeat-<session_id>.json``, so concurrent
        sessions sharing a telemetry dir never clobber each other's
        heartbeat.
        """
        heartbeat = {
            "session_id": self.session_id,
            "algorithm": self.algorithm.name,
            "trials": len(self.result),
            "iteration": self._iteration,
            "best_accuracy": (self.result.best_accuracy
                              if len(self.result) else None),
            "budget_used": getattr(self._budget, "used", None),
            "time": time.time(),
            "metrics": snapshot.to_dict(),
        }
        path = Path(self.context.telemetry_dir) \
            / heartbeat_file_name(self.session_id)
        try:
            atomic_write_text(path, json.dumps(heartbeat, indent=2,
                                               default=str))
        except OSError as error:
            # Telemetry must never kill a search: an unwritable heartbeat
            # (full disk, revoked permissions) degrades to a log line.
            log.warning("heartbeat write failed: %s", error)

    @staticmethod
    def _check_checkpointable(budget) -> None:
        """Checkpointing freezes a trial count; other budgets cannot resume.

        Raised from :meth:`checkpoint` and at ``run()`` start when periodic
        checkpoints are configured, so an impossible snapshot is rejected
        at request time instead of aborting the search mid-loop.
        """
        if budget is None:
            raise ValidationError(
                "nothing to checkpoint: the session has not started a run"
            )
        if not isinstance(budget, TrialBudget):
            raise ValidationError(
                "checkpointing requires a TrialBudget (deterministic trial "
                f"accounting); this session runs under {budget!r}"
            )

    def _write_checkpoint(self, path, state: dict | None) -> Path:
        budget = self._budget
        self._check_checkpointable(budget)
        problem = self.problem
        document = {
            "algorithm": self.algorithm.name,
            "session_id": self.session_id,
            "driver": self._driver or "sync",
            "context": self.context.to_dict(),
            "problem": {
                "name": problem.name,
                "fingerprint": problem.evaluator.fingerprint(),
                "provenance": getattr(problem, "provenance", None),
            },
            "budget": {"max_trials": budget.max_trials, "used": budget.used},
            "baseline_accuracy": self.result.baseline_accuracy,
            "trials": [trial_to_dict(trial) for trial in self.result.trials],
            # The RNG rides in the SAME pickle as the algorithm: some
            # algorithms capture the session generator in _setup (Anneal's
            # acceptance draws interleave with the propose draws on one
            # stream), and pickling them together preserves that object
            # identity — two separate restores would fork the stream and
            # break bit-for-bit resume.  The loop state holds the queued
            # tasks and deferred proposals, which are pipelines too.
            "state_blob": encode_state_blob({
                "algorithm": self.algorithm,
                "rng": self._rng,
                "loop": state,
            }),
        }
        path = Path(path)
        save_session_checkpoint(document, path)
        log.debug("checkpoint written: %s (%d trials)", path,
                  len(self.result))
        self._trials_since_checkpoint = 0
        self.last_checkpoint_path = path
        if self.on_checkpoint is not None:
            self.on_checkpoint(self, path)
        return path

    def __repr__(self) -> str:
        return (f"SearchSession(problem={self.problem.name!r}, "
                f"algorithm={self.algorithm!r}, "
                f"trials={len(self.result)}, driver={self._driver!r})")
