"""The search-lifecycle facade and the one search loop: :class:`SearchSession`.

``SearchAlgorithm.search`` answers "run this search to completion"; a
production service needs more — progress events while the search runs,
graceful interruption, and the ability to persist a long run's state so a
killed process can pick up exactly where it left off.  ``SearchSession``
is that lifecycle object, in the spirit of scikit-learn's ``BaseSearchCV``
facade over its search loops, and it runs the loop itself:

* **the search loop** — every run (``SearchAlgorithm.search`` delegates
  here) is Algorithm 1 of the paper: admit the algorithm's proposals
  against the budget, dispatch them, feed each
  :class:`~repro.core.result.TrialRecord` back through the algorithm's
  ``_observe`` hook, and ask for new proposals (``_update`` +
  ``_propose_batch``) when work runs out.  The context's ``async_mode``
  picks one of two schedules:

  - **barrier** (the default) — every admitted proposal batch runs as one
    *wave* through ``evaluator.evaluate_tasks`` (the engine's batch
    path), and its records are observed in proposal order before the
    algorithm is asked again;
  - **completion-driven** (``async_mode=True``) — up to the engine's
    ``n_workers`` evaluations stay in flight, every completion is
    observed the moment it lands, and Pick overlaps Prep/Train: the
    algorithm proposes as soon as a worker slot frees — the scheduling
    model of asynchronous successive halving (Li et al., ASHA)
    generalised to every algorithm of the registry.

  On the serial backend both schedules are bit-for-bit identical: one
  in-flight slot drains a proposal batch in proposal order before the
  next ``_propose_batch``, which is the barrier's hook sequence, RNG
  consumption and budget arithmetic.  On process/remote backends the
  completion-driven schedule is reproducible given the same completion
  order (completions are observed in submission order among those
  done); barrier runs under a trial budget match the serial run on every
  backend.  Admission clips every batch to what the budget has left.  A
  wall-clock budget is consulted after every observed completion (or
  between dispatch chunks of a wave): the search stops within one
  completion of expiry and refunds the admitted-but-never-dispatched
  backlog;
* **events** — ``on_trial(session, record)`` after every observed trial,
  ``on_batch(session, iteration, tasks)`` after every proposal-batch
  admission, ``on_checkpoint(session, path)`` after every checkpoint
  write;
* **checkpoint / resume** — :meth:`checkpoint` snapshots the run after
  any completed trial (trial history, budget remainder, RNG stream, the
  algorithm's internal state, the loop's admitted-but-unobserved work
  and the execution context, whose ``async_mode`` is the one record of
  the schedule) into one JSON document;
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
the trust model.
"""

from __future__ import annotations

import json
import numbers
import pickle
import time
import uuid
from collections import deque
from pathlib import Path

import numpy as np

from repro.core.budget import Budget, TrialBudget
from repro.core.context import ExecutionContext
from repro.core.result import SearchResult, TrialRecord
from repro.engine.tasks import EvalTask
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
from repro.search.base import SearchAlgorithm
from repro.telemetry import heartbeat_file_name
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import make_tracer
from repro.utils.log import get_logger
from repro.utils.random import check_random_state

log = get_logger("search.session")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_charged_queue(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(pair, tuple) and len(pair) == 2
        and isinstance(pair[0], EvalTask) and _is_number(pair[1])
        for pair in value)


def _is_deferred(value) -> bool:
    return value is None or (
        isinstance(value, tuple) and len(value) == 3
        and isinstance(value[0], list) and _is_number(value[1])
        and type(value[2]) is int)


#: every loop-state entry the search loop's capture writes: (name, what
#: it must be, its check)
_LOOP_STATE_ENTRIES = (
    ("iteration", "an int", lambda value: type(value) is int),
    ("stalled", "an int", lambda value: type(value) is int),
    ("initial_done", "a bool", lambda value: type(value) is bool),
    ("queue", "a list of (EvalTask, number) pairs", _is_charged_queue),
    ("deferred", "None or a (list, number, int) triple", _is_deferred),
)


def _check_loop_state(loop) -> None:
    """Refuse a checkpoint's loop state unless the loop could resume it.

    ``None`` (a session that never ran) passes; anything else must be a
    dict holding every entry of :data:`_LOOP_STATE_ENTRIES`, so a damaged
    blob fails here naming the entry, not later inside ``run()``.
    """
    if loop is None:
        return
    if not isinstance(loop, dict):
        raise ValidationError(
            "checkpoint state blob's 'loop' entry is neither None nor a "
            "dict of loop state"
        )
    for name, expected, valid in _LOOP_STATE_ENTRIES:
        if name not in loop or not valid(loop[name]):
            raise ValidationError(
                f"checkpoint state blob's 'loop' entry needs {name!r} to "
                f"be {expected}"
            )


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
        Its ``async_mode`` picks the loop's schedule.
    on_trial / on_batch / on_checkpoint:
        Optional event callbacks (see the module docstring).
    on_metrics:
        Optional callback ``on_metrics(session, snapshot)`` fired after
        every observed trial when the context's ``telemetry_mode`` is not
        ``"off"``; ``snapshot`` is a flat ``dict`` combining the process
        registry with the evaluator's cache counters (see
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
        self._budget: Budget | None = None
        self._rng = None
        self._iteration = 0
        self._running = False
        #: the search loop's state between runs (queue of charged tasks,
        #: deferred proposals, counters), as returned by :meth:`_drive`;
        #: None until the algorithm is set up
        self._state: dict | None = None
        self._checkpoint_request: Path | None = None
        self._stop_request = False
        self._trials_since_checkpoint = 0
        self.last_checkpoint_path: Path | None = None

    # ----------------------------------------------------------------- API
    def run(self, budget: Budget | None = None, *,
            max_trials: int | None = None) -> SearchResult:
        """Run (or continue) the search and return the result so far.

        ``budget`` defaults to the restored budget on a resumed session,
        else to ``TrialBudget(max_trials)``, 50 trials when ``max_trials``
        is None.  The context's ``async_mode`` picks the schedule (see the
        module docstring).
        Calling ``run`` again after :meth:`stop` continues the same search.
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
            self._budget = TrialBudget(50 if max_trials is None
                                       else max_trials)
        if self.checkpoint_every is not None and self.checkpoint_path is not None:
            # Fail before the search starts, not at the first periodic
            # snapshot deep inside the loop.
            self._check_checkpointable(self._budget)
        if self._rng is None:
            self._rng = check_random_state(self.algorithm.random_state)
        self.stopped = False
        self._stop_request = False
        self._running = True
        log.debug("run: algorithm=%s budget=%r context=[%s]",
                  self.algorithm.name, self._budget, self.context.describe())
        try:
            if self._state is None:
                self.algorithm._setup(self.problem, self._rng)
                # a loop that has admitted nothing yet
                self._state = {"iteration": 0, "stalled": 0, "deferred": None,
                               "queue": [], "initial_done": False}
            self._state = self._drive(self._state)
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
    def resume(cls, path, *, problem=None, on_trial=None, on_batch=None,
               on_checkpoint=None, on_metrics=None, checkpoint_path=None,
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
        never interrupted.  A state blob whose ``algorithm`` is not the
        document's search algorithm, whose ``rng`` is not a numpy
        ``Generator`` or whose ``loop`` is neither None nor loop state
        (see :func:`_check_loop_state`) raises :class:`ValidationError`
        naming that entry.  The stored context, ``async_mode`` included,
        is the restored run's configuration.
        """
        document = load_session_checkpoint(path)
        context = ExecutionContext.from_dict(document["context"])
        blob = decode_state_blob(document["state_blob"])
        if not isinstance(blob, dict) \
                or not {"algorithm", "rng", "loop"} <= blob.keys():
            raise ValidationError(
                "checkpoint state blob lacks the algorithm, RNG or loop state"
            )
        algorithm, rng, loop = blob["algorithm"], blob["rng"], blob["loop"]
        if not isinstance(algorithm, SearchAlgorithm) \
                or algorithm.name != document["algorithm"]:
            raise ValidationError(
                "checkpoint state blob's 'algorithm' entry is not the "
                f"document's {document['algorithm']!r} search algorithm"
            )
        if not isinstance(rng, np.random.Generator):
            raise ValidationError(
                "checkpoint state blob's 'rng' entry is not a numpy Generator"
            )
        _check_loop_state(loop)
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
        budget = TrialBudget(document["budget"]["max_trials"])
        budget.used = float(document["budget"]["used"])
        session._budget = budget
        session._rng = rng
        session._state = loop
        if loop is not None:
            session._iteration = loop["iteration"]
        for entry in document["trials"]:
            session.result.add(trial_from_dict(entry))
        session.result.baseline_accuracy = document.get("baseline_accuracy")
        return session

    # ---------------------------------------------------------- search loop
    def _drive(self, state: dict) -> dict:
        """Run the search loop from ``state``; return the state to go on from.

        ``state`` is the serializable loop state: the iteration and stall
        counters, the admitted-but-unobserved ``queue`` of
        ``(task, charge)`` pairs (their budget charges are already
        consumed), proposals ``deferred`` by a fractional budget crumb,
        and whether the initial pipelines were already admitted.  The
        algorithm is already set up, and trials already in the result
        count as observed.  A barrier wave that comes back short was cut
        by a wall-clock budget; the run ends there.  On :meth:`stop` the
        returned state resumes the search exactly where it stopped;
        after a run that finished, it holds no work.
        """
        algorithm, budget, result, rng = \
            self.algorithm, self._budget, self.result, self._rng
        space = self.problem.space
        evaluator = self.problem.evaluator
        engine = evaluator.engine
        tracer = self.tracer
        barrier = not self.context.async_mode
        interruptible = budget.can_interrupt()

        iteration, stalled = state["iteration"], state["stalled"]
        #: proposals that could not be admitted yet (e.g. a fractional
        #: budget crumb only spendable once everything in flight drains);
        #: retried before the algorithm is asked again, so state the
        #: algorithm mutated while proposing (ASHA's promoted set) is
        #: never silently discarded.  Serial and barrier runs never defer.
        deferred: tuple | None = state["deferred"]

        #: admitted (task, key, charge) triples not yet handed to the
        #: engine (or, under a barrier, not yet observed); restored entries
        #: keep their original charges (consumed when first admitted)
        queue: deque = deque(
            (task, evaluator.cache_key(task.pipeline, task.fidelity), charge)
            for task, charge in state["queue"]
        )
        #: (PendingTask, key, charge) triples in submission order
        inflight: list = []
        #: cache keys of queued/in-flight work, so a parallel run never
        #: re-dispatches (or re-charges) a proposal that is already running;
        #: empty whenever a serial or barrier run proposes
        pending_keys: set = {key for _task, key, _charge in queue}

        def admit(proposals, pick_per_proposal: float,
                  admit_iteration: int) -> int:
            """Admit a proposal batch, clipped to what the budget has left.

            A batch of k proposals can never over-admit a count budget.  The
            one exception is the first proposal when only a fractional trial
            remains and no other work is anywhere — it still runs, charged
            only the remainder, so the search always makes progress.
            Duplicates *within* one batch are admitted and charged (the
            engine aliases their execution); only proposals that duplicate
            work still pending from an earlier batch are skipped, which
            never happens when nothing is pending at proposal time.
            """
            already_pending = frozenset(pending_keys)
            admitted_tasks: list[EvalTask] = []
            for item in proposals:
                pipeline, fidelity = algorithm._unpack_proposal(item)
                key = evaluator.cache_key(pipeline, fidelity)
                if key in already_pending:
                    continue  # identical work already queued or in flight
                if budget.exhausted():
                    break
                if budget.admits(fidelity):
                    charge = fidelity
                elif not admitted_tasks and not queue and not inflight:
                    # Fractional leftover smaller than one proposal and no
                    # other work anywhere: spend it rather than stalling.
                    charge = budget.admissible(fidelity)
                else:
                    break
                task = EvalTask(pipeline, fidelity=fidelity,
                                pick_time=pick_per_proposal,
                                iteration=admit_iteration)
                queue.append((task, key, charge))
                pending_keys.add(key)
                budget.consume(charge)
                admitted_tasks.append(task)
            if admitted_tasks:
                self._iteration = admit_iteration
                if self.on_batch is not None:
                    self.on_batch(self, admit_iteration, admitted_tasks)
            return len(admitted_tasks)

        def capture() -> dict:
            """Serializable snapshot of the loop, for a checkpoint.

            Work in flight is recorded as queued (charges intact): a resume
            re-dispatches it in submission order, which on the deterministic
            configurations (serial evaluation, one worker, barrier waves)
            reproduces the uninterrupted observation order exactly.
            """
            outstanding = [(entry[0].task, entry[2]) for entry in inflight]
            outstanding += [(task, charge) for task, _key, charge in queue]
            return {"iteration": iteration, "stalled": stalled,
                    "deferred": deferred, "queue": outstanding,
                    "initial_done": True}

        if not state["initial_done"]:
            admit(list(algorithm._initial_pipelines(space, rng)), 0.0, 0)

        paused = False
        try:
            while True:
                if barrier and queue:
                    # One wave: the whole admitted batch, observed in
                    # proposal order.  Each record leaves the queue only
                    # when observed, so a pause keeps the rest queued.
                    wave = [task for task, _key, _charge in queue]
                    records = evaluator.evaluate_tasks(wave, budget=budget)
                    for record in records:
                        pending_keys.discard(queue.popleft()[1])
                        paused = self._observe_trial(record, capture)
                        if paused:
                            break
                    if paused or len(records) < len(wave):
                        break  # short: the wall-clock budget cut the wave

                # Re-read capacity every cycle: an elastic backend (the
                # remote fleet) grows and shrinks as workers join and
                # leave, and the in-flight depth must track it.  Fixed
                # backends return a constant, so this changes nothing
                # for them.  A barrier run keeps nothing in flight.
                n_workers = 1 if barrier else engine.n_workers

                # Fill free worker slots from the admitted backlog.
                while queue and len(inflight) < n_workers:
                    task, key, charge = queue.popleft()
                    inflight.append(
                        (engine.submit_task(evaluator, task), key, charge)
                    )

                # Pick overlaps Prep/Train: propose as soon as a slot would
                # go idle, even while other evaluations are still in flight.
                if not queue and len(inflight) < n_workers \
                        and not budget.exhausted():
                    if deferred is not None:
                        proposals, pick_time, deferred_iteration = deferred
                        if admit(proposals, pick_time, deferred_iteration):
                            deferred = None
                            continue
                        # Still unadmittable: wait for more completions.
                    else:
                        iteration += 1
                        pick_wall = time.time() if tracer is not None else 0.0
                        pick_start = time.perf_counter()
                        algorithm._update(result.trials, space, rng)
                        proposals = list(
                            algorithm._propose_batch(space, rng, result.trials)
                        )
                        pick_time = time.perf_counter() - pick_start
                        if tracer is not None:
                            tracer.emit("propose", ts=pick_wall, dur=pick_time,
                                        algorithm=algorithm.name,
                                        iteration=iteration,
                                        proposals=len(proposals))
                        if not proposals and not inflight:
                            stalled += 1
                            if stalled >= 3:
                                # The algorithm has nothing left to propose
                                # (e.g. PNAS exhausted its beam): keep
                                # honouring the budget with random samples,
                                # as the paper's framework does.
                                proposals = [space.sample_pipeline(rng)]
                            else:
                                continue
                        # With work still in flight an empty proposal list is
                        # not a stall — the algorithm is waiting for results
                        # (e.g. a rung mid-flight); fall through and collect
                        # completions.
                        if proposals:
                            stalled = 0
                            pick_per = pick_time / len(proposals)
                            if admit(proposals, pick_per, iteration):
                                continue
                            if inflight:
                                # Nothing fit right now, but draining the
                                # in-flight work may free the fractional
                                # path: retry these proposals, don't re-ask.
                                deferred = (proposals, pick_per, iteration)

                if not inflight:
                    if queue:
                        continue
                    break

                # Observe completions in submission order among those done.
                ready = [entry for entry in inflight if entry[0].ready()]
                if not ready:
                    engine.wait_any([entry[0] for entry in inflight])
                    ready = [entry for entry in inflight if entry[0].ready()]
                for entry in ready:
                    inflight.remove(entry)
                    pending, key, _charge = entry
                    pending_keys.discard(key)
                    paused = self._observe_trial(
                        engine.resolve_task(evaluator, pending), capture)
                    if paused or (interruptible and budget.interrupted()):
                        break
                else:
                    continue
                break  # paused, or the wall-clock budget expired
        finally:
            self._drain(queue, inflight, pause=paused)
        return capture()

    def _observe_trial(self, record: TrialRecord, capture=None) -> bool:
        """Record one completion; True when the loop should pause.

        Feeds the record to the result and the algorithm, fires the
        per-trial events and services checkpoint requests and periodic
        checkpoints.  ``capture`` snapshots the loop state for a
        checkpoint; ``None`` means the loop is draining, so a checkpoint
        due now is deferred to the post-run snapshot rather than taken of
        a loop mid-teardown.
        """
        self.result.add(record)
        self.algorithm._observe(record)
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
            self._checkpoint_request = path  # draining: write after the run
        elif path is not None:
            self._write_checkpoint(path, capture())
        return capture is not None and self._stop_request

    def _drain(self, queue: deque, inflight: list, *, pause: bool) -> None:
        """Empty the loop's in-flight work as it pauses or ends.

        Cancels every in-flight task that has not started, then resolves
        and observes the started ones like any other completion.  A pause
        puts the cancelled tasks back at the head of the queue with their
        charges (the serialized queue still owns them).  Any other end —
        a finished run, a wall-clock interruption, an error — refunds them
        and the queue, so ``budget.used`` reflects exactly the work that
        ran.  After a run that finished there is nothing to drain.
        """
        evaluator = self.problem.evaluator
        engine = evaluator.engine
        cancelled, started = [], []
        for pending, key, charge in inflight:
            if engine.cancel_task(evaluator, pending):
                cancelled.append((pending.task, key, charge))
            else:
                started.append(pending)
        inflight.clear()
        for pending in started:
            self._observe_trial(engine.resolve_task(evaluator, pending))
        if pause:
            queue.extendleft(reversed(cancelled))
            return
        refunds = [*queue, *cancelled]
        queue.clear()
        for _task, _key, charge in refunds:
            self._budget.consume(-charge)
        if refunds:
            # Labelled per session: an unlabelled series would show up in
            # every session's metrics_snapshot().
            get_registry().counter("budget.refunded_trials",
                                   session=self.session_id).inc(len(refunds))
            log.debug("refunded %d admitted-but-undispatched task(s)",
                      len(refunds))

    # ------------------------------------------------------------ telemetry
    def metrics_snapshot(self) -> dict:
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
            for name, value in evaluator.counters().items():
                snapshot[f"evaluator.{name}"] = value
            if evaluator.prefix_cache is not None:
                for name, value in evaluator.prefix_cache.counters().items():
                    snapshot[f"prefix.{name}"] = value
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

    def _write_heartbeat(self, snapshot: dict) -> None:
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
            "metrics": snapshot,
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
        # The RNG rides in the SAME pickle as the algorithm: some
        # algorithms capture the session generator in _setup (Anneal's
        # acceptance draws interleave with the propose draws on one
        # stream), and pickling them together preserves that object
        # identity — two separate restores would fork the stream and
        # break bit-for-bit resume.  The loop state holds the queued
        # tasks and deferred proposals, which are pipelines too.  State
        # that will not pickle fails here, before the file is touched.
        try:
            state_blob = encode_state_blob({
                "algorithm": self.algorithm,
                "rng": self._rng,
                "loop": state,
            })
        except (pickle.PicklingError, AttributeError, TypeError) as error:
            raise ValidationError(
                f"cannot checkpoint: the state of the {self.algorithm.name!r} "
                f"search algorithm does not pickle ({error})"
            ) from error
        problem = self.problem
        document = {
            "algorithm": self.algorithm.name,
            "session_id": self.session_id,
            "context": self.context.to_dict(),
            "problem": {
                "name": problem.name,
                "fingerprint": problem.evaluator.fingerprint(),
                "provenance": getattr(problem, "provenance", None),
            },
            "budget": {"max_trials": budget.max_trials, "used": budget.used},
            "baseline_accuracy": self.result.baseline_accuracy,
            "trials": [trial_to_dict(trial) for trial in self.result.trials],
            "state_blob": state_blob,
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
                f"trials={len(self.result)})")
