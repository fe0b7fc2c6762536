"""The one search loop: Algorithm 1 of the paper, in two schedules.

:meth:`AsyncSearchDriver.drive` runs every search.  It admits the
algorithm's proposals against the budget, dispatches them, feeds each
:class:`~repro.core.result.TrialRecord` back through the algorithm's
``_observe`` hook, and asks for new proposals (``_update`` +
``_propose_batch``) when work runs out.  Two schedules share that loop:

* **barrier** (``driver="sync"``) — every admitted proposal batch runs as
  one *wave* through ``evaluator.evaluate_tasks`` (the engine's batch
  path), and its records are observed in proposal order before the
  algorithm is asked again;
* **completion-driven** (``driver="async"``) — up to the engine's
  ``n_workers`` evaluations stay in flight (the engine is the one place
  that sets dispatch depth), every completion is observed the moment it
  lands, and Pick overlaps Prep/Train: the algorithm proposes as soon as a
  worker slot frees — the scheduling model of asynchronous successive
  halving (Li et al., ASHA) generalised to every algorithm of the
  registry.

Determinism contract:

* On the serial backend both schedules are **bit-for-bit identical**:
  with one in-flight slot, a proposal batch drains completely — each
  task evaluated and observed in proposal order — before the next
  ``_update`` / ``_propose_batch`` call, which is exactly the barrier's
  hook sequence, RNG consumption and budget arithmetic.
* On process/remote backends, completion-driven results are reproducible
  given the same completion order (completions are always *observed* in
  submission order among those currently done); algorithms whose
  proposals depend only on completed trials — ASHA by construction —
  additionally keep every worker saturated.  Barrier runs under a trial
  budget match the serial run on every backend.

Budget semantics: admission (``budget.admits`` / fractional
``admissible``) clips every batch to what the budget has left.  A
wall-clock budget is consulted after every observed completion, or
between dispatch chunks of a wave; the search stops within one completion
(one chunk) of expiry, and the admitted-but-never-dispatched backlog is
cancelled and refunded.

The loop starts from an explicit *loop state* (iteration counter, stall
counter, the admitted-but-unobserved queue, deferred proposals) and hands
the state back when a :class:`~repro.search.session.SearchSession` asks
it to pause — which is what makes every run checkpointable and
resumable.  Every search reaches the loop through a session
(``SearchAlgorithm.search`` builds one).
"""

from __future__ import annotations

import time
from collections import deque

from repro.core.budget import Budget
from repro.core.result import SearchResult
from repro.engine.tasks import EvalTask
from repro.telemetry.metrics import get_registry
from repro.utils.log import get_logger

log = get_logger("search.async_driver")


def fresh_loop_state() -> dict:
    """Loop state of a run that has not admitted anything yet."""
    return {"iteration": 0, "stalled": 0, "deferred": None, "queue": [],
            "initial_done": False}


class AsyncSearchDriver:
    """Run a :class:`~repro.search.base.SearchAlgorithm` through the loop.

    Parameters
    ----------
    algorithm:
        The search algorithm whose hooks (``_setup``, ``_initial_pipelines``,
        ``_update``, ``_propose_batch``, ``_observe``) the driver calls.

    The completion-driven schedule keeps as many evaluations in flight as
    the problem evaluator's execution engine has workers (1 on the serial
    backend).
    """

    def __init__(self, algorithm) -> None:
        self.algorithm = algorithm

    # ----------------------------------------------------------------- API
    def drive(self, problem, budget: Budget, result: SearchResult, rng,
              state: dict, *, control=None, barrier: bool = False) -> dict:
        """Run the search loop from ``state``; return the state to go on from.

        ``state`` is the serializable loop state (see
        :func:`fresh_loop_state`): the iteration and stall counters, the
        admitted-but-unobserved ``queue`` of ``(task, charge)`` pairs
        (their budget charges are already consumed), proposals ``deferred``
        by a fractional budget crumb, and whether the initial pipelines
        were already admitted.  ``_setup`` must have been called by the
        caller; trials already in ``result`` are treated as observed.

        ``barrier`` selects the synchronous schedule (see the module
        docstring): each admitted batch runs as one wave through
        ``evaluator.evaluate_tasks``.  A wave that comes back short was cut
        by a wall-clock budget; the run ends there and the undispatched
        tail is refunded.

        ``control`` (a :class:`~repro.search.session.SearchSession`) gets
        two hooks: ``_driver_admitted(iteration, tasks)`` after each
        proposal-batch admission and ``_driver_observed(record, capture)``
        after each observed completion — ``capture`` is a zero-argument
        closure snapshotting the current loop state for a checkpoint, and
        a True return pauses the run.  Its ``session_id`` labels the
        refund counter, and its ``tracer`` receives the ``propose`` spans.
        On pause the unobserved rest of a wave and the still-cancellable
        in-flight work stay queued (charges intact), anything a worker
        already started is drained and observed, and the returned state
        resumes the search exactly where it stopped.  After a run that
        finished, the returned state holds no work.
        """
        algorithm = self.algorithm
        space = problem.space
        evaluator = problem.evaluator
        tracer = getattr(control if control is not None else evaluator,
                         "tracer", None)

        engine = evaluator.engine
        interruptible = budget.can_interrupt()

        iteration = int(state.get("iteration", 0))
        stalled = int(state.get("stalled", 0))
        #: proposals that could not be admitted yet (e.g. a fractional
        #: budget crumb only spendable once everything in flight drains);
        #: retried before the algorithm is asked again, so state the
        #: algorithm mutated while proposing (ASHA's promoted set) is
        #: never silently discarded.  Serial and barrier runs never defer.
        deferred: tuple | None = state.get("deferred")
        initial_done = bool(state.get("initial_done", False))

        #: admitted (task, key, charge) triples not yet handed to the
        #: engine (or, under a barrier, not yet observed); restored entries
        #: keep their original charges (consumed when first admitted)
        queue: deque = deque(
            (task, evaluator.cache_key(task.pipeline, task.fidelity), charge)
            for task, charge in state.get("queue", ())
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
            if admitted_tasks and control is not None:
                control._driver_admitted(admit_iteration, admitted_tasks)
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

        def observe(record) -> bool:
            """Record one completion; True when the control asks to pause."""
            result.add(record)
            algorithm._observe(record)
            return control is not None \
                and control._driver_observed(record, capture)

        if not initial_done:
            admit(list(algorithm._initial_pipelines(space, rng)), 0.0, 0)

        interrupted = False
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
                        if observe(record):
                            paused = True
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
                    if observe(engine.resolve_task(evaluator, pending)):
                        paused = True
                        break
                    if interruptible and budget.interrupted():
                        interrupted = True
                        break
                if interrupted or paused:
                    break

            if paused:
                return self._pause(engine, evaluator, result, control,
                                   queue, inflight, capture)
        finally:
            self._wind_down(engine, evaluator, budget, result, control,
                            queue, inflight)
        return capture()

    # ------------------------------------------------------------ internals
    def _pause(self, engine, evaluator, result, control, queue, inflight,
               capture) -> dict:
        """Suspend the loop, folding outstanding work back into the queue.

        In-flight evaluations that never started are cancelled and re-queued
        with their original charges (nothing is refunded: the serialized
        queue still owns those charges); evaluations a worker already
        started are drained and observed like any other completion.  The
        returned loop state resumes the search exactly where it stopped.
        """
        algorithm = self.algorithm
        drained: list = []
        requeue: list = []
        for pending, key, charge in inflight:
            if engine.cancel_task(evaluator, pending):
                requeue.append((pending.task, key, charge))
            else:
                drained.append((pending, key, charge))
        inflight.clear()
        for task, key, charge in reversed(requeue):
            queue.appendleft((task, key, charge))
        for pending, _key, _charge in drained:
            record = engine.resolve_task(evaluator, pending)
            result.add(record)
            algorithm._observe(record)
            if control is not None:
                control._driver_observed(record, None)
        state = capture()
        queue.clear()
        return state

    def _wind_down(self, engine, evaluator, budget, result, control, queue,
                   inflight) -> None:
        """Refund never-dispatched work; drain what is already running.

        On a normal (or paused) exit both collections are empty and this is
        a no-op.  After a wall-clock interruption (or an error) the admitted
        backlog is cancelled and refunded — ``budget.used`` then reflects
        exactly the work that ran — while evaluations a worker already
        started are allowed to finish and are observed like any other
        completion, the control's ``_driver_observed`` included (with no
        ``capture``, as in :meth:`_pause`).
        """
        algorithm = self.algorithm
        refunded = 0
        while queue:
            _task, _key, charge = queue.popleft()
            budget.consume(-charge)
            refunded += 1
        for pending, _key, charge in inflight:
            if engine.cancel_task(evaluator, pending):
                budget.consume(-charge)
                refunded += 1
            else:
                record = engine.resolve_task(evaluator, pending)
                result.add(record)
                algorithm._observe(record)
                if control is not None:
                    control._driver_observed(record, None)
        inflight.clear()
        if refunded:
            # Labelled per session: an unlabelled series would show up in
            # every session's metrics_snapshot().
            labels = {} if control is None else {"session": control.session_id}
            get_registry().counter("budget.refunded_trials",
                                   **labels).inc(refunded)
            log.debug("refunded %d admitted-but-undispatched task(s)",
                      refunded)

    def __repr__(self) -> str:
        return f"AsyncSearchDriver({self.algorithm!r})"
