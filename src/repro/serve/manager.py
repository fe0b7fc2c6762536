"""The multi-tenant session manager behind ``repro serve``.

:class:`SessionManager` is the piece that turns the search substrate into
a *service*: it owns the shared execution resources (one engine, one
persistent eval-cache root, one state directory) and runs many concurrent
:class:`~repro.search.session.SearchSession` runs over them, each on its
own worker thread.  Everything the HTTP layer (:mod:`repro.serve.http`)
exposes is a thin JSON view over this class, so the manager is fully
usable — and testable — without a socket.

Responsibilities:

* **admission** — per-tenant :class:`~repro.core.budget.TrialBudget`
  quotas checked through the budget protocol's ``admits()`` at submit
  time (a tenant over quota is refused with
  :class:`AdmissionError`), plus a ``max_sessions`` cap on concurrently
  *running* sessions: excess submissions queue and start as slots free
  up under weighted fair scheduling (:class:`_FairScheduler`) — each
  tenant's queue drains in submission order, but *which* tenant gets the
  next free slot is the one with the smallest virtual finish time, so a
  tenant flooding the queue cannot starve the others.  Cancelling a
  session refunds its unused trial remainder to the tenant's quota,
  mirroring the engine's budget-refund semantics.
* **lifecycle** — submit / pause / resume / cancel / checkpoint, all at
  trial boundaries via the session's own machinery.  Trial, batch and
  checkpoint callbacks append to a per-session event log that
  :meth:`events` serves with long-poll semantics.
* **durability** — every session periodically checkpoints into its own
  directory under ``state_dir`` and records a small ``session.json``
  manifest.  A new manager pointed at the same ``state_dir``
  (:meth:`recover`, called on construction) resumes every in-flight
  session from its checkpoint — bit-for-bit identical to a run that was
  never interrupted — while sessions a user explicitly paused stay
  paused.
* **observability** — :meth:`metrics` merges the process registry with
  each live session's per-session heartbeat (the PR 6 telemetry feeds);
  :meth:`healthz` is the liveness summary a load balancer polls.

Sessions share one engine: the per-session context's ``backend``/``n_jobs``
are owned by the server, and the manager attaches its shared engine to
every evaluator in place of the serial engine the session context builds.
The substrate fixes that make this safe — per-session heartbeat files,
session-labelled registry series, fingerprint-keyed evaluation pools —
live in :mod:`repro.search.session`, :mod:`repro.telemetry.metrics` and
:mod:`repro.engine.backends`.
"""

from __future__ import annotations

import json
import math
import tempfile
import threading
import time
import uuid
from pathlib import Path

from repro.core.budget import TrialBudget
from repro.core.context import ExecutionContext, convert_field
from repro.exceptions import ReproError, ValidationError
from repro.io.serialization import atomic_write_text
from repro.telemetry import heartbeat_file_name
from repro.telemetry.metrics import get_registry
from repro.utils.log import get_logger

log = get_logger("serve.manager")


class AdmissionError(ReproError):
    """Raised when a submission exceeds its tenant's trial quota."""


class UnknownSessionError(ReproError, KeyError):
    """Raised when a session id is not known to this manager."""

    def __str__(self) -> str:  # KeyError quotes its message otherwise
        return self.args[0] if self.args else ""


#: session states.  queued -> running -> {done, paused, cancelled, failed};
#: "interrupted" is what a server shutdown leaves behind in the manifest —
#: recovery treats it (and "running"/"queued") as in-flight and resumes it,
#: while an explicit user "paused" stays paused until asked.
SESSION_STATES: tuple[str, ...] = (
    "queued", "running", "paused", "interrupted", "done", "failed",
    "cancelled",
)

#: states with no further work to do
TERMINAL_STATES: frozenset = frozenset({"done", "failed", "cancelled"})

#: the ExecutionContext fields a *submission* may override.  Execution
#: resources (backend, n_jobs, cache_dir, telemetry_dir) belong to the
#: server: one shared engine and one shared cache root is the whole point.
SUBMIT_CONTEXT_FIELDS: tuple[str, ...] = (
    "prefix_cache_bytes", "async_mode", "telemetry_mode",
)

#: manifest file name inside each session's state directory
MANIFEST_FILE_NAME = "session.json"

#: checkpoint file name inside each session's state directory
CHECKPOINT_FILE_NAME = "checkpoint.json"


def normalize_spec(payload) -> dict:
    """Validate and default a submission payload into a canonical spec.

    Required: ``dataset`` (registry name).  Optional: ``model`` (default
    ``"lr"``), ``algorithm`` (default ``"rs"``), ``max_trials`` (default
    20), ``seed``, ``scale``, ``tenant`` and a partial ``context`` dict of
    :data:`SUBMIT_CONTEXT_FIELDS`.  Unknown keys are refused — a typo'd
    field must not silently run with defaults.
    """
    if not isinstance(payload, dict):
        raise ValidationError(
            f"a submission must be a JSON object, got {type(payload).__name__}"
        )
    known = {"dataset", "model", "algorithm", "max_trials", "seed", "scale",
             "tenant", "context"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValidationError(
            f"unknown submission field(s) {unknown}; known fields: "
            f"{sorted(known)}"
        )
    dataset = payload.get("dataset")
    if not dataset or not isinstance(dataset, str):
        raise ValidationError("a submission needs a registry dataset name "
                              "under 'dataset'")
    max_trials = convert_field(
        "max_trials", payload.get("max_trials", 20), int)
    if max_trials < 1:
        raise ValidationError(f"max_trials must be at least 1, got {max_trials}")
    context = payload.get("context") or {}
    if not isinstance(context, dict):
        raise ValidationError("'context' must be an object of "
                              "ExecutionContext fields")
    refused = sorted(set(context) - set(SUBMIT_CONTEXT_FIELDS))
    if refused:
        raise ValidationError(
            f"submission context may not set {refused}: execution resources "
            f"(backend, workers, cache and telemetry roots) are owned by "
            f"the server; settable fields: {sorted(SUBMIT_CONTEXT_FIELDS)}"
        )
    return {
        "dataset": dataset,
        "model": str(payload.get("model", "lr")),
        "algorithm": str(payload.get("algorithm", "rs")),
        "max_trials": max_trials,
        "seed": convert_field("seed", payload.get("seed", 0), int),
        "scale": convert_field("scale", payload.get("scale", 1.0), float),
        "tenant": str(payload.get("tenant", "default")),
        "context": dict(context),
    }


class ManagedSession:
    """One submitted search and everything the manager knows about it."""

    def __init__(self, session_id: str, spec: dict, *, directory: Path) -> None:
        self.session_id = session_id
        self.spec = spec
        self.directory = directory
        self.status = "queued"
        self.session = None        # the SearchSession, once built
        self.thread = None
        self.error: str | None = None
        self.events: list = []     # event dicts with monotonically rising seq
        self.result_summary: dict | None = None
        self.created = time.time()
        self.updated = self.created
        #: True when the next start must restore from the checkpoint file
        self.resume_from_checkpoint = False

    @property
    def checkpoint_path(self) -> Path:
        return self.directory / CHECKPOINT_FILE_NAME

    @property
    def telemetry_dir(self) -> Path:
        return self.directory / "telemetry"

    def describe(self) -> dict:
        """The JSON-shaped status view served by the HTTP layer."""
        trials = None
        best = None
        if self.session is not None:
            trials = len(self.session.result)
            best = (self.session.result.best_accuracy if trials else None)
        elif self.result_summary is not None:
            trials = self.result_summary.get("trials")
            best = self.result_summary.get("best_accuracy")
        return {
            "session_id": self.session_id,
            "status": self.status,
            "spec": dict(self.spec),
            "trials": trials,
            "best_accuracy": best,
            "events": len(self.events),
            "error": self.error,
            "created": self.created,
            "updated": self.updated,
            "result": self.result_summary,
        }


class _FairScheduler:
    """Weighted fair queueing over tenants for free session slots.

    Fair queueing on a virtual clock: tenant ``t`` with weight ``w``
    starting a session of cost ``c`` (its ``max_trials``) is stamped
    with a virtual start tag ``max(V, vft(t))`` and finish tag
    ``start + c / w``, and whenever a slot frees up the earliest-queued
    session of the tenant with the *smallest* finish tag starts.  Finish
    ties go to the smaller start tag — the tenant that has effectively
    waited longer — and only then to the earlier submission; without the
    start-tag tie-break, equal-cost backlogged tenants tie on every pick
    and insertion order alone would starve the later one.  ``V``
    advances to the start tag of each started session, so an idle tenant
    cannot bank unbounded credit.  Heavier weights mean proportionally
    more of the slots; a tenant that floods the queue only raises its
    own finish tags and cannot starve a light tenant, whose single
    queued session keeps the smallest stamp.

    Purely deterministic — no wall clock, no randomness — so a given
    submission sequence always starts in the same order.  Not
    thread-safe: the manager calls it with its lock held.
    """

    __slots__ = ("weights", "virtual_time", "finish_times")

    def __init__(self, weights=None) -> None:
        validated: dict = {}
        for tenant, weight in dict(weights or {}).items():
            weight = float(weight)
            # NaN or inf would make a finish tag no other tenant's beats
            if not 0 < weight < math.inf:
                raise ValidationError(
                    f"tenant weights must be finite and > 0, got "
                    f"{weight:g} for tenant {str(tenant)!r}"
                )
            validated[str(tenant)] = weight
        self.weights = validated
        self.virtual_time = 0.0
        self.finish_times: dict = {}  # tenant -> last virtual finish time

    def weight(self, tenant: str) -> float:
        return self.weights.get(tenant, 1.0)

    def take(self, queued) -> "ManagedSession | None":
        """Pick (and charge for) the next session to start.

        ``queued`` is the queued sessions in submission order; only the
        first session of each tenant is eligible, so a tenant's own queue
        stays FIFO.
        """
        heads: dict = {}
        for record in queued:
            heads.setdefault(record.spec["tenant"], record)
        choice = None
        choice_start = choice_finish = 0.0
        for tenant, record in heads.items():
            start = max(self.virtual_time, self.finish_times.get(tenant, 0.0))
            finish = start + record.spec["max_trials"] / self.weight(tenant)
            # strict <: insertion order of `heads` is submission order, so
            # full ties keep the earliest-submitted head.  Finish ties
            # break on the smaller start tag first (the longer-waiting
            # tenant), or equal-cost floods would win every tie forever.
            if choice is None or (finish, start) < (choice_finish,
                                                    choice_start):
                choice, choice_start, choice_finish = record, start, finish
        if choice is not None:
            self.finish_times[choice.spec["tenant"]] = choice_finish
            self.virtual_time = choice_start
        return choice


class SessionManager:
    """Run many concurrent search sessions over shared execution resources.

    Parameters
    ----------
    base_context:
        The server's :class:`~repro.core.context.ExecutionContext`: its
        ``backend``/``n_jobs`` build the one shared engine, its
        ``cache_dir`` is the shared persistent eval-cache root.  Tenant
        submissions may only layer :data:`SUBMIT_CONTEXT_FIELDS` on top.
    state_dir:
        Root directory for per-session state (checkpoints, manifests,
        telemetry).  A new manager pointed at an existing state dir
        recovers every in-flight session.  Defaults to a fresh temp dir
        (no cross-restart durability).
    max_sessions:
        Concurrently *running* sessions; excess submissions queue and
        start under weighted fair scheduling (see :class:`_FairScheduler`).
    tenant_quota:
        Per-tenant trial quota enforced through ``TrialBudget.admits()``
        at submission time; ``None`` disables per-tenant admission.
    checkpoint_every:
        Trials between automatic checkpoints for every managed session —
        the restart-resume granularity.
    tenant_weights:
        Fair-share weights for queued-session scheduling, e.g.
        ``{"paid": 4.0}``; unlisted tenants weigh 1.  ``None`` means
        every tenant weighs the same (which is still fair scheduling,
        not FIFO: one tenant's backlog cannot starve another's).
    """

    def __init__(self, *, base_context: ExecutionContext | None = None,
                 state_dir=None, max_sessions: int = 2,
                 tenant_quota: int | None = None,
                 checkpoint_every: int = 5,
                 tenant_weights: dict | None = None) -> None:
        max_sessions = int(max_sessions)
        if max_sessions < 1:
            raise ValidationError(
                f"max_sessions must be at least 1, got {max_sessions}"
            )
        checkpoint_every = int(checkpoint_every)
        if checkpoint_every < 1:
            raise ValidationError(
                f"checkpoint_every must be at least 1, got {checkpoint_every}"
            )
        if tenant_quota is not None:
            tenant_quota = int(tenant_quota)
            if tenant_quota < 1:
                raise ValidationError(
                    f"tenant_quota must be at least 1, got {tenant_quota}"
                )
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self.base_context = base_context if base_context is not None \
            else ExecutionContext()
        self.state_dir = Path(state_dir) if state_dir is not None \
            else Path(tempfile.mkdtemp(prefix="repro-serve-"))
        self.max_sessions = max_sessions
        self.tenant_quota = tenant_quota
        self.checkpoint_every = checkpoint_every
        self._scheduler = _FairScheduler(tenant_weights)
        self.tenant_weights = dict(self._scheduler.weights)
        #: the one engine every session's evaluator shares
        self.engine = self.base_context.build_engine()
        self.started = time.time()
        self._sessions: "dict[str, ManagedSession]" = {}
        self._tenant_budgets: "dict[str, TrialBudget]" = {}
        self._closed = False
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.recover()

    # ------------------------------------------------------------ admission
    def submit(self, payload) -> str:
        """Admit one search submission; returns its session id.

        Raises :class:`~repro.exceptions.ValidationError` on a malformed
        spec and :class:`AdmissionError` when the tenant's quota cannot
        admit ``max_trials`` more trials.
        """
        spec = normalize_spec(payload)
        # Validate names eagerly so a bad submission fails at submit time,
        # not minutes later on a worker thread.
        from repro.datasets import get_dataset_info
        from repro.search import make_search_algorithm

        get_dataset_info(spec["dataset"])
        make_search_algorithm(spec["algorithm"], random_state=spec["seed"])
        self.base_context.layer(spec["context"])  # field validation only
        with self._lock:
            if self._closed:
                raise ValidationError("this SessionManager is shut down")
            budget = self._tenant_budget_locked(spec["tenant"])
            if budget is not None and not budget.admits(spec["max_trials"]):
                raise AdmissionError(
                    f"tenant {spec['tenant']!r} quota exhausted: "
                    f"{budget.remaining():g} of {self.tenant_quota} trial(s) "
                    f"left, submission asks for {spec['max_trials']}"
                )
            if budget is not None:
                budget.consume(spec["max_trials"])
            session_id = f"{spec['dataset']}-{spec['algorithm']}-" \
                         f"{uuid.uuid4().hex[:8]}"
            record = ManagedSession(session_id, spec,
                                    directory=self.state_dir / session_id)
            record.directory.mkdir(parents=True, exist_ok=True)
            self._sessions[session_id] = record
            self._save_manifest(record)
            self._maybe_start_locked()
        log.info("submitted %s (tenant=%s, %d trials)",
                 session_id, spec["tenant"], spec["max_trials"])
        return session_id

    def _tenant_budget_locked(self, tenant: str) -> TrialBudget | None:
        if self.tenant_quota is None:
            return None
        budget = self._tenant_budgets.get(tenant)
        if budget is None:
            budget = self._tenant_budgets.setdefault(
                tenant, TrialBudget(self.tenant_quota)
            )
        return budget

    def _refund_tenant_locked(self, record: ManagedSession) -> None:
        """Return a cancelled session's unused trial remainder to its tenant."""
        budget = self._tenant_budgets.get(record.spec["tenant"])
        if budget is None:
            return
        used = len(record.session.result) if record.session is not None else 0
        remainder = max(0, record.spec["max_trials"] - used)
        if remainder:
            budget.consume(-float(remainder))

    # ------------------------------------------------------------ lifecycle
    def _maybe_start_locked(self) -> None:
        """Start queued sessions while running slots are free (lock held).

        Slot assignment is weighted-fair across tenants, not FIFO: the
        scheduler picks the tenant with the smallest virtual finish time
        and starts that tenant's earliest-queued session.
        """
        if self._closed:
            return
        running = sum(1 for r in self._sessions.values()
                      if r.status == "running")
        while running < self.max_sessions:
            queued = [r for r in self._sessions.values()
                      if r.status == "queued"]
            record = self._scheduler.take(queued)
            if record is None:
                break
            record.status = "running"
            record.updated = time.time()
            self._save_manifest(record)
            record.thread = threading.Thread(
                target=self._run_session, args=(record,),
                name=f"repro-serve-{record.session_id}", daemon=True,
            )
            record.thread.start()
            running += 1

    def _session_context(self, record: ManagedSession) -> ExecutionContext:
        """The per-session context: server base + tenant overrides.

        Execution resources stay with the server: the context the session
        runs (and checkpoints) under never builds a parallel engine
        (``backend``/``n_jobs`` cleared), telemetry always lands in the
        session's own directory, and the shared ``cache_dir`` rides along
        so every session warms the same persistent eval cache.
        """
        context = self.base_context.layer(record.spec["context"])
        overrides = {
            "backend": None,
            "n_jobs": None,
            "telemetry_dir": str(record.telemetry_dir),
        }
        if context.telemetry_mode == "off":
            # Heartbeats and metrics snapshots are the service's
            # observability contract; "counters" is the cheapest mode that
            # provides them.
            overrides["telemetry_mode"] = "counters"
        return context.replace(**overrides)

    def _build_session(self, record: ManagedSession):
        from repro.core.problem import AutoFPProblem
        from repro.search import make_search_algorithm
        from repro.search.session import SearchSession

        spec = record.spec
        callbacks = {
            "on_trial": lambda session, trial: self._on_trial(record, session,
                                                              trial),
            "on_checkpoint": lambda session, path: self._on_checkpoint(
                record, path),
        }
        record.telemetry_dir.mkdir(parents=True, exist_ok=True)
        if record.resume_from_checkpoint and record.checkpoint_path.exists():
            session = SearchSession.resume(
                record.checkpoint_path,
                checkpoint_path=record.checkpoint_path,
                checkpoint_every=self.checkpoint_every,
                **callbacks,
            )
        else:
            context = self._session_context(record)
            problem = AutoFPProblem.from_registry(
                spec["dataset"], spec["model"], scale=spec["scale"],
                random_state=spec["seed"], context=context,
            )
            algorithm = make_search_algorithm(spec["algorithm"],
                                              random_state=spec["seed"])
            session = SearchSession(
                problem, algorithm, context=context,
                session_id=record.session_id,
                checkpoint_path=record.checkpoint_path,
                checkpoint_every=self.checkpoint_every,
                **callbacks,
            )
        record.resume_from_checkpoint = False
        # The shared engine: fingerprint-keyed evaluation pools keep
        # sessions from thrashing each other's warm workers.
        session.problem.evaluator.set_engine(self.engine)
        return session

    def _run_session(self, record: ManagedSession) -> None:
        """Worker-thread body: build (or restore) the session and drive it."""
        session = None
        try:
            with self._lock:
                session = record.session
            if session is None:
                session = self._build_session(record)
                with self._lock:
                    record.session = session
            with self._lock:
                # pause/cancel/shutdown may have landed while the session
                # was being built; honor it instead of starting the run.
                proceed = record.status == "running"
            if proceed:
                result = session.run(max_trials=record.spec["max_trials"])
            else:
                result = session.result
            summary = {
                "trials": len(result),
                "best_accuracy": result.best_accuracy if len(result) else None,
                "best_pipeline": (result.best_pipeline.describe()
                                  if len(result) else None),
                "accuracies": [trial.accuracy for trial in result.trials],
            }
            with self._lock:
                record.result_summary = summary
                if record.status == "cancelled":
                    self._refund_tenant_locked(record)
                elif record.status in ("paused", "interrupted"):
                    # explicit pause / server shutdown: keep that status
                    pass
                elif session.stopped:
                    record.status = "paused"
                else:
                    record.status = "done"
        except Exception as error:
            # A tenant's search must never take the server down; the
            # failure is recorded on the session and served back.
            log.warning("session %s failed: %s", record.session_id, error)
            with self._lock:
                record.error = f"{type(error).__name__}: {error}"
                record.status = "failed"
                self._refund_tenant_locked(record)
        finally:
            with self._lock:
                record.updated = time.time()
                self._save_manifest(record)
                self._emit_locked(record, {"kind": "status",
                                           "status": record.status})
                self._maybe_start_locked()
        if record.status == "paused" and session is not None:
            # At rest now: persist the paused state so a server restart (or
            # an explicit resume on another manager) continues from here.
            try:
                session.checkpoint(record.checkpoint_path)
            except ReproError as error:
                log.warning("post-pause checkpoint of %s failed: %s",
                            record.session_id, error)

    # -------------------------------------------------------------- control
    def pause(self, session_id: str) -> dict:
        """Stop a session after its current trial, keeping it resumable."""
        with self._lock:
            record = self._get_locked(session_id)
            if record.status == "queued":
                record.status = "paused"
                record.updated = time.time()
                self._save_manifest(record)
                self._emit_locked(record, {"kind": "status",
                                           "status": "paused"})
            elif record.status == "running":
                record.status = "paused"
                record.updated = time.time()
                if record.session is not None:
                    record.session.stop()
                self._save_manifest(record)
            elif record.status not in ("paused", "interrupted"):
                raise ValidationError(
                    f"session {session_id} is {record.status} and cannot "
                    f"be paused"
                )
            return record.describe()

    def resume(self, session_id: str) -> dict:
        """Queue a paused/interrupted session to continue running."""
        with self._lock:
            record = self._get_locked(session_id)
            if record.status in ("running", "queued"):
                return record.describe()
            if record.status not in ("paused", "interrupted"):
                raise ValidationError(
                    f"session {session_id} is {record.status} and cannot "
                    f"be resumed"
                )
            if record.session is None and record.checkpoint_path.exists():
                record.resume_from_checkpoint = True
            record.status = "queued"
            record.updated = time.time()
            self._save_manifest(record)
            self._maybe_start_locked()
            return record.describe()

    def cancel(self, session_id: str) -> dict:
        """Cancel a session; its unused trial quota returns to the tenant."""
        with self._lock:
            record = self._get_locked(session_id)
            if record.status in TERMINAL_STATES:
                return record.describe()
            was_running = record.status == "running"
            record.status = "cancelled"
            record.updated = time.time()
            if was_running:
                # The worker thread observes the status when run() returns
                # and refunds the remainder then, at a trial boundary (if
                # the session is still being built, the worker sees the
                # cancel before starting the run).
                if record.session is not None:
                    record.session.stop()
            else:
                self._refund_tenant_locked(record)
                self._save_manifest(record)
                self._emit_locked(record, {"kind": "status",
                                           "status": "cancelled"})
                self._maybe_start_locked()
            return record.describe()

    def checkpoint(self, session_id: str) -> dict:
        """Request a checkpoint of a session (written at a trial boundary)."""
        with self._lock:
            record = self._get_locked(session_id)
            session = record.session
            if session is None:
                raise ValidationError(
                    f"session {session_id} has not started; nothing to "
                    f"checkpoint"
                )
        # Outside the lock: a checkpoint of an idle session writes (and
        # fires on_checkpoint, which needs the lock) right here.
        path = session.checkpoint(record.checkpoint_path)
        return {"session_id": session_id, "checkpoint": str(path)}

    # ---------------------------------------------------------------- views
    def _get_locked(self, session_id: str) -> ManagedSession:
        record = self._sessions.get(session_id)
        if record is None:
            raise UnknownSessionError(f"unknown session {session_id!r}")
        return record

    def sessions(self) -> list:
        """Status summaries of every known session, oldest first."""
        with self._lock:
            return [record.describe() for record in self._sessions.values()]

    def status(self, session_id: str) -> dict:
        with self._lock:
            return self._get_locked(session_id).describe()

    def events(self, session_id: str, *, after: int = 0,
               timeout: float | None = None) -> dict:
        """Events past sequence number ``after`` (long-poll).

        Returns ``{"events": [...], "next": n, "status": ...}``; with a
        ``timeout`` the call blocks until new events arrive, the session
        reaches a terminal state, or the timeout elapses — the primitive
        the HTTP layer turns into chunked live streaming.  An ``after``
        that is not an integer, or a timeout that is not a finite number
        of seconds, raises :class:`ValidationError`.
        """
        after = max(0, convert_field("after", after, int))
        timeout = None if timeout is None else float(timeout)
        if timeout is not None and not math.isfinite(timeout):
            # A NaN deadline never expires and never waits: the loop would
            # spin on the lock until the session stops.
            raise ValidationError(
                f"timeout must be a finite number of seconds, got {timeout!r}"
            )
        deadline = None if timeout is None else time.time() + timeout
        with self._wakeup:
            while True:
                record = self._get_locked(session_id)
                fresh = record.events[after:]
                done = record.status in TERMINAL_STATES \
                    or record.status in ("paused", "interrupted")
                if fresh or deadline is None or done:
                    return {
                        "session_id": session_id,
                        "events": [dict(event) for event in fresh],
                        "next": after + len(fresh),
                        "status": record.status,
                    }
                remaining = deadline - time.time()
                if remaining <= 0:
                    return {"session_id": session_id, "events": [],
                            "next": after, "status": record.status}
                self._wakeup.wait(min(remaining, threading.TIMEOUT_MAX))

    def engine_view(self) -> dict:
        """The shared engine's capacity: backend, workers, in-flight depth.

        ``workers`` is *live* membership where the backend has such a
        notion (the remote backend's registered worker count — it moves
        as machines join and die); ``n_workers`` is the dispatch
        parallelism the engine plans around.  ``inflight`` is the
        process-wide ``engine.inflight`` gauge: primary evaluations
        dispatched to the backend and not yet resolved.
        """
        backend = self.engine.backend
        view = {"backend": backend.name, "n_workers": backend.n_workers}
        workers = getattr(backend, "worker_count", None)
        if workers is not None:
            view["workers"] = workers
        view["inflight"] = get_registry().gauge("engine.inflight").value
        return view

    def metrics(self) -> dict:
        """The process metrics registry plus every session's heartbeat."""
        per_session = {}
        with self._lock:
            records = list(self._sessions.values())
        for record in records:
            entry = {"status": record.status}
            heartbeat = self._read_heartbeat(record)
            if heartbeat is not None:
                entry["heartbeat"] = heartbeat
            per_session[record.session_id] = entry
        return {
            "registry": get_registry().snapshot(),
            "engine": self.engine_view(),
            "sessions": per_session,
        }

    def _read_heartbeat(self, record: ManagedSession) -> dict | None:
        path = record.telemetry_dir / heartbeat_file_name(record.session_id)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None  # not written yet, or mid-rotation

    def healthz(self) -> dict:
        """Liveness summary: per-state session counts and capacity.

        ``status`` is ``"degraded"`` (with ``last_crash`` details) once
        the shared engine's backend has lost a worker pool to a crash or
        a blown evaluation deadline — deliberately sticky, so a scrape
        between crash and recovery still reports that recovery happened;
        sessions keep being served while degraded (the pool was rebuilt).
        """
        last_crash = self.engine.backend.last_crash
        engine_view = self.engine_view()
        with self._lock:
            counts: dict = {}
            for record in self._sessions.values():
                counts[record.status] = counts.get(record.status, 0) + 1
            if self._closed:
                status = "shutdown"
            elif last_crash is not None:
                status = "degraded"
            else:
                status = "ok"
            payload = {
                "status": status,
                "uptime": time.time() - self.started,
                "sessions": counts,
                "max_sessions": self.max_sessions,
                "tenant_quota": self.tenant_quota,
                "state_dir": str(self.state_dir),
                "engine": engine_view,
            }
            if last_crash is not None:
                payload["last_crash"] = dict(last_crash)
            return payload

    # ------------------------------------------------------------ durability
    def _save_manifest(self, record: ManagedSession) -> None:
        manifest = {
            "session_id": record.session_id,
            "spec": record.spec,
            "status": record.status,
            "error": record.error,
            "created": record.created,
            "updated": record.updated,
            "result": record.result_summary,
        }
        try:
            atomic_write_text(record.directory / MANIFEST_FILE_NAME,
                              json.dumps(manifest, indent=2))
        except OSError as error:
            # Durability must not take a live session down mid-run; the
            # manifest refreshes again at the next state change.
            log.warning("manifest write for %s failed: %s",
                        record.session_id, error)

    def recover(self) -> list:
        """Load sessions recorded under ``state_dir`` by an earlier manager.

        In-flight sessions (``running``/``queued``/``interrupted``) are
        re-queued and — once a slot frees up — restored from their last
        checkpoint, continuing bit-for-bit identically to a run that was
        never interrupted; sessions without a checkpoint yet simply start
        over from trial zero, which is the same thing.  Explicitly
        ``paused`` sessions are restored as paused.  Returns the ids of
        every recovered session.
        """
        recovered = []
        for manifest_path in sorted(
                self.state_dir.glob(f"*/{MANIFEST_FILE_NAME}")):
            try:
                manifest = json.loads(
                    manifest_path.read_text(encoding="utf-8"))
                spec = normalize_spec(manifest["spec"])
                session_id = str(manifest["session_id"])
            except (OSError, ValueError, KeyError, ReproError) as error:
                log.warning("skipping unreadable session manifest %s: %s",
                            manifest_path, error)
                continue
            with self._lock:
                if session_id in self._sessions:
                    continue
                record = ManagedSession(session_id, spec,
                                        directory=manifest_path.parent)
                record.created = float(manifest.get("created") or
                                       record.created)
                record.error = manifest.get("error")
                record.result_summary = manifest.get("result")
                status = manifest.get("status")
                if status in TERMINAL_STATES:
                    record.status = status
                elif status == "paused":
                    record.status = "paused"
                    record.resume_from_checkpoint = True
                else:  # queued / running / interrupted: in-flight
                    record.status = "queued"
                    record.resume_from_checkpoint = \
                        record.checkpoint_path.exists()
                self._sessions[session_id] = record
                if self.tenant_quota is not None \
                        and record.status not in TERMINAL_STATES:
                    budget = self._tenant_budget_locked(spec["tenant"])
                    trials_done = (record.result_summary or {}).get("trials", 0)
                    budget.consume(
                        max(0, spec["max_trials"] - int(trials_done or 0))
                    )
                recovered.append(session_id)
        with self._lock:
            self._maybe_start_locked()
        if recovered:
            log.info("recovered %d session(s) from %s",
                     len(recovered), self.state_dir)
        return recovered

    def shutdown(self, *, timeout: float = 30.0) -> None:
        """Stop every running session at a trial boundary and close up.

        Running sessions are marked ``interrupted`` in their manifests —
        the state :meth:`recover` auto-resumes — and their final
        checkpoints are written by the worker threads on the way out.
        Safe to call twice.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = []
            for record in self._sessions.values():
                if record.status == "running":
                    record.status = "interrupted"
                    if record.session is not None:
                        record.session.stop()
                    threads.append(record.thread)
                elif record.status == "queued":
                    record.status = "interrupted"
                    self._save_manifest(record)
            self._wakeup.notify_all()
        deadline = time.time() + timeout
        for thread in threads:
            if thread is not None:
                thread.join(max(0.1, deadline - time.time()))
        # The worker threads saved "interrupted" manifests as they left;
        # write a final checkpoint for each so restart-resume never loses
        # more than the current trial.
        with self._lock:
            interrupted = [record for record in self._sessions.values()
                           if record.status == "interrupted"
                           and record.session is not None]
        for record in interrupted:
            try:
                record.session.checkpoint(record.checkpoint_path)
            except ReproError as error:
                log.warning("shutdown checkpoint of %s failed: %s",
                            record.session_id, error)
        self.engine.close()
        log.info("session manager shut down (%d session(s) interrupted)",
                 len(interrupted))

    # ------------------------------------------------------------ callbacks
    def _on_trial(self, record: ManagedSession, session, trial) -> None:
        with self._lock:
            self._emit_locked(record, {
                "kind": "trial",
                "trials_done": len(session.result),
                "iteration": trial.iteration,
                "accuracy": trial.accuracy,
                "fidelity": trial.fidelity,
                "pipeline": trial.pipeline.describe(),
                "best_accuracy": session.result.best_accuracy,
            })

    def _on_checkpoint(self, record: ManagedSession, path) -> None:
        with self._lock:
            self._emit_locked(record, {"kind": "checkpoint",
                                       "path": str(path)})

    def _emit_locked(self, record: ManagedSession, event: dict) -> None:
        event = dict(event)
        event["seq"] = len(record.events)
        event["time"] = time.time()
        record.events.append(event)
        self._wakeup.notify_all()

    def __repr__(self) -> str:
        with self._lock:
            return (f"SessionManager(sessions={len(self._sessions)}, "
                    f"max_sessions={self.max_sessions}, "
                    f"state_dir={str(self.state_dir)!r})")
