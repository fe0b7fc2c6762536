"""Parallel execution engine: pluggable backends for batch evaluation.

The paper's bottleneck analysis (Section 5.3) shows Auto-FP search is
evaluation-bound, and most search algorithms produce whole batches of
independent evaluations (population generations, successive-halving rungs,
random batches).  This subsystem executes such batches on a pluggable
backend, whose only job is to evaluate:

* :class:`~repro.engine.backends.SerialBackend` — inline execution, the
  deterministic reference;
* :class:`~repro.engine.backends.ProcessBackend` — a process pool for true
  CPU parallelism;
* :class:`~repro.engine.remote.RemoteBackend` — a coordinator serving
  registered ``repro worker`` daemons, possibly on other machines, with
  heartbeat failure detection.

Serial, process and remote workers run one work-item body
(:func:`~repro.engine.faults.run_work_item`), and workers never open the
persistent eval cache: the engine's :meth:`ExecutionEngine.resolve_task`
is its only writer on every backend.  Experiment grids are not run on a
backend; they fan out on a process pool of their own
(:mod:`repro.experiments.runner`).

All backends preserve task order and the engine merges results back into
the evaluator's memoization cache, so every backend produces bit-for-bit
identical search results.  The engine's futures layer
(:meth:`ExecutionEngine.submit_task` / :meth:`ExecutionEngine.wait_any` /
:meth:`ExecutionEngine.resolve_task`) is its one cache-aware scheduler: the
completion-driven schedule of the search loop
(:class:`~repro.search.session.SearchSession`) uses it directly, and the batch API (:meth:`ExecutionEngine.run`) is a bounded
window over it.  See :mod:`repro.engine.engine` for the dispatch logic and
:meth:`~repro.core.context.ExecutionContext.build_engine` for building
an engine from CLI-style options.

Execution is fault tolerant: :mod:`repro.engine.faults` defines the
failure taxonomy and :class:`~repro.engine.faults.RetryPolicy`, every
backend recovers from worker crashes and enforces evaluation deadlines
through one recovering future (see :mod:`repro.engine.backends`), and
:mod:`repro.engine.chaos` provides a deterministic fault-injection
harness: ``ExecutionEngine(backend, chaos="crash@1")`` attaches a
:class:`~repro.engine.chaos.FaultPlan` to the evaluations the engine
dispatches, which makes every recovery path reproducibly testable.
"""

from repro.engine.backends import (
    BACKEND_CLASSES,
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    SerialFuture,
    default_worker_count,
    make_backend,
)
from repro.engine.chaos import FaultPlan
from repro.engine.engine import ExecutionEngine, PendingTask
from repro.engine.remote import (
    Coordinator,
    RemoteBackend,
    RemoteWorker,
    start_loopback,
)
from repro.engine.faults import (
    FAILURE_KIND_CRASH,
    FAILURE_KIND_TIMEOUT,
    EvaluationTimeoutError,
    InjectedFault,
    RetryPolicy,
    TransientEvaluationError,
    WorkerCrashError,
    is_transient,
)
from repro.engine.tasks import EvalTask

__all__ = [
    "EvalTask",
    "ExecutionBackend",
    "SerialBackend",
    "SerialFuture",
    "ProcessBackend",
    "RemoteBackend",
    "RemoteWorker",
    "Coordinator",
    "start_loopback",
    "PendingTask",
    "BACKEND_CLASSES",
    "BACKEND_NAMES",
    "default_worker_count",
    "make_backend",
    "ExecutionEngine",
    "FaultPlan",
    "InjectedFault",
    "RetryPolicy",
    "WorkerCrashError",
    "TransientEvaluationError",
    "EvaluationTimeoutError",
    "FAILURE_KIND_CRASH",
    "FAILURE_KIND_TIMEOUT",
    "is_transient",
]
