"""E-remote — what wire dispatch costs versus an in-process pool.

The ``"remote"`` backend trades process-pool IPC for a TCP round trip
per evaluation (JSON-line framing + pickled work item + pickled result
entry).  Against loopback workers that cost must stay a small, bounded
per-task tax — if it approached the evaluation time itself, scaling out
could never win.  Two measurements:

* ``test_remote_dispatch_smoke`` (CI smoke): the same 16-task batch on
  the serial engine, a 2-worker process pool, and a 2-worker loopback
  remote fleet — identical records required on all three, remote
  per-task dispatch overhead versus the process backend bounded.
* ``test_remote_crash_recovery`` (slow): the batch with a
  ``drop_worker`` fault mid-run — one worker dies with leases in
  flight, the survivor absorbs the resubmissions — measuring what a
  membership loss adds to the batch.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.evaluation import PipelineEvaluator
from repro.core.search_space import SearchSpace
from repro.datasets.synthetic import distort_features, make_classification
from repro.engine import EvalTask, ExecutionEngine, RetryPolicy
from repro.engine.backends import ProcessBackend
from repro.engine.remote import start_loopback
from repro.models.linear import LogisticRegression
from repro.telemetry.metrics import get_registry

#: retries without sleeps: the measurements isolate machinery, not backoff
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)

N_TASKS = 16


def make_evaluator() -> PipelineEvaluator:
    X, y = make_classification(n_samples=140, n_features=8, n_classes=2,
                               class_sep=2.0, random_state=5)
    X = distort_features(X, random_state=5)
    return PipelineEvaluator.from_dataset(
        X, y, LogisticRegression(max_iter=60), random_state=0
    )


def make_tasks(n: int = N_TASKS) -> list:
    space = SearchSpace(max_length=3)
    rng = np.random.default_rng(0)
    pipelines: list = []
    seen: set = set()
    while len(pipelines) < n:
        for pipeline in space.sample_pipelines(n, rng):
            if pipeline.spec() not in seen and len(pipelines) < n:
                seen.add(pipeline.spec())
                pipelines.append(pipeline)
    return [EvalTask(pipeline) for pipeline in pipelines]


def timed_batch(engine, n: int = N_TASKS):
    """Evaluate the reference batch on ``engine``; ``(rows, seconds)``."""
    evaluator = make_evaluator()
    tasks = make_tasks(n)
    start = time.perf_counter()
    records = engine.run(evaluator, tasks)
    seconds = time.perf_counter() - start
    engine.close()
    rows = [(r.pipeline.spec(), round(r.fidelity, 6), r.accuracy,
             r.failure_kind) for r in records]
    return rows, seconds


def timed_remote_batch(n: int = N_TASKS, chaos: str | None = None):
    backend, workers = start_loopback(2, retry_policy=FAST_RETRY)
    engine = ExecutionEngine(backend, chaos=chaos)
    try:
        return timed_batch(engine, n)
    finally:
        for worker in workers:
            worker.stop()


def test_remote_dispatch_smoke(artifact):
    serial_rows, serial_s = timed_batch(ExecutionEngine("serial"))
    process_rows, process_s = timed_batch(
        ExecutionEngine(ProcessBackend(n_workers=2, retry_policy=FAST_RETRY))
    )
    remote_rows, remote_s = timed_remote_batch()

    assert process_rows == serial_rows, \
        "the process pool diverged from serial"
    assert remote_rows == serial_rows, \
        "wire dispatch changed evaluation results"
    # Per-task tax of the TCP round trip over the process pool's IPC.
    # Generous bound — CI machines are noisy, and the process pool
    # amortises its spawn cost over the batch while loopback workers
    # boot in milliseconds — plus absolute slack for sub-second runs.
    per_task_s = max(0.0, remote_s - process_s) / N_TASKS
    assert remote_s <= process_s * 3.0 + 2.0, (
        f"remote dispatch overhead too high: {remote_s:.3f}s vs "
        f"{process_s:.3f}s on the process pool"
    )

    artifact(
        "remote_dispatch_smoke",
        f"wire-dispatch overhead ({N_TASKS} tasks, 2 workers each)\n"
        f"  serial engine        : {serial_s * 1e3:8.1f} ms\n"
        f"  process pool         : {process_s * 1e3:8.1f} ms\n"
        f"  remote loopback fleet: {remote_s * 1e3:8.1f} ms  "
        f"(+{per_task_s * 1e3:.1f} ms/task vs process)\n"
        f"  records identical    : True",
        metrics={"serial_s": round(serial_s, 6),
                 "process_s": round(process_s, 6),
                 "remote_s": round(remote_s, 6),
                 "per_task_overhead_s": round(per_task_s, 6)},
    )


def test_remote_crash_recovery(once, artifact):
    """Full measurement: one mid-batch worker loss on the remote fleet."""
    clean_rows, clean_s = timed_remote_batch()
    get_registry().reset()
    crashed_rows, crashed_s = once(lambda: timed_remote_batch(
        chaos="delay@0:1.0,drop_worker@3"))

    assert crashed_rows == clean_rows, \
        "worker-loss recovery changed the surviving records"
    assert get_registry().counter("engine.worker_crashes").value >= 1, \
        "the planned worker drop never fired"
    recovery_s = crashed_s - clean_s
    assert recovery_s < 60.0, (
        f"worker-loss recovery took {recovery_s:.1f}s over the clean batch"
    )

    artifact(
        "remote_crash_recovery",
        f"remote fleet, 2 workers, {N_TASKS} tasks, one dropped mid-run\n"
        f"  clean batch          : {clean_s:7.2f} s\n"
        f"  drop + recover batch : {crashed_s:7.2f} s\n"
        f"  recovery overhead    : {recovery_s:7.2f} s "
        "(heartbeat detection + lease resubmission to the survivor)",
        metrics={"clean_s": round(clean_s, 6),
                 "crashed_s": round(crashed_s, 6),
                 "recovery_overhead_s": round(recovery_s, 6)},
    )
