"""E-faults — what fault tolerance costs when nothing goes wrong (and
how fast recovery is when it does).

The PR-9 retry envelope wraps every evaluation (attempt loop, fault
unwrap, soft-deadline check), so its no-fault overhead must be noise;
crash recovery tears down and rebuilds a whole process pool, so its cost
must be bounded and paid only on actual crashes.  Two measurements:

* ``test_fault_envelope_smoke`` (CI smoke): the guarded serial engine
  with a retry policy and an armed (but never-expiring) ``eval_timeout``
  versus the plain serial engine over the same batch — identical records
  required, wall-clock ratio bounded.  Also asserts the chaos
  convergence contract end to end: a serial run through a
  crash+error fault plan reproduces the clean records bit-for-bit.
* ``test_process_crash_recovery`` (slow): the same batch on a real
  process pool, clean versus with a planned worker kill
  (``os._exit`` inside the worker), measuring what one
  crash->rebuild->resubmit cycle adds to the batch.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.evaluation import PipelineEvaluator
from repro.core.search_space import SearchSpace
from repro.datasets.synthetic import distort_features, make_classification
from repro.engine import EvalTask, ExecutionEngine, RetryPolicy
from repro.engine.backends import ProcessBackend, SerialBackend
from repro.models.linear import LogisticRegression
from repro.telemetry.metrics import get_registry

#: retries without sleeps: the measurements isolate machinery, not backoff
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def make_evaluator() -> PipelineEvaluator:
    X, y = make_classification(n_samples=140, n_features=8, n_classes=2,
                               class_sep=2.0, random_state=5)
    X = distort_features(X, random_state=5)
    return PipelineEvaluator.from_dataset(
        X, y, LogisticRegression(max_iter=60), random_state=0
    )


def make_tasks(n: int = 16) -> list:
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


def timed_batch(engine, n: int = 16):
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


def test_fault_envelope_smoke(artifact):
    plain_rows, plain_s = timed_batch(ExecutionEngine("serial"))
    guarded_rows, guarded_s = timed_batch(
        ExecutionEngine("serial", eval_timeout=300.0,
                        retry_policy=RetryPolicy())
    )
    chaos_rows, chaos_s = timed_batch(
        ExecutionEngine(SerialBackend(retry_policy=FAST_RETRY),
                        chaos="error@2,crash@5")
    )

    assert guarded_rows == plain_rows, \
        "an armed eval_timeout changed evaluation results"
    assert chaos_rows == plain_rows, \
        "a recovered chaos run diverged from the clean run"
    # The envelope is an attempt loop + one monotonic read per task: its
    # cost must vanish next to real evaluations.  Generous bound — CI
    # machines are noisy — plus an absolute slack for sub-second runs.
    assert guarded_s <= plain_s * 2.0 + 0.25, (
        f"guarded envelope overhead too high: "
        f"{guarded_s:.3f}s vs {plain_s:.3f}s plain"
    )

    ratio = guarded_s / plain_s if plain_s > 0 else 1.0
    artifact(
        "fault_envelope_smoke",
        "no-fault overhead of the retry envelope (serial, 16 tasks)\n"
        f"  plain engine        : {plain_s * 1e3:8.1f} ms\n"
        f"  guarded (+timeout)  : {guarded_s * 1e3:8.1f} ms  "
        f"(x{ratio:.2f})\n"
        f"  chaos error+crash   : {chaos_s * 1e3:8.1f} ms  "
        f"(records identical: True)",
        metrics={"plain_s": round(plain_s, 6),
                 "guarded_s": round(guarded_s, 6),
                 "chaos_s": round(chaos_s, 6),
                 "overhead_ratio": round(ratio, 4)},
    )


def test_process_crash_recovery(once, artifact):
    """Full measurement: one worker kill's cost on a process-pool batch."""
    def clean():
        return timed_batch(
            ExecutionEngine(ProcessBackend(n_workers=2,
                                           retry_policy=FAST_RETRY))
        )

    def crashed():
        return timed_batch(
            ExecutionEngine(
                ProcessBackend(n_workers=2, retry_policy=FAST_RETRY),
                chaos="crash@3",
            )
        )

    clean_rows, clean_s = clean()
    get_registry().reset()
    crashed_rows, crashed_s = once(crashed)

    assert crashed_rows == clean_rows, \
        "crash recovery changed the surviving records"
    assert get_registry().counter("engine.worker_crashes").value >= 1, \
        "the planned worker kill never fired"
    recovery_s = crashed_s - clean_s
    assert recovery_s < 60.0, (
        f"crash recovery took {recovery_s:.1f}s over the clean batch"
    )

    artifact(
        "fault_process_crash_recovery",
        "process backend, 2 workers, 16 tasks, one planned worker kill\n"
        f"  clean batch          : {clean_s:7.2f} s\n"
        f"  kill + recover batch : {crashed_s:7.2f} s\n"
        f"  recovery overhead    : {recovery_s:7.2f} s "
        "(pool teardown + rebuild + isolation round + resubmits)",
        metrics={"clean_s": round(clean_s, 6),
                 "crashed_s": round(crashed_s, 6),
                 "recovery_overhead_s": round(recovery_s, 6)},
    )
