"""E-async — completion-driven scheduling: async vs barrier speedup.

The synchronous search skeleton evaluates each iteration's proposals as
one barrier: with a parallel backend, every worker that finishes early
idles until the batch's straggler returns, and the Pick step idles while
anything at all is running.  The async driver
(:class:`repro.search.async_driver.AsyncSearchDriver`) refills each worker
slot the moment it frees and lets the algorithm propose while other
evaluations are still in flight — the ASHA scheduling model.

This harness makes the idle time visible by giving evaluations
deterministic, heterogeneous durations (a per-pipeline sleep derived from
the pipeline spec's hash, so both modes pay identical per-task costs) and
measuring wall-clock time for the same search in both modes on a thread
backend.  Expected shape: identical per-pipeline results, and — because
barriers always wait for the slowest task of each batch — a >1.1x async
speedup with 4 workers even on a single-core machine (the sleeps dominate
and release the GIL).

``smoke_check()`` is the fast variant exercised by the tier-1 test-suite
(see ``tests/engine/test_async_engine.py``): it verifies serial async is
bit-for-bit identical to serial sync and that async thread execution
completes a saturated ASHA run.
"""

from __future__ import annotations

import time
import zlib

from repro.core.context import ExecutionContext
from repro.core.problem import AutoFPProblem
from repro.core.evaluation import PipelineEvaluator
from repro.core.search_space import SearchSpace
from repro.datasets.synthetic import distort_features, make_classification
from repro.engine import ExecutionEngine
from repro.models.linear import LogisticRegression
from repro.search import make_search_algorithm


class SleepyEvaluator(PipelineEvaluator):
    """Evaluator whose evaluations take deterministic, heterogeneous time.

    Each uncached evaluation sleeps ``(crc32(spec) % levels) * delay``
    seconds on top of the real work.  The sleep depends only on the
    pipeline spec, so sync and async modes pay exactly the same per-task
    cost and any wall-clock difference is pure scheduling.
    """

    #: distinct duration levels (0 .. levels-1 times ``delay``)
    levels = 4
    #: seconds per duration level; class attribute so worker threads and
    #: pickled copies agree without extra constructor plumbing
    delay = 0.0

    def _evaluate_uncached(self, pipeline, fidelity):
        entry = super()._evaluate_uncached(pipeline, fidelity)
        token = repr((pipeline.spec(), round(fidelity, 6))).encode("utf-8")
        time.sleep((zlib.crc32(token) % self.levels) * self.delay)
        return entry


def make_problem(*, delay: float, engine=None, async_mode: bool = False,
                 cache: bool = True) -> AutoFPProblem:
    """A small problem whose evaluations sleep ``delay``-scaled durations."""
    X, y = make_classification(n_samples=140, n_features=8, n_classes=2,
                               class_sep=2.0, random_state=5)
    X = distort_features(X, random_state=5)
    SleepyEvaluator.delay = delay
    evaluator = SleepyEvaluator.from_dataset(
        X, y, LogisticRegression(max_iter=60), random_state=0, cache=cache,
    )
    evaluator.set_engine(engine)
    return AutoFPProblem(evaluator=evaluator, space=SearchSpace(max_length=3),
                         name="async-overlap/lr",
                         context=ExecutionContext(async_mode=async_mode))


def timed_search(algorithm: str, *, delay: float, n_workers: int,
                 async_mode: bool, max_trials: int = 24,
                 algorithm_kwargs: dict | None = None):
    """Run one search and return ``(result, wall_seconds)``."""
    engine = ExecutionEngine("thread", n_workers=n_workers)
    problem = make_problem(delay=delay, engine=engine, async_mode=async_mode)
    searcher = make_search_algorithm(algorithm, random_state=0,
                                     **(algorithm_kwargs or {}))
    start = time.perf_counter()
    result = searcher.search(problem, max_trials=max_trials)
    seconds = time.perf_counter() - start
    engine.close()
    return result, seconds


def trial_values(result) -> dict:
    """Per-pipeline accuracies — identical across scheduling modes."""
    return {(t.pipeline.spec(), round(t.fidelity, 6)): t.accuracy
            for t in result.trials}


def smoke_check(*, n_workers: int = 3):
    """Fast async exercise for tier-1: correctness, not timing.

    Returns ``(sync_serial, async_serial, async_threaded)`` results so
    callers can assert further.
    """
    sync_serial = make_search_algorithm("rs", random_state=0, batch_size=4).search(
        make_problem(delay=0.0), max_trials=12
    )
    async_serial = make_search_algorithm("rs", random_state=0, batch_size=4).search(
        make_problem(delay=0.0, async_mode=True), max_trials=12
    )
    sync_set = [(t.pipeline.spec(), t.fidelity, t.accuracy, t.iteration)
                for t in sync_serial.trials]
    async_set = [(t.pipeline.spec(), t.fidelity, t.accuracy, t.iteration)
                 for t in async_serial.trials]
    assert async_set == sync_set, "serial async diverged from serial sync"

    async_threaded, _ = timed_search("asha", delay=0.002, n_workers=n_workers,
                                     async_mode=True, max_trials=10)
    assert len(async_threaded) > 0
    reference = make_problem(delay=0.0).evaluator
    for trial in async_threaded.trials:
        expected = reference.evaluate(trial.pipeline, fidelity=trial.fidelity)
        assert trial.accuracy == expected.accuracy, (
            "async thread evaluation changed a trial value"
        )
    return sync_serial, async_serial, async_threaded


def test_async_overlap(once, artifact):
    """Full measurement: async keeps workers busy through the barriers."""
    from repro.experiments import format_table

    n_workers = 4
    delay = 0.03
    sync_result, sync_seconds = once(
        timed_search, "rs", delay=delay, n_workers=n_workers,
        async_mode=False, algorithm_kwargs={"batch_size": 8},
    )
    async_result, async_seconds = timed_search(
        "rs", delay=delay, n_workers=n_workers, async_mode=True,
        algorithm_kwargs={"batch_size": 8},
    )
    speedup = sync_seconds / max(async_seconds, 1e-9)

    identical = trial_values(sync_result) == trial_values(async_result)
    rows = [
        ["sync (barrier)", n_workers, sync_seconds, 1.0, "yes"],
        ["async", n_workers, async_seconds, speedup,
         "yes" if identical else "NO"],
    ]
    artifact("async_overlap",
             format_table(["mode", "workers", "seconds", "speedup",
                           "identical values"], rows))

    # Hard requirement: scheduling must never change what a pipeline scores.
    assert identical, "async mode changed per-pipeline results"
    # The sleeps dominate and release the GIL, so the speedup is structural
    # (bounded idle time at each barrier), not hardware-dependent.
    assert speedup > 1.1, (
        f"expected >1.1x async speedup with {n_workers} workers, "
        f"got {speedup:.2f}x"
    )


if __name__ == "__main__":
    smoke_check()
    print("smoke check passed: async results match the serial reference")
    for mode, async_mode in (("sync", False), ("async", True)):
        result, seconds = timed_search("rs", delay=0.03, n_workers=4,
                                       async_mode=async_mode,
                                       algorithm_kwargs={"batch_size": 8})
        print(f"{mode:>5}: {seconds:.2f}s for {len(result)} trials")
