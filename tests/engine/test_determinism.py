"""Engine determinism: every backend produces identical search results.

This is the core guarantee of the execution engine (and of the
order-independent subsample seeding in the evaluator): running the same
searcher on the same problem must yield the same ``best_accuracy`` and the
same trial set whether the evaluation batches run serially, on a process
pool or on registered remote workers — even when one of those workers
dies mid-search.

The cross-backend determinism *matrix* extends the guarantee to the
search loop's completion-driven schedule: for **every** registry algorithm (the paper's 15
plus the extensions, including ASHA) the serial async run is bit-for-bit
identical to the serial sync run, and process async runs are
seed-reproducible given a fixed completion order (one worker) with trial
values identical to what the serial evaluator computes for the same
``(pipeline, fidelity)``.  The ``driver`` parameter of the cells below
names the schedule, which the problem's context selects (``async_mode``).
"""

import dataclasses

import pytest

from repro.core.problem import AutoFPProblem
from repro.core.search_space import SearchSpace
from repro.datasets.synthetic import distort_features, make_classification
from repro.engine import ExecutionEngine
from repro.models.linear import LogisticRegression
from repro.search import make_search_algorithm
from repro.search.registry import (
    ALL_ALGORITHM_NAMES,
    EXTENSION_ALGORITHM_CLASSES,
)

#: (algorithm name, constructor kwargs) — one batched searcher per category
SEARCHERS = [
    ("rs", {"batch_size": 4}),
    ("pbt", {}),
    ("hyperband", {}),
]

#: every resolvable algorithm: the paper's 15 plus the extensions (ASHA...)
MATRIX_ALGORITHMS = ALL_ALGORITHM_NAMES + tuple(sorted(EXTENSION_ALGORITHM_CLASSES))


def _make_problem(engine=None, prefix_cache_bytes=None,
                  telemetry_mode="off", telemetry_dir=None, async_mode=False):
    from repro.core.context import ExecutionContext

    X, y = make_classification(n_samples=140, n_features=8, n_classes=2,
                               class_sep=2.0, random_state=2)
    X = distort_features(X, random_state=2)
    problem = AutoFPProblem.from_arrays(
        X, y, LogisticRegression(max_iter=60), space=SearchSpace(max_length=3),
        random_state=0, name="determinism/lr",
        context=ExecutionContext(prefix_cache_bytes=prefix_cache_bytes,
                                 telemetry_mode=telemetry_mode,
                                 telemetry_dir=telemetry_dir,
                                 async_mode=async_mode),
    )
    problem.evaluator.set_engine(engine)
    return problem


def _scheduled(problem, driver):
    """``problem`` on the same evaluator, searched under ``driver``."""
    return dataclasses.replace(problem, context=problem.context.replace(
        async_mode=driver == "async"))


def _trial_set(result):
    return [(t.pipeline.spec(), round(t.fidelity, 6), t.accuracy, t.iteration)
            for t in result.trials]


def _run(algorithm, kwargs, engine):
    searcher = make_search_algorithm(algorithm, random_state=0, **kwargs)
    result = searcher.search(_make_problem(engine), max_trials=14)
    if engine is not None:
        engine.close()  # release pooled workers eagerly between runs
    return result


class TestBackendDeterminism:
    @pytest.mark.parametrize("algorithm,kwargs", SEARCHERS)
    def test_process_backend_matches_serial(self, algorithm, kwargs):
        serial = _run(algorithm, kwargs, None)
        processed = _run(algorithm, kwargs, ExecutionEngine("process", n_workers=2))
        assert processed.best_accuracy == serial.best_accuracy
        assert _trial_set(processed) == _trial_set(serial)


@pytest.fixture(scope="module")
def matrix_problem():
    """One shared problem for the whole matrix.

    Sync and async runs of the same algorithm then answer repeated
    pipelines from the same memoized values, which keeps the 2x-per-
    algorithm sweep cheap without affecting the compared trial sets
    (evaluation values are order-independent by construction).
    """
    return _make_problem(None)


class TestCrossBackendDeterminismMatrix:
    @pytest.mark.parametrize("algorithm", MATRIX_ALGORITHMS)
    def test_serial_async_bit_for_bit_identical_to_sync(self, algorithm,
                                                        matrix_problem):
        sync = make_search_algorithm(algorithm, random_state=0).search(
            matrix_problem, max_trials=8
        )
        asynchronous = make_search_algorithm(algorithm, random_state=0).search(
            _scheduled(matrix_problem, "async"), max_trials=8
        )
        assert asynchronous.algorithm == sync.algorithm
        assert _trial_set(asynchronous) == _trial_set(sync)
        assert asynchronous.best_accuracy == sync.best_accuracy

    @pytest.mark.parametrize("backend", ["process"])
    def test_parallel_async_seed_reproducible_with_fixed_completion_order(
            self, backend):
        """One worker fixes the completion order; two runs must be identical."""
        runs = []
        for _ in range(2):
            engine = ExecutionEngine(backend, n_workers=1)
            searcher = make_search_algorithm("asha", random_state=0)
            result = searcher.search(_make_problem(engine, async_mode=True),
                                     max_trials=10)
            engine.close()
            runs.append(_trial_set(result))
        assert runs[0] == runs[1]

    def test_parallel_async_trial_values_match_serial_evaluator(self):
        """Scheduling may reorder trials but can never change their values."""
        engine = ExecutionEngine("process", n_workers=3)
        result = make_search_algorithm("rs", random_state=0, batch_size=4).search(
            _make_problem(engine, async_mode=True), max_trials=12
        )
        engine.close()
        reference = _make_problem(None).evaluator
        assert len(result) == 12
        for trial in result.trials:
            expected = reference.evaluate(trial.pipeline,
                                          fidelity=trial.fidelity)
            assert trial.accuracy == expected.accuracy


#: (algorithm, kwargs) cells of the remote-backend column: evolution and
#: TPE cover batch dispatch and surrogate-driven sequential proposal.
REMOTE_SEARCHERS = [
    ("tevo_h", {}),
    ("tpe", {}),
]


class TestRemoteBackendDeterminism:
    """The distributed backend is bit-for-bit identical to serial.

    Two loopback workers on an ephemeral port lease every evaluation over
    the wire (pickled tasks, JSON-line protocol) — and the trial set must
    still equal the serial run's, under both drivers.  Async cells cap
    the fleet's capacity at one (``RemoteBackend``'s ``n_workers``), so
    the completion loop keeps one evaluation in flight: that fixes the
    completion order (the same configuration the async matrix above
    declares reproducible) while every evaluation still round-trips
    through the worker fleet.  The chaos cell kills a live worker
    mid-search (``drop_worker``): membership shrinks, its leases (if any)
    retry on the survivor, and the surviving records still converge to
    the no-fault run.
    """

    def _search(self, algorithm, kwargs, problem, driver):
        searcher = make_search_algorithm(algorithm, random_state=0, **kwargs)
        return searcher.search(_scheduled(problem, driver), max_trials=14)

    def _run_remote(self, algorithm, kwargs, driver, chaos=None):
        from repro.engine.faults import RetryPolicy
        from repro.engine.remote import start_loopback

        backend, workers = start_loopback(
            2, retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0,
                                        jitter=0.0),
            n_workers=1 if driver == "async" else None,
        )
        engine = ExecutionEngine(backend, chaos=chaos)
        try:
            result = self._search(algorithm, kwargs, _make_problem(engine),
                                  driver)
        finally:
            engine.close()
            for worker in workers:
                worker.stop()
        return result

    @pytest.mark.parametrize("algorithm,kwargs", REMOTE_SEARCHERS)
    @pytest.mark.parametrize("driver", ["sync", "async"])
    def test_remote_bit_for_bit_identical_to_serial(self, algorithm, kwargs,
                                                    driver):
        serial = self._search(algorithm, kwargs, _make_problem(None), driver)
        remote = self._run_remote(algorithm, kwargs, driver)
        assert _trial_set(remote) == _trial_set(serial)
        assert remote.best_accuracy == serial.best_accuracy

    @pytest.mark.parametrize("driver", ["sync", "async"])
    def test_drop_worker_mid_search_converges_identically(self, driver):
        from repro.telemetry.metrics import get_registry

        serial = self._search("tevo_h", {}, _make_problem(None), driver)
        misses_before = get_registry().counter(
            "engine.worker_heartbeat_misses").value
        chaotic = self._run_remote("tevo_h", {}, driver,
                                   chaos="drop_worker@3")
        assert _trial_set(chaotic) == _trial_set(serial)
        assert chaotic.best_accuracy == serial.best_accuracy
        # The fault really fired: the coordinator recorded the death.
        assert get_registry().counter(
            "engine.worker_heartbeat_misses").value > misses_before


#: (backend, n_workers, driver) cells of the prefix-cache matrix.  Sync
#: cells use two workers (batch merge-back is order-stable); async
#: process cells use one worker, which fixes the completion order — the
#: same configuration the async matrix above declares reproducible.
PREFIX_CACHE_CELLS = [
    (None, 1, "sync"),
    ("serial", 1, "sync"),
    ("process", 2, "sync"),
    (None, 1, "async"),
    ("process", 1, "async"),
]


class TestPrefixCacheDeterminism:
    """Prefix-transform reuse never changes results, only Prep time.

    The non-negotiable contract of ``prefix_cache_bytes``: because a cached
    prefix stores the exact arrays the cold path would recompute, every
    backend/driver combination with the cache on is bit-for-bit identical
    to the same combination with the cache off.
    """

    def _run_pair(self, algorithm, kwargs, backend, n_workers, driver):
        results = []
        for prefix_cache_bytes in (None, 1 << 26):
            engine = None if backend is None else \
                ExecutionEngine(backend, n_workers=n_workers)
            searcher = make_search_algorithm(algorithm, random_state=0, **kwargs)
            result = searcher.search(
                _make_problem(engine, prefix_cache_bytes=prefix_cache_bytes,
                              async_mode=driver == "async"),
                max_trials=12,
            )
            if engine is not None:
                engine.close()
            results.append(result)
        return results

    @pytest.mark.parametrize("backend,n_workers,driver", PREFIX_CACHE_CELLS)
    def test_cache_on_bit_for_bit_identical_to_cache_off(self, backend,
                                                         n_workers, driver):
        off, on = self._run_pair("pbt", {}, backend, n_workers, driver)
        assert _trial_set(on) == _trial_set(off)
        assert on.best_accuracy == off.best_accuracy

    def test_progressive_growth_reuses_prefixes_without_changing_results(self):
        """PNAS extends its beam step by step — the prefix cache's best case
        must still be invisible in the results."""
        off, on = self._run_pair("pmne", {"beam_width": 3}, None, 1, "sync")
        assert _trial_set(on) == _trial_set(off)


#: constructor kwargs of the checkpoint/resume cells: a PNAS beam of 3 and
#: three SMAC initial trials put their first surrogate fit before stop 9.
#: PME and PLE then pickle a fitted ensemble with its member factory, and
#: SMAC its history of observed index tuples with the fitted forest.
CHECKPOINT_KWARGS = {
    "pmne": {"beam_width": 3},
    "pme": {"beam_width": 3},
    "plne": {"beam_width": 3},
    "ple": {"beam_width": 3},
    "smac": {"n_init": 3},
}

#: the tier-1 checkpoint/resume matrix: every registry algorithm (the
#: paper's 15) plus ASHA (rungs + promotion sets, fractional fidelities).
#: Anneal is the regression case for checkpointing the generator together
#: with the algorithm state: it aliases the session RNG in _setup, so
#: acceptance draws and propose draws interleave on one stream.
CHECKPOINT_ALGORITHMS = [*ALL_ALGORITHM_NAMES, "asha"]

#: one stop before any model fit and one after the surrogates' first fits
#: (TPE's density estimators included: they fit from trial 8 on)
CHECKPOINT_STOPS = [2, 9]

#: the slow sweep: every stop of a 12-trial run, for every algorithm
SWEEP_STOPS = list(range(1, 12))


@pytest.fixture(scope="module")
def uninterrupted():
    """``(algorithm, driver) -> (trial set, best accuracy)`` of an
    uninterrupted 12-trial run, each run once for all of its stops."""
    runs = {}

    def reference(algorithm, driver):
        if (algorithm, driver) not in runs:
            result = make_search_algorithm(
                algorithm, random_state=0, **CHECKPOINT_KWARGS.get(algorithm, {})
            ).search(_make_problem(None, async_mode=driver == "async"),
                     max_trials=12)
            runs[algorithm, driver] = (_trial_set(result), result.best_accuracy)
        return runs[algorithm, driver]

    return reference


class TestCheckpointResumeDeterminism:
    """An interrupted+resumed session finishes bit-for-bit identical.

    The SearchSession acceptance contract: checkpoint after any completed
    trial, kill the session, resume from the document (fresh problem
    object, fresh evaluator caches, fresh process for all the state
    carried) — the final trial set must equal an uninterrupted run's,
    under both the synchronous and the completion-driven driver.
    """

    def _interrupt_and_resume(self, algorithm, driver, tmp_path, stop_at):
        from repro.search import SearchSession

        path = tmp_path / f"{algorithm}-{driver}-{stop_at}.checkpoint"

        def interrupt(session, record):
            if len(session.result) == stop_at:
                session.checkpoint(path)
                session.stop()

        session = SearchSession(
            _make_problem(None, async_mode=driver == "async"),
            make_search_algorithm(algorithm, random_state=0,
                                  **CHECKPOINT_KWARGS.get(algorithm, {})),
            on_trial=interrupt,
        )
        partial = session.run(max_trials=12)
        assert len(partial) == stop_at
        # Resume against a *fresh* problem (cold caches), as a new process
        # would after loading the document; the checkpoint's ``driver``
        # restores the schedule.
        resumed = SearchSession.resume(path, problem=_make_problem(None))
        return resumed.run()

    def _assert_resumes_bit_for_bit(self, algorithm, driver, tmp_path,
                                    stop_at, uninterrupted):
        resumed = self._interrupt_and_resume(algorithm, driver, tmp_path,
                                             stop_at=stop_at)
        trial_set, best_accuracy = uninterrupted(algorithm, driver)
        assert _trial_set(resumed) == trial_set
        assert resumed.best_accuracy == best_accuracy

    @pytest.mark.parametrize("stop_at", CHECKPOINT_STOPS)
    @pytest.mark.parametrize("algorithm", CHECKPOINT_ALGORITHMS)
    @pytest.mark.parametrize("driver", ["sync", "async"])
    def test_interrupted_run_finishes_bit_for_bit_identical(
            self, algorithm, driver, stop_at, tmp_path, uninterrupted):
        self._assert_resumes_bit_for_bit(algorithm, driver, tmp_path,
                                         stop_at, uninterrupted)

    @pytest.mark.slow
    @pytest.mark.parametrize("stop_at", SWEEP_STOPS)
    @pytest.mark.parametrize("algorithm", MATRIX_ALGORITHMS)
    @pytest.mark.parametrize("driver", ["sync", "async"])
    def test_every_stop_resumes_bit_for_bit(self, algorithm, driver, stop_at,
                                            tmp_path, uninterrupted):
        self._assert_resumes_bit_for_bit(algorithm, driver, tmp_path,
                                         stop_at, uninterrupted)

    def test_double_interruption_still_bit_for_bit(self, tmp_path):
        """Checkpoint → kill → resume → checkpoint → kill → resume."""
        from repro.search import SearchSession

        path = tmp_path / "twice.checkpoint"

        def interrupt_at(n):
            def hook(session, record):
                if len(session.result) == n:
                    session.checkpoint(path)
                    session.stop()
            return hook

        session = SearchSession(
            _make_problem(None), make_search_algorithm("tevo_h", random_state=0),
            on_trial=interrupt_at(3),
        )
        session.run(max_trials=12)
        second = SearchSession.resume(path, problem=_make_problem(None),
                                      on_trial=interrupt_at(8))
        second.run()
        third = SearchSession.resume(path, problem=_make_problem(None))
        final = third.run()
        reference = make_search_algorithm("tevo_h", random_state=0).search(
            _make_problem(None), max_trials=12)
        assert _trial_set(final) == _trial_set(reference)

    def test_mid_batch_checkpoint_resumes_bit_for_bit(self, tmp_path):
        """PBT observes its 8-wide initial batch one record at a time; a
        checkpoint taken two observations in carries the evaluated-but-
        unobserved remainder and must still resume exactly."""
        from repro.search import SearchSession

        path = tmp_path / "midbatch.checkpoint"

        def interrupt(session, record):
            if len(session.result) == 2:
                session.checkpoint(path)
                session.stop()

        session = SearchSession(_make_problem(None),
                                make_search_algorithm("pbt", random_state=0),
                                on_trial=interrupt)
        session.run(max_trials=12)
        resumed = SearchSession.resume(path, problem=_make_problem(None))
        final = resumed.run()
        reference = make_search_algorithm("pbt", random_state=0).search(
            _make_problem(None), max_trials=12)
        assert _trial_set(final) == _trial_set(reference)


class TestSerialTimeBudgetSemantics:
    def test_time_budget_stops_mid_batch_on_the_serial_engine(self):
        """The serial engine checks wall-clock budgets between evaluations."""
        from repro.core.budget import TimeBudget

        problem = _make_problem(None)
        now = [0.0]
        original_evaluate = problem.evaluator._evaluate_uncached

        def ticking_evaluate(*args, **kwargs):
            now[0] += 1.0  # each evaluation "takes" one fake second
            return original_evaluate(*args, **kwargs)

        problem.evaluator._evaluate_uncached = ticking_evaluate
        searcher = make_search_algorithm("pbt", random_state=0)  # n_init = 8
        result = searcher.search(problem, budget=TimeBudget(3.5,
                                                            clock=lambda: now[0]))
        # The budget expires inside PBT's initial population batch: only
        # the evaluations that fit ran, not the whole batch of 8.  The
        # third proposal repeats the second and is a cache hit, which
        # takes no fake time, so five trials hold four evaluations.
        assert problem.evaluator.n_evaluations == 4
        assert len(result) == 5


class TestBatchedRandomSearchEquivalence:
    def test_batched_rs_samples_the_same_pipelines(self):
        """batch_size=k consumes the RNG exactly like k single iterations."""
        single = _run("rs", {"batch_size": 1}, None)
        batched = _run("rs", {"batch_size": 7}, None)
        assert [t.pipeline.spec() for t in single.trials] == \
            [t.pipeline.spec() for t in batched.trials]
        assert batched.best_accuracy == single.best_accuracy


#: (backend, n_workers, driver) cells of the telemetry matrix — the same
#: configurations the prefix-cache matrix declares deterministic.
TELEMETRY_CELLS = PREFIX_CACHE_CELLS


class TestTelemetryDeterminism:
    """Observability never observes itself into the results.

    The telemetry tentpole's acceptance contract: a run with
    ``telemetry_mode="trace"`` (full span sink + per-trial metrics) is
    bit-for-bit identical to the same run with telemetry off, on every
    backend and driver.  Spans time the phases, counters tally the
    caches — nothing feeds back into proposal order, RNG consumption or
    evaluation values.
    """

    def _run_pair(self, tmp_path, backend, n_workers, driver):
        results = []
        for mode, directory in (("off", None), ("trace", tmp_path)):
            engine = None if backend is None else \
                ExecutionEngine(backend, n_workers=n_workers)
            searcher = make_search_algorithm("pbt", random_state=0)
            result = searcher.search(
                _make_problem(engine, telemetry_mode=mode,
                              telemetry_dir=directory,
                              async_mode=driver == "async"),
                max_trials=12,
            )
            if engine is not None:
                engine.close()
            results.append(result)
        return results

    @pytest.mark.parametrize("backend,n_workers,driver", TELEMETRY_CELLS)
    def test_trace_mode_bit_for_bit_identical_to_off(self, tmp_path, backend,
                                                     n_workers, driver):
        off, traced = self._run_pair(tmp_path, backend, n_workers, driver)
        assert _trial_set(traced) == _trial_set(off)
        assert traced.best_accuracy == off.best_accuracy
        # The traced run really did trace: the sink holds a span per trial.
        from repro.telemetry.tracing import read_trace

        events = read_trace(tmp_path / "trace.jsonl")
        assert sum(e["name"] == "trial" for e in events) == len(traced.trials)

    def test_counters_mode_matches_off_serially(self):
        off = make_search_algorithm("pbt", random_state=0).search(
            _make_problem(None), max_trials=12
        )
        counted = make_search_algorithm("pbt", random_state=0).search(
            _make_problem(None, telemetry_mode="counters"), max_trials=12
        )
        assert _trial_set(counted) == _trial_set(off)
