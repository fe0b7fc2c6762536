"""Chaos suite for the fault-tolerance layer (PR-9 acceptance).

Covers the failure taxonomy and :class:`RetryPolicy` (bounded, seeded,
deterministic), the :class:`FaultPlan` spec grammar, inline recovery on
the serial backend and its parity with the process backend, the real
crash-recovery and timeout-watchdog paths on the process backend, and the
acceptance
matrix: a fault plan with a worker kill and a hang fed into a
process-backend search completes with surviving records bit-for-bit
identical to a no-fault run, budgets never overshooting, and the
``engine.*`` failure counters matching the plan.

Tests that genuinely kill pool workers are marked ``slow`` (the CI chaos
smoke step opts into them); the compact process crash-recovery tests
stay in the tier-1 default selection.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.core import Pipeline, PipelineEvaluator
from repro.core.context import ExecutionContext
from repro.core.problem import AutoFPProblem
from repro.core.search_space import SearchSpace
from repro.datasets.synthetic import distort_features, make_classification
from repro.engine import (
    EvalTask,
    EvaluationTimeoutError,
    ExecutionEngine,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    SerialFuture,
    TransientEvaluationError,
    WorkerCrashError,
    is_transient,
)
from repro.engine.backends import ProcessBackend, SerialBackend, make_backend
from repro.engine.faults import (
    FAILURE_KIND_CRASH,
    FAILURE_KIND_TIMEOUT,
    FaultInjection,
    failure_entry,
    strip_fault,
    unwrap_work_item,
)
from repro.exceptions import ValidationError
from repro.models.linear import LogisticRegression
from repro.search import make_search_algorithm
from repro.telemetry.metrics import get_registry

#: zero-sleep policy so recovery paths run at full speed under test
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


@pytest.fixture(autouse=True)
def _reset_registry():
    get_registry().reset()
    yield
    get_registry().reset()


def _counter(name):
    return get_registry().counter(name).value


def _make_evaluator():
    X, y = make_classification(n_samples=110, n_features=6, class_sep=2.0,
                               random_state=7)
    X = distort_features(X, random_state=7)
    return PipelineEvaluator.from_dataset(
        X, y, LogisticRegression(max_iter=40), random_state=0
    )


def _sample_tasks(n=5):
    # Distinct specs only: a duplicate task aliases its twin's dispatch
    # group, which would fan one injected fault out to several records
    # and make index-targeted assertions ambiguous.
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


def _rows(records):
    return [(r.pipeline.spec(), round(r.fidelity, 6), r.accuracy,
             r.iteration, r.failure_kind) for r in records]


def _reference_rows(n=5):
    """Rows of a clean serial run over the same tasks."""
    engine = ExecutionEngine("serial")
    try:
        return _rows(engine.run(_make_evaluator(), _sample_tasks(n)))
    finally:
        engine.close()


def _chaos_engine(inner, plan):
    return ExecutionEngine(inner, chaos=plan)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError, match="base_delay"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValidationError, match="jitter"):
            RetryPolicy(jitter=-0.5)
        with pytest.raises(ValidationError, match="attempt"):
            RetryPolicy().delay(0)

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=0.5, max_delay=1.0, jitter=0.0)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.0  # 0.5 * 2 hits the cap
        assert policy.delay(3) == 1.0

    def test_jitter_is_seeded_and_bounded(self):
        first = RetryPolicy(base_delay=0.2, jitter=0.1, seed=9)
        second = RetryPolicy(base_delay=0.2, jitter=0.1, seed=9)
        other = RetryPolicy(base_delay=0.2, jitter=0.1, seed=10)
        delays = [first.delay(n) for n in (1, 2, 3)]
        assert delays == [second.delay(n) for n in (1, 2, 3)]
        assert delays != [other.delay(n) for n in (1, 2, 3)]
        for attempt, delay in enumerate(delays, start=1):
            base = 0.2 * 2 ** (attempt - 1)
            assert base <= delay <= base * 1.1

    def test_should_retry_respects_attempts_and_taxonomy(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.should_retry(1)
        assert not policy.should_retry(2)
        assert policy.should_retry(1, WorkerCrashError("boom"))
        assert policy.should_retry(1, TransientEvaluationError("flaky"))
        assert not policy.should_retry(1, EvaluationTimeoutError("late"))
        assert not policy.should_retry(1, ValueError("bug"))

    def test_taxonomy_helpers(self):
        assert is_transient(WorkerCrashError("boom"))
        assert not is_transient(EvaluationTimeoutError("late"))
        assert is_transient(OSError("pipe"))
        assert not is_transient(KeyError("bug"))

    def test_failure_entry_shape(self):
        entry = failure_entry(FAILURE_KIND_CRASH)
        assert entry == {"accuracy": 0.0, "prep_time": 0.0, "train_time": 0.0,
                         "failed": True, "failure_kind": FAILURE_KIND_CRASH}
        with pytest.raises(ValidationError, match="failure kind"):
            failure_entry("oom")


class TestFaultPlan:
    def test_spec_round_trips(self):
        spec = "crash@1,error@4,delay@6:30,crash@8!"
        plan = FaultPlan.from_spec(spec)
        assert plan.to_spec() == spec
        assert len(plan) == 4
        assert plan.counts() == {"crash": 2, "error": 1, "delay": 1}
        assert plan.fault_at(6) == InjectedFault("delay", delay=30.0)
        assert plan.fault_at(8).sticky
        assert plan.fault_at(0) is None

    @pytest.mark.parametrize("spec", [
        "crash",              # no @index
        "crash@x",            # non-integer index
        "oom@2",              # unknown kind
        "delay@3",            # delay without a duration
        "crash@3:5",          # duration on a non-delay fault
        "delay@2:soon",       # non-numeric duration
        "crash@1,error@1",    # duplicate index
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValidationError):
            FaultPlan.from_spec(spec)

    def test_constructor_validation(self):
        with pytest.raises(ValidationError, match=">= 0"):
            FaultPlan({-1: InjectedFault("crash")})
        with pytest.raises(ValidationError, match="InjectedFault"):
            FaultPlan({0: "crash"})

    def test_random_plans_are_seeded(self):
        kwargs = dict(crash_rate=0.2, error_rate=0.2, delay_rate=0.1,
                      delay=5.0)
        plan = FaultPlan.random(7, 50, **kwargs)
        assert plan.to_spec() == FaultPlan.random(7, 50, **kwargs).to_spec()
        assert len(plan) > 0
        with pytest.raises(ValidationError, match="at most 1.0"):
            FaultPlan.random(0, 10, crash_rate=0.8, error_rate=0.4)

    def test_injection_primitives(self):
        pair = ("pipeline", 1.0)
        wrapped = FaultInjection(pair, InjectedFault("error"))
        assert unwrap_work_item(wrapped) == (pair, wrapped.fault)
        assert unwrap_work_item(pair) == (pair, None)
        assert strip_fault(wrapped) == pair  # non-sticky faults fire once
        sticky = FaultInjection(pair, InjectedFault("crash", sticky=True))
        assert strip_fault(sticky) is sticky

    def test_attach_wraps_only_the_planned_index(self):
        plan = FaultPlan.from_spec("error@1")
        pair = ("pipeline", 1.0)
        backend = SerialBackend()
        assert plan.attach(0, pair, backend) is pair
        assert unwrap_work_item(plan.attach(1, pair, backend)) \
            == (pair, InjectedFault("error"))
        assert plan.attach(2, pair, backend) is pair

    def test_attach_drop_worker_drops_then_ships_clean(self):
        class _Fleet:
            dropped = 0

            def drop_worker(self):
                self.dropped += 1

        plan = FaultPlan.from_spec("drop_worker@1")
        pair = ("pipeline", 1.0)
        fleet = _Fleet()
        assert plan.attach(0, pair, fleet) is pair
        assert fleet.dropped == 0
        assert plan.attach(1, pair, fleet) is pair
        assert fleet.dropped == 1


class TestEngineChaosWiring:
    def test_bad_chaos_is_refused_before_a_backend_exists(self, monkeypatch):
        import repro.engine.engine as engine_module

        def no_backend(*args, **kwargs):
            raise AssertionError("a backend was built for a refused plan")

        monkeypatch.setattr(engine_module, "make_backend", no_backend)
        with pytest.raises(ValidationError, match="fault kind must be one of"):
            ExecutionEngine("serial", chaos="oom@1")
        with pytest.raises(ValidationError, match="FaultPlan"):
            ExecutionEngine("serial", chaos=SerialBackend())

    def test_settings_reach_the_backend_itself(self):
        inner = SerialBackend()
        engine = ExecutionEngine(inner, chaos="error@0", eval_timeout=1.5,
                                 retry_policy=FAST_RETRY)
        try:
            assert engine.backend is inner
            assert inner.eval_timeout == 1.5
            assert inner.retry_policy is FAST_RETRY
            assert engine.n_workers == 1
            assert inner.last_crash is None
        finally:
            engine.close()

    def test_only_primaries_take_plan_indices(self):
        # The alias of an in-flight twin and a memo hit dispatch nothing,
        # so the plan's index 1 lands on the second distinct task.
        evaluator = _make_evaluator()
        engine = _chaos_engine(
            SerialBackend(retry_policy=RetryPolicy(max_attempts=1)),
            "crash@1!",
        )
        first, second = _sample_tasks(2)
        try:
            pending = [engine.submit_task(evaluator, first)
                       for _ in range(2)]
            records = [engine.resolve_task(evaluator, item)
                       for item in pending]
            for task in (first, second):
                records.append(engine.resolve_task(
                    evaluator, engine.submit_task(evaluator, task)))
        finally:
            engine.close()
        assert [record.failure_kind for record in records] \
            == [None, None, None, FAILURE_KIND_CRASH]
        assert evaluator.n_evaluations == 2

    def test_drop_worker_needs_worker_membership(self):
        # A membership fault on a backend without workers is refused at
        # the dispatch it names, before anything is in flight.
        engine = ExecutionEngine("serial", chaos="drop_worker@0")
        try:
            with pytest.raises(ValidationError, match="drop_worker"):
                engine.submit_task(_make_evaluator(), _sample_tasks(1)[0])
        finally:
            engine.close()
        assert get_registry().gauge("engine.inflight").value == 0

    def test_make_backend_applies_options_to_instances(self):
        backend = make_backend(SerialBackend(), eval_timeout=2.0,
                               retry_policy=FAST_RETRY)
        assert backend.eval_timeout == 2.0
        assert backend.retry_policy is FAST_RETRY
        with pytest.raises(ValidationError, match="eval_timeout"):
            make_backend("serial", eval_timeout=-1.0)


class TestContextWiring:
    def test_chaos_spec_normalized_and_validated(self):
        context = ExecutionContext(chaos=" delay@3:30 , crash@1! ")
        assert context.chaos == "crash@1!,delay@3:30"
        assert "chaos=" in context.describe()
        with pytest.raises(ValidationError):
            ExecutionContext(chaos="oom@1")
        with pytest.raises(ValidationError, match="eval_timeout"):
            ExecutionContext(eval_timeout=0.0)

    def test_build_engine_wraps_in_chaos(self):
        context = ExecutionContext(chaos="error@1", eval_timeout=2.5)
        engine = context.build_engine()
        try:
            assert type(engine.backend) is SerialBackend
            assert engine.backend.eval_timeout == 2.5
            assert engine.chaos.to_spec() == "error@1"
        finally:
            engine.close()

    def test_serial_search_honours_eval_timeout(self):
        # A deadline no evaluation can meet: every serial trial times out,
        # with or without a chaos plan attached.
        problem = AutoFPProblem.from_registry(
            "blood", "lr", scale=0.5, random_state=0,
            context=ExecutionContext(eval_timeout=1e-6),
        )
        try:
            result = make_search_algorithm("rs", random_state=0).search(
                problem, max_trials=5)
        finally:
            problem.evaluator.engine.close()
        assert [t.failure_kind for t in result.trials] \
            == [FAILURE_KIND_TIMEOUT] * 5
        assert _counter("engine.eval_timeouts") == 5

    def test_from_env_reads_timeout_and_chaos(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_CHAOS", "error@0")
        context = ExecutionContext.from_env()
        assert context.eval_timeout == 1.5
        assert context.chaos == "error@0"
        monkeypatch.setenv("REPRO_EVAL_TIMEOUT", "soon")
        with pytest.raises(ValidationError, match="REPRO_EVAL_TIMEOUT"):
            ExecutionContext.from_env()


class TestSerialFutureTimeout:
    def test_timeout_argument_rejected(self):
        future = SerialFuture(lambda item: item, 1)
        with pytest.raises(ValidationError, match="cannot honor a timeout"):
            future.result(timeout=0.1)
        assert future.result() == 1
        assert future.result(timeout=None) == 1


class TestInlineChaosRecovery:
    """The serial backend: the recovering future retries in-process."""

    @pytest.mark.parametrize("make_inner", [
        lambda: SerialBackend(retry_policy=FAST_RETRY),
    ], ids=["serial"])
    def test_transient_faults_converge_to_the_clean_run(self, make_inner):
        engine = _chaos_engine(make_inner(), "error@0,crash@3")
        try:
            records = engine.run(_make_evaluator(), _sample_tasks())
        finally:
            engine.close()
        assert _rows(records) == _reference_rows()
        assert _counter("engine.retries") == 2
        assert _counter("engine.worker_crashes") == 1
        assert _counter("engine.quarantined_tasks") == 0

    def test_sticky_crash_quarantines_after_max_attempts(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        engine = _chaos_engine(SerialBackend(retry_policy=policy),
                               "crash@1!")
        try:
            records = engine.run(_make_evaluator(), _sample_tasks())
        finally:
            engine.close()
        reference = _reference_rows()
        rows = _rows(records)
        # Serial dispatch order is submission order: index 1 is tasks[1].
        assert rows[1][2] == 0.0
        assert rows[1][4] == FAILURE_KIND_CRASH
        assert [r for i, r in enumerate(rows) if i != 1] \
            == [r for i, r in enumerate(reference) if i != 1]
        # The first crash is a free loss, as a lost pool is on the process
        # backend; then max_attempts charged attempts.
        assert _counter("engine.worker_crashes") == policy.max_attempts + 1
        assert _counter("engine.retries") == policy.max_attempts
        assert _counter("engine.quarantined_tasks") == 1

    def test_soft_deadline_marks_slow_evaluations(self):
        inner = SerialBackend(eval_timeout=1.0, retry_policy=FAST_RETRY)
        engine = _chaos_engine(inner, "delay@1:1.3")
        try:
            records = engine.run(_make_evaluator(), _sample_tasks(3))
        finally:
            engine.close()
        rows = _rows(records)
        assert rows[1][2] == 0.0
        assert rows[1][4] == FAILURE_KIND_TIMEOUT
        assert [row[4] for i, row in enumerate(rows) if i != 1] == [None, None]
        assert _counter("engine.eval_timeouts") == 1
        assert _counter("engine.retries") == 0

    def test_failure_records_are_never_cached(self):
        evaluator = _make_evaluator()
        engine = _chaos_engine(
            SerialBackend(retry_policy=RetryPolicy(max_attempts=1)),
            "crash@0!",
        )
        try:
            first = engine.run(evaluator, _sample_tasks(1))
            assert first[0].failure_kind == FAILURE_KIND_CRASH
            # The chaos plan is spent (index 0 fired); a rerun on the same
            # evaluator must re-evaluate for real, not replay the failure.
            second = engine.run(evaluator, _sample_tasks(1))
        finally:
            engine.close()
        assert second[0].failure_kind is None
        assert second[0].accuracy > 0.0

    @pytest.mark.parametrize("dispatch", ["futures", "run"])
    def test_duplicate_of_a_failed_evaluation_runs_again(self, dispatch):
        """A duplicate that aliased its twin in flight resolves as if it
        were submitted after the twin resolved: the twin's failure entry
        is never memoized, so the duplicate runs its own evaluation."""
        evaluator = _make_evaluator()
        engine = _chaos_engine(
            SerialBackend(retry_policy=RetryPolicy(max_attempts=1)),
            "crash@0!",
        )
        task, other = _sample_tasks(2)
        try:
            if dispatch == "futures":
                pending = [engine.submit_task(evaluator, task)
                           for _ in range(2)]
                records = [engine.resolve_task(evaluator, item)
                           for item in pending]
            else:
                records = engine.run(evaluator, [task, task, other])
        finally:
            engine.close()
        assert [record.failure_kind for record in records] \
            == [FAILURE_KIND_CRASH, None, None][:len(records)]
        assert records[1].accuracy \
            == _make_evaluator().evaluate(task.pipeline).accuracy

    def test_same_plan_twice_is_bit_for_bit_identical(self):
        def run_once():
            engine = _chaos_engine(SerialBackend(retry_policy=FAST_RETRY),
                                   "crash@1!,error@3")
            try:
                return _rows(engine.run(_make_evaluator(), _sample_tasks()))
            finally:
                engine.close()

        assert run_once() == run_once()


#: equal-length pipelines: LPT dispatch on two workers keeps submission
#: order, so a plan index names the same task on every backend
_PARITY_PIPELINES = [
    ("standard_scaler", "normalizer"),
    ("minmax_scaler", "binarizer"),
    ("maxabs_scaler", "normalizer"),
    ("normalizer", "standard_scaler"),
    ("power_transformer", "minmax_scaler"),
]


class TestSerialProcessParity:
    """One plan, one outcome: inline crashes are attributed like pool losses."""

    @staticmethod
    def _run(inner, plan):
        get_registry().reset()
        engine = _chaos_engine(inner, plan)
        tasks = [EvalTask(Pipeline.from_names(names))
                 for names in _PARITY_PIPELINES]
        try:
            rows = _rows(engine.run(_make_evaluator(), tasks))
        finally:
            engine.close()
        return rows, _counter("engine.quarantined_tasks")

    @pytest.mark.parametrize("max_attempts", [1, 2])
    @pytest.mark.parametrize("plan", ["crash@1", "crash@1!", "error@1"])
    def test_serial_and_process_give_equal_records(self, plan, max_attempts):
        policy = RetryPolicy(max_attempts=max_attempts, base_delay=0.0,
                             jitter=0.0)
        serial = self._run(SerialBackend(retry_policy=policy), plan)
        process = self._run(ProcessBackend(n_workers=2, retry_policy=policy),
                            plan)
        assert serial == process
        rows, quarantined = serial
        # A one-shot crash quarantines nobody; a sticky crash, or an error
        # with no attempt left, quarantines only the task it hit.
        expected = 0 if plan == "crash@1" \
            or (plan == "error@1" and max_attempts > 1) else 1
        assert quarantined == expected
        assert [i for i, row in enumerate(rows) if row[4] is not None] \
            == [1] * expected


def _make_problem(async_mode=False):
    X, y = make_classification(n_samples=120, n_features=6, class_sep=2.0,
                               random_state=3)
    X = distort_features(X, random_state=3)
    return AutoFPProblem.from_arrays(
        X, y, LogisticRegression(max_iter=40), space=SearchSpace(max_length=3),
        random_state=0, name="faults/lr",
        context=ExecutionContext(async_mode=async_mode),
    )


def _search_rows(result):
    return [(t.pipeline.spec(), round(t.fidelity, 6), t.accuracy,
             t.iteration, t.failure_kind) for t in result.trials]


class TestBudgetsUnderFaults:
    def _search(self, engine, max_trials=8):
        problem = _make_problem()
        problem.evaluator.set_engine(engine)
        searcher = make_search_algorithm("rs", random_state=0, batch_size=4)
        try:
            return searcher.search(problem, max_trials=max_trials)
        finally:
            if engine is not None:
                engine.close()

    def test_recovered_search_matches_the_clean_run_exactly(self):
        reference = self._search(None)
        chaotic = self._search(
            _chaos_engine(SerialBackend(retry_policy=FAST_RETRY),
                          "crash@2,error@5")
        )
        assert len(chaotic) == 8  # the trial budget never overshoots
        assert _search_rows(chaotic) == _search_rows(reference)
        assert chaotic.best_accuracy == reference.best_accuracy

    def test_quarantined_trials_consume_budget_without_overshoot(self):
        reference = self._search(None)
        chaotic = self._search(
            _chaos_engine(SerialBackend(retry_policy=FAST_RETRY), "crash@2!")
        )
        rows = _search_rows(chaotic)
        assert len(rows) == 8
        failed = [row for row in rows if row[4] is not None]
        assert [row[4] for row in failed] == [FAILURE_KIND_CRASH]
        assert [row for row in rows if row[4] is None] \
            == [row for i, row in enumerate(_search_rows(reference))
                if rows[i][4] is None]
        assert _counter("engine.quarantined_tasks") == 1


class TestProcessRecovery:
    """Real pool workers, really killed; the compact cases stay tier-1."""

    def test_crash_recovery_reproduces_the_clean_batch(self):
        engine = _chaos_engine(
            ProcessBackend(n_workers=2, retry_policy=FAST_RETRY), "crash@1"
        )
        try:
            records = engine.run(_make_evaluator(), _sample_tasks())
        finally:
            engine.close()
        assert _rows(records) == _reference_rows()
        assert _counter("engine.worker_crashes") == 1
        assert _counter("engine.retries") >= 1
        assert _counter("engine.quarantined_tasks") == 0

    @pytest.mark.parametrize("max_attempts", [1, 2])
    def test_pool_broken_by_another_task_is_a_free_loss(self, max_attempts):
        # Another task's crash broke the shared pool before this item was
        # submitted: rebuilding it must not spend the item's attempts.
        policy = RetryPolicy(max_attempts=max_attempts, base_delay=0.0,
                             jitter=0.0)
        backend = ProcessBackend(n_workers=2, retry_policy=policy)
        evaluator = _make_evaluator()
        culprit, innocent = _sample_tasks(2)
        try:
            crashed = backend.submit_evaluation(evaluator, FaultInjection(
                (culprit.pipeline, culprit.fidelity), InjectedFault("crash")))
            crashed._inner.exception(timeout=60.0)  # the pool is broken now
            entry = backend.submit_evaluation(
                evaluator, (innocent.pipeline, innocent.fidelity)).result()
        finally:
            backend.close()
        assert entry.get("failure_kind") is None
        assert entry["accuracy"] == _reference_rows(2)[1][2]
        assert _counter("engine.worker_crashes") == 1

    def test_finished_evaluation_read_after_its_deadline_keeps_its_result(self):
        # In-order collection can read a task only after its deadline,
        # when the task itself finished long before: that is no timeout.
        evaluator = _make_evaluator()
        task = _sample_tasks(1)[0]
        item = (task.pipeline, task.fidelity)
        expected = SerialBackend().submit_evaluation(evaluator, item).result()
        backend = ProcessBackend(n_workers=1, eval_timeout=1.0,
                                 retry_policy=FAST_RETRY)
        try:
            future = backend.submit_evaluation(evaluator, item)
            future._inner.result(timeout=60.0)
            future._deadline = time.monotonic() - 1.0
            entry = future.result()
        finally:
            backend.close()
        assert entry.get("failure_kind") is None
        assert entry["accuracy"] == expected["accuracy"]
        assert _counter("engine.eval_timeouts") == 0

    @pytest.mark.slow
    def test_async_futures_survive_a_worker_kill(self, resolve_as_completed):
        engine = _chaos_engine(
            ProcessBackend(n_workers=2, retry_policy=FAST_RETRY), "crash@0"
        )
        evaluator = _make_evaluator()
        try:
            pending = [engine.submit_task(evaluator, task)
                       for task in _sample_tasks()]
            records = [record for _, record
                       in resolve_as_completed(engine, evaluator, pending)]
        finally:
            engine.close()
        assert sorted(_rows(records)) == sorted(_reference_rows())
        assert _counter("engine.worker_crashes") == 1

    @pytest.mark.slow
    def test_sticky_crash_quarantines_for_real(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        engine = _chaos_engine(
            ProcessBackend(n_workers=2, retry_policy=policy), "crash@1!"
        )
        try:
            records = engine.run(_make_evaluator(), _sample_tasks())
        finally:
            engine.close()
        rows = _rows(records)
        failed = [row for row in rows if row[4] is not None]
        assert [(row[2], row[4]) for row in failed] \
            == [(0.0, FAILURE_KIND_CRASH)]
        surviving = {row for row in rows if row[4] is None}
        assert surviving == {row for row in _reference_rows()
                             if row[0] != failed[0][0]}
        assert _counter("engine.quarantined_tasks") == 1

    @pytest.mark.slow
    @pytest.mark.parametrize("plan", ["crash@1", "crash@1!"])
    @pytest.mark.parametrize("dispatch", ["run", "futures"])
    def test_only_the_faulty_task_is_ever_quarantined(self, dispatch, plan,
                                                       resolve_as_completed):
        # One attempt each: a lost pool must not cost an innocent task its
        # only try, on the batch path and the futures path alike.
        policy = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)
        engine = _chaos_engine(
            ProcessBackend(n_workers=2, retry_policy=policy), plan
        )
        evaluator = _make_evaluator()
        tasks = _sample_tasks()
        children = set(multiprocessing.active_children())
        try:
            if dispatch == "run":
                records = engine.run(evaluator, tasks)
            else:
                pending = [engine.submit_task(evaluator, task)
                           for task in tasks]
                records = [None] * len(tasks)
                for index, record in resolve_as_completed(engine, evaluator,
                                                          pending):
                    records[index] = record
        finally:
            engine.close()
        # Dispatch index 1: the second task in LPT order under run(), the
        # second submitted on the futures path.
        order = sorted(range(len(tasks)),
                       key=lambda i: (-len(tasks[i].pipeline), i))
        culprit = order[1] if dispatch == "run" else 1
        rows = _rows(records)
        reference = _reference_rows()
        failed = [i for i, row in enumerate(rows) if row[4] is not None]
        if plan.endswith("!"):
            assert failed == [culprit]
            assert rows[culprit][2:] == (0.0, 0, FAILURE_KIND_CRASH)
            assert _counter("engine.quarantined_tasks") == 1
        else:
            assert failed == []
            assert _counter("engine.quarantined_tasks") == 0
        assert [row for i, row in enumerate(rows) if i not in failed] \
            == [row for i, row in enumerate(reference) if i not in failed]
        # close() reaps every worker, private recovery pools included
        assert set(multiprocessing.active_children()) <= children

    @pytest.mark.slow
    @pytest.mark.parametrize("plan", ["crash@1", "crash@1!"])
    def test_async_search_loses_only_the_faulty_task(self, plan):
        # The completion-driven search loop on process futures, one attempt
        # each: a lost pool costs no innocent trial, and only a sticky
        # crash ends in a quarantined record.
        policy = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)
        engine = _chaos_engine(
            ProcessBackend(n_workers=2, retry_policy=policy), plan
        )
        problem = _make_problem(async_mode=True)
        problem.evaluator.set_engine(engine)
        searcher = make_search_algorithm("rs", random_state=0, batch_size=4)
        children = set(multiprocessing.active_children())
        try:
            result = searcher.search(problem, max_trials=12)
        finally:
            engine.close()
        assert len(result) == 12
        assert _counter("engine.worker_crashes") >= 1
        failed = [t.failure_kind for t in result.trials
                  if t.failure_kind is not None]
        if plan.endswith("!"):
            assert failed == [FAILURE_KIND_CRASH]
            assert _counter("engine.quarantined_tasks") == 1
        else:
            assert failed == []
        serial = _make_problem().evaluator
        for trial in result.trials:
            if trial.failure_kind is None:
                assert trial.accuracy == serial.evaluate(
                    trial.pipeline, fidelity=trial.fidelity).accuracy
        # close() reaps every worker, private recovery pools included
        assert set(multiprocessing.active_children()) <= children

    @pytest.mark.slow
    def test_task_lost_to_a_siblings_deadline_is_not_charged(self):
        # Dispatch index 0 hangs; index 2 starts once index 1 is done and
        # is mid-run when index 0's deadline kills the shared pool.  With
        # one attempt each it must rerun alone, neither timed out nor
        # quarantined.
        policy = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)
        engine = _chaos_engine(
            ProcessBackend(n_workers=2, eval_timeout=1.0,
                           retry_policy=policy),
            "delay@0:30,delay@1:0.3,delay@2:0.9",
        )
        try:
            records = engine.run(_make_evaluator(), _sample_tasks(3))
        finally:
            engine.close()
        rows = _rows(records)
        failed = [row for row in rows if row[4] is not None]
        assert [(row[2], row[4]) for row in failed] \
            == [(0.0, FAILURE_KIND_TIMEOUT)]
        assert {row for row in rows if row[4] is None} \
            == {row for row in _reference_rows(3) if row[0] != failed[0][0]}
        assert _counter("engine.eval_timeouts") == 1
        assert _counter("engine.retries") == 1  # the one uncharged rerun
        assert _counter("engine.quarantined_tasks") == 0

    @pytest.mark.slow
    def test_deadline_never_counts_time_queued_behind_the_window(self):
        # Each task takes ~0.6s of a 1.0s deadline, 8 tasks on 2 workers:
        # only dispatching as slots free keeps queue time off the clock.
        plan = ",".join(f"delay@{index}:0.6" for index in range(8))
        engine = _chaos_engine(
            ProcessBackend(n_workers=2, eval_timeout=1.0,
                           retry_policy=FAST_RETRY),
            plan,
        )
        try:
            records = engine.run(_make_evaluator(), _sample_tasks(8))
        finally:
            engine.close()
        assert [r.failure_kind for r in records] == [None] * 8
        assert _rows(records) == _reference_rows(8)
        assert _counter("engine.eval_timeouts") == 0

    @pytest.mark.slow
    def test_watchdog_kills_hung_evaluations(self):
        engine = _chaos_engine(
            ProcessBackend(n_workers=2, eval_timeout=1.0,
                           retry_policy=FAST_RETRY),
            "delay@1:30",
        )
        start = time.monotonic()
        try:
            records = engine.run(_make_evaluator(), _sample_tasks(4))
        finally:
            engine.close()
        assert time.monotonic() - start < 20.0  # nowhere near the 30s hang
        rows = _rows(records)
        failed = [row for row in rows if row[4] is not None]
        assert [(row[2], row[4]) for row in failed] \
            == [(0.0, FAILURE_KIND_TIMEOUT)]
        surviving = {row for row in rows if row[4] is None}
        assert surviving == {row for row in _reference_rows(4)
                             if row[0] != failed[0][0]}
        assert _counter("engine.eval_timeouts") == 1

    @pytest.mark.slow
    def test_acceptance_matrix_kill_plus_hang_search(self):
        """ISSUE acceptance: >=1 kill + >=1 hang through a process search.

        The run completes, surviving records are bit-for-bit identical to
        the no-fault run, the hung trial carries ``failure_kind``, the
        trial budget never overshoots, and the failure counters match the
        plan (one kill, one hang).
        """
        def search(engine, max_trials=8):
            problem = _make_problem()
            problem.evaluator.set_engine(engine)
            searcher = make_search_algorithm("rs", random_state=0,
                                             batch_size=4)
            try:
                return searcher.search(problem, max_trials=max_trials)
            finally:
                if engine is not None:
                    engine.close()

        reference = _search_rows(search(None))
        plan = "crash@1,delay@3:30!"
        results = []
        for _ in range(2):  # same plan twice -> identical records
            get_registry().reset()
            engine = _chaos_engine(
                ProcessBackend(n_workers=2, eval_timeout=1.5,
                               retry_policy=FAST_RETRY),
                plan,
            )
            results.append(_search_rows(search(engine)))
            assert _counter("engine.worker_crashes") == 1
            assert _counter("engine.eval_timeouts") == 1
        first, second = results
        assert first == second
        assert len(first) == 8  # budget: exactly max_trials, no overshoot
        failed = [row for row in first if row[4] is not None]
        assert [(row[2], row[4]) for row in failed] \
            == [(0.0, FAILURE_KIND_TIMEOUT)]
        surviving = {row for row in first if row[4] is None}
        assert surviving == {row for row in reference
                             if row[0] != failed[0][0]}
