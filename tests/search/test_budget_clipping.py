"""Engine-aware budget semantics: no over-admission, bounded time overshoot.

PR 1 left two budget gaps: a batch of k proposals was admitted as long as
the budget was not yet exhausted (so fractional-fidelity batches could
overshoot ``TrialBudget.max_trials``), and with an engine attached a time
budget was only checked at the batch boundary (overshoot of up to one whole
batch).  These tests pin the fixed semantics: admission is clipped to
``remaining()``, and wall-clock budgets cut batches short between dispatch
chunks of ``n_workers`` tasks.
"""

import pytest

from repro.core import (
    AutoFPProblem,
    CompositeBudget,
    Pipeline,
    TimeBudget,
    TrialBudget,
)
from repro.core.search_space import SearchSpace
from repro.engine import ExecutionEngine
from repro.models.linear import LogisticRegression
from repro.search.base import SearchAlgorithm
from repro.search.traditional import RandomSearch

#: ten distinct single/double-step pipelines (distinct cache keys)
TEN_PIPELINES = [
    Pipeline.from_names(names) for names in (
        ["standard_scaler"], ["minmax_scaler"], ["maxabs_scaler"],
        ["normalizer"], ["binarizer"], ["quantile_transformer"],
        ["power_transformer"], ["standard_scaler", "minmax_scaler"],
        ["minmax_scaler", "normalizer"], ["maxabs_scaler", "binarizer"],
    )
]


class FixedBatch(SearchAlgorithm):
    """Proposes the same fixed batch every iteration (test-only)."""

    name = "fixed_batch"

    def __init__(self, proposals):
        super().__init__(random_state=0)
        self._proposals = list(proposals)

    def _propose(self, space, rng, trials):
        return list(self._proposals)


class TickingModel(LogisticRegression):
    """LogisticRegression whose every fit advances a fake wall clock.

    The clock lives on the class so ``clone()`` (a deepcopy) still ticks
    the shared value.
    """

    ticks = [0.0]

    def fit(self, X, y):
        type(self).ticks[0] += 1.0
        return super().fit(X, y)


def _problem(distorted_data, *, model=None, engine=None):
    X, y = distorted_data
    problem = AutoFPProblem.from_arrays(
        X, y, model if model is not None else LogisticRegression(max_iter=30),
        space=SearchSpace(max_length=3), random_state=0, name="clip/lr",
    )
    if engine is not None:
        problem.evaluator.set_engine(engine)
    return problem


class TestTrialBudgetClipping:
    @pytest.mark.parametrize("engine", [None, "serial", "process"])
    def test_batched_search_never_exceeds_max_trials(self, distorted_data,
                                                     engine):
        problem = _problem(
            distorted_data,
            engine=None if engine is None
            else ExecutionEngine(engine,
                                 n_workers=None if engine == "serial" else 2),
        )
        budget = TrialBudget(5)
        try:
            result = RandomSearch(batch_size=8).search(problem, budget)
        finally:
            problem.evaluator.engine.close()
        assert len(result) == 5
        assert budget.used == 5.0

    def test_batch_larger_than_remaining_is_clipped(self, distorted_data):
        problem = _problem(distorted_data,
                           engine=ExecutionEngine("process", n_workers=2))
        budget = TrialBudget(3)
        try:
            result = FixedBatch(TEN_PIPELINES).search(problem, budget)
        finally:
            problem.evaluator.engine.close()
        assert len(result) == 3
        assert budget.used == 3.0

    def test_fractional_fidelity_never_overshoots(self, distorted_data):
        proposals = [(pipeline, 0.4) for pipeline in TEN_PIPELINES[:3]]
        problem = _problem(distorted_data)
        budget = TrialBudget(1)
        result = FixedBatch(proposals).search(problem, budget)
        # 0.4 + 0.4 admitted, 0.4 clipped; the leftover 0.2 is spent on the
        # next iteration's first proposal instead of overshooting.
        assert budget.used == pytest.approx(1.0)
        assert budget.used <= budget.max_trials
        assert len(result) == 3

    def test_composite_fractional_leftover_charges_trial_units(self,
                                                               distorted_data):
        """Regression: the fractional-leftover charge once used composite
        remaining(), which can be seconds — undercharging the trial budget
        and admitting evaluations beyond max_trials."""
        proposals = [(pipeline, 0.4) for pipeline in TEN_PIPELINES[:3]]
        problem = _problem(distorted_data)
        trials = TrialBudget(1)
        now = [0.0]
        # Time remaining (0.1 s) is deliberately smaller than the trial
        # remainder (0.2): the leftover charge must still be 0.2 trials.
        budget = CompositeBudget(trials,
                                 TimeBudget(0.1, clock=lambda: now[0]))
        result = FixedBatch(proposals).search(problem, budget)
        assert trials.used == pytest.approx(1.0)
        assert trials.used <= trials.max_trials
        assert len(result) == 3  # the seconds-as-trials bug admitted a 4th

    def test_initial_batch_is_clipped_too(self, distorted_data):
        class WideInit(FixedBatch):
            def _initial_pipelines(self, space, rng):
                return TEN_PIPELINES

        problem = _problem(distorted_data)
        budget = TrialBudget(4)
        result = WideInit(TEN_PIPELINES).search(problem, budget)
        assert len(result) == 4
        assert budget.used == 4.0


class TestTimeBudgetChunking:
    def _ticking_problem(self, distorted_data, engine=None):
        TickingModel.ticks[0] = 0.0
        return _problem(distorted_data, model=TickingModel(max_iter=30),
                        engine=engine)

    def test_serial_path_stops_between_trials(self, distorted_data):
        problem = self._ticking_problem(distorted_data)
        budget = TimeBudget(3.5, clock=lambda: TickingModel.ticks[0])
        FixedBatch(TEN_PIPELINES).search(problem, budget)
        # Trials tick 1s each: the 4th ends at t=4 > 3.5 and the batch stops
        # there — one in-flight task past the boundary, never the whole batch.
        assert problem.evaluator.n_evaluations == 4

    def test_engine_batches_stop_at_chunk_boundaries(self, distorted_data):
        engine = ExecutionEngine("serial", n_workers=1)
        problem = self._ticking_problem(distorted_data, engine=engine)
        budget = TimeBudget(3.5, clock=lambda: TickingModel.ticks[0])
        FixedBatch(TEN_PIPELINES).search(problem, budget)
        # Chunk size == n_workers == 1: same bound as the serial path, even
        # though the whole 10-task batch was admitted at once.
        assert problem.evaluator.n_evaluations == 4

    def test_overshoot_bounded_by_one_worker_wave(self, distorted_data):
        engine = ExecutionEngine("process", n_workers=2)
        problem = _problem(distorted_data, engine=engine)
        # Fits run in pool workers, out of the parent's sight: each merged
        # evaluation "takes" one fake second instead.
        budget = TimeBudget(
            3.5, clock=lambda: float(problem.evaluator.n_evaluations))
        try:
            FixedBatch(TEN_PIPELINES).search(problem, budget)
        finally:
            engine.close()
        # Time is checked every 2-task wave: at most one wave past expiry.
        assert problem.evaluator.n_evaluations <= 6

    def test_crumb_remainder_never_buys_an_extra_trial(self, distorted_data):
        proposals = [(pipeline, 0.1) for pipeline in TEN_PIPELINES]
        problem = _problem(distorted_data)
        budget = TrialBudget(1)
        result = FixedBatch(proposals).search(problem, budget)
        # Exactly ten 0.1-fidelity trials; the one-ulp leftover does not
        # re-enter the loop for an eleventh.
        assert len(result) == 10
        assert budget.used <= budget.max_trials

    def test_count_only_budgets_dispatch_batches_whole(self, distorted_data):
        """A TrialBudget can never interrupt, so the engine must get the
        admitted batch in one call, not n_workers-sized chunks."""
        batch_sizes = []

        class RecordingEngine(ExecutionEngine):
            def run(self, evaluator, tasks):
                batch_sizes.append(len(list(tasks)))
                return super().run(evaluator, tasks)

        engine = RecordingEngine("process", n_workers=2)
        problem = _problem(distorted_data, engine=engine)
        try:
            FixedBatch(TEN_PIPELINES).search(problem, TrialBudget(10))
        finally:
            engine.close()
        assert max(batch_sizes) == 10  # undivided despite n_workers == 2

    def test_undispatched_tasks_are_refunded(self, distorted_data):
        engine = ExecutionEngine("serial", n_workers=1)
        problem = self._ticking_problem(distorted_data, engine=engine)
        trials = TrialBudget(100)
        budget = CompositeBudget(
            trials, TimeBudget(3.5, clock=lambda: TickingModel.ticks[0])
        )
        FixedBatch(TEN_PIPELINES).search(problem, budget)
        # All 10 were admitted (and pre-charged) as one batch, but only the
        # dispatched prefix stays charged after the time budget cut it short.
        assert trials.used == problem.evaluator.n_evaluations


class TestBudgetProtocol:
    def test_trial_budget_admits_clips_to_remaining(self):
        budget = TrialBudget(2)
        assert budget.admits(2.0)
        assert not budget.admits(2.5)
        budget.consume(1.5)
        assert budget.admits(0.5)
        assert not budget.admits(0.6)
        assert not budget.interrupted()  # count budgets never interrupt

    def test_trial_budget_admits_tolerates_float_error(self):
        budget = TrialBudget(1)
        for _ in range(3):
            budget.consume(1.0 / 3.0)
        # used is 1.0 up to float error; a whole extra trial must not fit.
        assert not budget.admits(1.0 / 3.0)

    def test_float_crumb_counts_as_exhausted(self):
        """Ten 0.1-fidelity rungs leave a one-ulp remainder: that crumb
        must not keep the budget alive (it would buy a whole free trial
        through the fractional-leftover branch)."""
        budget = TrialBudget(1)
        for _ in range(10):
            budget.consume(0.1)
        assert budget.used < budget.max_trials  # the crumb is real
        assert budget.exhausted()
        assert budget.remaining() <= budget.TOLERANCE * 10

    def test_can_interrupt_capability(self):
        now = [0.0]
        trials = TrialBudget(5)
        clock = TimeBudget(1.0, clock=lambda: now[0])
        assert not trials.can_interrupt()
        assert clock.can_interrupt()
        assert CompositeBudget(trials, clock).can_interrupt()
        assert not CompositeBudget(trials, TrialBudget(9)).can_interrupt()

    def test_time_budget_interrupts_on_expiry(self):
        now = [0.0]
        budget = TimeBudget(2.0, clock=lambda: now[0])
        assert budget.admits(100.0)  # cost per task is unknowable: admit
        assert not budget.interrupted()
        now[0] = 2.5
        assert not budget.admits()
        assert budget.interrupted()

    def test_admissible_stays_in_trial_units(self):
        budget = TrialBudget(1)
        budget.consume(0.6)
        assert budget.admissible(1.0) == pytest.approx(0.4)
        now = [0.0]
        clock = TimeBudget(0.1, clock=lambda: now[0])
        assert clock.admissible(1.0) == 1.0  # no trial dimension: full charge
        # Composite: seconds must never leak into the trial-unit charge,
        # even when the time budget's remaining() is the smaller number.
        combined = CompositeBudget(budget, clock)
        assert combined.remaining() == pytest.approx(0.1)  # seconds
        assert combined.admissible(1.0) == pytest.approx(0.4)  # trials

    def test_composite_combines_both(self):
        now = [0.0]
        trials = TrialBudget(3)
        combined = CompositeBudget(trials,
                                   TimeBudget(10.0, clock=lambda: now[0]))
        assert combined.admits(3.0)
        assert not combined.admits(4.0)
        assert not combined.interrupted()
        now[0] = 11.0
        assert combined.interrupted()
        assert not combined.admits(1.0)
