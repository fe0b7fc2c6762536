"""Tests for the parameter-extended search spaces and One-step / Two-step."""

from collections import Counter

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.problem import AutoFPProblem
from repro.extensions import (
    OneStepSearch,
    ParameterizedSpace,
    TwoStepSearch,
    compare_one_step_two_step,
    high_cardinality_space,
    low_cardinality_space,
)
from repro.search import PBT, RandomSearch
from repro.telemetry.tracing import read_trace


class TestParameterizedSpaces:
    def test_low_cardinality_matches_table6(self):
        space = low_cardinality_space()
        assert space.max_cardinality() == 8  # n_quantiles grid
        assert space.n_parameterized_preprocessors() == 31  # Section 6.2

    def test_high_cardinality_matches_table7(self):
        space = high_cardinality_space()
        assert space.max_cardinality() == 1990  # n_quantiles from 10 to 2000 step 1
        # QuantileTransformer dominates the One-step expansion (~99%).
        quantile_count = 1990 * 2
        fraction = quantile_count / space.n_parameterized_preprocessors()
        assert fraction > 0.98

    def test_one_step_space_candidate_count(self):
        space = low_cardinality_space(max_length=3)
        enlarged = space.one_step_space()
        assert enlarged.n_candidates == 31
        assert enlarged.max_length == 3

    def test_one_step_space_contains_parameterised_instances(self):
        enlarged = low_cardinality_space().one_step_space()
        thresholds = {
            candidate.threshold
            for candidate in enlarged.candidates
            if candidate.name == "binarizer"
        }
        assert thresholds == {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}

    def test_sample_configuration_has_seven_candidates(self):
        configured = low_cardinality_space().sample_configuration(random_state=0)
        assert configured.n_candidates == 7
        names = sorted(candidate.name for candidate in configured.candidates)
        assert len(set(names)) == 7

    def test_sample_configuration_varies_with_seed(self):
        space = low_cardinality_space()
        first = space.sample_configuration(random_state=1)
        second = space.sample_configuration(random_state=2)
        first_params = [c.get_params() for c in first.candidates]
        second_params = [c.get_params() for c in second.candidates]
        assert first_params != second_params

    def test_custom_space(self):
        space = ParameterizedSpace(
            grid={"binarizer": {"threshold": (0.0, 1.0)}, "normalizer": {}},
            max_length=2,
        )
        assert space.max_cardinality() == 2
        assert space.n_parameterized_preprocessors() == 3


class TestStrategies:
    def test_one_step_runs_in_enlarged_space(self, lr_problem):
        outcome = OneStepSearch(
            PBT(random_state=0), low_cardinality_space(max_length=3)
        ).search(lr_problem, max_trials=15)
        assert outcome.strategy == "one_step"
        assert outcome.n_rounds == 1
        assert 0.0 <= outcome.best_accuracy <= 1.0

    def test_two_step_performs_multiple_rounds(self, lr_problem):
        outcome = TwoStepSearch(
            lambda seed: RandomSearch(random_state=seed),
            low_cardinality_space(max_length=3),
            trials_per_round=5,
            random_state=0,
        ).search(lr_problem, max_trials=15)
        assert outcome.strategy == "two_step"
        assert outcome.n_rounds == 3
        assert len(outcome.result) == 15

    def test_two_step_budget_not_exceeded(self, lr_problem):
        outcome = TwoStepSearch(
            lambda seed: RandomSearch(random_state=seed),
            low_cardinality_space(max_length=3),
            trials_per_round=7,
            random_state=0,
        ).search(lr_problem, max_trials=10)
        assert len(outcome.result) <= 10

    def test_compare_returns_both_strategies(self, lr_problem):
        comparison = compare_one_step_two_step(
            lr_problem,
            low_cardinality_space(max_length=3),
            lambda seed: RandomSearch(random_state=seed),
            max_trials=12,
            trials_per_round=4,
            random_state=0,
        )
        assert set(comparison) == {"one_step", "two_step"}
        for outcome in comparison.values():
            assert outcome.best_accuracy >= 0.0
            assert outcome.result.baseline_accuracy is not None

    @pytest.mark.parametrize("strategy", ["one_step", "two_step"])
    def test_searches_run_under_the_problem_context(self, strategy, tmp_path):
        """The derived problems keep their parent's context: a traced,
        completion-driven parent gives a trace with a span per trial and
        per proposal and no barrier waves."""
        problem = AutoFPProblem.from_registry(
            "blood", "lr", random_state=0,
            context=ExecutionContext(telemetry_mode="trace",
                                     telemetry_dir=tmp_path, async_mode=True),
        )
        space = low_cardinality_space(max_length=3)
        if strategy == "one_step":
            searcher = OneStepSearch(RandomSearch(random_state=0), space)
        else:
            searcher = TwoStepSearch(
                lambda seed: RandomSearch(random_state=seed), space,
                trials_per_round=3, random_state=0)
        searcher.search(problem, max_trials=6)
        spans = Counter(event["name"]
                        for event in read_trace(tmp_path / "trace.jsonl"))
        assert (spans["trial"], spans["propose"], spans["engine.batch"]) \
            == (6, 6, 0)

    def test_high_cardinality_one_step_dominated_by_quantile(self, lr_problem):
        """In the high-cardinality One-step space most sampled steps are
        QuantileTransformer (Section 6.3's explanation for why One-step loses)."""
        enlarged = high_cardinality_space(max_length=3).one_step_space()
        rng = np.random.default_rng(0)
        names = []
        for _ in range(100):
            names.extend(enlarged.sample_pipeline(rng).names())
        fraction = names.count("quantile_transformer") / len(names)
        assert fraction > 0.9
