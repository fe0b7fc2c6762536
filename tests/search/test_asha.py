"""ASHA: asynchronous successive halving with rung promotion on completion."""

import dataclasses

import numpy as np
import pytest

from repro.core.problem import AutoFPProblem
from repro.core.search_space import SearchSpace
from repro.datasets.synthetic import distort_features, make_classification
from repro.engine import ExecutionEngine
from repro.exceptions import ValidationError
from repro.search import ASHA, make_search_algorithm
from repro.search.registry import EXTENSION_ALGORITHM_CLASSES


@pytest.fixture(scope="module")
def problem():
    X, y = make_classification(n_samples=140, n_features=8, n_classes=2,
                               class_sep=2.0, random_state=2)
    X = distort_features(X, random_state=2)
    return AutoFPProblem.from_arrays(
        X, y, "lr", space=SearchSpace(max_length=3), random_state=0,
        name="asha/lr",
    )


class TestConstruction:
    def test_registered_as_extension_algorithm(self):
        assert EXTENSION_ALGORITHM_CLASSES["asha"] is ASHA
        assert isinstance(make_search_algorithm("asha"), ASHA)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            ASHA(eta=1.0)
        with pytest.raises(ValidationError):
            ASHA(min_fidelity=0.0)
        with pytest.raises(ValidationError):
            ASHA(min_fidelity=1.5)

    def test_rung_ladder_always_reaches_full_fidelity(self):
        searcher = ASHA(eta=3.0, min_fidelity=0.2)
        searcher._setup(None, np.random.default_rng(0))
        assert searcher._fidelities[0] == pytest.approx(0.2)
        assert searcher._fidelities[-1] == 1.0
        assert all(a < b for a, b in zip(searcher._fidelities,
                                         searcher._fidelities[1:]))


class TestSearchBehaviour:
    def test_produces_rungs_and_full_fidelity_trials(self, problem):
        result = ASHA(random_state=0).search(problem, max_trials=12)
        fidelities = {round(t.fidelity, 6) for t in result.trials}
        assert round(1.0 / 9.0, 6) in fidelities  # bottom rung grew
        assert len(result) > 12  # low-fidelity rungs buy extra evaluations
        assert 0.0 <= result.best_accuracy <= 1.0

    def test_promotion_re_evaluates_top_configs_at_higher_fidelity(self, problem):
        result = ASHA(random_state=0).search(problem, max_trials=12)
        by_spec = {}
        for trial in result.trials:
            by_spec.setdefault(trial.pipeline.spec(), set()).add(
                round(trial.fidelity, 6)
            )
        promoted = [spec for spec, fidelities in by_spec.items()
                    if len(fidelities) > 1]
        assert promoted, "no configuration was ever promoted"

    def test_never_promotes_the_same_config_twice_from_one_rung(self, problem):
        # Random bottom-rung sampling may legitimately re-draw a spec, but
        # promotions are deduplicated per rung, so above the bottom
        # fidelity every (spec, fidelity) pair appears exactly once.
        result = ASHA(random_state=0).search(problem, max_trials=15)
        bottom = min(round(t.fidelity, 6) for t in result.trials)
        seen = set()
        for trial in result.trials:
            key = (trial.pipeline.spec(), round(trial.fidelity, 6))
            if key[1] == bottom:
                continue
            assert key not in seen, f"duplicate promoted evaluation {key}"
            seen.add(key)

    def test_async_process_run_saturates_and_matches_values(self, problem):
        engine = ExecutionEngine("process", n_workers=3)
        problem.evaluator.set_engine(engine)
        completion_driven = dataclasses.replace(
            problem, context=problem.context.replace(async_mode=True))
        try:
            result = ASHA(random_state=0).search(completion_driven,
                                                 max_trials=10)
        finally:
            problem.evaluator.set_engine(None)
            engine.close()
        assert len(result) > 0
        for trial in result.trials:
            expected = problem.evaluator.evaluate(trial.pipeline,
                                                  fidelity=trial.fidelity)
            assert trial.accuracy == expected.accuracy
