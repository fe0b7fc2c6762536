"""Tests for the AutoML-context modules: TPOT-FP, HPO and the comparison."""

import hashlib

import pytest

from repro.automl import (
    AUTOML_FP_CAPABILITIES,
    GeneticProgrammingFP,
    HPO_GRIDS,
    HPOSearch,
    compare_automl_context,
    summarize_comparisons,
    tpot_search_space,
    TPOT_PREPROCESSOR_NAMES,
)
from repro.core.context import ExecutionContext
from repro.core.problem import AutoFPProblem
from repro.exceptions import UnknownComponentError
from repro.search import SearchSession

#: (dataset, model, GP kwargs, trials, sha256 of the records): the GP's
#: trajectory — breeding, elitist survival, the order the search loop
#: observes its generations in — must not drift
GOLDEN_GP = [
    ("blood", "lr", {}, 40,
     "b2f972de55e5df71a36376866844bb4810a68b6628f58d60cde4e0d89c7f7020"),
    ("wine", "lr", {"population_size": 4}, 13,
     "27bfd17e1084367e657e25c632ee03ab855d2bdbbe7d9d9123c6a2cedf34fe35"),
    ("heart", "xgb", {"restrict_to_tpot": False, "random_state": 3}, 25,
     "30d3f05fa2909c1684a53a8aa9594e3bc87b3d88c67058b1bf8db9024913b9f6"),
    ("vehicle", "lr", {"population_size": 5}, 7,
     "2ad64104d52988eeb9ca5c8f40f7daa9a8d222762b7a8e4fb1f05f1db5e8279a"),
]


def _records(result):
    return [(t.pipeline.spec(), t.fidelity, t.accuracy, t.iteration)
            for t in result.trials]


class TestTpotFP:
    def test_tpot_space_has_five_preprocessors(self):
        """Table 8: TPOT's FP module exposes 5 preprocessors."""
        assert len(TPOT_PREPROCESSOR_NAMES) == 5
        space = tpot_search_space()
        assert space.n_candidates == 5
        names = {candidate.name for candidate in space.candidates}
        assert "power_transformer" not in names
        assert "quantile_transformer" not in names

    def test_gp_search_runs_and_respects_budget(self, lr_problem):
        result = GeneticProgrammingFP(population_size=4, random_state=0).search(
            lr_problem, max_trials=14
        )
        assert result.algorithm == "tpot_fp"
        assert len(result) == 14
        assert 0.0 <= result.best_accuracy <= 1.0

    def test_gp_only_uses_tpot_preprocessors(self, lr_problem):
        result = GeneticProgrammingFP(population_size=4, random_state=0).search(
            lr_problem, max_trials=12
        )
        for trial in result.trials:
            assert set(trial.pipeline.names()) <= set(TPOT_PREPROCESSOR_NAMES)

    def test_gp_unrestricted_mode_uses_all_seven(self, lr_problem):
        result = GeneticProgrammingFP(
            population_size=4, restrict_to_tpot=False, random_state=1
        ).search(lr_problem, max_trials=20)
        names = set()
        for trial in result.trials:
            names.update(trial.pipeline.names())
        assert len(names) > 5

    def test_gp_deterministic_given_seed(self, lr_problem):
        a = GeneticProgrammingFP(random_state=9).search(lr_problem, max_trials=10)
        b = GeneticProgrammingFP(random_state=9).search(lr_problem, max_trials=10)
        assert a.best_pipeline == b.best_pipeline

    def test_completion_driven_run_waits_for_parents(self, distorted_data):
        """Three workers and two individuals: the loop asks for a
        generation before any parent is observed."""
        X, y = distorted_data
        problem = AutoFPProblem.from_arrays(
            X, y, "lr", random_state=0,
            context=ExecutionContext(n_jobs=3, backend="process",
                                     async_mode=True),
        )
        try:
            result = GeneticProgrammingFP(population_size=2).search(
                problem, max_trials=6)
        finally:
            problem.evaluator.engine.close()
        assert len(result) == 6

    @pytest.mark.parametrize("dataset,model,kwargs,trials,digest", GOLDEN_GP,
                             ids=[f"{row[0]}-{row[1]}" for row in GOLDEN_GP])
    def test_golden_records(self, dataset, model, kwargs, trials, digest):
        problem = AutoFPProblem.from_registry(dataset, model, random_state=0)
        result = GeneticProgrammingFP(**kwargs).search(problem,
                                                       max_trials=trials)
        assert len(result) == trials
        assert hashlib.sha256(repr(_records(result)).encode()).hexdigest() \
            == digest

    @pytest.mark.parametrize("stop_at", [2, 5, 9])
    def test_resumes_bit_for_bit(self, stop_at, tmp_path):
        """Stops inside the initial population and inside generation 1;
        the resumed run breeds in the GP's own five-preprocessor space."""
        path = tmp_path / "gp.checkpoint"

        def interrupt(session, record):
            if len(session.result) == stop_at:
                session.checkpoint(path)
                session.stop()

        session = SearchSession(
            AutoFPProblem.from_registry("blood", "lr", random_state=0),
            GeneticProgrammingFP(), on_trial=interrupt)
        assert len(session.run(max_trials=20)) == stop_at
        resumed = SearchSession.resume(path).run()
        reference = GeneticProgrammingFP().search(
            AutoFPProblem.from_registry("blood", "lr", random_state=0),
            max_trials=20)
        assert _records(resumed) == _records(reference)


class TestHPO:
    def test_grids_exist_for_all_downstream_models(self):
        assert set(HPO_GRIDS) == {"lr", "xgb", "mlp"}

    def test_unknown_model_rejected(self):
        with pytest.raises(UnknownComponentError):
            HPOSearch("svm")

    def test_hpo_runs_and_returns_best(self, distorted_data):
        X, y = distorted_data
        from repro.models import train_test_split

        X_train, X_valid, y_train, y_valid = train_test_split(X, y, random_state=0)
        result = HPOSearch("lr", random_state=0).search(
            X_train, y_train, X_valid, y_valid, max_trials=6
        )
        assert len(result) == 6
        assert 0.0 <= result.best_accuracy <= 1.0
        assert set(result.best_params) == set(HPO_GRIDS["lr"])

    def test_custom_grid(self, distorted_data):
        X, y = distorted_data
        from repro.models import train_test_split

        X_train, X_valid, y_train, y_valid = train_test_split(X, y, random_state=0)
        search = HPOSearch("lr", grid={"C": (0.5, 2.0)}, random_state=0)
        result = search.search(X_train, y_train, X_valid, y_valid, max_trials=4)
        assert all(t.params["C"] in (0.5, 2.0) for t in result.trials)


class TestComparison:
    def test_capability_matrix_matches_table8(self):
        assert AUTOML_FP_CAPABILITIES["auto_weka"]["n_preprocessors"] == 0
        assert AUTOML_FP_CAPABILITIES["auto_sklearn"]["n_preprocessors"] == 5
        assert AUTOML_FP_CAPABILITIES["auto_sklearn"]["pipeline_length"] == "1"
        assert AUTOML_FP_CAPABILITIES["tpot"]["search"] == "GP"
        assert AUTOML_FP_CAPABILITIES["auto_fp"]["n_preprocessors"] == 7

    def test_comparison_runs_all_three_contenders(self, distorted_data):
        X, y = distorted_data
        comparison = compare_automl_context(
            X, y, "lr", dataset_name="unit", max_trials=8, random_state=0
        )
        assert comparison.dataset == "unit"
        for value in (comparison.baseline_accuracy, comparison.auto_fp_accuracy,
                      comparison.tpot_fp_accuracy, comparison.hpo_accuracy):
            assert 0.0 <= value <= 1.0

    def test_auto_fp_uses_larger_space_and_beats_baseline(self, distorted_data):
        X, y = distorted_data
        comparison = compare_automl_context(
            X, y, "lr", dataset_name="unit", max_trials=15, random_state=0
        )
        assert comparison.auto_fp_accuracy >= comparison.baseline_accuracy

    def test_summary_counts(self, distorted_data):
        X, y = distorted_data
        comparisons = [
            compare_automl_context(X, y, "lr", dataset_name=f"d{i}",
                                   max_trials=6, random_state=i)
            for i in range(2)
        ]
        summary = summarize_comparisons(comparisons)
        assert summary["n"] == 2
        assert 0 <= summary["auto_fp_beats_tpot"] <= 2
        assert 0 <= summary["auto_fp_beats_hpo"] <= 2
