"""Auto-FP in an AutoML context (Section 7, Figures 10 and 11).

Three contenders get the same evaluation budget on the same train/valid
split:

* **Auto-FP** — the best-ranked pipeline searcher (PBT by default) over the
  full seven-preprocessor space (optionally the parameter-extended space),
* **TPOT-FP** — genetic programming over TPOT's five preprocessors,
* **HPO** — hyperparameter tuning of the downstream model on raw features.

The paper's finding is that Auto-FP beats TPOT-FP in most cases and is
comparable to (often better than) HPO for LR and MLP.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automl.hpo import HPOSearch
from repro.automl.tpot_fp import GeneticProgrammingFP
from repro.core.problem import AutoFPProblem
from repro.core.search_space import SearchSpace
from repro.extensions.param_space import ParameterizedSpace
from repro.models.registry import make_classifier
from repro.search.registry import make_search_algorithm
from repro.utils.log import get_logger

log = get_logger("automl.comparison")

#: capability matrix of the FP modules of popular AutoML tools (Table 8)
AUTOML_FP_CAPABILITIES: dict[str, dict] = {
    "auto_weka": {"n_preprocessors": 0, "pipeline_length": "0", "search": "SMAC"},
    "auto_sklearn": {"n_preprocessors": 5, "pipeline_length": "1", "search": "SMAC"},
    "tpot": {"n_preprocessors": 5, "pipeline_length": "arbitrary", "search": "GP"},
    "auto_fp": {"n_preprocessors": 7, "pipeline_length": "arbitrary", "search": "15 algorithms"},
}


@dataclass
class AutoMLComparison:
    """Accuracies of the three contenders on one dataset/model pair."""

    dataset: str
    model: str
    baseline_accuracy: float
    auto_fp_accuracy: float
    tpot_fp_accuracy: float
    hpo_accuracy: float

    def auto_fp_beats_tpot(self) -> bool:
        return self.auto_fp_accuracy >= self.tpot_fp_accuracy

    def auto_fp_beats_hpo(self) -> bool:
        return self.auto_fp_accuracy >= self.hpo_accuracy

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "model": self.model,
            "baseline": self.baseline_accuracy,
            "auto_fp": self.auto_fp_accuracy,
            "tpot_fp": self.tpot_fp_accuracy,
            "hpo": self.hpo_accuracy,
        }


def compare_automl_context(X, y, model_name: str, *, dataset_name: str = "dataset",
                           max_trials: int = 30, algorithm: str = "pbt",
                           extended_space: ParameterizedSpace | None = None,
                           fast_model: bool = True,
                           random_state: int = 0) -> AutoMLComparison:
    """Run Auto-FP vs TPOT-FP vs HPO on one dataset/model pair.

    Parameters
    ----------
    extended_space:
        When given, Auto-FP searches the One-step expansion of this
        parameter space (Figure 11); otherwise the default seven-preprocessor
        space (Figure 10).
    """
    model = make_classifier(model_name, fast=fast_model)
    problem = AutoFPProblem.from_arrays(
        X, y, model, random_state=random_state,
        name=f"{dataset_name}/{model_name}",
    )
    baseline = problem.baseline_accuracy()
    log.debug("comparison %s: baseline=%.4f, budget=%d trials per contender",
              problem.name, baseline, max_trials)

    # Auto-FP with the leading search algorithm.
    if extended_space is not None:
        space = extended_space.one_step_space()
    else:
        space = SearchSpace()
    auto_fp_problem = AutoFPProblem(evaluator=problem.evaluator, space=space,
                                    name=problem.name, context=problem.context)
    auto_fp_result = make_search_algorithm(
        algorithm, random_state=random_state
    ).search(auto_fp_problem, max_trials=max_trials)

    # TPOT-FP: GP over five preprocessors.
    tpot_result = GeneticProgrammingFP(random_state=random_state).search(
        problem, max_trials=max_trials
    )

    # HPO: tune the downstream model on raw features.
    evaluator = problem.evaluator
    hpo_result = HPOSearch(model_name, random_state=random_state).search(
        evaluator.X_train, evaluator.y_train, evaluator.X_valid, evaluator.y_valid,
        max_trials=max_trials,
    )

    log.debug("comparison %s: auto_fp=%.4f tpot_fp=%.4f hpo=%.4f",
              problem.name, auto_fp_result.best_accuracy,
              tpot_result.best_accuracy, hpo_result.best_accuracy)
    return AutoMLComparison(
        dataset=dataset_name,
        model=model_name,
        baseline_accuracy=baseline,
        auto_fp_accuracy=auto_fp_result.best_accuracy,
        tpot_fp_accuracy=tpot_result.best_accuracy,
        hpo_accuracy=hpo_result.best_accuracy,
    )


def summarize_comparisons(comparisons) -> dict:
    """Aggregate win counts across a collection of :class:`AutoMLComparison`."""
    comparisons = list(comparisons)
    return {
        "n": len(comparisons),
        "auto_fp_beats_tpot": sum(c.auto_fp_beats_tpot() for c in comparisons),
        "auto_fp_beats_hpo": sum(c.auto_fp_beats_hpo() for c in comparisons),
        "auto_fp_beats_baseline": sum(
            c.auto_fp_accuracy >= c.baseline_accuracy for c in comparisons
        ),
    }
