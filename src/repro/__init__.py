"""repro — Auto-FP: automated feature preprocessing for tabular data.

A laptop-scale, dependency-light reproduction of "Auto-FP: An Experimental
Study of Automated Feature Preprocessing for Tabular Data" (EDBT 2024).
The package provides:

* the seven scikit-learn-style feature preprocessors (``repro.preprocessing``),
* downstream classifiers — logistic regression, gradient boosting, MLP and
  friends (``repro.models``),
* the Auto-FP problem abstraction: pipelines, search space, evaluator and
  budgets (``repro.core``),
* the 15 search algorithms of the paper (``repro.search``),
* a parallel execution engine with pluggable serial / process / remote
  backends for batch evaluation (``repro.engine``),
* one serializable runtime-configuration object
  (:class:`~repro.core.context.ExecutionContext`) carrying every
  performance knob, and a resumable search-lifecycle facade
  (:class:`~repro.search.session.SearchSession`) with callbacks,
  interruption and bit-for-bit checkpoint/resume,
* parameter-extended search (``repro.extensions``), the AutoML-context
  comparisons (``repro.automl``), meta-features (``repro.metafeatures``),
  result analysis (``repro.analysis``) and experiment harnesses
  (``repro.experiments``).

Quickstart::

    from repro import AutoFPProblem, make_search_algorithm
    from repro.datasets import load_dataset

    X, y = load_dataset("heart")
    problem = AutoFPProblem.from_arrays(X, y, model="lr")
    result = make_search_algorithm("pbt").search(problem, max_trials=40)
    print(result.best_pipeline.describe(), result.best_accuracy)
"""

from repro.core import (
    AutoFPProblem,
    ExecutionContext,
    Pipeline,
    PipelineEvaluator,
    SearchResult,
    SearchSpace,
    TimeBudget,
    TrialBudget,
    TrialRecord,
)
from repro.engine import ExecutionEngine
from repro.search import SearchSession, make_search_algorithm

__version__ = "1.1.0"

__all__ = [
    "AutoFPProblem",
    "ExecutionContext",
    "ExecutionEngine",
    "SearchSession",
    "Pipeline",
    "PipelineEvaluator",
    "SearchSpace",
    "SearchResult",
    "TrialRecord",
    "TrialBudget",
    "TimeBudget",
    "make_search_algorithm",
    "__version__",
]
