"""Evaluate pipelines on a reduced training set, re-scoring finalists in full.

``ReducedEvaluator`` wraps a :class:`~repro.core.evaluation.PipelineEvaluator`
and exposes the same ``evaluate`` interface, but trains the downstream model
on a reduced training subset chosen by a
:class:`~repro.reduction.samplers.Sampler`.  The reduction is computed once
(not per pipeline), so search algorithms can be pointed at the reduced
evaluator unchanged; after the search, the best pipelines can be re-scored
on the full data with :meth:`rescore`.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluation import PipelineEvaluator
from repro.core.pipeline import Pipeline
from repro.core.result import SearchResult, TrialRecord
from repro.exceptions import ValidationError
from repro.models.base import Classifier
from repro.reduction.samplers import Sampler, StratifiedSampler


class ReducedEvaluator(PipelineEvaluator):
    """A PipelineEvaluator whose training split is a reduced subset.

    Parameters
    ----------
    full_evaluator:
        The evaluator holding the full training and validation splits.
    sampler:
        Row-selection strategy (default: stratified sampling).
    reduction:
        Fraction of the training rows to keep, in ``(0, 1]``.
    random_state:
        Seed for the sampler.
    """

    def __init__(self, full_evaluator: PipelineEvaluator, *,
                 sampler: Sampler | None = None, reduction: float = 0.5,
                 random_state=0) -> None:
        if not 0.0 < reduction <= 1.0:
            raise ValidationError("reduction must be in (0, 1]")
        sampler = sampler or StratifiedSampler()
        n_target = max(10, int(round(reduction * full_evaluator.X_train.shape[0])))
        indices = sampler.select(
            full_evaluator.X_train, full_evaluator.y_train, n_target,
            random_state=random_state,
        )
        super().__init__(
            full_evaluator.X_train[indices],
            full_evaluator.y_train[indices],
            full_evaluator.X_valid,
            full_evaluator.y_valid,
            full_evaluator.model,
            random_state=random_state,
        )
        self.full_evaluator = full_evaluator
        self.sampler_name = sampler.name
        self.reduction = float(reduction)
        self.selected_indices_ = indices

    def rescore(self, pipelines, *, top_k: int | None = None) -> list[TrialRecord]:
        """Re-evaluate pipelines on the full training data.

        Parameters
        ----------
        pipelines:
            Iterable of pipelines (typically the best ones from a reduced
            search).
        top_k:
            Optional cap on the number of pipelines re-scored.
        """
        pipelines = list(pipelines)
        if top_k is not None:
            pipelines = pipelines[: int(top_k)]
        return [self.full_evaluator.evaluate(p) for p in pipelines]

    def rescore_result(self, result: SearchResult, *, top_k: int = 3) -> TrialRecord:
        """Re-score the top-``top_k`` distinct pipelines of ``result`` and return the best."""
        full = [t for t in result.trials if t.fidelity >= 1.0]
        ranked = sorted(full, key=lambda t: t.accuracy, reverse=True)
        unique: list[Pipeline] = []
        seen = set()
        for trial in ranked:
            if trial.pipeline.spec() in seen:
                continue
            seen.add(trial.pipeline.spec())
            unique.append(trial.pipeline)
            if len(unique) >= top_k:
                break
        records = self.rescore(unique)
        if not records:
            raise ValidationError("result contains no full-fidelity trials to rescore")
        return max(records, key=lambda r: r.accuracy)


def reduced_problem(problem, *, sampler: Sampler | None = None,
                    reduction: float = 0.5, random_state=0):
    """Return a copy of an :class:`AutoFPProblem` that evaluates on reduced data."""
    from repro.core.problem import AutoFPProblem

    evaluator = ReducedEvaluator(problem.evaluator, sampler=sampler,
                                 reduction=reduction, random_state=random_state)
    return AutoFPProblem(evaluator=evaluator, space=problem.space,
                         name=f"{problem.name}/reduced-{evaluator.sampler_name}",
                         context=problem.context)
