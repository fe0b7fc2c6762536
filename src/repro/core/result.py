"""Trial records and search results.

Every pipeline evaluation produces a :class:`TrialRecord` capturing the
pipeline, its validation accuracy, and the three timing components the
paper's bottleneck analysis uses ("Pick", "Prep", "Train").  A
:class:`SearchResult` aggregates all trials of one search run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import Pipeline


@dataclass
class TrialRecord:
    """Outcome of evaluating one pipeline.

    Attributes
    ----------
    pipeline:
        The evaluated pipeline (specification, not fitted state).
    accuracy:
        Validation accuracy of the downstream model trained on the
        preprocessed data.
    error:
        ``1 - accuracy`` — the pipeline error of Equation 2.
    pick_time / prep_time / train_time:
        Seconds spent choosing the pipeline, preprocessing the data, and
        training + scoring the model.
    fidelity:
        Fraction of the training data / model capacity used (1.0 = full
        evaluation; bandit-based algorithms use lower fidelities).
    iteration:
        Index of the framework iteration that produced this trial.
    failure_kind:
        ``None`` for a real evaluation (including pipelines that failed
        to fit — those simply score 0.0).  ``"worker_crash"`` when the
        trial was quarantined after repeatedly killing its worker,
        ``"timeout"`` when it exceeded the evaluation deadline; such
        records carry accuracy 0.0 and zero timings and are never
        persisted to the evaluation caches.
    """

    pipeline: Pipeline
    accuracy: float
    pick_time: float = 0.0
    prep_time: float = 0.0
    train_time: float = 0.0
    fidelity: float = 1.0
    iteration: int = 0
    failure_kind: str | None = None

    @property
    def error(self) -> float:
        return 1.0 - self.accuracy

    @property
    def total_time(self) -> float:
        return self.pick_time + self.prep_time + self.train_time


@dataclass
class SearchResult:
    """All trials of one search run plus convenience accessors."""

    algorithm: str
    trials: list[TrialRecord] = field(default_factory=list)
    baseline_accuracy: float | None = None

    def add(self, trial: TrialRecord) -> None:
        self.trials.append(trial)

    def extend(self, trials) -> None:
        self.trials.extend(trials)

    def __len__(self) -> int:
        return len(self.trials)

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    def best_trial(self) -> TrialRecord:
        """The full-fidelity trial with the highest accuracy (fallback: any trial)."""
        if not self.trials:
            from repro.exceptions import ValidationError

            raise ValidationError("search produced no trials")
        full = [t for t in self.trials if t.fidelity >= 1.0]
        pool = full if full else self.trials
        return max(pool, key=lambda t: t.accuracy)

    @property
    def best_pipeline(self) -> Pipeline:
        return self.best_trial().pipeline

    @property
    def best_accuracy(self) -> float:
        return self.best_trial().accuracy

    def improvement_over_baseline(self) -> float | None:
        """Accuracy improvement vs the no-preprocessing baseline (percentage points)."""
        if self.baseline_accuracy is None:
            return None
        return (self.best_accuracy - self.baseline_accuracy) * 100.0

    def accuracy_trajectory(self) -> np.ndarray:
        """Best-so-far accuracy after each trial (anytime performance curve)."""
        best = -np.inf
        trajectory = []
        for trial in self.trials:
            if trial.fidelity >= 1.0 and trial.accuracy > best:
                best = trial.accuracy
            trajectory.append(best if np.isfinite(best) else trial.accuracy)
        return np.asarray(trajectory)

    def time_breakdown(self) -> dict[str, float]:
        """Total Pick / Prep / Train seconds across all trials (Figure 7)."""
        return {
            "pick": float(sum(t.pick_time for t in self.trials)),
            "prep": float(sum(t.prep_time for t in self.trials)),
            "train": float(sum(t.train_time for t in self.trials)),
        }

    def time_breakdown_percent(self) -> dict[str, float]:
        """Pick / Prep / Train as percentages of the total time."""
        breakdown = self.time_breakdown()
        total = sum(breakdown.values())
        if total <= 0:
            return {key: 0.0 for key in breakdown}
        return {key: 100.0 * value / total for key, value in breakdown.items()}

    def bottleneck(self) -> str:
        """Name of the dominant time component ("pick", "prep" or "train")."""
        breakdown = self.time_breakdown()
        return max(breakdown, key=breakdown.get)
