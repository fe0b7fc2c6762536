"""Evaluation tasks: the unit of work the execution engine dispatches.

An :class:`EvalTask` bundles everything one pipeline evaluation needs —
the pipeline specification, the fidelity, and the bookkeeping fields
(``pick_time``, ``iteration``) that end up verbatim in the resulting
:class:`~repro.core.result.TrialRecord`.  Tasks are immutable and
picklable so every backend (processes, remote workers) can ship them to
workers unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import Pipeline
from repro.exceptions import ValidationError


@dataclass(frozen=True)
class EvalTask:
    """One pipeline evaluation request.

    Attributes
    ----------
    pipeline:
        The pipeline specification to evaluate.
    fidelity:
        Fraction of the training rows used, in ``(0, 1]``.
    pick_time:
        Seconds the search algorithm spent choosing this pipeline; copied
        into the resulting trial record for the bottleneck analysis.
    iteration:
        Search-iteration index, copied into the resulting trial record.
    """

    pipeline: Pipeline
    fidelity: float = 1.0
    pick_time: float = 0.0
    iteration: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.fidelity <= 1.0:
            raise ValidationError(
                f"fidelity must be in (0, 1], got {self.fidelity}"
            )
