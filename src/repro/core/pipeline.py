"""Feature-preprocessing pipelines (Definition 2 of the paper).

A :class:`Pipeline` is an ordered sequence of preprocessors
``P1 -> P2 -> ... -> Pn``.  Applying it to a dataset means fitting and
applying each preprocessor in turn, each one consuming the previous one's
output.  Pipelines are hashable by their *specification* (preprocessor names
and parameters), which is what search algorithms manipulate; the fitted
state lives in a separate :class:`FittedPipeline` so a single specification
can be evaluated many times without sharing state.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.preprocessing.base import Preprocessor
from repro.preprocessing.registry import make_preprocessor


class Pipeline:
    """An ordered, immutable sequence of (unfitted) preprocessors.

    Parameters
    ----------
    steps:
        Iterable of :class:`~repro.preprocessing.base.Preprocessor`
        instances.  They are cloned on construction so the pipeline owns
        its prototypes.  The empty pipeline represents "no preprocessing".
    """

    def __init__(self, steps: Iterable[Preprocessor] = ()) -> None:
        cloned = []
        for step in steps:
            if not isinstance(step, Preprocessor):
                raise ValidationError(
                    f"pipeline steps must be Preprocessor instances, got {type(step)!r}"
                )
            cloned.append(step.clone())
        self._steps: tuple[Preprocessor, ...] = tuple(cloned)

    # ----------------------------------------------------------- properties
    @property
    def steps(self) -> tuple[Preprocessor, ...]:
        """The (unfitted) preprocessor prototypes in order."""
        return self._steps

    def __len__(self) -> int:
        return len(self._steps)

    def __iter__(self):
        return iter(self._steps)

    def __getitem__(self, index):
        return self._steps[index]

    def is_empty(self) -> bool:
        """True for the no-preprocessing pipeline."""
        return not self._steps

    # ----------------------------------------------------------- identity
    def spec(self) -> tuple:
        """Hashable specification: tuple of (name, sorted params) pairs."""
        return tuple(
            (step.name, tuple(sorted(step.get_params().items())))
            for step in self._steps
        )

    def names(self) -> tuple[str, ...]:
        """Preprocessor names in order (without parameters)."""
        return tuple(step.name for step in self._steps)

    def describe(self) -> str:
        """Human-readable ``A -> B -> C`` description."""
        if not self._steps:
            return "<no preprocessing>"
        parts = []
        for step in self._steps:
            params = step.get_params()
            if params:
                inner = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
                parts.append(f"{step.name}({inner})")
            else:
                parts.append(step.name)
        return " -> ".join(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pipeline):
            return NotImplemented
        return self.spec() == other.spec()

    def __hash__(self) -> int:
        return hash(self.spec())

    def __repr__(self) -> str:
        return f"Pipeline({self.describe()})"

    # ----------------------------------------------------------- operations
    def fit(self, X, y=None) -> "FittedPipeline":
        """Fit every step on (progressively transformed) ``X``; return fitted pipeline."""
        fitted, _ = self.fit_transform(X, y)
        return fitted

    def fit_transform(self, X, y=None):
        """Fit the pipeline on ``X`` and return ``(fitted_pipeline, transformed_X)``."""
        fitted_steps = []
        current = np.asarray(X, dtype=np.float64)
        for step in self._steps:
            fitted_step = step.clone()
            current = fitted_step.fit_transform(current, y)
            fitted_steps.append(fitted_step)
        return FittedPipeline(self, fitted_steps), current

    def append(self, step: Preprocessor) -> "Pipeline":
        """Return a new pipeline with ``step`` appended."""
        return Pipeline([*self._steps, step])

    def replace(self, index: int, step: Preprocessor) -> "Pipeline":
        """Return a new pipeline with the step at ``index`` replaced."""
        steps = list(self._steps)
        steps[index] = step
        return Pipeline(steps)

    def truncate(self, length: int) -> "Pipeline":
        """Return a new pipeline keeping only the first ``length`` steps."""
        return Pipeline(self._steps[:length])

    @classmethod
    def from_names(cls, names: Sequence[str], params: Sequence[dict] | None = None) -> "Pipeline":
        """Build a pipeline from preprocessor names (and optional parameter dicts)."""
        params = params or [{} for _ in names]
        if len(params) != len(names):
            raise ValidationError("params must have the same length as names")
        return cls([make_preprocessor(name, **p) for name, p in zip(names, params)])

    @classmethod
    def from_spec(cls, spec: Sequence[tuple]) -> "Pipeline":
        """Rebuild a pipeline from the output of :meth:`spec`."""
        steps = [make_preprocessor(name, **dict(items)) for name, items in spec]
        return cls(steps)


class FittedPipeline:
    """A pipeline whose steps have been fitted on a training set."""

    def __init__(self, pipeline: Pipeline, fitted_steps: list[Preprocessor]) -> None:
        self.pipeline = pipeline
        self.fitted_steps = fitted_steps

    def transform(self, X) -> np.ndarray:
        """Apply every fitted step in order to ``X``."""
        current = np.asarray(X, dtype=np.float64)
        for step in self.fitted_steps:
            current = step.transform(current)
        return current

    def __len__(self) -> int:
        return len(self.fitted_steps)

    def __repr__(self) -> str:
        return f"FittedPipeline({self.pipeline.describe()})"
