"""The Auto-FP problem: data + downstream model + search space bundled together.

``AutoFPProblem`` is the object users hand to a search algorithm.  It wires a
dataset (or a named registry dataset), a downstream model and a search space
into a :class:`~repro.core.evaluation.PipelineEvaluator`, and exposes the
no-preprocessing baseline that the paper uses as its reference point.

Runtime configuration — parallel backend, caches, async scheduling — comes
from one :class:`~repro.core.context.ExecutionContext` (``context=``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.context import ExecutionContext
from repro.core.evaluation import PipelineEvaluator
from repro.core.search_space import SearchSpace
from repro.models.base import Classifier
from repro.models.registry import make_classifier


@dataclass
class AutoFPProblem:
    """An automated-feature-preprocessing problem instance.

    Attributes
    ----------
    evaluator:
        The pipeline evaluator holding the train/valid split and the
        downstream model.
    space:
        The pipeline search space.
    name:
        Optional human-readable name (dataset + model) used in reports.
    """

    evaluator: PipelineEvaluator
    space: SearchSpace
    name: str = "auto-fp"
    #: the runtime configuration the problem was built with; searches and
    #: :class:`~repro.search.session.SearchSession` default to it
    context: ExecutionContext | None = None
    #: how to rebuild this problem from scratch (registry dataset name,
    #: model name, scale, seed) — recorded by :meth:`from_registry` so a
    #: session checkpoint can resume in a fresh process without the caller
    #: re-supplying the problem; ``None`` for problems built from raw arrays
    provenance: dict | None = field(default=None, repr=False)

    @classmethod
    def from_arrays(cls, X, y, model: Classifier | str, *,
                    space: SearchSpace | None = None, valid_size: float = 0.2,
                    fast_model: bool = True, random_state=0,
                    name: str = "auto-fp",
                    context: ExecutionContext | None = None,
                    ) -> "AutoFPProblem":
        """Build a problem from raw arrays.

        ``model`` may be a classifier instance or a registry name
        (``"lr"``, ``"xgb"``, ``"mlp"``).  ``context`` carries every
        runtime knob (see :class:`~repro.core.context.ExecutionContext`):
        its engine runs evaluation batches in parallel, ``cache_dir``
        enables the persistent cross-run evaluation cache,
        ``prefix_cache_bytes`` turns on incremental (prefix-reusing)
        evaluation and ``async_mode`` schedules searches
        completion-driven.  A process-backed engine keeps a worker pool
        alive between batches — call ``problem.evaluator.engine.close()``
        when done with the problem to release it eagerly (it is also
        released at interpreter exit).
        """
        context = context if context is not None else ExecutionContext()
        if isinstance(model, str):
            model = make_classifier(model, fast=fast_model)
        evaluator = PipelineEvaluator.from_dataset(
            X, y, model, valid_size=valid_size, random_state=random_state,
            **context.evaluator_options(),
        )
        return cls(evaluator=evaluator, space=space or SearchSpace(),
                   name=name, context=context)

    @classmethod
    def from_registry(cls, dataset_name: str, model: Classifier | str, *,
                      space: SearchSpace | None = None, scale: float = 1.0,
                      fast_model: bool = True, random_state=0,
                      context: ExecutionContext | None = None,
                      ) -> "AutoFPProblem":
        """Build a problem from a named dataset of the benchmark registry."""
        from repro.datasets.registry import load_dataset

        context = context if context is not None else ExecutionContext()
        X, y = load_dataset(dataset_name, scale=scale)
        model_name = model if isinstance(model, str) else type(model).__name__
        problem = cls.from_arrays(
            X, y, model,
            space=space,
            fast_model=fast_model,
            random_state=random_state,
            name=f"{dataset_name}/{model_name}",
            context=context,
        )
        if isinstance(model, str):
            # Only registry models are rebuildable from a name; a problem
            # with a custom classifier instance must be re-supplied by the
            # caller on resume.
            problem.provenance = {
                "dataset": dataset_name,
                "model": model,
                "scale": float(scale),
                "fast_model": bool(fast_model),
                "random_state": int(random_state),
            }
        return problem

    @classmethod
    def from_provenance(cls, provenance: dict,
                        context: ExecutionContext | None = None,
                        ) -> "AutoFPProblem":
        """Rebuild a registry-backed problem from its recorded provenance.

        The inverse of the record :meth:`from_registry` leaves in
        :attr:`provenance`; used by ``SearchSession.resume`` to restore an
        interrupted run in a fresh process.
        """
        from repro.exceptions import ValidationError

        required = {"dataset", "model", "scale", "fast_model", "random_state"}
        if not isinstance(provenance, dict) or not required <= set(provenance):
            raise ValidationError(
                "problem provenance must carry "
                f"{sorted(required)}, got {provenance!r}"
            )
        return cls.from_registry(
            provenance["dataset"], provenance["model"],
            scale=provenance["scale"], fast_model=provenance["fast_model"],
            random_state=provenance["random_state"], context=context,
        )

    def baseline_accuracy(self) -> float:
        """Validation accuracy of the downstream model without preprocessing."""
        return self.evaluator.baseline_accuracy()

    def __repr__(self) -> str:
        return f"AutoFPProblem(name={self.name!r}, space={self.space!r})"
