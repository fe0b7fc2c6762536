"""Experiment configurations for the benchmark harnesses.

The paper's full grid (15 algorithms x 45 datasets x 3 models x 6 time
limits x 5 repetitions) took a 110-vCPU machine; the configurations here
define laptop-scale defaults (small dataset subsets, trial budgets instead
of hours) and a ``full()`` variant that covers every dataset for users with
more time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.context import ExecutionContext
from repro.datasets.registry import list_datasets
from repro.search.registry import ALL_ALGORITHM_NAMES


@dataclass
class ExperimentConfig:
    """Grid definition for one ranking/bottleneck experiment run.

    Attributes
    ----------
    datasets:
        Dataset names from the registry.
    models:
        Downstream models ("lr", "xgb", "mlp").
    algorithms:
        Search-algorithm names (paper abbreviations).
    max_trials:
        Evaluation budget per (dataset, model, algorithm) run.
    n_repeats:
        Independent repetitions (different seeds) averaged per run.
    random_state:
        Base seed; repetition ``r`` of algorithm ``a`` derives its own seed.
    fast_models:
        Use reduced-capacity downstream models (recommended for laptops).
    context:
        The run's :class:`~repro.core.context.ExecutionContext`: when
        it resolves to the process backend, ``n_jobs`` runs the
        independent (dataset, model, algorithm, repeat) grid cells on a
        process pool of that many workers, not on an execution backend;
        any other backend runs them inline (results are identical for
        every worker count and backend).  ``cache_dir``
        persists every evaluation across runs, ``async_mode`` runs each
        cell's search completion-driven and ``prefix_cache_bytes`` gives
        each cell evaluator a prefix-transform cache.  Defaults to a
        plain serial context.
    """

    datasets: tuple[str, ...]
    models: tuple[str, ...] = ("lr", "xgb", "mlp")
    algorithms: tuple[str, ...] = ALL_ALGORITHM_NAMES
    max_trials: int = 25
    n_repeats: int = 1
    random_state: int = 0
    fast_models: bool = True
    dataset_scale: float = 1.0
    context: ExecutionContext = ExecutionContext()

    def cell_context(self) -> ExecutionContext:
        """The context each grid *cell* evaluates under.

        ``n_jobs``/``backend`` describe the grid fan-out, not within-cell
        evaluation (a cell nesting its own worker pool inside a grid
        worker would oversubscribe the machine), so they are stripped;
        the cache and scheduling knobs pass through.
        """
        return self.context.replace(n_jobs=None, backend=None)

    def n_runs(self) -> int:
        """Total number of search runs the configuration implies."""
        return (
            len(self.datasets) * len(self.models) * len(self.algorithms) * self.n_repeats
        )


#: datasets used for quick laptop-scale rankings (diverse sizes / class counts)
QUICK_DATASETS: tuple[str, ...] = (
    "heart", "australian", "blood", "wine", "vehicle", "ionosphere",
)


def quick_config(**overrides) -> ExperimentConfig:
    """Small configuration used by the test-suite and default benchmarks."""
    defaults = dict(
        datasets=QUICK_DATASETS,
        models=("lr",),
        algorithms=ALL_ALGORITHM_NAMES,
        max_trials=20,
        n_repeats=1,
        random_state=0,
        fast_models=True,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def full_config(**overrides) -> ExperimentConfig:
    """All 45 datasets and all three models (takes considerably longer)."""
    defaults = dict(
        datasets=tuple(list_datasets()),
        models=("lr", "xgb", "mlp"),
        algorithms=ALL_ALGORITHM_NAMES,
        max_trials=40,
        n_repeats=3,
        random_state=0,
        fast_models=True,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)
