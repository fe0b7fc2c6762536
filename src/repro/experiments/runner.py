"""Experiment runner: execute search-algorithm grids and collect scenarios.

The runner turns an :class:`~repro.experiments.config.ExperimentConfig` into
the raw material of the paper's tables: one :class:`Scenario` per
(dataset, model) pair with the best accuracy of every algorithm, plus
per-run :class:`BottleneckReport` objects and the underlying
:class:`SearchResult` objects for deeper analysis.

Every (dataset, model, algorithm, repeat) cell of the grid is independent:
it loads its own data, builds its own problem and derives its own seed from
the configuration.  ``run_experiment`` runs the cells inline in grid order,
or fans them out on a :class:`~concurrent.futures.ProcessPoolExecutor` of
the context's ``n_jobs`` workers when the context resolves to the process
backend with more than one worker.  A grid never runs on an execution
backend: backends only evaluate pipelines.  Pooled cells are collected as
they complete — no whole-grid barrier — with ``cell_callback`` reporting
each completed cell in completion order, while the results are still
merged in grid order: scenarios, results and bottleneck reports are the
same for every worker count and backend (bit-for-bit, apart from measured
times).  ``uncached_evaluations`` is not: it is counted per grid process,
and each process builds its own problem per (dataset, model), so cells of
one group that land in different processes repeat the baseline and each
other's evaluations; with a shared ``cache_dir`` the count also depends on
which process writes an entry first.

Runtime configuration flows through one
:class:`~repro.core.context.ExecutionContext` (``config.context`` or the
``context=`` override).
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis.bottleneck import BottleneckReport, analyze_result
from repro.analysis.ranking import Scenario, average_rankings
from repro.core.context import ExecutionContext
from repro.core.problem import AutoFPProblem
from repro.core.result import SearchResult
from repro.core.search_space import SearchSpace
from repro.datasets.registry import load_dataset
from repro.engine import default_worker_count
from repro.experiments.config import ExperimentConfig
from repro.models.registry import make_classifier
from repro.search.registry import make_search_algorithm


@dataclass
class ExperimentOutcome:
    """Everything produced by one grid run."""

    config: ExperimentConfig
    scenarios: list[Scenario] = field(default_factory=list)
    bottlenecks: list[BottleneckReport] = field(default_factory=list)
    results: dict[tuple[str, str, str], SearchResult] = field(default_factory=dict)
    #: pipeline evaluations that were actually executed (not answered by any
    #: cache layer) across the whole grid; 0 on a fully warm ``cache_dir`` run.
    #: Counted per grid process: each builds its own problem per (dataset,
    #: model), so on a pool, cells of one group in different processes
    #: repeat the baseline and each other's evaluations, and with a shared
    #: ``cache_dir`` the count depends on which process writes an entry first.
    uncached_evaluations: int = 0

    def rankings(self, *, min_improvement: float = 1.5) -> dict:
        """Average rankings over the collected scenarios (Table 4)."""
        return average_rankings(self.scenarios, min_improvement=min_improvement)

    def best_pipelines(self, algorithm: str) -> list:
        """Best pipeline found by ``algorithm`` in every (dataset, model) run."""
        pipelines = []
        for (dataset, model, name), result in self.results.items():
            if name == algorithm and len(result) > 0:
                pipelines.append(result.best_pipeline)
        return pipelines


def run_single(dataset: str, model: str, algorithm: str, *, max_trials: int = 25,
               random_state=0, fast_model: bool = True,
               dataset_scale: float = 1.0,
               space: SearchSpace | None = None,
               context: ExecutionContext | None = None,
               ) -> tuple[SearchResult, float]:
    """Run one search and return ``(result, baseline_accuracy)``.

    ``context`` carries every runtime knob: its engine parallelises the
    *within-search* evaluation batches (generations, rungs),
    ``async_mode`` schedules them completion-driven, ``cache_dir``
    persists every evaluation so a repeated run is answered from disk and
    ``prefix_cache_bytes`` reuses fitted pipeline prefixes.
    """
    context = context if context is not None else ExecutionContext()
    X, y = load_dataset(dataset, scale=dataset_scale)
    classifier = make_classifier(model, fast=fast_model)
    problem = AutoFPProblem.from_arrays(
        X, y, classifier, space=space, random_state=random_state,
        name=f"{dataset}/{model}", context=context,
    )
    try:
        baseline = problem.baseline_accuracy()
        searcher = make_search_algorithm(algorithm, random_state=random_state)
        result = searcher.search(problem, max_trials=max_trials)
    finally:
        problem.evaluator.engine.close()
    result.baseline_accuracy = baseline
    return result, baseline


def _cell_seed(config: ExperimentConfig, algorithm: str, repeat: int) -> int:
    # zlib.crc32 keeps the per-algorithm seed deterministic across
    # processes (Python's hash() is salted per run).
    return config.random_state + 1000 * repeat + zlib.crc32(algorithm.encode()) % 97


#: per-thread memo of (problem, baseline) per (dataset, model) so cells of
#: the same group share one evaluator — and hence its memoization cache.
#: Thread-local because an evaluator's cache is not safe to mutate from
#: concurrent callers (two grids run from two threads); pool workers each
#: get their own copy of the module state anyway.
_CELL_PROBLEMS = threading.local()
_CELL_PROBLEM_MEMO_SIZE = 8


def _cell_problem(config: ExperimentConfig, dataset: str, model: str):
    """Return ``(problem, baseline, fresh_evals)`` for one grid group.

    ``fresh_evals`` is the number of uncached evaluations spent creating
    the problem (the baseline evaluation; 0 when the memo already held the
    problem or a warm ``cache_dir`` answered the baseline from disk), so
    the caller can attribute them to exactly one cell.
    """
    memo = getattr(_CELL_PROBLEMS, "memo", None)
    if memo is None:
        memo = _CELL_PROBLEMS.memo = OrderedDict()
    cell_context = config.cell_context()
    key = (dataset, model, config.dataset_scale, config.fast_models,
           config.random_state, cell_context)
    cached = memo.get(key)
    if cached is not None:
        memo.move_to_end(key)
        problem, baseline = cached
        return problem, baseline, 0
    X, y = load_dataset(dataset, scale=config.dataset_scale)
    classifier = make_classifier(model, fast=config.fast_models)
    problem = AutoFPProblem.from_arrays(
        X, y, classifier, random_state=config.random_state,
        name=f"{dataset}/{model}", context=cell_context,
    )
    baseline = problem.baseline_accuracy()
    memo[key] = (problem, baseline)
    while len(memo) > _CELL_PROBLEM_MEMO_SIZE:
        memo.popitem(last=False)
    return problem, baseline, problem.evaluator.n_evaluations


def _run_cell(cell: tuple) -> tuple:
    """Run one independent (dataset, model, algorithm, repeat) grid cell.

    Module-level so a process pool can pickle it.  Returns
    ``(baseline, best_accuracy, result-or-None, uncached)``; the full
    search result is only shipped back for the first repeat (the only one
    the outcome retains), keeping inter-process traffic small.
    ``uncached`` counts the evaluations this cell actually executed — zero
    when a warm persistent cache (``config.context.cache_dir``) answered them
    all.
    """
    config, dataset, model, algorithm, repeat = cell
    problem, baseline, fresh_evals = _cell_problem(config, dataset, model)
    evals_before = problem.evaluator.n_evaluations
    searcher = make_search_algorithm(
        algorithm, random_state=_cell_seed(config, algorithm, repeat)
    )
    result = searcher.search(problem, max_trials=config.max_trials)
    result.baseline_accuracy = baseline
    uncached = fresh_evals + problem.evaluator.n_evaluations - evals_before
    return (baseline, result.best_accuracy,
            (result if repeat == 0 else None), uncached)


def _grid_workers(context: ExecutionContext) -> int:
    """Processes the grid's cells run on: 1 means inline.

    ``n_jobs`` when the context resolves to the process backend (-1: one
    per core), else 1.  An unset ``n_jobs`` means one grid worker even
    under an explicit ``backend="process"``.
    """
    if context.backend_name() != "process" or context.n_jobs is None:
        return 1
    return default_worker_count() if context.n_jobs == -1 else context.n_jobs


def _collect_cells(cells, workers: int, cell_callback=None) -> list:
    """Run every grid cell; return the outputs in grid order.

    One worker runs the cells inline, in grid order.  More run them on a
    process pool of that many workers with no barrier over the grid, so a
    long-running cell cannot hold progress reporting hostage:
    ``cell_callback(dataset, model, algorithm, repeat, n_done, n_total)``
    fires the moment each cell finishes, in completion order.
    """
    outputs: list = [None] * len(cells)

    def collect(index, output, done) -> None:
        outputs[index] = output
        if cell_callback is not None:
            _config, dataset, model, algorithm, repeat = cells[index]
            cell_callback(dataset, model, algorithm, repeat, done, len(cells))

    if workers <= 1:
        for index, cell in enumerate(cells):
            collect(index, _run_cell(cell), index + 1)
        return outputs
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = {pool.submit(_run_cell, cell): index
                   for index, cell in enumerate(cells)}
        for done, future in enumerate(as_completed(futures), 1):
            collect(futures[future], future.result(), done)
    finally:
        # cancel_futures drops the backlog of a grid that raised; wait
        # reaps every worker process
        pool.shutdown(wait=True, cancel_futures=True)
    return outputs


def run_experiment(config: ExperimentConfig, *, progress_callback=None,
                   cell_callback=None,
                   context: ExecutionContext | None = None,
                   ) -> ExperimentOutcome:
    """Run the full (dataset x model x algorithm x repeat) grid of ``config``.

    Repetitions of the same (dataset, model, algorithm) cell are averaged:
    the scenario stores the mean best accuracy, and only the first repeat's
    search result / bottleneck report is retained.

    The independent grid cells run inline, or on a process pool of the
    context's ``n_jobs`` workers when the context resolves to the process
    backend (``context=`` overrides ``config.context``); pooled cells are
    collected per completion — ``cell_callback(dataset, model, algorithm,
    repeat, n_done, n_total)`` fires as each cell lands, in completion
    order.  Cell seeds are derived from the configuration and results are
    merged in grid order, so scenarios, results and bottleneck reports do
    not depend on the worker count or backend (apart from measured times).
    ``outcome.uncached_evaluations`` does: it is counted per grid process,
    and each process builds its own problem per (dataset, model), so cells
    of one group in different processes repeat the baseline and each
    other's evaluations; with a shared ``cache_dir`` the count depends on
    which process writes first.
    ``progress_callback(dataset, model, algorithm, mean_accuracy)`` fires
    in grid order during the merge, as before.

    The context's ``cache_dir`` turns on the persistent cross-run
    evaluation cache: every worker writes its evaluations through to disk
    and reads previous runs' entries back, so repeating a grid performs
    zero uncached evaluations (``outcome.uncached_evaluations``) while
    producing bit-for-bit identical scenarios.  Its
    ``prefix_cache_bytes`` gives every cell evaluator a prefix-transform
    cache of that byte budget — same scenarios, less Prep time.
    """
    if context is not None:
        config = replace(config, context=context)
    cells = [
        (config, dataset, model, algorithm, repeat)
        for dataset in config.datasets
        for model in config.models
        for algorithm in config.algorithms
        for repeat in range(config.n_repeats)
    ]
    outcome = ExperimentOutcome(config=config)
    try:
        cell_outputs = dict(zip(
            ((d, m, a, r) for _, d, m, a, r in cells),
            _collect_cells(cells, _grid_workers(config.context),
                           cell_callback),
        ))
        outcome.uncached_evaluations = sum(
            output[3] for output in cell_outputs.values()
        )
        for dataset in config.datasets:
            for model in config.models:
                if config.algorithms:
                    baseline = cell_outputs[
                        (dataset, model, config.algorithms[0], 0)
                    ][0]
                else:
                    # No algorithms: still report baseline-only scenarios.
                    _, baseline, fresh = _cell_problem(config, dataset, model)
                    outcome.uncached_evaluations += fresh
                scenario = Scenario(dataset=dataset, model=model,
                                    baseline_accuracy=baseline)
                for algorithm in config.algorithms:
                    accuracies = []
                    for repeat in range(config.n_repeats):
                        _, best_accuracy, result, _ = cell_outputs[
                            (dataset, model, algorithm, repeat)
                        ]
                        accuracies.append(best_accuracy)
                        if repeat == 0:
                            outcome.results[(dataset, model, algorithm)] = result
                            outcome.bottlenecks.append(
                                analyze_result(result, dataset=dataset,
                                               model=model)
                            )
                    scenario.accuracies[algorithm] = float(np.mean(accuracies))
                    if progress_callback is not None:
                        progress_callback(dataset, model, algorithm,
                                          scenario.accuracies[algorithm])
                outcome.scenarios.append(scenario)
    finally:
        # Release this thread's (problem, baseline) memo: the datasets and
        # warm evaluator caches should not outlive the experiment.  Worker
        # processes release theirs when the pool winds down.
        _CELL_PROBLEMS.memo = OrderedDict()
    return outcome


def no_fp_vs_random_search(datasets, models=("lr", "xgb", "mlp"), *,
                           max_trials: int = 25, fast_models: bool = True,
                           random_state: int = 0) -> list[dict]:
    """Reproduce Table 11: no-preprocessing accuracy vs random-search accuracy."""
    rows = []
    for dataset in datasets:
        row: dict = {"dataset": dataset}
        for model in models:
            result, baseline = run_single(
                dataset, model, "rs", max_trials=max_trials,
                random_state=random_state, fast_model=fast_models,
            )
            row[f"{model}_no_fp"] = baseline
            row[f"{model}_rs"] = result.best_accuracy
        rows.append(row)
    return rows
