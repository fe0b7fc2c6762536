"""Parallel experiment-grid fan-out: every backend yields the same results.

The grid dispatches cells as individual futures (no whole-grid barrier):
``cell_callback`` reports completions as they land while results merge in
grid order, so scenarios, results and bottleneck reports are identical for
every worker count and backend (apart from measured times).
``uncached_evaluations`` is not: it is counted per grid process, so cells
of one group that land in different processes repeat each other's
evaluations.

Also runs the smoke mode of ``benchmarks/bench_parallel_speedup.py`` so the
execution engine's grid fan-out is exercised by the tier-1 suite on every
run (the full speedup measurement stays in the benchmark harness).
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core.context import ExecutionContext
from repro.experiments import quick_config, run_experiment, run_single

BENCH_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_parallel_speedup.py"
)


def _tiny_config(**overrides):
    return quick_config(datasets=("blood", "wine"), algorithms=("rs", "tevo_h"),
                        max_trials=5, dataset_scale=0.5, **overrides)


def _accuracies(outcome):
    return [(s.dataset, s.model, s.baseline_accuracy, sorted(s.accuracies.items()))
            for s in outcome.scenarios]


class TestParallelGrid:
    @pytest.mark.parametrize("backend", ["process"])
    def test_parallel_outcome_identical_to_serial(self, backend):
        serial = run_experiment(_tiny_config())
        parallel = run_experiment(
            _tiny_config(context=ExecutionContext(n_jobs=2, backend=backend))
        )
        assert _accuracies(parallel) == _accuracies(serial)
        assert parallel.rankings(min_improvement=-100.0) == \
            serial.rankings(min_improvement=-100.0)
        assert set(parallel.results) == set(serial.results)

    def test_config_carries_parallel_options(self):
        config = quick_config(datasets=("blood",), algorithms=("rs",),
                              max_trials=4,
                              context=ExecutionContext(n_jobs=2,
                                                       backend="process"))
        assert config.context.n_jobs == 2
        assert config.context.backend == "process"
        outcome = run_experiment(config)  # options read from the config
        assert len(outcome.scenarios) == 1

    def test_context_override_beats_config(self):
        config = _tiny_config()
        outcome = run_experiment(
            config, context=ExecutionContext(n_jobs=2, backend="process")
        )
        assert outcome.config.context.backend == "process"
        assert _accuracies(outcome) == _accuracies(run_experiment(config))

    def test_bottlenecks_and_results_present_in_parallel_run(self):
        config = _tiny_config(context=ExecutionContext(n_jobs=2,
                                                       backend="process"))
        outcome = run_experiment(config)
        assert len(outcome.bottlenecks) == 4
        assert all(result is not None for result in outcome.results.values())

    def test_progress_callback_fires_in_grid_order(self):
        calls = []
        config = _tiny_config(context=ExecutionContext(n_jobs=2,
                                                       backend="process"))
        run_experiment(config,
                       progress_callback=lambda d, m, a, acc: calls.append((d, m, a)))
        expected = [(d, m, a) for d in config.datasets for m in config.models
                    for a in config.algorithms]
        assert calls == expected

    @pytest.mark.parametrize("backend", [None, "process"])
    def test_cell_callback_reports_every_completed_cell(self, backend):
        """The futures-based fan-out reports each cell as it completes."""
        context = ExecutionContext() if backend is None else \
            ExecutionContext(n_jobs=2, backend=backend)
        config = _tiny_config(context=context)
        calls = []
        run_experiment(
            config,
            cell_callback=lambda d, m, a, r, done, total:
                calls.append((d, m, a, r, done, total)),
        )
        assert len(calls) == config.n_runs()
        # Completion counters are monotonic 1..n and the total is constant.
        assert [c[4] for c in calls] == list(range(1, config.n_runs() + 1))
        assert all(c[5] == config.n_runs() for c in calls)
        # Every grid cell is reported exactly once.
        reported = {(d, m, a, r) for d, m, a, r, _, _ in calls}
        expected = {(d, m, a, r) for d in config.datasets
                    for m in config.models for a in config.algorithms
                    for r in range(config.n_repeats)}
        assert reported == expected

    def test_explicit_backend_without_n_jobs_keeps_one_grid_worker(
            self, monkeypatch):
        """context(backend=..., n_jobs=None) must not silently fan the
        grid out to every core (the pre-context default was one worker)."""
        from repro.experiments import runner as runner_module

        seen = {}
        original = runner_module.ProcessPoolExecutor

        class Recording(original):
            def __init__(self, max_workers=None, **options):
                super().__init__(max_workers=max_workers, **options)
                seen["max_workers"] = max_workers

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", Recording)
        run_experiment(quick_config(
            datasets=("blood",), algorithms=("rs",), max_trials=3,
            dataset_scale=0.5,
            context=ExecutionContext(backend="process"),
        ))
        # no pool: the one grid worker is the calling process
        assert seen == {}
        assert runner_module._grid_workers(
            ExecutionContext(backend="process")) == 1

    def test_empty_algorithms_yields_baseline_only_scenarios(self):
        config = quick_config(datasets=("blood",), algorithms=(), max_trials=4,
                              dataset_scale=0.5)
        outcome = run_experiment(config)
        assert len(outcome.scenarios) == 1
        assert outcome.scenarios[0].accuracies == {}
        assert 0.0 <= outcome.scenarios[0].baseline_accuracy <= 1.0

    def test_run_single_accepts_parallel_context(self):
        serial, baseline_s = run_single("blood", "lr", "pbt", max_trials=6,
                                        dataset_scale=0.5)
        parallel, baseline_p = run_single(
            "blood", "lr", "pbt", max_trials=6, dataset_scale=0.5,
            context=ExecutionContext(n_jobs=2, backend="process"),
        )
        assert baseline_p == baseline_s
        assert parallel.best_accuracy == serial.best_accuracy


class TestBenchmarkSmokeMode:
    def test_bench_parallel_speedup_smoke(self):
        """The benchmark's fast smoke mode runs under tier-1 pytest."""
        spec = importlib.util.spec_from_file_location(
            "bench_parallel_speedup", BENCH_PATH
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        serial, parallel = bench.smoke_check(backend="process", n_jobs=2)
        assert bench.scenario_accuracies(serial) == \
            bench.scenario_accuracies(parallel)
        assert len(serial.scenarios) == 2
