"""Cross-run persistent caching at the experiment level.

Covers the PR acceptance criterion: a repeated ``run_experiment`` with
``cache_dir`` set performs zero uncached evaluations on the second run,
with results bit-for-bit identical to the cache-off run — on the serial,
thread and process backends.  Also runs the smoke mode of
``benchmarks/bench_cache_warmup.py`` so the benchmark harness is exercised
by the tier-1 suite on every run.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core.context import ExecutionContext
from repro.experiments import quick_config, run_experiment, run_single

BENCH_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_cache_warmup.py"
)


def _tiny_config(**overrides):
    return quick_config(datasets=("blood", "wine"), algorithms=("rs", "tevo_h"),
                        max_trials=5, dataset_scale=0.5, **overrides)


def _accuracies(outcome):
    return [(s.dataset, s.model, s.baseline_accuracy, sorted(s.accuracies.items()))
            for s in outcome.scenarios]


class TestPersistentExperimentCache:
    def test_warm_rerun_does_zero_uncached_evaluations(self, tmp_path):
        config = _tiny_config(
            context=ExecutionContext(cache_dir=str(tmp_path / "cache")))
        reference = run_experiment(_tiny_config())  # cache off

        cold = run_experiment(config)
        assert cold.uncached_evaluations > 0
        assert _accuracies(cold) == _accuracies(reference)

        warm = run_experiment(config)
        assert warm.uncached_evaluations == 0
        assert _accuracies(warm) == _accuracies(reference)
        assert warm.rankings(min_improvement=-100.0) == \
            reference.rankings(min_improvement=-100.0)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_every_backend_shares_the_cache(self, tmp_path, backend):
        """A cold serial run warms the cache for every parallel backend."""
        cache_dir = str(tmp_path / "cache")
        config = _tiny_config(context=ExecutionContext(cache_dir=cache_dir))
        cold = run_experiment(config)

        warm = run_experiment(config, context=ExecutionContext(
            cache_dir=cache_dir, n_jobs=1 if backend == "serial" else 2,
            backend=backend))
        assert warm.uncached_evaluations == 0
        assert _accuracies(warm) == _accuracies(cold)

    def test_parallel_cold_run_warms_the_serial_one(self, tmp_path):
        """Process workers write through to the shared cache root."""
        cache_dir = str(tmp_path / "cache")
        config = _tiny_config(context=ExecutionContext(
            cache_dir=cache_dir, n_jobs=2, backend="process"))
        cold = run_experiment(config)
        assert cold.uncached_evaluations > 0

        config = _tiny_config(context=ExecutionContext(cache_dir=cache_dir))

        warm = run_experiment(config)
        assert warm.uncached_evaluations == 0
        assert _accuracies(warm) == _accuracies(cold)

    def test_context_override_beats_config(self, tmp_path):
        config = _tiny_config()  # no cache_dir in the config
        override = ExecutionContext(cache_dir=str(tmp_path / "cache"))
        run_experiment(config, context=override)
        warm = run_experiment(config, context=override)
        assert warm.uncached_evaluations == 0

    def test_outcome_counts_uncached_without_cache_dir(self):
        outcome = run_experiment(
            quick_config(datasets=("blood",), algorithms=("rs",),
                         max_trials=4, dataset_scale=0.5)
        )
        # baseline + at most max_trials search evaluations (duplicates of
        # random sampling are answered by the in-memory cache)
        assert 1 <= outcome.uncached_evaluations <= 5

    def test_run_single_reuses_the_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        context = ExecutionContext(cache_dir=cache_dir)
        cold, baseline_cold = run_single("blood", "lr", "rs", max_trials=5,
                                         dataset_scale=0.5, context=context)
        warm, baseline_warm = run_single("blood", "lr", "rs", max_trials=5,
                                         dataset_scale=0.5, context=context)
        assert baseline_warm == baseline_cold
        assert [t.accuracy for t in warm.trials] == \
            [t.accuracy for t in cold.trials]


class TestBenchmarkSmokeMode:
    def test_bench_cache_warmup_smoke(self, tmp_path):
        """The benchmark's fast smoke mode runs under tier-1 pytest."""
        spec = importlib.util.spec_from_file_location(
            "bench_cache_warmup", BENCH_PATH
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        cold, warm = bench.smoke_check(cache_dir=str(tmp_path / "cache"))
        assert warm.uncached_evaluations == 0
        assert bench.scenario_accuracies(cold) == \
            bench.scenario_accuracies(warm)
