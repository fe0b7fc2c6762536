"""E-engine — parallel execution engine: speedup vs the serial baseline.

The bottleneck analysis (Figure 7 / Table 5) shows Auto-FP search time is
dominated by pipeline evaluation, and the experiment grid's
(dataset, model, algorithm, repeat) cells are embarrassingly parallel.
This harness measures the wall-clock speedup of fanning a grid of
independent cells across the execution engine's process backend, and
verifies the parallel outcome is bit-for-bit identical to the serial
baseline.

Expected shape: identical scenario accuracies on every backend, and — on a
multi-core machine — >1.5x speedup with 4 workers on a grid of 8+ cells.
On a single-core machine the equality checks still run; the speedup
assertion is skipped because there is no parallel hardware to exploit.

``smoke_check()`` is the fast variant exercised by the tier-1 test-suite
on every run (see ``tests/experiments/test_parallel_experiments.py``).
"""

from __future__ import annotations

import os
import time

from repro.core.context import ExecutionContext
from repro.experiments import ExperimentConfig, format_table, run_experiment

#: 4 datasets x 1 model x 2 algorithms = 8 independent grid cells
SPEEDUP_GRID = ExperimentConfig(
    datasets=("heart", "blood", "wine", "vehicle"),
    models=("lr",),
    algorithms=("rs", "tevo_h"),
    max_trials=12,
    random_state=0,
)

#: tiny grid for the tier-1 smoke mode (4 cells, ~seconds)
SMOKE_GRID = ExperimentConfig(
    datasets=("blood", "wine"),
    models=("lr",),
    algorithms=("rs", "tevo_h"),
    max_trials=6,
    dataset_scale=0.5,
    random_state=0,
)


def scenario_accuracies(outcome) -> list:
    """Canonical, comparable view of an outcome's scenario accuracies."""
    return [
        (scenario.dataset, scenario.model, scenario.baseline_accuracy,
         sorted(scenario.accuracies.items()))
        for scenario in outcome.scenarios
    ]


def timed_grid(config: ExperimentConfig, *, n_jobs: int = 1,
               backend: str = "serial"):
    """Run the grid and return ``(outcome, wall_seconds)``."""
    start = time.perf_counter()
    outcome = run_experiment(
        config, context=ExecutionContext(n_jobs=n_jobs, backend=backend)
    )
    return outcome, time.perf_counter() - start


def smoke_check(*, backend: str = "process", n_jobs: int = 2):
    """Fast engine exercise: parallel grid outcome must equal serial.

    Returns the (serial, parallel) outcomes so callers can assert further.
    """
    serial = run_experiment(SMOKE_GRID)
    parallel = run_experiment(
        SMOKE_GRID, context=ExecutionContext(n_jobs=n_jobs, backend=backend)
    )
    assert scenario_accuracies(parallel) == scenario_accuracies(serial), (
        f"{backend} backend changed the experiment outcome"
    )
    assert serial.rankings(min_improvement=-100.0) == \
        parallel.rankings(min_improvement=-100.0)
    return serial, parallel


def test_parallel_speedup(once, artifact):
    n_workers = 4
    serial_outcome, serial_seconds = once(timed_grid, SPEEDUP_GRID)

    outcome, seconds = timed_grid(SPEEDUP_GRID, n_jobs=n_workers,
                                  backend="process")
    identical = scenario_accuracies(outcome) == scenario_accuracies(serial_outcome)
    process_speedup = serial_seconds / max(seconds, 1e-9)
    rows = [["serial", 1, serial_seconds, 1.0, "yes"],
            ["process", n_workers, seconds, process_speedup,
             "yes" if identical else "NO"]]
    artifact("parallel_speedup",
             format_table(["backend", "workers", "seconds", "speedup",
                           "identical"], rows))
    # Hard requirement on every machine: parallel == serial, bit-for-bit.
    assert identical, "process backend changed the experiment outcome"

    if (os.cpu_count() or 1) >= 2:
        assert process_speedup > 1.5, (
            f"expected >1.5x speedup with {n_workers} process workers on "
            f"{len(SPEEDUP_GRID.datasets) * len(SPEEDUP_GRID.algorithms)} "
            f"cells, got {process_speedup:.2f}x"
        )


if __name__ == "__main__":
    smoke_check()
    print("smoke check passed: parallel outcome identical to serial")
    serial_outcome, serial_seconds = timed_grid(SPEEDUP_GRID)
    print(f"serial: {serial_seconds:.2f}s")
    outcome, seconds = timed_grid(SPEEDUP_GRID, n_jobs=4, backend="process")
    same = scenario_accuracies(outcome) == scenario_accuracies(serial_outcome)
    print(f"process x4: {seconds:.2f}s "
          f"(speedup {serial_seconds / max(seconds, 1e-9):.2f}x, "
          f"identical={same})")
