"""CI smoke for distributed execution: real worker daemons, one killed.

Boots two ``repro worker`` subprocesses against an in-process
coordinator, runs a small search over the fleet with a temporary
``cache_dir``, SIGTERMs one worker mid-run, and requires that

* the search still finishes every trial,
* the coordinator counted the ungraceful death
  (``engine.worker_heartbeat_misses >= 1``),
* the results are bit-for-bit identical to a serial run of the same
  search, and
* the eval cache's append-log holds exactly one line per live entry and
  one entry per evaluation: the coordinator is its only writer, and
  workers never open it.

Run from the repository root with ``PYTHONPATH=src``::

    python scripts/remote_smoke.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time

from repro.core.context import ExecutionContext
from repro.core.problem import AutoFPProblem
from repro.datasets.synthetic import distort_features, make_classification
from repro.engine import ExecutionEngine, RetryPolicy
from repro.engine.remote import RemoteBackend
from repro.io.evalcache import cache_stats
from repro.search import make_search_algorithm
from repro.search.session import SearchSession
from repro.telemetry.metrics import get_registry

MAX_TRIALS = 16
KILL_AFTER_TRIALS = 4


def make_problem(context=None):
    X, y = make_classification(n_samples=140, n_features=8, n_classes=2,
                               class_sep=2.0, random_state=2)
    X = distort_features(X, random_state=2)
    return AutoFPProblem.from_arrays(X, y, model="lr", random_state=0,
                                     name="remote-smoke/lr", context=context)


def run_search(problem, on_trial=None):
    session = SearchSession(problem,
                            make_search_algorithm("rs", random_state=0),
                            on_trial=on_trial)
    return session.run(max_trials=MAX_TRIALS)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="remote-smoke-cache-") as cache:
        return run_smoke(cache)


def run_smoke(cache_dir) -> int:
    serial = run_search(make_problem())
    expected = [trial.accuracy for trial in serial.trials]
    print(f"serial       : {len(expected)} trials, "
          f"best {serial.best_accuracy:.4f}")

    backend = RemoteBackend(
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0))
    address = backend.coordinator_address
    print(f"coordinator  : {address}")
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--coordinator", address, "--cores", "1"],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        for _ in range(2)
    ]
    try:
        if not backend.wait_for_workers(2, timeout=60.0):
            print(f"FAIL: only {backend.worker_count}/2 workers registered")
            return 1
        print(f"fleet        : {backend.worker_count} workers registered "
              f"(pids {[worker.pid for worker in workers]})")

        killed = []

        def kill_one_worker(session, record):
            if len(session.result) == KILL_AFTER_TRIALS and not killed:
                victim = workers[0]
                print(f"chaos        : SIGTERM worker pid {victim.pid} "
                      f"after trial {KILL_AFTER_TRIALS}")
                victim.send_signal(signal.SIGTERM)
                killed.append(victim)

        problem = make_problem(ExecutionContext(cache_dir=cache_dir))
        problem.evaluator.set_engine(ExecutionEngine(backend))
        remote = run_search(problem, on_trial=kill_one_worker)
        got = [trial.accuracy for trial in remote.trials]

        misses = get_registry().counter(
            "engine.worker_heartbeat_misses").value
        print(f"remote       : {len(got)} trials, "
              f"best {remote.best_accuracy:.4f}, "
              f"{backend.worker_count} worker(s) left, "
              f"{misses} ungraceful death(s) observed")

        if not killed:
            print("FAIL: the kill never fired (search too short?)")
            return 1
        if len(got) != MAX_TRIALS:
            print(f"FAIL: expected {MAX_TRIALS} trials, got {len(got)}")
            return 1
        if misses < 1:
            print("FAIL: the killed worker's death was never counted")
            return 1
        if got != expected:
            print("FAIL: remote run diverged from serial")
            print(f"  serial: {expected}")
            print(f"  remote: {got}")
            return 1
        evaluations = problem.evaluator.n_evaluations
        [stats] = cache_stats(cache_dir)
        print(f"eval cache   : {stats['lines']} append-log line(s), "
              f"{stats['entries']} live entr(ies), {evaluations} "
              f"evaluation(s)")
        if not stats["lines"] == stats["entries"] == evaluations:
            print("FAIL: the eval cache has more than one writer per entry")
            return 1
        print("OK           : identical to serial after losing a worker, "
              "one cache line per evaluation")
        return 0
    finally:
        backend.close()  # sends shutdown: the survivor exits gracefully
        deadline = time.monotonic() + 15.0
        for worker in workers:
            try:
                worker.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                worker.kill()


if __name__ == "__main__":
    sys.exit(main())
