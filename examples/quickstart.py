"""Quickstart: search for a feature-preprocessing pipeline on one dataset.

Run with::

    python examples/quickstart.py

The example loads a small tabular dataset from the benchmark registry,
builds an Auto-FP problem with a logistic-regression downstream model,
runs the paper's best-ranked search algorithm (PBT) against the
no-preprocessing baseline, and then tours the runtime surface: one
:class:`~repro.core.context.ExecutionContext` object carries every
performance knob (parallel backend, persistent evaluation cache, prefix
reuse, async scheduling), and one
:class:`~repro.search.session.SearchSession` object carries the run's
lifecycle — progress callbacks, interruption, checkpoint and bit-for-bit
resume.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import AutoFPProblem, ExecutionContext, SearchSession, make_search_algorithm
from repro.datasets import load_dataset


def main() -> None:
    # 1. Load a dataset (synthetic stand-in for the paper's "heart" dataset).
    X, y = load_dataset("heart")
    print(f"dataset: heart — {X.shape[0]} rows, {X.shape[1]} features, "
          f"{len(set(y.tolist()))} classes")

    # 2. Build the Auto-FP problem: an 80/20 train/validation split plus the
    #    default search space of 7 preprocessors and pipelines up to length 7.
    problem = AutoFPProblem.from_arrays(X, y, model="lr", random_state=0, name="heart/lr")
    baseline = problem.baseline_accuracy()
    print(f"validation accuracy without preprocessing: {baseline:.4f}")

    # 3. Search with PBT (the paper's top-ranked algorithm) and random search.
    for algorithm_name in ("pbt", "rs"):
        algorithm = make_search_algorithm(algorithm_name, random_state=0)
        result = algorithm.search(problem, max_trials=40)
        improvement = (result.best_accuracy - baseline) * 100
        print(f"\n[{algorithm_name}] best pipeline after {len(result)} evaluations:")
        print(f"  {result.best_pipeline.describe()}")
        print(f"  validation accuracy: {result.best_accuracy:.4f} "
              f"({improvement:+.2f} points vs no-FP)")

    # 4. Reuse the winning pipeline like any fit/transform preprocessor.
    best = make_search_algorithm("pbt", random_state=0).search(problem, max_trials=40)
    fitted = best.best_pipeline.fit(problem.evaluator.X_train)
    transformed_valid = fitted.transform(problem.evaluator.X_valid)
    print(f"\ntransformed validation set shape: {transformed_valid.shape}")

    # 5. ExecutionContext: ONE object for every runtime knob.  A context
    #    is frozen, hashable and JSON-serializable (to_dict/from_dict),
    #    can be read from REPRO_* environment variables
    #    (ExecutionContext.from_env()) or a JSON file (`repro search
    #    --context run.json`), and configures problems, searches, whole
    #    experiment grids and the CLI alike:
    #
    #    * n_jobs/backend fan evaluation batches (PBT generations,
    #      Hyperband rungs) out to worker processes — results are
    #      bit-for-bit identical to serial, only wall-clock changes;
    #    * cache_dir persists every evaluation across runs (a repeated
    #      search answers from disk: zero re-training);
    #    * prefix_cache_bytes resumes each pipeline from its longest
    #      already-fitted prefix (Prep dominates search cost, and under
    #      the process backend the workers' reuse counters are merged
    #      back into cache_info());
    #    * async_mode schedules completion-driven (the algorithm proposes
    #      while earlier evaluations are still in flight — pair with the
    #      "asha" extension algorithm).
    context = ExecutionContext(
        n_jobs=2, backend="process",
        prefix_cache_bytes=64 * 1024 * 1024,
        cache_dir=".eval-cache",
    )
    fast_problem = AutoFPProblem.from_arrays(
        X, y, model="lr", random_state=0, name="heart/lr", context=context,
    )
    parallel = make_search_algorithm("pbt", random_state=0).search(
        fast_problem, max_trials=40
    )
    info = fast_problem.evaluator.cache_info()
    print(f"\n[context] {context.describe()}")
    print(f"parallel+cached search matches serial: "
          f"{parallel.best_accuracy == best.best_accuracy} "
          f"({info['misses']} uncached, {info.get('disk_hits', 0)} from disk, "
          f"{info['prefix_hits']} prefix hits, {info['steps_reused']} steps "
          f"reused — rerun me!)")
    fast_problem.evaluator.engine.close()

    # 6. Async mode rides the same context.  ASHA (asynchronous successive
    #    halving) is built for it: per completed evaluation it promotes
    #    promising pipelines to higher training fidelities, no rung
    #    barriers, every worker saturated.
    async_problem = AutoFPProblem.from_arrays(
        X, y, model="lr", random_state=0, name="heart/lr",
        context=ExecutionContext(n_jobs=4, backend="process", async_mode=True),
    )
    async_result = make_search_algorithm("asha", random_state=0).search(
        async_problem, max_trials=20
    )
    print(f"\n[asha, async x4] {len(async_result)} evaluations across "
          f"training fidelities, best accuracy "
          f"{async_result.best_accuracy:.4f}")
    async_problem.evaluator.engine.close()

    # 7. SearchSession: the lifecycle facade for long-running searches.
    #    It drives any algorithm step-wise (sync or async), fires
    #    callbacks per observed trial / per proposal batch / per
    #    checkpoint, and can snapshot the whole run — trial history,
    #    budget remainder, RNG stream and the algorithm's internal state —
    #    after any completed trial.
    #
    #    Walkthrough: checkpoint -> kill -> resume.  We run a 40-trial PBT
    #    search that auto-checkpoints every 5 trials and abort it after
    #    trial 12 (session.stop() here; a real `kill -9` behaves the same,
    #    because the checkpoint is already on disk).  Resuming in a fresh
    #    process rebuilds everything from the document and finishes
    #    **bit-for-bit identical** to a run that was never interrupted.
    checkpoint = Path(tempfile.mkdtemp()) / "heart-pbt.checkpoint"

    def abort_after_twelve(session, record):
        if len(session.result) == 12:
            session.stop()  # simulate the process dying here

    session = SearchSession(
        AutoFPProblem.from_arrays(X, y, model="lr", random_state=0,
                                  name="heart/lr"),
        make_search_algorithm("pbt", random_state=0),
        on_trial=abort_after_twelve,
        checkpoint_path=checkpoint, checkpoint_every=5,
    )
    partial = session.run(max_trials=40)
    print(f"\n[session] interrupted after {len(partial)} trials; "
          f"last checkpoint: {session.last_checkpoint_path.name}")

    #    A new process would run exactly this line (the checkpoint knows
    #    the dataset for registry problems; array-built problems are
    #    re-supplied, and a fingerprint guard refuses mismatched data).
    resumed = SearchSession.resume(
        checkpoint,
        problem=AutoFPProblem.from_arrays(X, y, model="lr", random_state=0,
                                          name="heart/lr"),
    )
    restored_trials = len(resumed.result)
    finished = resumed.run()
    print(f"[session] resumed from trial {restored_trials} "
          f"-> finished with {len(finished)} trials, "
          f"best accuracy {finished.best_accuracy:.4f}")
    print(f"resumed run identical to uninterrupted: "
          f"{[t.accuracy for t in finished.trials] == [t.accuracy for t in best.trials]}")
    #    The same story on the CLI:
    #      repro search --dataset heart --algorithm pbt --max-trials 40 \
    #          --checkpoint run.checkpoint --checkpoint-every 5
    #      ...kill it...
    #      repro search --resume --checkpoint run.checkpoint

    # 8. Observing a search.  Telemetry rides the same context: "counters"
    #    keeps cheap cross-backend metrics (cache hit rates, prefix steps
    #    reused, budget refunds) readable via session.metrics_snapshot() or
    #    the on_metrics callback; "trace" additionally writes per-trial
    #    phase spans (propose -> cache lookup -> prep -> train) to a
    #    process-safe JSONL sink under telemetry_dir, plus a heartbeat
    #    file a dashboard can poll.  Telemetry never changes search
    #    results — "off" vs "trace" runs are bit-for-bit identical.
    trace_dir = Path(tempfile.mkdtemp())
    observed = SearchSession(
        AutoFPProblem.from_arrays(
            X, y, model="lr", random_state=0, name="heart/lr",
            context=ExecutionContext(telemetry_mode="trace",
                                     telemetry_dir=trace_dir),
        ),
        make_search_algorithm("rs", random_state=0),
        on_metrics=lambda session, snapshot: None,  # live counters per trial
    )
    traced = observed.run(max_trials=10)
    snapshot = observed.metrics_snapshot()
    print(f"\n[telemetry] {int(snapshot['session.trials'])} trials traced, "
          f"{int(snapshot.get('evaluator.cache_hits', 0))} cache hits; "
          f"trace + heartbeat in {trace_dir}")
    #    Aggregate the trace into the paper's Table-5 pick/prep/train
    #    breakdown (or export --chrome for chrome://tracing):
    #      repro trace summary --trace <telemetry_dir>
    from repro.telemetry import read_trace, summarize_trace
    overall = summarize_trace(read_trace(trace_dir / "trace.jsonl"))["overall"]
    print(f"[telemetry] prep {overall['prep_pct']:.0f}% vs train "
          f"{overall['train_pct']:.0f}% of trial time over "
          f"{len(traced)} trials (the paper's Table-5 shape)")

    # 9. Keeping the contracts.  Everything above leans on invariants the
    #    code can silently lose: seeded generators threaded as parameters
    #    (else resume stops being bit-for-bit), copy-on-write transforms
    #    (else the prefix cache hands out corrupted arrays), MetricSet
    #    counters (else telemetry goes blind), atomic writes (else a
    #    killed run poisons its own checkpoint).  `repro lint` is an AST
    #    pass that enforces them statically:
    #      RPR001 determinism   RPR002 copy-on-write  RPR003 counter dicts
    #      RPR004 silent except RPR005 lock discipline
    #      RPR006 atomic writes RPR007 explicit encoding
    #      RPR008 bounded retry loops
    #    Run `repro lint src/repro tests` (or `--json` in CI); suppress a
    #    justified exception inline with `# repro: lint-ignore[RPR001]`.
    from repro.lint import lint_paths
    repo_root = Path(__file__).resolve().parents[1]
    report = lint_paths([repo_root / "src" / "repro"])
    print(f"\n[lint] {report.files_checked} library files, "
          f"{len(report.findings)} findings -> "
          f"{'clean' if report.clean else 'VIOLATIONS'}")

    # 10. Serving searches.  Everything above composes into a service:
    #     `repro serve` runs a SessionManager — many concurrent sessions
    #     over ONE shared engine and cache root, per-tenant trial quotas
    #     enforced through Budget.admits() at submission, and a durable
    #     state directory where every session checkpoints itself.  Kill
    #     the server mid-search and restart it on the same --state-dir:
    #     every in-flight session resumes from its checkpoint, bit-for-bit
    #     identical to a run that was never interrupted.  The substrate
    #     fixes that make co-tenancy safe: per-session heartbeat files
    #     (heartbeat-<id>.json), session-labelled metric series (one
    #     tenant's refunds never bleed into another's snapshot), and
    #     process-pool reuse keyed by evaluator fingerprint.
    #       repro serve --port 8642 --state-dir ./serve-state \
    #           --max-sessions 2 --tenant-quota 200
    #       repro submit --dataset heart --algorithm pbt --max-trials 40 --wait
    #       repro status            # all sessions at a glance
    #       repro events --session <id> --follow   # live trial stream
    #     The same stack is a library (no sockets needed):
    from repro.serve import SessionManager
    manager = SessionManager(state_dir=Path(tempfile.mkdtemp()),
                             max_sessions=2, tenant_quota=50)
    session_id = manager.submit({"dataset": "heart", "algorithm": "rs",
                                 "max_trials": 5, "seed": 0, "scale": 0.5})
    while manager.status(session_id)["status"] in ("queued", "running"):
        manager.events(session_id, after=0, timeout=1.0)  # long-poll
    served = manager.status(session_id)
    manager.shutdown()
    print(f"\n[serve] session {session_id}: {served['status']} after "
          f"{served['trials']} trials, best accuracy "
          f"{served['result']['best_accuracy']:.4f}")

    # 11. Surviving failures.  Long searches meet infrastructure faults:
    #     a pool worker OOM-killed mid-evaluation, an evaluation that
    #     hangs forever, a flaky IPC channel.  The engine recovers from
    #     all three without changing results: a broken process pool is
    #     rebuilt and its lost tasks resubmitted under a RetryPolicy
    #     (bounded attempts, exponential backoff, seeded jitter); a task
    #     that keeps killing its worker is quarantined as a failed record
    #     with failure_kind="worker_crash" (innocent co-pending tasks are
    #     never quarantined — the crash is attributed by re-running the
    #     round one task at a time); eval_timeout arms a watchdog that
    #     kills hung evaluations and records failure_kind="timeout".
    #     Failure records carry zero timings and are never cached, so a
    #     crash-and-recover run's surviving records are bit-for-bit
    #     identical to a run that never faulted.  Every recovery path is
    #     reproducibly testable through the chaos harness — a seeded
    #     FaultPlan of worker kills / transient errors / hangs injected
    #     at exact task indices:
    #       REPRO_EVAL_TIMEOUT=300 REPRO_CHAOS='crash@2,delay@5:30!' \
    #           repro search --dataset heart --backend process --n-jobs 4 ...
    #     The same knobs as a library:
    from repro.engine import RetryPolicy
    faulty = SearchSession(
        AutoFPProblem.from_arrays(
            X, y, model="lr", random_state=0, name="heart/lr",
            context=ExecutionContext(eval_timeout=300.0,
                                     chaos="crash@2,error@5"),
        ),
        make_search_algorithm("rs", random_state=0),
    )
    survived = faulty.run(max_trials=10)
    print(f"\n[faults] chaos plan crash@2,error@5 -> {len(survived)} trials, "
          f"quarantined {sum(t.failure_kind is not None for t in survived.trials)}, "
          f"best accuracy {survived.best_accuracy:.4f} "
          f"(identical to the no-fault run: transient faults retry clean)")
    print(f"[faults] RetryPolicy backoff: "
          f"{[round(RetryPolicy(seed=0).delay(n), 4) for n in (1, 2, 3)]}s")
    #     Under `repro serve`, a crash degrades /healthz (status
    #     "degraded" + last_crash details) but sessions keep being
    #     served; only a pool that cannot be rebuilt fails its session.

    # 12. Scaling out.  The "remote" backend distributes evaluations over
    #     worker daemons on any machines that can reach the coordinator.
    #     The search process binds a coordinator socket and prints its
    #     address; `repro worker` daemons dial it, register their core
    #     counts, lease evaluations and stream results back while
    #     heartbeating.  Membership is elastic (workers may join or leave
    #     mid-search), a worker that dies is detected by heartbeat
    #     silence and its in-flight evaluations are resubmitted to
    #     survivors under the §11 RetryPolicy.  Workers never open the
    #     persistent eval cache: with --cache-dir the search process is
    #     its only writer, so workers need no access to that path.  (An
    #     `experiment` grid never runs on a backend: it fans its cells
    #     out on a process pool of --n-jobs workers.)  On real machines:
    #       # terminal 1 — the search binds the coordinator:
    #       repro search --dataset heart --backend remote \
    #           --remote-coordinator 0.0.0.0:8643 --max-trials 40
    #       # terminals 2+3 (any reachable host) — two workers:
    #       repro worker --coordinator <host>:8643 --cores 4
    #       repro worker --coordinator <host>:8643 --cores 4
    #       # now `kill` one worker mid-run: the search finishes on the
    #       # survivor with results identical to an undisturbed run.
    #     The same fleet in-process (what the tests and CI smoke use),
    #     with a chaos fault that drops one of the two workers at
    #     dispatch index 5 — mid-search, with leases in flight:
    from repro.engine import ExecutionEngine
    from repro.engine.remote import start_loopback

    remote_backend, remote_workers = start_loopback(2)
    remote_problem = AutoFPProblem.from_arrays(
        X, y, model="lr", random_state=0, name="heart/lr")
    remote_problem.evaluator.set_engine(
        ExecutionEngine(remote_backend, chaos="drop_worker@5"))
    distributed = make_search_algorithm("pbt", random_state=0).search(
        remote_problem, max_trials=40)
    remote_problem.evaluator.engine.close()
    for remote_worker in remote_workers:
        remote_worker.stop()
    print(f"\n[remote] 2-worker fleet, one dropped mid-search: "
          f"{len(distributed)} trials, best accuracy "
          f"{distributed.best_accuracy:.4f} — identical to serial: "
          f"{distributed.best_accuracy == best.best_accuracy}")


if __name__ == "__main__":
    main()
