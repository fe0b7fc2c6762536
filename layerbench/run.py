"""Layered search benchmark: Pick / Prep / Train / dispatch, end to end.

Usage (from the repository root)::

    python3 layerbench/run.py --workload train-xgb --seed 0 --seconds 20 --trace 0
    python3 layerbench/run.py --workload all --seconds 60   # one table, interleaved
    python3 layerbench/run.py --write-reference             # refresh reference.json

Every timed unit is one search in a fresh interpreter (``child.py``), so
interpreter start, imports and problem set-up count.  A run is a closed
loop, one search at a time: it runs whole passes over the workload's pool
of search seeds until ``--seconds`` have passed.  The pool is fixed so that
every run does the same work: one search's cost varies up to twofold
between search seeds (5.3-10.7 s CPU for 200 ``train-xgb`` trials over
seeds 0-7), which would swamp the change under test.  ``--seed`` orders
the pool.  Before each search a fixed single-threaded probe is timed
(``host.calib_s``); the reported times are scaled by the run's median probe
so that drift of a shared host does not read as a change of the code (see
``end_to_end``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
search of the pool untraced and then traced, and reports the per-layer
metrics of the traced searches (see ``layers.py``) and the tracing overhead.

Correctness: every search's records (pipeline spec, fidelity, accuracy,
failure kind, in order) are digested.  The digest must equal the committed
reference (``reference.json``).  For a budget without a reference
(``--trials``), the searches of one search seed must agree with each other,
and a parallel workload must equal the same search on the serial backend.
A search that disagrees, exits non-zero, or returns records with a
``failure_kind`` or fewer records than expected counts as failed operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SCRATCH = ROOT / ".layerbench_tmp"
REFERENCE_PATH = HERE / "reference.json"

#: each workload stresses a different layer; BENCHMARK.json says which.
#: Two seeds of 2-8 s searches give a 20 s run two to four passes, so
#: each seed's median wall is taken over several searches.
WORKLOADS = {
    "train-xgb": {
        "dataset": "blood", "scale": 1.0, "model": "xgb",
        "algorithm": "tevo_h", "trials": 60, "seeds": [0, 1],
        "context": {}, "durable": False,
    },
    "prep-wide": {
        # Seeds whose searches fill the 64 MiB prefix budget and evict,
        # so the cache runs with a working set larger than itself.
        "dataset": "madeline", "scale": 4.0, "model": "lr",
        "algorithm": "tevo_h", "trials": 200, "seeds": [0, 3],
        "context": {"prefix_cache_bytes": 64 * 1024 * 1024},
        "durable": False,
    },
    "pick-smac": {
        "dataset": "blood", "scale": 1.0, "model": "lr",
        "algorithm": "smac", "trials": 60, "seeds": [0, 1],
        "context": {}, "durable": False,
    },
    "dispatch-bandit": {
        "dataset": "blood", "scale": 1.0, "model": "lr",
        "algorithm": "hyperband", "trials": 100, "seeds": [0, 1],
        "context": {"backend": "process", "n_jobs": 2}, "durable": True,
    },
}
CHECKPOINT_EVERY = 10

END_TO_END = {
    "trials_per_s": "trials/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
_LAYER_NAMES = (
    "setup.import_s", "setup.problem_s", "setup.baseline_s",
    "search.wall_s", "search.self_s", "search.iterations",
    "evaluator.self_s", "evaluator.lookup_s", "evaluator.hit_ratio",
    "evaluator.evals",
    "prefix.hit_ratio", "prefix.steps_reused", "prefix.evictions",
    "prefix.bytes_held",
    "prep.fit_s", "prep.transform_s", "prep.steps",
    "prep.fit_s.standard_scaler", "prep.fit_s.maxabs_scaler",
    "prep.fit_s.minmax_scaler", "prep.fit_s.normalizer",
    "prep.fit_s.power_transformer", "prep.fit_s.quantile_transformer",
    "prep.fit_s.binarizer",
    "train.fit_s", "train.predict_s", "train.fits",
    "tree.fit_s", "tree.fits",
    "engine.run_s", "engine.batches", "engine.batch_size_mean",
    "engine.busy_ratio",
    "evalcache.get_s", "evalcache.put_s", "evalcache.bytes",
    "checkpoint.write_s", "checkpoint.writes", "checkpoint.bytes",
    "bench.trace_overhead", "bench.raw_trials_per_s", "bench.raw_setup_s",
    "host.calib_s",
)


def _layer_unit(name: str) -> str:
    if name == "bench.raw_trials_per_s":
        return "trials/s"
    if name.endswith("_ratio") or name == "bench.trace_overhead":
        return "ratio"
    if name.endswith(".bytes") or name.endswith("bytes_held"):
        return "B"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


PER_LAYER = {name: _layer_unit(name) for name in _LAYER_NAMES}

CHILD_TIMEOUT_S = 60.0
#: no new search starts after this, whatever --seconds asks, so a run
#: always ends inside three minutes
RUN_CEILING_S = 100.0


def clock() -> float:
    """System-wide monotonic clock (the child script reads the same one)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ------------------------------------------------------------------ host
#: the host probe: a fresh interpreter imports NumPy and runs small-array
#: work in a Python loop, the same mix as a search's start-up and inner
#: loops.  On one 2-core host it tracked a 1.4x slowdown of the same search
#: as 1.35x, where an in-process loop-and-sort kernel saw only 1.2x.
PROBE = """
import numpy as np
rng = np.random.default_rng(0)
x = rng.standard_normal((64, 8))
y = rng.standard_normal(64)
for i in range(2500):
    order = np.argsort(x[:, i % 8], kind="mergesort")
    np.cumsum(y[order]).max()
    table = {j: j * 2 for j in range(20)}
"""
#: probe time the end-to-end times are scaled to (see ``end_to_end``)
PROBE_REF_S = 0.2


def calibrate(env: dict) -> float:
    """Seconds for a fresh interpreter to run ``PROBE`` (~0.2-0.3 s)."""
    start = clock()
    subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=CHILD_TIMEOUT_S, check=True)
    return clock() - start


def host_info() -> dict:
    import platform

    import numpy as np

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def child_env() -> dict:
    # REPRO_* variables would reconfigure the search through
    # ExecutionContext.from_env; the BLAS pins keep tiny linear algebra
    # single-threaded, so two pool workers do not oversubscribe two cores.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


# --------------------------------------------------------------- children
def _spawn(argv: list, run_dir: Path, env: dict) -> tuple[float, float, int, float]:
    """Run ``argv`` to completion; ``(spawn, exit, exit code, peak RSS MiB)``.

    The child leads its own process group so a timeout kills its pool
    workers too.  ``waitid(WNOWAIT)`` observes the exit without reaping,
    so the watchdog can never signal a recycled pid; ``wait4`` then reaps
    it and returns the largest resident set in the child's process tree.
    """
    env = dict(env, TMPDIR=str(run_dir))
    with open(run_dir / "child.log", "wb") as log:
        spawn = clock()
        process = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                   stderr=subprocess.STDOUT,
                                   start_new_session=True)
        lock = threading.Lock()
        exited = [False]

        def kill() -> None:
            with lock:
                if not exited[0]:
                    os.killpg(process.pid, signal.SIGKILL)

        watchdog = threading.Timer(CHILD_TIMEOUT_S, kill)
        watchdog.start()
        try:
            os.waitid(os.P_PID, process.pid, os.WEXITED | os.WNOWAIT)
            end = clock()
            with lock:
                exited[0] = True
        finally:
            watchdog.cancel()
            watchdog.join()
        _, status, usage = os.wait4(process.pid, 0)
        process.returncode = os.waitstatus_to_exitcode(status)
    return spawn, end, process.returncode, usage.ru_maxrss / 1024.0


def run_search(workload: str, seed: int, trials: int, *, trace: bool,
               env: dict, context: dict | None = None) -> dict:
    """One search in a fresh interpreter with its own temporary directory."""
    config = WORKLOADS[workload]
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        spec = {**config, "seed": seed, "trials": trials, "trace": trace,
                "run_dir": str(run_dir), "checkpoint_every": CHECKPOINT_EVERY}
        if context is not None:
            spec["context"] = context
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        spawn, end, code, rss_mb = _spawn(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            run_dir, env)
        outcome = {"seed": seed, "exit": code, "wall_s": end - spawn,
                   "rss_mb": rss_mb, "trace": trace, "result": None}
        result_path = run_dir / "result.json"
        if code == 0 and result_path.is_file():
            result = json.loads(result_path.read_text(encoding="utf-8"))
            outcome["result"] = result
            if result["first_proposal"] is not None:
                outcome["setup_s"] = result["first_proposal"] - spawn
        else:
            log = (run_dir / "child.log").read_text(encoding="utf-8",
                                                    errors="replace")
            outcome["log_tail"] = log[-2000:]
        return outcome
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def timed_search(workload: str, seed: int, trials: int, *, trace: bool,
                 env: dict) -> dict:
    """Probe the host, then run one search; the probe rides along."""
    calib = calibrate(env)
    search = run_search(workload, seed, trials, trace=trace, env=env)
    search["calib_s"] = calib
    return search


def warm_up(env: dict) -> None:
    """Compile bytecode and warm the page cache outside any timed search."""
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="warmup-", dir=SCRATCH))
    try:
        _spawn([sys.executable, "-c",
                "import compileall, repro.cli; "
                f"compileall.compile_dir({str(ROOT / 'src' / 'repro')!r}, "
                "quiet=1)"], run_dir, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def pool_order(workload: str, seed: int) -> list:
    """The workload's search seeds in the order ``seed`` picks."""
    order = list(WORKLOADS[workload]["seeds"])
    random.Random(seed).shuffle(order)
    return order


# ------------------------------------------------------------ correctness
def record_digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records).encode("utf-8")).hexdigest()


def load_reference(workload: str, trials: int) -> dict:
    """Committed ``{search seed: {digest, records}}`` at ``trials``, or {}."""
    if not REFERENCE_PATH.is_file():
        return {}
    entry = json.loads(REFERENCE_PATH.read_text(encoding="utf-8")).get(workload)
    if not entry or entry["trials"] != trials:
        return {}
    return {int(seed): value for seed, value in entry["seeds"].items()}


def expected_outcome(searches: list, reference: dict | None) -> dict | None:
    """The digest and record count every search of one seed must reproduce.

    The reference wins; otherwise the searches must agree with each other,
    so the most common digest is the expectation and every search that
    differs from it fails.
    """
    if reference is not None:
        return reference
    digests = Counter(record_digest(search["result"]["records"])
                      for search in searches if search["result"] is not None)
    if not digests:
        return None
    digest, _ = digests.most_common(1)[0]
    records = next(len(search["result"]["records"]) for search in searches
                   if search["result"] is not None
                   and record_digest(search["result"]["records"]) == digest)
    return {"digest": digest, "records": records}


def judge(searches: list, expected: dict | None) -> tuple[int, int]:
    """Mark each search ``ok``; return ``(attempted, failed)`` operations.

    ``searches`` share one search seed.  An operation is one expected
    record.  A search that crashed or whose digest differs fails all of its
    operations; otherwise records with a ``failure_kind`` and records
    missing against the expectation fail.
    """
    per_search = expected["records"] if expected else 1
    attempted = failed = 0
    for search in searches:
        attempted += per_search
        result = search["result"]
        if result is None or expected is None \
                or record_digest(result["records"]) != expected["digest"]:
            search["ok"] = False
            failed += per_search
            continue
        records = result["records"]
        bad = sum(1 for record in records if record[3] is not None)
        bad += max(0, per_search - len(records))
        search["ok"] = bad == 0
        failed += bad
    return attempted, failed


def serial_twin(workload: str) -> dict | None:
    """The serial-backend context of a parallel workload, else ``None``."""
    context = WORKLOADS[workload]["context"]
    if context.get("backend") in (None, "serial"):
        return None
    return {key: value for key, value in context.items()
            if key not in ("backend", "n_jobs")}


def references_for(workload: str, trials: int, env: dict) -> dict:
    """Expected outcome per search seed: committed, or the serial twin's.

    Seeds missing from both are left out; their searches are then judged
    by agreement with each other.
    """
    references = load_reference(workload, trials)
    twin = serial_twin(workload)
    for seed in WORKLOADS[workload]["seeds"]:
        if seed in references or twin is None:
            continue
        search = run_search(workload, seed, trials, trace=False, env=env,
                            context=twin)
        if search["result"] is not None:
            records = search["result"]["records"]
            references[seed] = {"digest": record_digest(records),
                                "records": len(records)}
    return references


def judge_all(searches: list, references: dict) -> tuple[int, int]:
    attempted = failed = 0
    for seed in sorted({search["seed"] for search in searches}):
        group = [search for search in searches if search["seed"] == seed]
        counts = judge(group, expected_outcome(group, references.get(seed)))
        attempted += counts[0]
        failed += counts[1]
    return attempted, failed


# ------------------------------------------------------------ aggregation
def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _rate(search: dict) -> float:
    return len(search["result"]["records"]) / search["wall_s"]


def raw_end_to_end(searches: list) -> dict:
    """Metrics of the untraced searches, robust to a slow search or two.

    ``trials_per_s`` is one pass over the pool: the seeds' records over the
    sum of each seed's median wall.  Set-up and memory are medians over
    every search.
    """
    timed = [search for search in searches
             if not search["trace"] and search["result"] is not None]
    records = wall = 0.0
    for seed in {search["seed"] for search in timed}:
        group = [search for search in timed if search["seed"] == seed]
        records += len(group[0]["result"]["records"])
        wall += _median([search["wall_s"] for search in group])
    return {
        "trials_per_s": records / wall if wall else 0.0,
        "setup_s": _median([search["setup_s"] for search in timed
                            if "setup_s" in search]),
        "peak_rss_mb": _median([search["rss_mb"] for search in timed]),
    }


def end_to_end(searches: list) -> dict:
    """The reported end-to-end metrics: times scaled to the reference host.

    A shared host's speed drifts by up to 1.9x over minutes (a 60-trial
    ``train-xgb`` search took 2.5-4.8 s on one 2-core host), which would
    swamp the change under test.  Times are therefore scaled by the run's
    median host probe to what they would read where ``PROBE`` takes
    ``PROBE_REF_S``; ``--trace 1`` reports the unscaled values as
    ``bench.raw_*``.  Memory is not scaled.
    """
    raw = raw_end_to_end(searches)
    slowdown = _median([search["calib_s"] for search in searches]) / PROBE_REF_S
    return {"trials_per_s": raw["trials_per_s"] * slowdown,
            "setup_s": raw["setup_s"] / slowdown,
            "peak_rss_mb": raw["peak_rss_mb"]}


def per_layer(searches: list) -> dict:
    """Medians over the traced searches, plus the paired trace overhead."""
    traced = [search["result"] for search in searches
              if search["trace"] and search["result"] is not None]
    values = {}
    for name in PER_LAYER:
        samples = [result["layers"].get(name, result["setup"].get(name))
                   for result in traced]
        values[name] = _median([sample for sample in samples
                                if sample is not None])
    # Searches run in (untraced, traced) pairs of one search seed.
    ratios = [_rate(traced_run) / _rate(plain)
              for plain, traced_run in zip(searches[::2], searches[1::2])
              if plain["result"] is not None
              and traced_run["result"] is not None]
    values["bench.trace_overhead"] = _median(ratios)
    raw = raw_end_to_end(searches)
    values["bench.raw_trials_per_s"] = raw["trials_per_s"]
    values["bench.raw_setup_s"] = raw["setup_s"]
    values["host.calib_s"] = _median([search["calib_s"] for search in searches])
    return values


def describe(search: dict) -> str:
    kind = "traced  " if search["trace"] else "untraced"
    head = f"  seed {search['seed']} {kind}"
    if search["result"] is None:
        return f"{head} exit {search['exit']}: {search.get('log_tail', '')!r}"
    return (f"{head} wall {search['wall_s']:.3f} s  setup "
            f"{search.get('setup_s', float('nan')):.3f} s  "
            f"{len(search['result']['records'])} records  rss "
            f"{search['rss_mb']:.1f} MiB  calib {search['calib_s']:.3f} s  "
            f"{'ok' if search.get('ok') else 'FAILED'}")


# -------------------------------------------------------------------- modes
def run_workload(args, env: dict) -> int:
    workload = args.workload
    trials = args.trials or WORKLOADS[workload]["trials"]
    warm_up(env)
    references = references_for(workload, trials, env)
    order = pool_order(workload, args.seed)
    start = clock()
    searches: list = []
    # Whole passes over the pool (untraced); with --trace 1, one
    # (untraced, traced) pair per seed until the time is up.
    while True:
        for seed in order:
            elapsed = clock() - start
            if args.trace and searches \
                    and (elapsed >= args.seconds or elapsed >= RUN_CEILING_S):
                break
            searches.append(timed_search(workload, seed, trials, trace=False,
                                         env=env))
            if args.trace:
                searches.append(timed_search(workload, seed, trials,
                                             trace=True, env=env))
        elapsed = clock() - start
        if elapsed >= args.seconds or elapsed >= RUN_CEILING_S:
            break
    attempted, failed = judge_all(searches, references)
    for search in searches:
        print(describe(search))
    if not any(search["result"] is not None for search in searches):
        print("no search completed; no result", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in per_layer(searches).items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end(searches).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_matrix(args, env: dict) -> int:
    """Every workload, interleaved search by search, as one table."""
    warm_up(env)
    budgets = {name: args.trials or config["trials"]
               for name, config in WORKLOADS.items()}
    references = {name: references_for(name, budgets[name], env)
                  for name in WORKLOADS}
    orders = {name: pool_order(name, args.seed) for name in WORKLOADS}
    searches: dict = {name: [] for name in WORKLOADS}

    def whole_passes() -> bool:
        return all(runs and len(runs) % len(orders[name]) == 0
                   for name, runs in searches.items())

    start = clock()
    while not whole_passes() or clock() - start < args.seconds:
        for name, runs in searches.items():
            if runs and len(runs) % len(orders[name]) == 0 \
                    and clock() - start >= args.seconds:
                continue  # this workload's pass is whole; let others finish
            seed = orders[name][len(runs) % len(orders[name])]
            runs.append(timed_search(name, seed, budgets[name], trace=False,
                                     env=env))
    summary = {}
    print(f"{'workload':<16} {'trials_per_s':>13} {'setup_s':>8} "
          f"{'peak_rss_mb':>12} {'failed_frac':>12} {'host.calib_s':>13} "
          "searches")
    print(f"{'':<16} {'(trials/s)':>13} {'(s)':>8} {'(MiB)':>12} "
          f"{'(ratio)':>12} {'(s)':>13}")
    for name, runs in searches.items():
        attempted, failed = judge_all(runs, references[name])
        metrics = end_to_end(runs)
        metrics["failed_frac"] = failed / attempted
        metrics["host.calib_s"] = _median([run["calib_s"] for run in runs])
        summary[name] = {"searches": len(runs), **metrics,
                         "raw": raw_end_to_end(runs)}
        print(f"{name:<16} {metrics['trials_per_s']:>13.3f} "
              f"{metrics['setup_s']:>8.3f} {metrics['peak_rss_mb']:>12.1f} "
              f"{metrics['failed_frac']:>12.4f} "
              f"{metrics['host.calib_s']:>13.3f} {len(runs)}")
    print(json.dumps({"host": host_info(), "seed": args.seed,
                      "workloads": summary}))
    return 0


def write_reference(args, env: dict) -> int:
    """Record the digest of every pool search at the default budget."""
    warm_up(env)
    document = {}
    for name, config in WORKLOADS.items():
        seeds = {}
        for seed in config["seeds"]:
            search = run_search(name, seed, config["trials"], trace=False,
                                env=env)
            if search["result"] is None:
                print(f"{name} seed {seed}: search failed\n"
                      f"{search.get('log_tail', '')}", file=sys.stderr)
                return 1
            records = search["result"]["records"]
            entry = {"records": len(records), "digest": record_digest(records)}
            twin = serial_twin(name)
            if twin is not None:
                serial = run_search(name, seed, config["trials"],
                                    trace=False, env=env, context=twin)
                if serial["result"] is None or record_digest(
                        serial["result"]["records"]) != entry["digest"]:
                    print(f"{name} seed {seed}: differs from the same search "
                          "on the serial backend", file=sys.stderr)
                    return 1
            seeds[str(seed)] = entry
            print(f"{name} seed {seed}: {entry['records']} records, "
                  f"digest {entry['digest']}")
        document[name] = {"trials": config["trials"], "seeds": seeds}
    REFERENCE_PATH.write_text(json.dumps(document, indent=2) + "\n",
                              encoding="utf-8")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="orders each workload's pool of search seeds")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="override every workload's trial budget "
                             "(the self-test uses a tiny one)")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    env = child_env()
    try:
        if args.write_reference:
            return write_reference(args, env)
        if args.workload == "all":
            return run_matrix(args, env)
        return run_workload(args, env)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
