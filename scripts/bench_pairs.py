"""Paired benchmark runs of a parent commit against the working tree.

Exports ``--parent`` into a temporary directory, then runs the benchmark
command that ``BENCHMARK.json`` declares (``layerbench/run.py``) for one
workload, once in each tree per pair, never concurrently.  Each tree
benchmarks its own sources.  The side that runs first alternates from pair
to pair, and pair ``i`` passes ``--seed S+i`` to both sides.  For each
end-to-end metric the script prints the median and quartiles per side, the
relative change of the median, how many pairs the working tree won (a tie
counts for neither), and whether that meets the claim rule: at least nine
tenths of the pairs won, and a median gap larger than the parent's
interquartile range.  Each metric also gets a regression verdict against
its ``BENCHMARK.json`` bound:

* ``worse``: the median moved the wrong way by more than the bound;
* ``unresolved``: the parent's interquartile range is wider than the
  bound (relative to its median), and not every run of the change beat
  every run of the parent;
* ``ok``: otherwise.

Last come the failed and attempted operations per side, flagged when the
change's failed share is larger than the parent's.

Run from the repository root::

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload prep-wide \\
        --pairs 10 --seed 201

The parent is exported with ``git archive``, so only committed files are
benchmarked on that side, and the temporary directory is removed when the
script ends.  The working-tree side includes uncommitted edits.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def export_commit(rev: str, destination: Path) -> str:
    """Write the files of commit ``rev`` under ``destination``; its hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.TarFile(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(destination, filter="data")
    return commit


def run_side(tree: Path, benchmark: dict, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``: its final JSON line."""
    command = [sys.executable if part in ("python", "python3") else part
               for part in benchmark["command"]]
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    completed = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark failed in {tree} (exit "
                           f"{completed.returncode}):\n{completed.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def verdict(parent: list, change: list, metric: dict) -> str:
    """``worse``, ``unresolved`` or ``ok`` for one metric's runs."""
    higher = metric["better"] == "higher"
    parent_q, change_q = quartiles(parent), quartiles(change)
    relative = (change_q[1] - parent_q[1]) / parent_q[1]
    if (-relative if higher else relative) > metric["bound"]:
        return "worse"
    every_run_better = (min(change) > max(parent) if higher
                        else max(change) < min(parent))
    spread = (parent_q[2] - parent_q[0]) / parent_q[1]
    if spread > metric["bound"] and not every_run_better:
        return "unresolved"
    return "ok"


def summarise(runs: dict, benchmark: dict) -> list:
    """One line per end-to-end metric, then the failures per side."""
    lines = [f"{'metric':<14} {'parent median [q1, q3]':>32} "
             f"{'change median [q1, q3]':>32} {'change':>8} {'wins':>6}  "
             f"claim  verdict"]
    pairs = len(runs["parent"])
    for metric in benchmark["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [run["metrics"][name]["value"] for run in side_runs]
                 for side, side_runs in runs.items()}
        wins = sum(1 for parent, change in zip(sides["parent"], sides["change"])
                   if (change > parent if higher else change < parent))
        parent_q, change_q = quartiles(sides["parent"]), quartiles(sides["change"])
        gap = change_q[1] - parent_q[1]
        better = gap > 0 if higher else gap < 0
        claim = (wins >= 0.9 * pairs and better
                 and abs(gap) > parent_q[2] - parent_q[0])
        cells = [f"{q[1]:.3f} [{q[0]:.3f}, {q[2]:.3f}]"
                 for q in (parent_q, change_q)]
        lines.append(f"{name:<14} {cells[0]:>32} {cells[1]:>32} "
                     f"{gap / parent_q[1]:>+8.1%} {wins:>3}/{pairs}  "
                     f"{'yes' if claim else 'no':<5}  "
                     f"{verdict(sides['parent'], sides['change'], metric)}")
    counts = {side: (sum(run["failed"] for run in side_runs),
                     sum(run["attempted"] for run in side_runs))
              for side, side_runs in runs.items()}
    shares = {side: failed / attempted if attempted else 0.0
              for side, (failed, attempted) in counts.items()}
    for side, (failed, attempted) in counts.items():
        grew = side == "change" and shares["change"] > shares["parent"]
        lines.append(f"failed {side:<7} {failed}/{attempted} "
                     f"({shares[side]:.1%})"
                     + ("  more than the parent" if grew else ""))
    return lines


def parse_args(argv=None):
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="commit to compare the working tree against")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args, benchmark


def main(argv=None) -> int:
    args, benchmark = parse_args(argv)
    workdir = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        parent_tree = workdir / "parent"
        commit = export_commit(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        runs: dict = {"parent": [], "change": []}
        headline = benchmark["end_to_end"][0]["name"]
        print(f"parent {commit[:12]} vs working tree, {args.workload}, "
              f"{args.pairs} pairs from seed {args.seed}")
        for index in range(args.pairs):
            seed = args.seed + index
            order = ("parent", "change") if index % 2 == 0 \
                else ("change", "parent")
            for side in order:
                result = run_side(trees[side], benchmark, args.workload, seed)
                runs[side].append(result)
            values = "  ".join(
                f"{side} {runs[side][-1]['metrics'][headline]['value']:.3f}"
                for side in order)
            print(f"pair {index + 1} seed {seed} {headline}: {values}",
                  flush=True)
        print("\n".join(summarise(runs, benchmark)))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
