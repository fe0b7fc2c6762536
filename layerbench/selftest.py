"""Self-test of the layered benchmark at a tiny budget.

Usage (from the repository root): ``python3 layerbench/selftest.py``.

For every workload it runs ``run.py`` untraced and traced with a few
trials and checks that

* the last line is the result object with every metric that
  ``BENCHMARK.json`` names, each with its unit, and nothing else;
* every search was judged correct and no operation failed;
* no per-layer time exceeds the traced search wall;

and, without running anything, that the digest check catches a record
altered in one field and a search missing a record.  Exits non-zero on the
first failed check.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY_TRIALS = 8
#: per-layer times that run inside SearchSession.run; set-up phases, the
#: host probe and the unscaled end-to-end values are timed outside it
SEARCH_TIMES = [name for name, unit in run.PER_LAYER.items()
                if unit == "s" and not name.startswith(
                    ("setup.", "host.", "bench.", "search.wall"))]


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def run_benchmark(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--trials", str(TINY_TRIALS)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    check(completed.returncode == 0,
          f"{workload} trace={trace} exited {completed.returncode}:\n"
          f"{completed.stdout}{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_metrics(workload: str, trace: int, result: dict,
                  declared: dict) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{workload} trace={trace}: not correct: {result}")
    check(set(result["metrics"]) == set(declared),
          f"{workload} trace={trace}: metrics "
          f"{sorted(set(result['metrics']) ^ set(declared))} differ from "
          "BENCHMARK.json")
    for name, metric in result["metrics"].items():
        check(metric["unit"] == declared[name],
              f"{workload}: {name} unit {metric['unit']!r}, "
              f"declared {declared[name]!r}")
        check(isinstance(metric["value"], (int, float)),
              f"{workload}: {name} value {metric['value']!r}")


def check_layer_times(workload: str, metrics: dict) -> None:
    wall = metrics["search.wall_s"]["value"]
    check(wall > 0, f"{workload}: traced search wall is {wall}")
    for name in SEARCH_TIMES:
        value = metrics[name]["value"]
        check(value <= wall, f"{workload}: {name} = {value} s exceeds the "
                             f"traced search wall {wall} s")


def check_digest_gate() -> None:
    records = [["(('standard_scaler', ()),)", "1.0", "0.75", None],
               ["(('binarizer', ()),)", "1.0", "0.5", None]]
    expected = {"digest": run.record_digest(records), "records": 2}

    def search(rows):
        return {"result": {"records": rows}}

    honest = [search(records), search(records)]
    check(run.judge(honest, expected) == (4, 0), "honest searches failed")
    altered = copy.deepcopy(records)
    altered[1][2] = "0.5000000000000001"
    searches = [search(records), search(altered)]
    check(run.judge(searches, expected) == (4, 2)
          and not searches[1]["ok"], "altered accuracy not caught")
    searches = [search(records), search(records[:1])]
    check(run.judge(searches, expected)[1] == 2,
          "missing record not caught")
    # Without a committed reference the searches must agree with each other.
    searches = [search(records), search(records), search(altered)]
    consensus = run.expected_outcome(searches, None)
    check(run.judge(searches, consensus) == (6, 2),
          "disagreeing search not caught by consensus")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    end_to_end = {item["name"]: item["unit"] for item in declared["end_to_end"]}
    per_layer = {item["name"]: item["unit"] for item in declared["per_layer"]}
    check(end_to_end == run.END_TO_END, "end_to_end differs from run.py")
    check(per_layer == run.PER_LAYER, "per_layer differs from run.py")
    check([item["name"] for item in declared["workloads"]]
          == list(run.WORKLOADS), "workloads differ from run.py")
    check_digest_gate()
    print("digest gate: ok")
    for workload in run.WORKLOADS:
        check_metrics(workload, 0, run_benchmark(workload, 0), end_to_end)
        result = run_benchmark(workload, 1)
        check_metrics(workload, 1, result, per_layer)
        check_layer_times(workload, result["metrics"])
        print(f"{workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
