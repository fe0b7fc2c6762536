"""``scripts/bench_pairs.py`` turns paired runs into claim and regression verdicts."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

BENCHMARK = {"end_to_end": [
    {"name": "trials_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.10},
    {"name": "cold_rss_mb", "better": "lower", "bound": 0.10},
]}


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(failed: int, **values) -> list:
    """Synthetic runs of one side, one per position of each value list."""
    n_runs = len(next(iter(values.values())))
    return [{"metrics": {name: {"value": series[i]}
                         for name, series in values.items()},
             "failed": failed if i == 0 else 0, "attempted": 30}
            for i in range(n_runs)]


def test_summarise_prints_change_claim_verdict_and_failures():
    runs = {
        "parent": side(
            0,
            trials_per_s=[50.0, 49.0, 51.0, 50.0],
            setup_s=[0.20, 0.21, 0.20, 0.19],
            # spread (IQR / median) far above the 0.10 bound
            peak_rss_mb=[40.0, 60.0, 45.0, 55.0],
            cold_rss_mb=[50.0, 70.0, 55.0, 65.0],
        ),
        "change": side(
            3,
            trials_per_s=[63.0, 62.0, 64.0, 61.0],  # +25%: a claim, ok
            setup_s=[0.30, 0.31, 0.29, 0.30],       # +50%: beyond 0.25
            peak_rss_mb=[49.0, 51.0, 50.0, 52.0],   # within the spread
            cold_rss_mb=[40.0, 41.0, 42.0, 43.0],   # every run better
        ),
    }
    lines = load_script().summarise(runs, BENCHMARK)
    rows = {line.split()[0]: line.split() for line in lines[1:5]}
    assert lines[0].split()[-3:] == ["wins", "claim", "verdict"]
    assert rows["trials_per_s"][-4:] == ["+25.0%", "4/4", "yes", "ok"]
    assert rows["setup_s"][-4:] == ["+50.0%", "0/4", "no", "worse"]
    assert rows["peak_rss_mb"][-2:] == ["no", "unresolved"]
    assert rows["cold_rss_mb"][-4:] == ["-30.8%", "4/4", "yes", "ok"]
    assert lines[5] == "failed parent  0/120 (0.0%)"
    assert lines[6] == "failed change  3/120 (2.5%)  more than the parent"
