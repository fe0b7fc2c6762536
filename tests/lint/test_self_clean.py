"""Tier-1 gate: the repository's own tree must pass ``repro lint``.

This is the point of the exercise — the invariants the lint rules encode
(seeded randomness, copy-on-write transforms, telemetry-backed counters,
observable error handling, lock discipline, atomic writes, explicit
encodings) are contracts the rest of the test suite relies on.  Any new
violation fails here with the same message ``repro lint`` would print,
so CI and the local pre-commit habit agree.
"""

import io
from pathlib import Path

import pytest

from repro.lint import lint_paths, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]

#: every tree the CI lint step sweeps
LINTED_TREES = ("src/repro", "tests", "benchmarks", "examples", "scripts")


@pytest.mark.parametrize("tree", LINTED_TREES)
def test_tree_is_lint_clean(tree):
    root = REPO_ROOT / tree
    if not root.exists():
        pytest.skip(f"{tree} not present in this checkout")
    report = lint_paths([root])
    if not report.clean:
        buffer = io.StringIO()
        render_text(report, buffer)
        pytest.fail(f"repro lint {tree} found violations:\n"
                    + buffer.getvalue())
    assert report.files_checked > 0
