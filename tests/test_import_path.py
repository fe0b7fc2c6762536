"""Search paths that must not import scipy or multiprocessing.

scipy takes most of a second to import, and every CLI call, ``repro
worker`` and spawned pool process pays for whatever ``import repro.cli``
pulls in.  Modules that need scipy import it where it is used, and the
search algorithms on the benchmark's paths (SMAC's expected improvement
included) do not need it at all.  Likewise only the process backend
builds process pools, so a serial search never loads ``multiprocessing``.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

REPORT_MODULES = """
print(sorted(name for name in sys.modules
             if name == {prefix!r} or name.startswith({prefix!r} + ".")))
"""

FITS = """
import sys

import numpy as np

import repro.cli
from repro.models import make_classifier
from repro.preprocessing.registry import DEFAULT_PREPROCESSOR_NAMES, make_preprocessor

rng = np.random.default_rng(0)
X = rng.exponential(size=(40, 3))
y = (X[:, 0] > 1.0).astype(int)
for name in DEFAULT_PREPROCESSOR_NAMES:
    make_preprocessor(name).fit(X).transform(X)
for name in ("xgb", "lr"):
    make_classifier(name).fit(X, y).predict(X)
"""

SMAC_SEARCH = """
import sys

from repro.core.problem import AutoFPProblem
from repro.search import SMAC

problem = AutoFPProblem.from_registry("blood", "lr", scale=0.4, random_state=0)
smac = SMAC(n_init=3, random_state=0)
result = smac.search(problem, max_trials=6)
assert len(result) == 6 and smac._surrogate is not None
"""


SERIAL_CLI_SEARCH = """
import io
import sys

from repro.cli import main

assert main(["search", "--dataset", "blood", "--max-trials", "6",
             "--scale", "0.4"], out=io.StringIO()) == 0
"""


def loaded_modules(script: str, prefix: str) -> str:
    """The loaded modules named ``prefix`` or ``prefix.*`` after ``script``."""
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    report = REPORT_MODULES.format(prefix=prefix)
    completed = subprocess.run([sys.executable, "-c", script + report],
                               env=env, capture_output=True, text=True,
                               timeout=120, check=True)
    return completed.stdout.strip()


def test_cli_and_default_fits_do_not_import_scipy():
    assert loaded_modules(FITS, "scipy") == "[]"


def test_smac_search_does_not_import_scipy():
    """Past ``n_init`` SMAC scores candidates by expected improvement."""
    assert loaded_modules(SMAC_SEARCH, "scipy") == "[]"


def test_serial_search_does_not_import_multiprocessing():
    assert loaded_modules(SERIAL_CLI_SEARCH, "multiprocessing") == "[]"
