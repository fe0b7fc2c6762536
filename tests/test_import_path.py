"""The default search path must not import scipy.

scipy takes most of a second to import, and every CLI call, ``repro
worker`` and spawned pool process pays for whatever ``import repro.cli``
pulls in.  Modules that need scipy import it where it is used.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
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
print(sorted(name for name in sys.modules
             if name == "scipy" or name.startswith("scipy.")))
"""


def test_cli_and_default_fits_do_not_import_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    completed = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                               capture_output=True, text=True, timeout=120,
                               check=True)
    assert completed.stdout.strip() == "[]"
