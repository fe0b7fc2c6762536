"""Directory-backed store of search results.

The paper's raw experimental data covers 45 datasets x 3 models x 15
algorithms x 6 time limits; keeping that many runs organised needs more
than ad-hoc file names.  :class:`ResultStore` maps one search run to one
JSON file under ``<root>/<dataset>/<model>/<algorithm>[-<tag>].json`` and
offers listing, loading and flattening into summary rows for CSV export.

Tagged runs are stored as ``<algorithm>--<tag>.json``: the double-hyphen
separator cannot appear inside a validated key component, so hyphenated
algorithm names like ``random-search`` round-trip through
:meth:`ResultStore.keys` unambiguously.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from repro.core.result import SearchResult
from repro.exceptions import ValidationError
from repro.io.serialization import (
    load_search_result,
    load_session_checkpoint,
    save_search_result,
    save_session_checkpoint,
)

_KEY_PATTERN = re.compile(r"^[A-Za-z0-9_.\-]+$")

#: separator between algorithm and tag in a stored file stem; components may
#: contain single hyphens but never this sequence, so the split is unambiguous
_TAG_SEPARATOR = "--"


@dataclass(frozen=True)
class ResultKey:
    """Identifies one stored search run."""

    dataset: str
    model: str
    algorithm: str
    tag: str = ""

    def relative_path(self) -> Path:
        """Path of this run's JSON file relative to the store root."""
        stem = (self.algorithm if not self.tag
                else f"{self.algorithm}{_TAG_SEPARATOR}{self.tag}")
        return Path(self.dataset) / self.model / f"{stem}.json"


def _check_component(value: str, name: str) -> str:
    if not value or not _KEY_PATTERN.match(value):
        raise ValidationError(
            f"{name} must be a non-empty string of letters, digits, '_', '-' "
            f"or '.', got {value!r}"
        )
    if _TAG_SEPARATOR in value or value.startswith("-") or value.endswith("-"):
        raise ValidationError(
            f"{name} may contain single hyphens but not {_TAG_SEPARATOR!r}, "
            f"and may not start or end with '-', got {value!r}"
        )
    return value


class ResultStore:
    """Store and retrieve :class:`~repro.core.result.SearchResult` objects.

    Parameters
    ----------
    root:
        Directory that holds the store (created on first save).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------ API
    def key(self, dataset: str, model: str, algorithm: str, tag: str = "") -> ResultKey:
        """Build (and validate) a result key."""
        _check_component(dataset, "dataset")
        _check_component(model, "model")
        _check_component(algorithm, "algorithm")
        if tag:
            _check_component(tag, "tag")
        return ResultKey(dataset=dataset, model=model, algorithm=algorithm, tag=tag)

    def path_for(self, key: ResultKey) -> Path:
        """Absolute path of the JSON file backing ``key``."""
        return self.root / key.relative_path()

    def save(self, key: ResultKey, result: SearchResult) -> Path:
        """Persist ``result`` under ``key``; returns the written path."""
        return save_search_result(result, self.path_for(key))

    def load(self, key: ResultKey) -> SearchResult:
        """Load the result stored under ``key``."""
        path = self.path_for(key)
        if not path.exists():
            raise ValidationError(f"no stored result for {key}")
        return load_search_result(path)

    def exists(self, key: ResultKey) -> bool:
        """Whether a result is stored under ``key``."""
        return self.path_for(key).exists()

    def keys(self) -> list[ResultKey]:
        """All keys currently stored, sorted for reproducible iteration."""
        found: list[ResultKey] = []
        if not self.root.exists():
            return found
        for path in sorted(self.root.glob("*/*/*.json")):
            algorithm, _, tag = path.stem.partition(_TAG_SEPARATOR)
            found.append(ResultKey(
                dataset=path.parent.parent.name,
                model=path.parent.name,
                algorithm=algorithm,
                tag=tag,
            ))
        return found

    def summary_rows(self) -> list[dict]:
        """Flatten every stored run into one row (for CSV export / ranking)."""
        rows = []
        for key in self.keys():
            result = self.load(key)
            row = {
                "dataset": key.dataset,
                "model": key.model,
                "algorithm": key.algorithm,
                "tag": key.tag,
                "n_trials": len(result),
                "best_accuracy": result.best_accuracy,
                "baseline_accuracy": result.baseline_accuracy,
            }
            improvement = result.improvement_over_baseline()
            row["improvement_points"] = improvement
            rows.append(row)
        return rows

    # -------------------------------------------------------- checkpoints
    def checkpoint_path_for(self, key: ResultKey) -> Path:
        """Path of the session checkpoint stored alongside ``key``.

        Checkpoints live next to their run's result file with a
        ``.checkpoint`` extension (JSON content), which keeps them out of
        the ``*.json`` globs :meth:`keys` and :meth:`summary_rows` scan —
        an interrupted run never shows up as a finished result.
        """
        path = self.path_for(key)
        return path.with_suffix(".checkpoint")

    def save_checkpoint(self, key: ResultKey, document) -> Path:
        """Persist a ``SearchSession`` checkpoint document under ``key``."""
        return save_session_checkpoint(document, self.checkpoint_path_for(key))

    def load_checkpoint(self, key: ResultKey) -> dict:
        """Load the checkpoint stored under ``key``."""
        path = self.checkpoint_path_for(key)
        if not path.exists():
            raise ValidationError(f"no stored checkpoint for {key}")
        return load_session_checkpoint(path)

    def has_checkpoint(self, key: ResultKey) -> bool:
        """Whether a session checkpoint is stored under ``key``."""
        return self.checkpoint_path_for(key).exists()

    def discard_checkpoint(self, key: ResultKey) -> bool:
        """Remove ``key``'s checkpoint (e.g. after the run finished)."""
        path = self.checkpoint_path_for(key)
        if not path.exists():
            return False
        path.unlink()
        return True

    def __len__(self) -> int:
        return len(self.keys())

    def __repr__(self) -> str:
        return f"ResultStore(root={str(self.root)!r}, n_results={len(self)})"
