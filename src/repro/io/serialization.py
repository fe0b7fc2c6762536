"""JSON / CSV serialization for pipelines, trials and search results.

A benchmark study lives or dies by its raw results: the paper publishes its
"comprehensive experimental results" alongside the code, and this module is
the piece that makes the reproduction's results equally portable.  Search
results round-trip through plain JSON documents (no pickling), and tabular
experiment summaries round-trip through CSV, so downstream analysis does not
need the library at all.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.core.context import convert_field
from repro.core.pipeline import Pipeline
from repro.core.result import SearchResult, TrialRecord
from repro.exceptions import ValidationError
from repro.preprocessing.extended import EXTENDED_PREPROCESSOR_CLASSES
from repro.preprocessing.registry import PREPROCESSOR_CLASSES

#: schema version stamped into every saved search-result document; readers
#: refuse a document from a newer format rather than misread it
RESULT_FORMAT_VERSION = 2


def _mapping(value, what: str) -> Mapping:
    """``value`` if it is a JSON object, else a :class:`ValidationError`."""
    if not isinstance(value, Mapping):
        raise ValidationError(
            f"{what} must be a JSON object, got {type(value).__name__}"
        )
    return value


def pipeline_to_dict(pipeline: Pipeline) -> dict:
    """JSON-serialisable description of a pipeline (names + parameters)."""
    return {
        "steps": [
            {"name": step.name, "params": step.get_params()}
            for step in pipeline
        ]
    }


def pipeline_from_dict(data: Mapping) -> Pipeline:
    """Rebuild a pipeline from :func:`pipeline_to_dict` output.

    Both the seven default preprocessors and the extension preprocessors are
    resolvable, so serialized results from extended search spaces load too.
    """
    entries = _mapping(data, "pipeline").get("steps", [])
    if not isinstance(entries, list):
        raise ValidationError(
            f"pipeline 'steps' must be a list, got {type(entries).__name__}"
        )
    steps = []
    for entry in entries:
        name = _mapping(entry, "pipeline step").get("name")
        if not isinstance(name, str) or not (
                name in PREPROCESSOR_CLASSES
                or name in EXTENDED_PREPROCESSOR_CLASSES):
            raise ValidationError(f"unknown preprocessor name in pipeline data: {name!r}")
        params = _mapping(entry.get("params", {}), f"params of step {name!r}")
        step_class = PREPROCESSOR_CLASSES.get(name) \
            or EXTENDED_PREPROCESSOR_CLASSES[name]
        try:
            steps.append(step_class(**params))
        except (TypeError, ValueError, OverflowError) as error:
            raise ValidationError(
                f"bad params for pipeline step {name!r}: {error}"
            ) from None
    return Pipeline(steps)


def trial_to_dict(trial: TrialRecord) -> dict:
    """JSON-serialisable description of one trial."""
    data = {
        "pipeline": pipeline_to_dict(trial.pipeline),
        "accuracy": trial.accuracy,
        "pick_time": trial.pick_time,
        "prep_time": trial.prep_time,
        "train_time": trial.train_time,
        "fidelity": trial.fidelity,
        "iteration": trial.iteration,
    }
    if trial.failure_kind is not None:
        data["failure_kind"] = trial.failure_kind
    return data


def trial_from_dict(data: Mapping) -> TrialRecord:
    """Rebuild a trial from :func:`trial_to_dict` output.

    A malformed trial raises a :class:`ValidationError` naming its field.
    """
    data = _mapping(data, "trial")
    for name in ("pipeline", "accuracy"):
        if name not in data:
            raise ValidationError(f"trial lacks the {name!r} field")

    def number(name: str, default, kind=float):
        return convert_field(f"trial {name!r}", data.get(name, default), kind)

    failure_kind = data.get("failure_kind")
    if failure_kind is not None and not isinstance(failure_kind, str):
        raise ValidationError(
            f"trial 'failure_kind' must be a string, got {failure_kind!r}"
        )
    return TrialRecord(
        pipeline=pipeline_from_dict(data["pipeline"]),
        accuracy=number("accuracy", None),
        pick_time=number("pick_time", 0.0),
        prep_time=number("prep_time", 0.0),
        train_time=number("train_time", 0.0),
        fidelity=number("fidelity", 1.0),
        iteration=number("iteration", 0, int),
        failure_kind=failure_kind,
    )


def search_result_to_dict(result: SearchResult) -> dict:
    """JSON-serialisable description of a whole search run."""
    return {
        "format_version": RESULT_FORMAT_VERSION,
        "algorithm": result.algorithm,
        "baseline_accuracy": result.baseline_accuracy,
        "trials": [trial_to_dict(trial) for trial in result.trials],
    }


def search_result_from_dict(data: Mapping) -> SearchResult:
    """Rebuild a search result from :func:`search_result_to_dict` output.

    Documents without a ``format_version`` (written before the marker
    existed) load normally; documents from a *newer* format are refused
    rather than silently misread, and a malformed document raises a
    :class:`ValidationError` naming the bad field.
    """
    data = _mapping(data, "search result")
    version = data.get("format_version", RESULT_FORMAT_VERSION)
    if isinstance(version, bool) or not isinstance(version, int):
        raise ValidationError(
            f"search result format_version must be an integer, "
            f"got {version!r}"
        )
    if version > RESULT_FORMAT_VERSION:
        raise ValidationError(
            f"search result uses format version {version}; this build "
            f"reads up to {RESULT_FORMAT_VERSION}"
        )
    algorithm = data.get("algorithm", "unknown")
    if not isinstance(algorithm, str):
        raise ValidationError(
            f"search result 'algorithm' must be a string, got {algorithm!r}"
        )
    baseline = data.get("baseline_accuracy")
    if baseline is not None:
        baseline = convert_field("baseline_accuracy", baseline, float)
    trials = data.get("trials", [])
    if not isinstance(trials, list):
        raise ValidationError(
            f"search result 'trials' must be a list, "
            f"got {type(trials).__name__}"
        )
    result = SearchResult(algorithm=algorithm, baseline_accuracy=baseline)
    for entry in trials:
        result.add(trial_from_dict(entry))
    return result


def atomic_write_text(path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Readers either see the previous content or the complete new content,
    never a torn write: a crash mid-write leaves only a stray ``.tmp`` file,
    not a corrupt document at ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path


def save_search_result(result: SearchResult, path) -> Path:
    """Write a search result to ``path`` as a JSON document; returns the path.

    The write is atomic, so a crash mid-save cannot leave a truncated JSON
    file that would poison later loads (e.g. ``ResultStore.summary_rows``).
    """
    return atomic_write_text(
        path, json.dumps(search_result_to_dict(result), indent=2)
    )


def load_search_result(path) -> SearchResult:
    """Load a search result previously written by :func:`save_search_result`."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ValidationError(
            f"cannot read search result at {path}: {error}"
        ) from error
    return search_result_from_dict(document)


# ---------------------------------------------------- session checkpoints
#: schema version of SearchSession checkpoint documents.  Version 3 holds
#: one loop-state shape for both schedules (``driver``: ``"sync"`` for
#: barrier waves, ``"async"`` completion-driven); documents of any other version
#: are refused rather than misread.
SESSION_CHECKPOINT_VERSION = 3

#: the ``kind`` marker distinguishing checkpoints from result documents
SESSION_CHECKPOINT_KIND = "search-session-checkpoint"

#: the sections ``SearchSession.resume`` reads, with their JSON types
#: (dotted names are nested)
_CHECKPOINT_SECTIONS = (
    ("algorithm", str),
    ("context", dict),
    ("problem", dict),
    ("session_id", str),
    ("driver", str),
    ("budget", dict),
    ("budget.max_trials", (int, float)),
    ("budget.used", (int, float)),
    ("trials", list),
    ("state_blob", str),
)


def encode_state_blob(state) -> str:
    """Pickle ``state`` and return it base64-encoded for a JSON document.

    The checkpoint document is JSON end to end — trial history, budget
    and context are all plain data — except for the algorithm's internal
    state (surrogate models, populations, rungs), its RNG and the search
    loop's queued tasks, which are arbitrary Python and go through pickle.
    The blob therefore carries pickle's usual trust model: only load
    checkpoints you (or your own interrupted runs) wrote, exactly as with
    any ``.pkl`` artifact.
    """
    return base64.b64encode(
        pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_state_blob(blob: str):
    """Invert :func:`encode_state_blob` (see its trust-model note)."""
    if not isinstance(blob, str):
        raise ValidationError(
            f"checkpoint state blob must be a base64 string, "
            f"got {type(blob).__name__}"
        )
    try:
        return pickle.loads(base64.b64decode(blob.encode("ascii")))
    except Exception as error:
        raise ValidationError(
            f"checkpoint state blob failed to decode: {error}"
        ) from error


def save_session_checkpoint(document: Mapping, path) -> Path:
    """Atomically write a session-checkpoint document; returns the path.

    Atomicity is what makes the checkpoint→kill→resume story safe: a
    crash mid-save leaves the previous complete checkpoint in place,
    never a truncated document.
    """
    document = dict(document)
    document.setdefault("format_version", SESSION_CHECKPOINT_VERSION)
    document.setdefault("kind", SESSION_CHECKPOINT_KIND)
    return atomic_write_text(path, json.dumps(document, indent=2))


def load_session_checkpoint(path) -> dict:
    """Load and validate a checkpoint written by :func:`save_session_checkpoint`."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ValidationError(
            f"cannot read session checkpoint at {path}: {error}"
        ) from error
    if not isinstance(document, dict) \
            or document.get("kind") != SESSION_CHECKPOINT_KIND:
        raise ValidationError(
            f"{path} is not a search-session checkpoint document"
        )
    version = document.get("format_version", 0)
    if version != SESSION_CHECKPOINT_VERSION:
        if isinstance(version, int) and version > SESSION_CHECKPOINT_VERSION:
            advice = "load it with a newer release, or re-run the search"
        else:
            advice = "older formats are not migrated; re-run the search"
        raise ValidationError(
            f"session checkpoint uses format version {version!r}; this "
            f"build reads only version {SESSION_CHECKPOINT_VERSION} — "
            f"{advice} to produce a fresh checkpoint"
        )
    for name, kind in _CHECKPOINT_SECTIONS:
        value = document
        for part in name.split("."):
            value = value.get(part) if isinstance(value, dict) else None
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValidationError(
                f"session checkpoint at {path} has a missing or malformed "
                f"{name!r} section"
            )
    return document


def write_rows_csv(rows: Sequence[Mapping], path, *,
                   fieldnames: Iterable[str] | None = None) -> Path:
    """Write a list of flat dictionaries to ``path`` as CSV; returns the path.

    ``fieldnames`` fixes the column order; by default the keys of the first
    row are used (and every row must share them).
    """
    rows = list(rows)
    if not rows:
        raise ValidationError("write_rows_csv needs at least one row")
    names = list(fieldnames) if fieldnames is not None else list(rows[0].keys())
    # Render in memory and go through the atomic writer: summary CSVs sit
    # in result roots that dashboards read while experiments still run.
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=names)
    writer.writeheader()
    for row in rows:
        writer.writerow({name: row.get(name, "") for name in names})
    return atomic_write_text(path, buffer.getvalue())


def read_rows_csv(path) -> list[dict]:
    """Read a CSV written by :func:`write_rows_csv` back into dictionaries.

    Values that parse as integers or floats are converted; everything else
    stays a string.
    """
    path = Path(path)
    rows: list[dict] = []
    with path.open(newline="", encoding="utf-8") as handle:
        for raw in csv.DictReader(handle):
            rows.append({key: _parse_value(value) for key, value in raw.items()})
    return rows


def _parse_value(value: str):
    if value is None or value == "":
        return None
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value
