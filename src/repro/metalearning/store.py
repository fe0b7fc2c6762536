"""Meta-knowledge store for warm-starting Auto-FP (Section 8, opportunity 1).

The paper's first research opportunity is to warm-start the evolution-based
search algorithms: instead of a random initial population, seed the search
with pipelines that worked well on *similar* datasets, where similarity is
measured on the auto-sklearn meta-features (the same mechanism auto-sklearn
uses for its own warm start).

The :class:`MetaKnowledgeStore` keeps one entry per previously solved task
(meta-feature vector + the best pipelines found) and answers
nearest-neighbour queries for new datasets.  Entries can be persisted to
and restored from JSON so knowledge accumulates across sessions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.pipeline import Pipeline
from repro.exceptions import ValidationError
from repro.metafeatures.extractor import METAFEATURE_NAMES, metafeature_vector


@dataclass
class MetaTask:
    """One solved Auto-FP task: where it came from and what worked."""

    name: str
    model: str
    metafeatures: np.ndarray
    best_pipelines: list[Pipeline]
    best_accuracy: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "model": self.model,
            "metafeatures": self.metafeatures.tolist(),
            "best_pipelines": [list(p.spec()) for p in self.best_pipelines],
            "best_accuracy": self.best_accuracy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetaTask":
        pipelines = [
            Pipeline.from_spec([(name, tuple(tuple(item) for item in items))
                                for name, items in spec])
            for spec in data["best_pipelines"]
        ]
        return cls(
            name=data["name"],
            model=data["model"],
            metafeatures=np.asarray(data["metafeatures"], dtype=np.float64),
            best_pipelines=pipelines,
            best_accuracy=float(data.get("best_accuracy", 0.0)),
        )


@dataclass
class MetaKnowledgeStore:
    """Nearest-neighbour store of solved tasks keyed by meta-features.

    Meta-feature vectors are z-normalised across the stored tasks before
    distances are computed, so features on wildly different scales (counts
    vs entropies) contribute comparably.
    """

    tasks: list[MetaTask] = field(default_factory=list)

    # ------------------------------------------------------------- mutation
    def add_task(self, name: str, model: str, X, y, best_pipelines,
                 best_accuracy: float = 0.0, *, metafeatures: np.ndarray | None = None,
                 random_state=0) -> MetaTask:
        """Record a solved task.  Meta-features are computed unless provided."""
        if metafeatures is None:
            metafeatures = metafeature_vector(X, y, include_landmarks=False,
                                              random_state=random_state)
        metafeatures = np.asarray(metafeatures, dtype=np.float64)
        if metafeatures.shape != (len(METAFEATURE_NAMES),):
            raise ValidationError(
                f"metafeatures must have shape ({len(METAFEATURE_NAMES)},), "
                f"got {metafeatures.shape}"
            )
        pipelines = [p if isinstance(p, Pipeline) else Pipeline(p) for p in best_pipelines]
        task = MetaTask(name=name, model=model, metafeatures=metafeatures,
                        best_pipelines=pipelines, best_accuracy=float(best_accuracy))
        self.tasks.append(task)
        return task

    def __len__(self) -> int:
        return len(self.tasks)

    # -------------------------------------------------------------- queries
    def nearest_tasks(self, X, y, *, model: str | None = None, k: int = 3,
                      metafeatures: np.ndarray | None = None,
                      random_state=0) -> list[MetaTask]:
        """Return the ``k`` stored tasks most similar to dataset ``(X, y)``."""
        candidates = [t for t in self.tasks if model is None or t.model == model]
        if not candidates:
            return []
        if metafeatures is None:
            metafeatures = metafeature_vector(X, y, include_landmarks=False,
                                              random_state=random_state)
        matrix = np.stack([task.metafeatures for task in candidates])
        mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        std[std == 0] = 1.0
        normalised = (matrix - mean) / std
        query = (np.asarray(metafeatures, dtype=np.float64) - mean) / std
        distances = np.linalg.norm(normalised - query, axis=1)
        order = np.argsort(distances)
        return [candidates[int(i)] for i in order[:k]]

    def suggested_pipelines(self, X, y, *, model: str | None = None, k: int = 3,
                            max_pipelines: int = 10, random_state=0) -> list[Pipeline]:
        """Warm-start suggestions: best pipelines of the ``k`` nearest tasks."""
        suggestions: list[Pipeline] = []
        seen: set = set()
        for task in self.nearest_tasks(X, y, model=model, k=k, random_state=random_state):
            for pipeline in task.best_pipelines:
                if pipeline.spec() in seen:
                    continue
                seen.add(pipeline.spec())
                suggestions.append(pipeline)
                if len(suggestions) >= max_pipelines:
                    return suggestions
        return suggestions

    # ---------------------------------------------------------- persistence
    def save(self, path) -> None:
        """Serialise the store to a JSON file (atomically).

        At service scale the store is shared training data: a crash
        mid-save must leave the previous complete document, not a torn
        one that poisons every later warm start.
        """
        from repro.io.serialization import atomic_write_text

        payload = {"metafeature_names": list(METAFEATURE_NAMES),
                   "tasks": [task.to_dict() for task in self.tasks]}
        atomic_write_text(path, json.dumps(payload, indent=2))

    @classmethod
    def load(cls, path) -> "MetaKnowledgeStore":
        """Restore a store previously written by :meth:`save`."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        store = cls()
        store.tasks = [MetaTask.from_dict(entry) for entry in payload["tasks"]]
        return store
