"""Per-layer timers and counters for a traced benchmark run.

The wrappers sit on each layer's public entry points, installed from this
file into the run's interpreter, so the library itself is not edited.  A
call is timed only while a ``SearchSession.run`` call is open, which keeps
set-up work (the baseline evaluation) out of the search layers; set-up is
timed separately by the child script.

Spans nest: each wrapped call records its duration against its own layer
and against the layer of the innermost open span (its parent).  A layer's
self time subtracts only the child layers named in ``SELF_EXCLUDES``, so
nesting such as tree fits inside a GBDT fit or inside the SMAC surrogate
stays visible in both layers instead of being subtracted.  A re-entrant
call into a layer that is already open is not timed again.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path

#: child layers whose time is subtracted from a layer's total to give its
#: self time; everything else nested inside stays counted in the parent
SELF_EXCLUDES = {
    "search": ("evaluator", "checkpoint"),
    "evaluator": ("prep", "train", "lookup", "engine"),
}
#: timer key prefix of ``Preprocessor.fit``, completed by the step's name
PREP_FIT = "prep.fit."


class LayerTracer:
    """Timers and counters keyed by layer, filled by method wrappers."""

    def __init__(self) -> None:
        self.seconds: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        #: (parent layer, child layer) -> seconds of direct child spans
        self.nested: dict = defaultdict(float)
        self.open_layers: list[str] = []
        self.engine_tasks = 0
        self.engine_busy_s = 0.0
        self.engine_workers = 1

    # ------------------------------------------------------------ wrapping
    def _span(self, original, layer: str, key, *, root: bool = False,
              after=None):
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if (not root and not tracer.open_layers) \
                    or layer in tracer.open_layers:
                return original(*args, **kwargs)
            tracer.open_layers.append(layer)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer.open_layers.pop()
                name = key(args) if callable(key) else key
                tracer.seconds[name] += duration
                tracer.calls[name] += 1
                if tracer.open_layers:
                    tracer.nested[(tracer.open_layers[-1], layer)] += duration
            if after is not None:
                after(args, result)
            return result

        return timed

    def _patch(self, owner, attr: str, layer: str, key, **options) -> None:
        setattr(owner, attr,
                self._span(getattr(owner, attr), layer, key, **options))

    def install(self) -> None:
        """Wrap every layer's entry points (call once, before building)."""
        from repro.core.evaluation import PipelineEvaluator
        from repro.engine.engine import ExecutionEngine
        from repro.io.evalcache import PersistentEvalCache
        from repro.models.base import Classifier
        from repro.models.tree import DecisionTreeRegressor
        from repro.preprocessing.base import Preprocessor
        from repro.search import session as session_module

        self._patch(session_module.SearchSession, "run", "search", "search",
                    root=True)
        self._patch(session_module, "save_session_checkpoint", "checkpoint",
                    "checkpoint.write")
        self._patch(PipelineEvaluator, "evaluate_tasks", "evaluator",
                    "evaluator")
        self._patch(PipelineEvaluator, "cache_lookup", "lookup",
                    "evaluator.lookup")
        self._patch(Preprocessor, "fit", "prep",
                    lambda args: PREP_FIT + type(args[0]).name)
        self._patch(Preprocessor, "transform", "prep", "prep.transform")
        self._patch(Classifier, "fit", "train", "train.fit")
        self._patch(Classifier, "predict", "train", "train.predict")
        self._patch(DecisionTreeRegressor, "fit", "tree", "tree.fit")
        self._patch(ExecutionEngine, "run", "engine", "engine.run",
                    after=self._after_engine_run)
        self._patch(PersistentEvalCache, "get", "evalcache", "evalcache.get")
        self._patch(PersistentEvalCache, "put_many", "evalcache",
                    "evalcache.put")

    def _after_engine_run(self, args, records) -> None:
        engine = args[0]
        self.engine_workers = max(1, int(engine.n_workers))
        self.engine_tasks += len(records)
        # Busy time is read from the records themselves: on a process
        # backend prep and train run in workers this process cannot see.
        self.engine_busy_s += sum(record.prep_time + record.train_time
                                  for record in records)

    # ------------------------------------------------------------- results
    def self_seconds(self, layer: str, total: float) -> float:
        return total - sum(self.nested[(layer, child)]
                           for child in SELF_EXCLUDES.get(layer, ()))

    def metrics(self, *, evaluator, batches: int, checkpoint_path,
                cache_dir, preprocessor_names) -> dict:
        """The per-layer metric values of one traced run."""
        seconds, calls = self.seconds, self.calls
        prep_fits = {key: value for key, value in seconds.items()
                     if key.startswith(PREP_FIT)}
        info = evaluator.cache_info()
        lookups = info["hits"] + info["misses"]
        prefix_lookups = info.get("prefix_hits", 0) + info.get("prefix_misses", 0)
        engine_s = seconds["engine.run"]
        batches_run = calls["engine.run"]
        values = {
            "search.wall_s": seconds["search"],
            "search.self_s": self.self_seconds("search", seconds["search"]),
            "search.iterations": batches,
            "evaluator.self_s": self.self_seconds("evaluator",
                                                  seconds["evaluator"]),
            "evaluator.lookup_s": seconds["evaluator.lookup"],
            "evaluator.hit_ratio": info["hits"] / lookups if lookups else 0.0,
            "evaluator.evals": evaluator.n_evaluations,
            "prefix.hit_ratio": (info.get("prefix_hits", 0) / prefix_lookups
                                 if prefix_lookups else 0.0),
            "prefix.steps_reused": info.get("steps_reused", 0),
            "prefix.evictions": info.get("prefix_evictions", 0),
            "prefix.bytes_held": info.get("bytes_held", 0),
            "prep.fit_s": sum(prep_fits.values()),
            "prep.transform_s": seconds["prep.transform"],
            "prep.steps": sum(calls[key] for key in prep_fits),
            "train.fit_s": seconds["train.fit"],
            "train.predict_s": seconds["train.predict"],
            "train.fits": calls["train.fit"],
            "tree.fit_s": seconds["tree.fit"],
            "tree.fits": calls["tree.fit"],
            "engine.run_s": engine_s,
            "engine.batches": batches_run,
            "engine.batch_size_mean": (self.engine_tasks / batches_run
                                       if batches_run else 0.0),
            "engine.busy_ratio": (self.engine_busy_s
                                  / (engine_s * self.engine_workers)
                                  if engine_s else 0.0),
            "evalcache.get_s": seconds["evalcache.get"],
            "evalcache.put_s": seconds["evalcache.put"],
            "evalcache.bytes": _tree_bytes(cache_dir),
            "checkpoint.write_s": seconds["checkpoint.write"],
            "checkpoint.writes": calls["checkpoint.write"],
            "checkpoint.bytes": _tree_bytes(checkpoint_path),
        }
        for name in preprocessor_names:
            values[f"prep.fit_s.{name}"] = seconds.get(PREP_FIT + name, 0.0)
        return values


def _tree_bytes(path) -> int:
    """Bytes under ``path`` (a file or a directory); 0 when absent."""
    if path is None:
        return 0
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    if path.is_dir():
        return sum(item.stat().st_size for item in path.rglob("*")
                   if item.is_file())
    return 0
