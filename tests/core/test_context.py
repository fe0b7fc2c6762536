"""ExecutionContext: the unified runtime-configuration object.

Covers the serialization round-trips (dict, env), resource construction
(``build_engine`` / ``evaluator_options``), field validation, and that the
per-knob keywords the context replaced (``n_jobs=``, ``backend=``,
``cache_dir=``, ``prefix_cache_bytes=``, ``async_mode=``) are refused by
every entry point.
"""

import pytest

from repro.core.context import ExecutionContext
from repro.core.problem import AutoFPProblem
from repro.datasets.synthetic import distort_features, make_classification
from repro.engine import ExecutionEngine
from repro.exceptions import ValidationError
from repro.experiments import ExperimentConfig, quick_config, run_experiment, run_single


def _data():
    X, y = make_classification(n_samples=120, n_features=6, n_classes=2,
                               class_sep=2.0, random_state=3)
    return distort_features(X, random_state=3), y


class TestExecutionContext:
    def test_defaults_describe_a_serial_run(self):
        context = ExecutionContext()
        assert context.backend_name() == "serial"
        engine = context.build_engine()
        assert engine.backend.name == "serial"
        assert engine.n_workers == 1
        options = context.evaluator_options()
        assert options.pop("engine").backend.name == "serial"
        assert options == {
            "cache_dir": None, "prefix_cache_bytes": None,
            "telemetry_mode": "off", "telemetry_dir": None,
        }

    def test_dict_round_trip(self):
        context = ExecutionContext(backend="process", n_jobs=3,
                                   cache_dir="/tmp/c", prefix_cache_bytes=1024,
                                   async_mode=True, default_budget=20, seed=7)
        assert ExecutionContext.from_dict(context.to_dict()) == context

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError):
            ExecutionContext.from_dict({"n_jbos": 2})

    def test_validation(self):
        with pytest.raises(ValidationError):
            ExecutionContext(backend="gpu")
        with pytest.raises(ValidationError, match="backend"):
            ExecutionContext(backend="thread")
        with pytest.raises(ValidationError):
            ExecutionContext(n_jobs=0)
        with pytest.raises(ValidationError):
            ExecutionContext(default_budget=0)
        # 0 prefix bytes normalises to "disabled", and Paths become strings.
        assert ExecutionContext(prefix_cache_bytes=0).prefix_cache_bytes is None

    @pytest.mark.parametrize("field, value", [
        ("n_jobs", "abc"), ("prefix_cache_bytes", [1]),
        ("default_budget", float("inf")), ("seed", "abc"),
        ("eval_timeout", "soon"), ("worker_timeout", [1]), ("cache_dir", 5),
        ("telemetry_dir", 5), ("async_mode", "false"), ("async_mode", 1),
    ])
    def test_unreadable_field_is_named(self, field, value):
        with pytest.raises(ValidationError, match=field):
            ExecutionContext(**{field: value})

    def test_context_is_hashable_and_frozen(self):
        context = ExecutionContext(n_jobs=2, backend="process")
        assert len({context, context.replace()}) == 1
        with pytest.raises((AttributeError, TypeError)):
            context.n_jobs = 4

    def test_from_env_reads_every_knob(self):
        environ = {
            "REPRO_BACKEND": "process",
            "REPRO_N_JOBS": "3",
            "REPRO_CACHE_DIR": "/tmp/cache",
            "REPRO_PREFIX_CACHE_MB": "1.5",
            "REPRO_ASYNC": "true",
            "REPRO_MAX_TRIALS": "30",
            "REPRO_SEED": "9",
        }
        context = ExecutionContext.from_env(environ)
        assert context == ExecutionContext(
            backend="process", n_jobs=3, cache_dir="/tmp/cache",
            prefix_cache_bytes=int(1.5 * 1024 * 1024), async_mode=True,
            default_budget=30, seed=9,
        )
        assert ExecutionContext.from_env({}) == ExecutionContext()
        with pytest.raises(ValidationError):
            ExecutionContext.from_env({"REPRO_N_JOBS": "many"})
        with pytest.raises(ValidationError, match="backend"):
            ExecutionContext.from_env({"REPRO_BACKEND": "thread"})

    @pytest.mark.parametrize("raw, expected", [
        ("1", True), ("true", True), (" YES ", True), ("On", True),
        ("0", False), ("false", False), ("No", False), (" off ", False),
        ("treu", None), ("2", None), ("enabled", None),
    ])
    def test_repro_async_accepts_only_boolean_spellings(self, raw, expected):
        environ = {"REPRO_ASYNC": raw}
        if expected is None:
            with pytest.raises(ValidationError, match="REPRO_ASYNC"):
                ExecutionContext.from_env(environ)
        else:
            assert ExecutionContext.from_env(environ).async_mode is expected

    def test_build_engine_honours_parallel_options(self):
        engine = ExecutionContext(n_jobs=2, backend="process").build_engine()
        try:
            assert isinstance(engine, ExecutionEngine)
            assert engine.backend.name == "process"
            assert engine.n_workers == 2
        finally:
            engine.close()

    def test_trial_budget_defaulting(self):
        assert ExecutionContext().trial_budget().max_trials == 50
        assert ExecutionContext(default_budget=12).trial_budget().max_trials == 12
        assert ExecutionContext(default_budget=12).trial_budget(7).max_trials == 7

    def test_seed_or(self):
        assert ExecutionContext().seed_or(4) == 4
        assert ExecutionContext(seed=11).seed_or(4) == 11

    def test_describe_mentions_the_active_knobs(self):
        text = ExecutionContext(n_jobs=2, backend="process", async_mode=True,
                                cache_dir="/tmp/c").describe()
        assert "backend=process" in text and "driver=async" in text
        assert "cache_dir=/tmp/c" in text


    def test_context_seed_is_the_default_random_state(self):
        X, y = _data()
        seeded = AutoFPProblem.from_arrays(
            X, y, "lr", context=ExecutionContext(seed=5))
        explicit = AutoFPProblem.from_arrays(X, y, "lr", random_state=5)
        assert seeded.evaluator.fingerprint() == explicit.evaluator.fingerprint()


#: the per-knob keywords ExecutionContext replaced, with sample values
REMOVED_KEYWORDS = {"n_jobs": 2, "backend": "process", "cache_dir": "unused",
                    "async_mode": True, "prefix_cache_bytes": 1 << 20}

#: every entry point that once accepted them, as ``call(**keyword)``
ENTRY_POINTS = {
    "from_arrays": lambda **kw: AutoFPProblem.from_arrays(*_data(), "lr", **kw),
    "from_registry": lambda **kw: AutoFPProblem.from_registry("blood", "lr",
                                                              **kw),
    "run_single": lambda **kw: run_single("blood", "lr", "rs", **kw),
    "run_experiment": lambda **kw: run_experiment(
        quick_config(datasets=("blood",), algorithms=("rs",)), **kw),
    "ExperimentConfig": lambda **kw: ExperimentConfig(datasets=("blood",),
                                                      **kw),
}


@pytest.mark.parametrize("keyword", sorted(REMOVED_KEYWORDS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_removed_keyword_raises_type_error(entry, keyword):
    with pytest.raises(TypeError, match=keyword):
        ENTRY_POINTS[entry](**{keyword: REMOVED_KEYWORDS[keyword]})
