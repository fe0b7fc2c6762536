"""The unified runtime-configuration surface: :class:`ExecutionContext`.

Every runtime knob of a run — parallel backend and worker count, the
persistent evaluation cache, prefix-transform reuse, the async driver,
telemetry, deadlines and fault injection — lives in one frozen,
serializable object, and every entry point (``AutoFPProblem``,
``SearchAlgorithm.search``, ``ExperimentConfig``,
``run_experiment``/``run_single`` and the CLI) accepts it as
``context=``.

Because the context is a frozen dataclass of plain scalars it is

* **hashable** — usable as a memo key (the experiment runner's per-cell
  problem memo),
* **picklable** — shipped to process-pool grid workers inside
  ``ExperimentConfig``,
* **JSON-round-trippable** — ``to_dict``/``from_dict`` put it in session
  checkpoints and config files, and :meth:`from_env` reads the same knobs
  from ``REPRO_*`` environment variables for container deployments.

The context is *declarative*: it never holds live resources.
:meth:`build_engine` constructs the execution engine it describes, and
:meth:`evaluator_options` yields the constructor options of a
:class:`~repro.core.evaluation.PipelineEvaluator`, so one context can
configure any number of problems/evaluators.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields, replace

from repro.exceptions import ValidationError

#: sentinel distinguishing "``random_state`` not passed" from an explicit
#: value, so entry points can default it to the context's ``seed``
_UNSET = object()

#: environment variables read by :meth:`ExecutionContext.from_env`
_ENV_PREFIX = "REPRO_"


def convert_field(name: str, value, kind):
    """``kind(value)``, or a :class:`ValidationError` naming the field.

    For scalars read from outside the program (context files, request
    bodies, result documents), where a bare ``int("abc")`` would escape
    as an untyped ``ValueError``, ``TypeError`` or ``OverflowError``.
    """
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as error:
        raise ValidationError(
            f"{name} cannot be read from {value!r}: {error}"
        ) from None


@dataclass(frozen=True)
class ExecutionContext:
    """Every runtime knob of a run, bundled into one immutable object.

    Attributes
    ----------
    backend:
        Execution backend name (``"serial"``/``"thread"``/``"process"``/
        ``"remote"``) or ``None`` to auto-select from ``n_jobs`` (process
        when parallel, serial otherwise — see
        :func:`repro.engine.resolve_backend_name`).
    n_jobs:
        Parallel workers (``-1`` = one per CPU core, ``None``/``1`` =
        serial).
    cache_dir:
        Root of the persistent cross-run evaluation cache
        (:mod:`repro.io.evalcache`); ``None`` disables persistence.
    prefix_cache_bytes:
        Byte budget of the prefix-transform cache
        (:mod:`repro.core.prefixcache`); ``None`` disables prefix reuse.
    async_mode:
        When True, searches run under the completion-driven
        :class:`~repro.search.async_driver.AsyncSearchDriver` instead of
        the synchronous barrier loop.
    default_budget:
        Default number of trials when a search is started without an
        explicit budget (``None`` falls back to the entry point's own
        default, currently 50).
    seed:
        Default random seed used by entry points whose caller did not pass
        ``random_state`` explicitly; ``None`` keeps each entry point's own
        default.
    telemetry_mode:
        Observability level: ``"off"`` (default, no overhead),
        ``"counters"`` (metrics snapshots + heartbeat files) or
        ``"trace"`` (counters plus per-phase span events written to a
        JSONL sink under ``telemetry_dir``).  Telemetry never changes
        search results — only what is observed about them.
    telemetry_dir:
        Directory receiving telemetry artifacts (``trace.jsonl``,
        ``heartbeat-<session_id>.json``).  Required for span tracing;
        ``None`` keeps counters in-memory only.
    eval_timeout:
        Optional per-evaluation deadline in seconds.  Enforced by a
        watchdog on the process backend (a hung worker is killed and its
        trial recorded with ``failure_kind="timeout"``) and as a soft
        deadline on serial/thread backends.  Applies to engine-backed
        runs; ``None`` disables deadlines.
    chaos:
        Optional :class:`~repro.engine.chaos.FaultPlan` spec string
        (e.g. ``"crash@1,delay@4:30"``) — deterministic fault injection
        for testing recovery paths.  :meth:`build_engine` wraps the
        backend in a :class:`~repro.engine.chaos.ChaosBackend` (forcing
        an engine even for serial runs, so faults have an envelope to
        land in).  ``None`` (the default) injects nothing.
    remote_coordinator:
        ``"host:port"`` the ``"remote"`` backend binds its coordinator
        on (workers connect there with ``repro worker``).  ``None``
        binds loopback on an ephemeral port.  Only meaningful with
        ``backend="remote"``; ignored otherwise, so the env var can be
        exported fleet-wide.
    worker_timeout:
        Seconds of heartbeat silence before the remote coordinator
        declares a worker dead and recovers its in-flight tasks.
        ``None`` uses the coordinator default (10s).
    """

    backend: str | None = None
    n_jobs: int | None = None
    cache_dir: str | None = None
    prefix_cache_bytes: int | None = None
    async_mode: bool = False
    default_budget: int | None = None
    seed: int | None = None
    telemetry_mode: str = "off"
    telemetry_dir: str | None = None
    eval_timeout: float | None = None
    chaos: str | None = None
    remote_coordinator: str | None = None
    worker_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            from repro.engine.backends import BACKEND_NAMES

            if self.backend not in BACKEND_NAMES:
                raise ValidationError(
                    f"backend must be one of {sorted(BACKEND_NAMES)} or None, "
                    f"got {self.backend!r}"
                )
        if self.n_jobs is not None:
            n_jobs = convert_field("n_jobs", self.n_jobs, int)
            if n_jobs == 0 or n_jobs < -1:
                raise ValidationError(
                    f"n_jobs must be a positive worker count, -1 (all cores) "
                    f"or None, got {self.n_jobs!r}"
                )
            object.__setattr__(self, "n_jobs", n_jobs)
        if self.cache_dir is not None:
            # Normalise Path-likes to str so the context stays hashable and
            # JSON-serializable.
            object.__setattr__(self, "cache_dir", convert_field(
                "cache_dir", self.cache_dir, os.fspath))
        if self.prefix_cache_bytes is not None:
            prefix_bytes = convert_field("prefix_cache_bytes",
                                         self.prefix_cache_bytes, int)
            if prefix_bytes < 0:
                raise ValidationError(
                    f"prefix_cache_bytes must be >= 0 or None, "
                    f"got {self.prefix_cache_bytes!r}"
                )
            object.__setattr__(self, "prefix_cache_bytes",
                               prefix_bytes or None)
        if self.default_budget is not None:
            budget = convert_field("default_budget", self.default_budget, int)
            if budget < 1:
                raise ValidationError(
                    f"default_budget must be at least 1, got {budget}"
                )
            object.__setattr__(self, "default_budget", budget)
        if self.seed is not None:
            object.__setattr__(self, "seed",
                               convert_field("seed", self.seed, int))
        if not isinstance(self.async_mode, bool):
            # bool("false") is True: only a real bool says what was meant.
            raise ValidationError(
                f"async_mode must be true or false, got {self.async_mode!r}"
            )
        from repro.telemetry import TELEMETRY_MODES

        if self.telemetry_mode not in TELEMETRY_MODES:
            raise ValidationError(
                f"telemetry_mode must be one of {list(TELEMETRY_MODES)}, "
                f"got {self.telemetry_mode!r}"
            )
        if self.telemetry_dir is not None:
            object.__setattr__(self, "telemetry_dir", convert_field(
                "telemetry_dir", self.telemetry_dir, os.fspath))
        if self.eval_timeout is not None:
            eval_timeout = convert_field("eval_timeout", self.eval_timeout,
                                         float)
            if eval_timeout <= 0:
                raise ValidationError(
                    f"eval_timeout must be a positive number of seconds or "
                    f"None, got {self.eval_timeout!r}"
                )
            object.__setattr__(self, "eval_timeout", eval_timeout)
        if self.chaos is not None:
            from repro.engine.chaos import FaultPlan

            # Validate eagerly and normalise to the canonical spelling so
            # equal plans compare/hash equal as contexts.
            object.__setattr__(self, "chaos",
                               FaultPlan.from_spec(self.chaos).to_spec())
        if self.remote_coordinator is not None:
            from repro.engine.remote import format_address, parse_address

            # Validate eagerly and normalise ("8125" -> "127.0.0.1:8125")
            # so equal addresses compare/hash equal as contexts.
            object.__setattr__(
                self, "remote_coordinator",
                format_address(parse_address(self.remote_coordinator)))
        if self.worker_timeout is not None:
            worker_timeout = convert_field("worker_timeout",
                                           self.worker_timeout, float)
            if worker_timeout <= 0:
                raise ValidationError(
                    f"worker_timeout must be a positive number of seconds "
                    f"or None, got {self.worker_timeout!r}"
                )
            object.__setattr__(self, "worker_timeout", worker_timeout)

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """Plain-scalar dictionary form (JSON-ready, stable key order)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> "ExecutionContext":
        """Rebuild a context from :meth:`to_dict` output.

        Unknown keys are refused rather than silently dropped: a typo in a
        config file must not quietly run with defaults.
        """
        if not isinstance(data, dict):
            raise ValidationError(
                f"ExecutionContext.from_dict expects a dict, "
                f"got {type(data).__name__}"
            )
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(
                f"unknown ExecutionContext field(s) {unknown}; "
                f"known fields: {sorted(known)}"
            )
        return cls(**data)

    @classmethod
    def from_env(cls, environ=None, *,
                 base: "ExecutionContext | None" = None) -> "ExecutionContext":
        """Read the context from ``REPRO_*`` environment variables.

        Recognised variables (unset ones keep ``base``'s value, or the
        field default): ``REPRO_BACKEND``, ``REPRO_N_JOBS``,
        ``REPRO_CACHE_DIR``, ``REPRO_PREFIX_CACHE_MB`` (MiB, converted to
        bytes), ``REPRO_ASYNC`` (``1``/``true``/``yes`` enable),
        ``REPRO_MAX_TRIALS`` (``default_budget``), ``REPRO_SEED``,
        ``REPRO_TELEMETRY`` (``off``/``counters``/``trace``),
        ``REPRO_TELEMETRY_DIR``, ``REPRO_EVAL_TIMEOUT`` (seconds),
        ``REPRO_CHAOS`` (fault-plan spec), ``REPRO_REMOTE_COORDINATOR``
        (``host:port``) and ``REPRO_WORKER_TIMEOUT`` (seconds).
        """
        environ = os.environ if environ is None else environ
        overrides: dict = {}

        def read(name: str):
            value = environ.get(_ENV_PREFIX + name, "")
            return value if value.strip() else None

        if read("BACKEND") is not None:
            overrides["backend"] = read("BACKEND").strip()
        for name, field_name in (("N_JOBS", "n_jobs"),
                                 ("MAX_TRIALS", "default_budget"),
                                 ("SEED", "seed")):
            raw = read(name)
            if raw is not None:
                try:
                    overrides[field_name] = int(raw)
                except ValueError:
                    raise ValidationError(
                        f"{_ENV_PREFIX}{name} must be an integer, got {raw!r}"
                    ) from None
        if read("CACHE_DIR") is not None:
            overrides["cache_dir"] = read("CACHE_DIR").strip()
        raw = read("PREFIX_CACHE_MB")
        if raw is not None:
            try:
                overrides["prefix_cache_bytes"] = int(float(raw) * 1024 * 1024)
            except ValueError:
                raise ValidationError(
                    f"{_ENV_PREFIX}PREFIX_CACHE_MB must be a number, "
                    f"got {raw!r}"
                ) from None
        raw = read("ASYNC")
        if raw is not None:
            overrides["async_mode"] = raw.strip().lower() in ("1", "true",
                                                              "yes", "on")
        if read("TELEMETRY") is not None:
            overrides["telemetry_mode"] = read("TELEMETRY").strip().lower()
        if read("TELEMETRY_DIR") is not None:
            overrides["telemetry_dir"] = read("TELEMETRY_DIR").strip()
        raw = read("EVAL_TIMEOUT")
        if raw is not None:
            try:
                overrides["eval_timeout"] = float(raw)
            except ValueError:
                raise ValidationError(
                    f"{_ENV_PREFIX}EVAL_TIMEOUT must be a number of seconds, "
                    f"got {raw!r}"
                ) from None
        if read("CHAOS") is not None:
            overrides["chaos"] = read("CHAOS").strip()
        if read("REMOTE_COORDINATOR") is not None:
            overrides["remote_coordinator"] = read("REMOTE_COORDINATOR").strip()
        raw = read("WORKER_TIMEOUT")
        if raw is not None:
            try:
                overrides["worker_timeout"] = float(raw)
            except ValueError:
                raise ValidationError(
                    f"{_ENV_PREFIX}WORKER_TIMEOUT must be a number of "
                    f"seconds, got {raw!r}"
                ) from None
        base = base if base is not None else cls()
        return base.replace(**overrides) if overrides else base

    def replace(self, **changes) -> "ExecutionContext":
        """A copy with ``changes`` applied (contexts are immutable)."""
        return replace(self, **changes)

    def layer(self, overrides) -> "ExecutionContext":
        """This context with a *partial* dict of fields layered on top.

        The dict-shaped sibling of :meth:`replace`, for overrides that
        arrive as data rather than keywords — a ``--context FILE``
        document layered over the environment, or the context fragment a
        serve client submits over HTTP layered over the server's base
        context.  Unknown keys are refused exactly like
        :meth:`from_dict`; an empty/None ``overrides`` returns ``self``.
        """
        if not overrides:
            return self
        if not isinstance(overrides, dict):
            raise ValidationError(
                f"ExecutionContext.layer expects a dict of fields, "
                f"got {type(overrides).__name__}"
            )
        return ExecutionContext.from_dict({**self.to_dict(), **overrides})

    # ------------------------------------------------------------ resources
    def backend_name(self) -> str:
        """The effective backend name after ``n_jobs`` defaulting."""
        from repro.engine import resolve_backend_name

        return resolve_backend_name(self.n_jobs, self.backend)

    def build_engine(self):
        """Build the execution engine this context describes.

        Returns ``None`` when the context resolves to plain single-worker
        serial evaluation (no engine overhead) — the same rule as
        :func:`repro.engine.resolve_engine`.  Each call builds a fresh
        engine; the caller owns it (``engine.close()``).

        With ``chaos`` set, the engine's backend is wrapped in a
        :class:`~repro.engine.chaos.ChaosBackend` carrying this context's
        fault plan — and an engine is built even for serial contexts, so
        the injected faults always have a guarded envelope to land in.
        """
        from repro.engine import resolve_engine

        engine = resolve_engine(self.n_jobs, self.backend,
                                eval_timeout=self.eval_timeout,
                                remote_coordinator=self.remote_coordinator,
                                worker_timeout=self.worker_timeout)
        if self.chaos is not None:
            from repro.engine import ExecutionEngine
            from repro.engine.chaos import ChaosBackend, FaultPlan

            if engine is None:
                engine = ExecutionEngine("serial",
                                         eval_timeout=self.eval_timeout)
            engine.backend = ChaosBackend(engine.backend,
                                          FaultPlan.from_spec(self.chaos))
        return engine

    def evaluator_options(self) -> dict:
        """Constructor options for a :class:`PipelineEvaluator`.

        The single path through which a context configures evaluation:
        ``PipelineEvaluator.from_dataset(..., **context.evaluator_options())``
        attaches the engine and both cache layers in one go.
        """
        return {
            "engine": self.build_engine(),
            "cache_dir": self.cache_dir,
            "prefix_cache_bytes": self.prefix_cache_bytes,
            "telemetry_mode": self.telemetry_mode,
            "telemetry_dir": self.telemetry_dir,
        }

    def configure_evaluator(self, evaluator) -> None:
        """Attach this context's engine to an existing ``evaluator``.

        Cache knobs (``cache_dir``, ``prefix_cache_bytes``) are
        construction-time options of the evaluator and cannot be changed
        here; build the evaluator through :meth:`evaluator_options` to
        apply them.
        """
        evaluator.set_engine(self.build_engine())

    # ------------------------------------------------------------- defaults
    def seed_or(self, default):
        """This context's default seed, or ``default`` when unset."""
        return self.seed if self.seed is not None else default

    def trial_budget(self, max_trials: int | None = None):
        """A :class:`~repro.core.budget.TrialBudget` for one search run.

        ``max_trials`` (when given) wins over the context's
        ``default_budget``; with neither set, 50 trials — the historical
        ``SearchAlgorithm.search`` default.
        """
        from repro.core.budget import TrialBudget

        if max_trials is None:
            max_trials = self.default_budget if self.default_budget else 50
        return TrialBudget(max_trials)

    def describe(self) -> str:
        """One-line human-readable summary (CLI banners, logs)."""
        parts = [f"backend={self.backend_name()}",
                 f"n_jobs={self.n_jobs if self.n_jobs is not None else 1}",
                 f"driver={'async' if self.async_mode else 'sync'}"]
        if self.cache_dir is not None:
            parts.append(f"cache_dir={self.cache_dir}")
        if self.prefix_cache_bytes is not None:
            parts.append(f"prefix_cache={self.prefix_cache_bytes}B")
        if self.default_budget is not None:
            parts.append(f"default_budget={self.default_budget}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.telemetry_mode != "off":
            telemetry = f"telemetry={self.telemetry_mode}"
            if self.telemetry_dir is not None:
                telemetry += f":{self.telemetry_dir}"
            parts.append(telemetry)
        if self.eval_timeout is not None:
            parts.append(f"eval_timeout={self.eval_timeout:g}s")
        if self.chaos is not None:
            parts.append(f"chaos={self.chaos}")
        if self.remote_coordinator is not None:
            parts.append(f"coordinator={self.remote_coordinator}")
        if self.worker_timeout is not None:
            parts.append(f"worker_timeout={self.worker_timeout:g}s")
        return " ".join(parts)

