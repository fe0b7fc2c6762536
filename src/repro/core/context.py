"""The unified runtime-configuration surface: :class:`ExecutionContext`.

Every runtime knob of a run — parallel backend and worker count, the
persistent evaluation cache, prefix-transform reuse, the search loop's
schedule, telemetry, deadlines and fault injection — lives in one frozen,
serializable object, and every entry point (``AutoFPProblem``,
``SearchSession``, ``ExperimentConfig``, ``run_experiment``/``run_single``
and the CLI) accepts it as ``context=``; ``SearchAlgorithm.search`` uses
the problem's.

Because the context is a frozen dataclass of plain scalars it is

* **hashable** — usable as a memo key (the experiment runner's per-cell
  problem memo),
* **picklable** — shipped to process-pool grid workers inside
  ``ExperimentConfig``,
* **JSON-round-trippable** — ``to_dict``/``from_dict`` put it in session
  checkpoints (a checkpoint's stored context is its one record of the
  schedule) and config files.

It is read one way: :meth:`from_env` fills fields through one
variable→field table (:data:`ENV_FIELDS`), CLI flags use field names as
their argparse ``dest``, and :meth:`layer` puts a ``--context`` file or
a serve submission on top; every value goes through its field's own
conversion.  It holds only how a run executes: entry points take the
seed and trial count as plain arguments.

The context is *declarative*: it never holds live resources.
:meth:`build_engine` constructs the execution engine it describes, with
the ``chaos`` fault plan handed to the engine, and
:meth:`evaluator_options` yields the constructor options of a
:class:`~repro.core.evaluation.PipelineEvaluator` — the one way a
context configures an evaluator — so one context can configure any
number of problems/evaluators.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass, fields, replace

from repro.exceptions import ValidationError

#: spellings of a boolean environment variable, compared case-insensitively
_ENV_TRUE = ("1", "true", "yes", "on")
_ENV_FALSE = ("0", "false", "no", "off")


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


def convert_seconds(name: str, value) -> float:
    """``value`` as a timeout in seconds, or a :class:`ValidationError`.

    Positive and at most :data:`threading.TIMEOUT_MAX`: a longer wait
    overflows the platform's clock, and a NaN deadline never passes.
    """
    seconds = convert_field(name, value, float)
    if not 0 < seconds <= threading.TIMEOUT_MAX:
        raise ValidationError(
            f"{name} must be a positive number of seconds up to "
            f"{threading.TIMEOUT_MAX:g}, got {value!r}"
        )
    return seconds


def mib_to_bytes(name: str, mib) -> int:
    """``mib`` MiB in whole bytes, or a ValidationError naming ``name``."""
    return convert_field(name, mib,
                         lambda value: int(float(value) * 1024 * 1024))


def _env_flag(name: str, raw: str) -> bool:
    """A boolean variable's text; only the listed spellings are read."""
    flag = raw.lower()
    if flag not in _ENV_TRUE + _ENV_FALSE:
        raise ValidationError(f"{name} must be one of "
                              f"{list(_ENV_TRUE + _ENV_FALSE)}, got {raw!r}")
    return flag in _ENV_TRUE


#: the field each ``REPRO_*`` environment variable sets in
#: :meth:`ExecutionContext.from_env`
ENV_FIELDS = {
    "REPRO_BACKEND": "backend",
    "REPRO_N_JOBS": "n_jobs",
    "REPRO_CACHE_DIR": "cache_dir",
    "REPRO_PREFIX_CACHE_MB": "prefix_cache_bytes",
    "REPRO_ASYNC": "async_mode",
    "REPRO_TELEMETRY": "telemetry_mode",
    "REPRO_TELEMETRY_DIR": "telemetry_dir",
    "REPRO_EVAL_TIMEOUT": "eval_timeout",
    "REPRO_CHAOS": "chaos",
    "REPRO_REMOTE_COORDINATOR": "remote_coordinator",
    "REPRO_WORKER_TIMEOUT": "worker_timeout",
}

#: ``parse(field, text)`` of the variables whose text is not the field's
#: value; every other variable's text goes to the field's own conversion
_ENV_PARSERS = {"REPRO_PREFIX_CACHE_MB": mib_to_bytes, "REPRO_ASYNC": _env_flag}


@dataclass(frozen=True)
class ExecutionContext:
    """Every runtime knob of a run, bundled into one immutable object.

    Attributes
    ----------
    backend:
        Execution backend name (``"serial"``/``"process"``/``"remote"``)
        or ``None`` to auto-select from ``n_jobs`` (process when parallel,
        serial otherwise — see :meth:`backend_name`).
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
        When True, the search loop
        (:class:`~repro.search.session.SearchSession`) runs
        completion-driven instead of in barrier waves; the one switch
        between its two schedules.
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
        deadline on the serial and remote backends.  ``None`` disables
        deadlines.
    chaos:
        Optional :class:`~repro.engine.chaos.FaultPlan` spec string
        (e.g. ``"crash@1,delay@4:30"``) — deterministic fault injection
        for testing recovery paths.  :meth:`build_engine` hands it to the
        engine, which attaches the faults as it dispatches.  ``None``
        (the default) injects nothing.
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
            object.__setattr__(self, "eval_timeout", convert_seconds(
                "eval_timeout", self.eval_timeout))
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
            object.__setattr__(self, "worker_timeout", convert_seconds(
                "worker_timeout", self.worker_timeout))

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
    def from_env(cls, environ=None) -> "ExecutionContext":
        """The context that the ``REPRO_*`` variables of :data:`ENV_FIELDS` set.

        Unset or blank variables keep the field default.  A variable's
        stripped text goes to its field's own conversion, except
        ``REPRO_PREFIX_CACHE_MB`` (MiB, converted to bytes) and
        ``REPRO_ASYNC`` (``1``/``true``/``yes``/``on`` enable,
        ``0``/``false``/``no``/``off`` disable).  A bad value raises a
        :class:`ValidationError` naming the variable.
        """
        environ = os.environ if environ is None else environ
        context = cls()
        for variable, name in ENV_FIELDS.items():
            raw = environ.get(variable, "").strip()
            if not raw:
                continue
            parse = _ENV_PARSERS.get(variable, lambda name, text: text)
            try:
                context = context.replace(**{name: parse(name, raw)})
            except ValidationError as error:
                raise ValidationError(f"{variable}: {error}") from None
        return context

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
        """The effective backend name after ``n_jobs`` defaulting.

        An unset backend resolves to ``"process"`` when ``n_jobs`` asks
        for parallelism, because pipeline evaluation is CPU-bound, and to
        ``"serial"`` otherwise; a chosen one, ``"serial"`` included, is
        kept.
        """
        if self.backend is not None:
            return self.backend
        return "process" if self.n_jobs not in (None, 1) else "serial"

    def build_engine(self):
        """Build the execution engine this context describes.

        Each call builds a fresh engine; the caller owns it
        (``engine.close()``).  A context that asks for no parallelism gets
        a serial engine, and so does an explicit ``backend="serial"``
        whatever ``n_jobs`` says: the serial backend runs one worker.
        ``remote_coordinator`` / ``worker_timeout`` are forwarded only to
        the ``"remote"`` backend, so a globally exported
        ``REPRO_REMOTE_COORDINATOR`` does not break serial or process
        contexts.  With ``chaos`` set, the engine applies that fault plan
        to the evaluations it dispatches.
        """
        from repro.engine import ExecutionEngine

        name = self.backend_name()
        remote = name == "remote"
        return ExecutionEngine(
            name,
            n_workers=(None if name == "serial" or self.n_jobs == -1
                       else self.n_jobs),
            eval_timeout=self.eval_timeout,
            remote_coordinator=self.remote_coordinator if remote else None,
            worker_timeout=self.worker_timeout if remote else None,
            chaos=self.chaos,
        )

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

    def describe(self) -> str:
        """One-line human-readable summary (CLI banners, logs)."""
        parts = [f"backend={self.backend_name()}",
                 f"n_jobs={self.n_jobs if self.n_jobs is not None else 1}",
                 f"driver={'async' if self.async_mode else 'sync'}"]
        if self.cache_dir is not None:
            parts.append(f"cache_dir={self.cache_dir}")
        if self.prefix_cache_bytes is not None:
            parts.append(f"prefix_cache={self.prefix_cache_bytes}B")
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

