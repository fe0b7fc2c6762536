"""Exception hierarchy for the repro (Auto-FP) library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  More specific subclasses communicate which
subsystem raised the error.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NotFittedError(ReproError):
    """Raised when ``transform`` / ``predict`` is called before ``fit``."""


class ValidationError(ReproError, ValueError):
    """Raised when user-supplied input fails validation."""


class SearchSpaceError(ReproError):
    """Raised when a search-space definition is inconsistent."""


class BudgetExhaustedError(ReproError):
    """Raised when a search budget is exhausted and no further trials may run."""


class UnknownComponentError(ReproError, KeyError):
    """Raised when a registry lookup fails (preprocessor, model, algorithm)."""


class CopyOnWriteViolationError(ReproError):
    """Raised when a transformer writes in place to a cached (frozen) array.

    The prefix-transform cache (:mod:`repro.core.prefixcache`) shares its
    stored arrays with later pipeline steps, so every transformer must
    treat its input as immutable.  A violation is surfaced loudly instead
    of being scored as a failed pipeline: swallowing it would silently turn
    a pipeline that works without the cache into a 0-accuracy result,
    breaking the cache's bit-for-bit determinism contract.
    """


class ConvergenceWarning(UserWarning):
    """Warning emitted when an iterative solver stops before converging."""

