"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch one base class at an API
boundary.  More specific subclasses exist for configuration problems
(bad parameters), data problems (malformed or empty inputs), and
convergence problems (an iterative algorithm that cannot proceed).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "DataValidationError",
    "NotFittedError",
    "ConvergenceError",
    "EmptyClusterError",
    "ServerClosedError",
    "OverloadedError",
    "DeadlineExceededError",
    "check_fitted",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """An estimator or index was constructed with invalid parameters.

    Raised eagerly, at construction or fit time, so that a bad ``bands``
    / ``rows`` / ``n_clusters`` combination fails loudly instead of
    producing silently meaningless results.
    """


class DataValidationError(ReproError, ValueError):
    """Input data does not satisfy the contract of the API being called.

    Examples: an empty dataset, a non-2D matrix passed where items ×
    attributes is required, or mismatched shapes between data and labels.
    """


class NotFittedError(ReproError, RuntimeError):
    """A model attribute or method was used before ``fit`` completed."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative algorithm failed in a way that cannot be recovered.

    This is *not* raised when an algorithm merely hits ``max_iter`` —
    that is a normal, reported outcome — but when the internal state
    becomes inconsistent (for instance, every cluster lost its members).
    """


class EmptyClusterError(ReproError, RuntimeError):
    """A cluster lost all members and the configured policy is ``'error'``."""


class ServerClosedError(ConfigurationError):
    """A request reached a serving object that is closed or draining.

    Raised by :meth:`repro.serve.ModelServer._check_open`, the admission
    queue and :meth:`repro.engine.pool.PersistentPool._check_open`.  A
    subclass of :class:`ConfigurationError` so callers that historically
    caught that for "used after close" keep working; the serving layer
    maps it to HTTP 503 with error code ``"shutting_down"``.
    """


class OverloadedError(ReproError, RuntimeError):
    """Admission control rejected a request: the server is at capacity.

    Raised *immediately* — an overloaded server answers fast instead of
    queueing unboundedly.  ``retry_after_s`` is the server's hint for
    when capacity is likely back; the serving layer surfaces it as a
    ``Retry-After`` header on HTTP 429 and as ``retry_after_s`` in the
    NDJSON error object (code ``"overloaded"``).
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class DeadlineExceededError(ReproError, TimeoutError):
    """A request's deadline expired before its labels were produced.

    The request is abandoned (its result, if any, is discarded) but the
    serving pool is untouched — the next request proceeds normally.
    Maps to HTTP 504 with error code ``"deadline_exceeded"``.
    """


def check_fitted(estimator, message: str | None = None) -> None:
    """Raise :class:`NotFittedError` unless ``estimator`` has been fitted.

    The single gate every fitted-state access routes through: an
    estimator advertises its state via an ``_is_fitted()`` method (the
    :class:`repro.api.EstimatorProtocol` default reads a ``_fitted``
    flag set by ``fit``), and every ``predict`` / ``labels_`` /
    ``centroids_`` access calls this helper, so unfitted use uniformly
    surfaces ``NotFittedError`` instead of a raw ``AttributeError``.

    Parameters
    ----------
    estimator:
        Any object exposing ``_is_fitted()`` (or a truthy ``_fitted``
        attribute).
    message:
        Override for the error message.
    """
    probe = getattr(estimator, "_is_fitted", None)
    fitted = bool(probe()) if callable(probe) else bool(
        getattr(estimator, "_fitted", False)
    )
    if not fitted:
        raise NotFittedError(
            message
            or (
                f"this {type(estimator).__name__} instance is not fitted "
                "yet; call 'fit' (or 'bootstrap' for streaming estimators) "
                "before using it"
            )
        )
