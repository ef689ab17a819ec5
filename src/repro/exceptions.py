"""Exception hierarchy shared by every repro subpackage.

Every error raised on a public code path derives from :class:`ReproError`
so that callers embedding the library can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation schema is malformed or incompatible with an operation."""


class RelationError(ReproError):
    """A relational operation received invalid inputs."""


class SemiringError(ReproError):
    """A semi-ring operation was applied to incompatible elements."""


class SketchError(ReproError):
    """A sketch could not be built, merged, or evaluated."""


class PrivacyError(ReproError):
    """A privacy budget was exhausted or a mechanism was misconfigured."""


class DiscoveryError(ReproError):
    """The discovery index could not answer a candidate query."""


class SearchError(ReproError):
    """The task-based search could not be executed."""


class AgentError(ReproError):
    """An agent in the transformation pipeline failed irrecoverably."""


class GatewayError(ReproError):
    """The serving gateway could not accept or complete a request."""


class AdmissionError(GatewayError):
    """A request was refused because the gateway's pending queue is full."""


class BackendError(GatewayError):
    """An execution backend was misconfigured or could not be built."""


class TransientError(ReproError):
    """A likely-transient failure that is safe to retry.

    Marker base for the retry machinery: the gateway's ``RetryPolicy``
    retries (with backoff, inside the request's budget) only errors that
    derive from this class — anything else is treated as deterministic
    and fails fast.
    """


class BackendUnavailable(GatewayError):
    """The execution backend cannot take work right now.

    Raised as a *fast* typed rejection when the per-backend circuit
    breaker is open (repeated failures tripped it), or when the backend
    lost its workers and could not recover in time.  Callers should shed
    or degrade rather than queue behind a dead backend.
    """


class RequestTimeout(GatewayError):
    """A request's time budget lapsed before a result could be produced.

    Distinct from :class:`AdmissionError` (refused before any work) —
    this is raised mid-pipeline when the ``BudgetTimer`` runs out between
    retry attempts or while waiting on a hedged dispatch.
    """


class DegradedResult(GatewayError):
    """A request failed *and* its degraded fallback could not serve it.

    Chains the original dispatch error; raised so the caller sees one
    typed failure naming both the primary and the fallback path.
    """


class InjectedFault(TransientError):
    """The default exception raised by an armed deterministic fault plan.

    Derives from :class:`TransientError` so injected faults exercise the
    same retry path a real transient failure would.
    """


class PersistError(ReproError):
    """A snapshot or write-ahead log could not be written, read, or replayed."""


class SnapshotCorrupt(PersistError):
    """A snapshot file failed verification (magic, truncation, checksum).

    Subclass of :class:`PersistError` so existing handlers still apply;
    raised specifically so the chain loader can quarantine the corrupt
    file and fall back to the previous snapshot version.
    """


class CausalError(ReproError):
    """A causal-inference routine received an invalid model or data."""


class DatasetError(ReproError):
    """A synthetic dataset generator received invalid parameters."""
