"""Span trees, trace context propagation, sampling, and remote stitching.

One gateway request owns one :class:`Trace` — a flat list of
:class:`SpanRecord` rows sharing a trace id, assembled into a tree by
parent-id links (:func:`repro.obs.report.render_trace`).  The *current*
span travels in a :data:`contextvars.ContextVar`, which is what makes
propagation work everywhere the serving stack computes:

* same thread: ``with span("discovery.join"): ...`` finds its parent
  through the context variable — instrumented library code never takes a
  tracer argument;
* worker processes (process backend): the parent stamps
  ``(trace_id, span_id)`` onto the request envelope, the replica collects
  its spans under a :class:`RemoteTrace` rooted at that id, ships the
  records back inside ``ComputeOutcome.spans``, and the parent stitches
  them in with :func:`attach_records` — one trace, both sides.

**Cost model.**  Every request is traced (span trees are cheap Python
objects); the :class:`Tracer`'s head-sampling decision controls only
*retention* into the :class:`~repro.obs.buffer.TraceBuffer`.  A request
slower than ``slow_threshold_seconds`` is always retained regardless of
the sampling verdict — the slow-request log cannot have blind spots.
Library code outside an active trace pays a single ``ContextVar.get``
(:func:`span` returns a shared no-op).

Clocks: span start times are wall-clock (``time.time``) so parent- and
replica-side spans align on one timeline across processes; durations are
``perf_counter`` deltas, immune to wall-clock steps.
"""

from __future__ import annotations

import random
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

#: The innermost live span of the calling context (None = not tracing).
_ACTIVE: ContextVar["Span | None"] = ContextVar("repro_obs_active_span", default=None)


def _new_id() -> str:
    """A 64-bit random hex id (module-level RNG: ids need uniqueness, not
    reproducibility, and must differ across forked worker processes)."""
    return f"{random.getrandbits(64):016x}"


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as plain picklable data.

    ``start`` is wall-clock seconds (cross-process alignable);
    ``duration`` is a monotonic-clock delta.  ``parent_id`` is ``None``
    for a trace's root span.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    duration: float
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """A JSON-ready mapping (the JSONL exporter's row shape)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }


class Trace:
    """One request's span records plus its sampling verdict.

    ``on_finish(root_span)`` fires when the root span exits — the
    :class:`Tracer` uses it to apply the retention policy.  Record
    appends are plain list appends (atomic under the GIL), so executor
    threads and the owning thread can both contribute records.
    """

    __slots__ = ("trace_id", "sampled", "records", "_on_finish")

    def __init__(
        self, trace_id: str | None = None, sampled: bool = True, on_finish=None
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else _new_id()
        self.sampled = sampled
        self.records: list[SpanRecord] = []
        self._on_finish = on_finish

    def add(self, record: SpanRecord) -> None:
        self.records.append(record)


class Span:
    """A live span: a context manager that times one phase of a trace.

    Entering makes it the calling context's current span (children created
    via :func:`span` attach to it); exiting restores the previous span and
    appends a :class:`SpanRecord` to the owning trace.  A root span
    (``parent_id is None``) additionally fires the trace's finish hook.
    """

    __slots__ = (
        "trace",
        "name",
        "span_id",
        "parent_id",
        "attrs",
        "duration",
        "_start_wall",
        "_start_perf",
        "_token",
    )

    def __init__(
        self, trace: Trace, name: str, parent_id: str | None, attrs: dict | None = None
    ) -> None:
        self.trace = trace
        self.name = name
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attrs = dict(attrs) if attrs else {}
        self.duration = 0.0
        self._token = None

    def annotate(self, **attrs) -> None:
        """Attach key/value attributes (kept on the emitted record)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._token = _ACTIVE.set(self)
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.duration = time.perf_counter() - self._start_perf
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        self.trace.add(
            SpanRecord(
                trace_id=self.trace.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start=self._start_wall,
                duration=self.duration,
                attrs=self.attrs,
            )
        )
        if self.parent_id is None and self.trace._on_finish is not None:
            self.trace._on_finish(self)
        return False


class _NoopSpan:
    """The shared do-nothing span returned when no trace is active."""

    __slots__ = ()

    def annotate(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        return False


_NOOP = _NoopSpan()


def span(name: str, **attrs):
    """A child span of the calling context's current span.

    The instrumentation primitive for library code: inside an active trace
    it returns a live :class:`Span`; outside one it returns a shared no-op
    for the cost of a single ``ContextVar.get`` — safe to leave in hot
    paths (``platform.search`` without a gateway pays ~nothing).
    """
    parent = _ACTIVE.get()
    if parent is None:
        return _NOOP
    return Span(parent.trace, name, parent.span_id, attrs)


def current_span() -> Span | None:
    """The calling context's live span, or ``None`` when not tracing.

    The process backend reads this to stamp ``(trace_id, span_id)`` onto
    the request envelope before it crosses the process boundary.
    """
    return _ACTIVE.get()


def attach_records(records) -> bool:
    """Stitch foreign :class:`SpanRecord` rows into the current trace.

    Used by the process backend to merge replica-side spans (shipped back
    in ``ComputeOutcome.spans``) into the parent's live trace.  Returns
    False (dropping nothing, recording nothing) when no trace is active.
    """
    parent = _ACTIVE.get()
    if parent is None:
        return False
    for record in records:
        parent.trace.add(record)
    return True


class Tracer:
    """Opens per-request traces and applies the retention policy.

    ``sample_rate`` is *head* sampling: the keep-or-drop verdict is drawn
    when the trace opens, so the decision is consistent for the request's
    whole lifetime (including replica-side spans).  Retention — not
    collection — is what sampling controls: every request still builds its
    span tree, and any request whose root span runs at least
    ``slow_threshold_seconds`` is retained into the buffer regardless of
    the verdict (the always-on slow-request log).

    Emits ``trace.finished`` / ``trace.recorded`` / ``trace.slow``
    counters when a metrics registry is attached.  ``rng`` is injectable
    for deterministic tests.
    """

    def __init__(
        self,
        sample_rate: float = 0.1,
        slow_threshold_seconds: float = 1.0,
        buffer=None,
        metrics=None,
        rng: random.Random | None = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        from repro.obs.buffer import TraceBuffer

        self.sample_rate = sample_rate
        self.slow_threshold_seconds = slow_threshold_seconds
        self.buffer = buffer if buffer is not None else TraceBuffer()
        self.metrics = metrics
        self._rng = rng if rng is not None else random.Random()

    def trace(self, name: str, **attrs) -> Span:
        """Open a new trace; returns its root span (a context manager)."""
        sampled = self._rng.random() < self.sample_rate
        owned = Trace(sampled=sampled, on_finish=self._finish)
        return Span(owned, name, None, attrs)

    def _finish(self, root: Span) -> None:
        from repro.obs.buffer import CompletedTrace

        slow = root.duration >= self.slow_threshold_seconds
        if self.metrics is not None:
            self.metrics.increment("trace.finished")
            if slow:
                self.metrics.increment("trace.slow")
        if not (root.trace.sampled or slow):
            return
        if self.metrics is not None:
            self.metrics.increment("trace.recorded")
        self.buffer.add(
            CompletedTrace(
                trace_id=root.trace.trace_id,
                name=root.name,
                start=root._start_wall,
                duration=root.duration,
                sampled=root.trace.sampled,
                slow=slow,
                attrs=dict(root.attrs),
                records=tuple(root.trace.records),
            )
        )


class RemoteTrace:
    """Replica-side span collection under a shipped trace reference.

    ``ref`` is the ``(trace_id, parent_span_id)`` pair the parent stamped
    onto the request envelope (``None`` disables collection entirely — the
    whole object degrades to a no-op context).  Inside the ``with`` block
    a root span named ``name`` is active, so ordinary :func:`span` calls
    in replica code (replay, bootstrap, compute, and everything the
    platform emits beneath them) nest under it.  After exit,
    :attr:`records` holds every collected :class:`SpanRecord` — picklable,
    rooted at the parent's span id — ready to ship back for
    :func:`attach_records`.
    """

    def __init__(self, ref: tuple | None, name: str = "replica", **attrs) -> None:
        self._span: Span | None = None
        if ref is not None:
            trace_id, parent_id = ref
            self._span = Span(Trace(trace_id), name, parent_id, attrs)

    def annotate(self, **attrs) -> None:
        if self._span is not None:
            self._span.annotate(**attrs)

    def __enter__(self) -> "RemoteTrace":
        if self._span is not None:
            self._span.__enter__()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        if self._span is not None:
            self._span.__exit__(exc_type, exc_value, traceback)
        return False

    @property
    def records(self) -> tuple[SpanRecord, ...]:
        """Every collected record (empty until exit, or with no ref)."""
        if self._span is None:
            return ()
        return tuple(self._span.trace.records)
