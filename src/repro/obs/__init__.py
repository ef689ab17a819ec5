"""Observability: request tracing, trace retention, and the ops surface.

Dependency-free (stdlib only) so every layer of the stack can emit spans
without import cycles: the serving gateway opens a root span per request,
the execution backends propagate the trace across threads (contextvars)
and process boundaries (ids stamped on the request envelope), and the
discovery + persist layers wrap their phases in :func:`span` — which is a
no-op costing one contextvar read whenever no trace is active, so bare
``platform.search()`` calls pay nothing.

The pieces:

* :mod:`repro.obs.trace` — span trees, context propagation, the
  :class:`Tracer` (head sampling + always-on slow-request retention) and
  :class:`RemoteTrace` (replica-side span collection);
* :mod:`repro.obs.buffer` — the bounded in-memory :class:`TraceBuffer`
  with a JSONL exporter for offline analysis;
* :mod:`repro.obs.report` — ``Gateway.stats()`` / ``ops_report()``
  rendering: metrics snapshot, per-layer cache hit rates, backend queue
  depths, and the N slowest recent traces;
* :mod:`repro.obs.export` — OpenMetrics text exposition of the metrics
  registry (HELP lines sourced from ``docs/OBSERVABILITY.md``, histogram
  bucket series with trace exemplars) plus the validating parser;
* :mod:`repro.obs.server` — the threaded stdlib HTTP :class:`OpsServer`
  (``/metrics`` ``/health`` ``/ops`` ``/traces``), opt-in via
  ``GatewayConfig(ops_port=...)``.

``docs/OBSERVABILITY.md`` catalogues every metric and span name
(``tools/check_metrics.py`` keeps it honest in CI).
"""

from repro.obs.buffer import CompletedTrace, TraceBuffer
from repro.obs.export import (
    OpenMetricsParseError,
    parse_openmetrics,
    render_openmetrics,
    sanitize_name,
)
from repro.obs.report import gateway_stats, ops_report, render_trace
from repro.obs.server import OpsServer
from repro.obs.trace import (
    RemoteTrace,
    Span,
    SpanRecord,
    Trace,
    Tracer,
    attach_records,
    current_span,
    span,
)

__all__ = [
    "CompletedTrace",
    "OpenMetricsParseError",
    "OpsServer",
    "RemoteTrace",
    "Span",
    "SpanRecord",
    "Trace",
    "TraceBuffer",
    "Tracer",
    "attach_records",
    "current_span",
    "gateway_stats",
    "ops_report",
    "parse_openmetrics",
    "render_openmetrics",
    "render_trace",
    "sanitize_name",
    "span",
]
