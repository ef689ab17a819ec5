"""The threaded stdlib HTTP ops server: the gateway's operational contract.

Until now the gateway's telemetry was reachable only by calling Python
methods in-process; this server turns it into an HTTP surface an
operator (or a Prometheus scraper, or a load balancer's health probe)
can hit while the gateway serves traffic:

==============  =============================================================
``/metrics``    OpenMetrics exposition of the whole registry (see
                :mod:`repro.obs.export`).
``/health``     readiness: 200 when the dispatch breaker would admit a
                request right now and admission has room, 503 otherwise
                (JSON body with the evidence).
``/ops``        the text ``ops_report()`` — the same report the benchmarks
                write next to their JSONs.
``/traces``     retained-trace summaries from the ``TraceBuffer``, newest
                last, as JSON.
``/traces/<id>``  one retained trace's full span records — the target of
                ``/metrics`` histogram exemplars.
==============  =============================================================

Built on :class:`http.server.ThreadingHTTPServer` (one daemon thread per
connection, stdlib only, zero serving imports — the gateway is entirely
duck-typed), opt-in via ``GatewayConfig(ops_port=...)``; ``port=0``
binds an ephemeral port, reported by :attr:`OpsServer.port`.  Handlers
never open spans and never call ``Tracer.trace`` — exposition stays off
the request path by construction, which the concurrency tests assert.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.export import render_openmetrics
from repro.obs.report import ops_report, render_trace

#: Content type Prometheus expects for OpenMetrics text.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


class OpsServer:
    """Serves the ops HTTP surface for one gateway.

    ``gateway`` is duck-typed: ``metrics`` (a registry), ``tracer`` (for
    the trace buffer), ``resilience.breaker``, ``pending`` and
    ``config.max_pending`` (for readiness), and whatever
    :func:`repro.obs.report.ops_report` reads.
    """

    def __init__(self, gateway, host: str = "127.0.0.1", port: int = 0) -> None:
        self.gateway = gateway
        self.host = host
        self._requested_port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "OpsServer":
        if self._server is not None:
            return self
        handler = _build_handler(self)
        self._server = ThreadingHTTPServer((self.host, self._requested_port), handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-ops-server",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        server, thread = self._server, self._thread
        self._server = None
        self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "OpsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- endpoint bodies (HTTP-free, reused by tests) --------------------------
    def scrape(self) -> str:
        """One ``/metrics`` scrape: the registry as OpenMetrics text."""
        return render_openmetrics(self.gateway.metrics)

    def health(self) -> tuple[int, dict]:
        """(status code, body) for ``/health``: 200 ready, 503 not.

        Ready means the gateway can take work now: its dispatch circuit
        breaker would admit a request (asked without consuming a
        half-open probe) and admission control has room below
        ``max_pending``.  A pure read — probing changes nothing.
        """
        gateway = self.gateway
        breaker_open = not gateway.resilience.breaker.would_admit()
        pending = gateway.pending
        max_pending = gateway.config.max_pending
        ready = not breaker_open and pending < max_pending
        body = {
            "status": "ok" if ready else "unavailable",
            "breaker_open": breaker_open,
            "pending": pending,
            "max_pending": max_pending,
        }
        return (200 if ready else 503), body

    def trace_index(self) -> dict:
        buffer = self.gateway.tracer.buffer
        return {
            "capacity": buffer.capacity,
            "traces": [
                {
                    "trace_id": trace.trace_id,
                    "name": trace.name,
                    "start": trace.start,
                    "duration": trace.duration,
                    "sampled": trace.sampled,
                    "slow": trace.slow,
                    "spans": len(trace.records),
                }
                for trace in buffer.snapshot()
            ],
        }

    def trace_detail(self, trace_id: str) -> dict | None:
        trace = self.gateway.tracer.buffer.get(trace_id)
        if trace is None:
            return None
        return {
            "trace_id": trace.trace_id,
            "name": trace.name,
            "start": trace.start,
            "duration": trace.duration,
            "sampled": trace.sampled,
            "slow": trace.slow,
            "attrs": dict(trace.attrs),
            "rendered": render_trace(trace),
            "records": [record.as_dict() for record in trace.records],
        }


def _build_handler(ops: OpsServer):
    class _OpsHandler(BaseHTTPRequestHandler):
        server_version = "repro-ops/1"

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass  # operators read /metrics, not an access log on stderr

        def _send(self, code: int, content_type: str, body: bytes) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, code: int, payload: dict) -> None:
            body = json.dumps(payload, default=repr).encode("utf-8")
            self._send(code, "application/json; charset=utf-8", body)

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            metrics = ops.gateway.metrics
            metrics.increment("ops.http.requests")
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            try:
                if path == "/metrics":
                    metrics.increment("ops.scrapes")
                    body = ops.scrape().encode("utf-8")
                    self._send(200, OPENMETRICS_CONTENT_TYPE, body)
                elif path == "/health":
                    code, payload = ops.health()
                    self._send_json(code, payload)
                elif path == "/ops":
                    body = ops_report(ops.gateway).encode("utf-8")
                    self._send(200, "text/plain; charset=utf-8", body)
                elif path == "/traces":
                    self._send_json(200, ops.trace_index())
                elif path.startswith("/traces/"):
                    detail = ops.trace_detail(path[len("/traces/"):])
                    if detail is None:
                        self._send_json(404, {"error": "trace not retained"})
                    else:
                        self._send_json(200, detail)
                else:
                    self._send_json(404, {"error": f"unknown path {path}"})
            except BrokenPipeError:  # client went away mid-write
                pass
            except Exception as error:  # noqa: BLE001 - surface, don't kill the thread
                metrics.increment("ops.http.errors")
                try:
                    self._send_json(500, {"error": repr(error)})
                except OSError:
                    pass

    return _OpsHandler
