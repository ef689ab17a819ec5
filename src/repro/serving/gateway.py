"""The concurrent serving gateway (hub of the multi-tenant deployment).

The paper's platform is inherently multi-tenant: many requesters submit
search-then-AutoML jobs against one central store of privatised sketches.
The :class:`Gateway` is the hub-and-spoke broker in front of the platform:

* requests enter a pluggable :class:`~repro.serving.backends.ExecutionBackend`
  (GIL-bound threads or a true multi-core process pool); admission
  control rejects work beyond ``max_pending`` instead of queueing
  unboundedly;
* every request carries a deadline derived from :class:`BudgetTimer` — queue
  wait consumes the budget, and whatever remains is handed to the search
  (and AutoML) phases exactly as the single-tenant service does;
* results are memoised in an epoch-keyed :class:`ResultCache`, so repeated
  requests against an unchanged corpus are served without recomputation,
  and concurrent duplicates are *coalesced* through a shared
  :class:`SingleFlight` table: the first worker to pick up a given
  (request, epoch) computes while the rest piggyback on its result instead
  of stampeding the platform;
* every computation is *epoch-stamped*: the backend reports the corpus
  epoch the result was actually computed at, and the gateway refuses to
  cache a result whose stamp no longer matches the epoch in its cache key
  (a register/unregister racing the computation, or a stale process-pool
  worker, can therefore never poison the cache);
* counters, gauges, and latency histograms for every stage land in a shared
  :class:`MetricsRegistry`.

Backend selection: ``Gateway(platform, backend="process")`` or
``GatewayConfig(backend=...)``, else ``"thread"``.  All backends are result
identical — see ``tests/serving/test_backend_parity.py``.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace

from repro.core.clock import BudgetTimer, WallClock
from repro.core.platform import Mileena, SearchResult
from repro.core.request import SearchRequest
from repro.core.service import AutoMLServiceResult, MileenaAutoMLService
from repro.exceptions import (
    AdmissionError,
    BackendUnavailable,
    DegradedResult,
    RequestTimeout,
)
from repro.faults.injector import fault_point
from repro.obs import TraceBuffer, Tracer, span
from repro.serving.cache import CachingProxy, ResultCache, SingleFlight
from repro.serving.fingerprint import request_fingerprint
from repro.serving.metrics import MetricsRegistry
from repro.serving.resilience import CircuitBreaker, ResilientDispatch, RetryPolicy

OK = "ok"
REJECTED = "rejected"
EXPIRED = "expired"
FAILED = "failed"

_MISS = object()


@dataclass
class GatewayConfig:
    """Tuning knobs for the serving gateway.

    Parameters
    ----------
    max_workers:
        Concurrency of the serving pipeline: worker threads for the
        ``thread`` backend, orchestration threads for the ``process``
        backend.
    max_pending:
        Admission-control bound on submitted-but-unfinished requests;
        submissions beyond it raise :class:`AdmissionError`.
    cache_capacity:
        LRU capacity of the result cache.
    cache_results:
        Memoise full per-request results keyed on (request fingerprint,
        corpus epoch).
    cache_proxy_scores:
        Wrap the platform's proxy model in a :class:`CachingProxy` so
        repeated candidate evaluations across requests are memoised.
    run_automl:
        Serve the full search-then-AutoML pipeline
        (:class:`MileenaAutoMLService`) instead of search only.
    backend:
        Execution backend name (``"thread"`` or ``"process"``).
        ``None`` means ``"thread"`` unless ``Gateway(backend=...)`` names
        one.
    process_workers:
        Worker *processes* for the ``process`` backend (defaults to
        ``max_workers``).  Workers use the platform's default
        ``multiprocessing`` start method and are restored from the live
        platform's snapshot sections and warmed at gateway construction.
    snapshot_dir:
        Durable-state directory (``None`` = no persistence).  When set,
        the gateway attaches a :class:`~repro.persist.SnapshotManager` to
        the platform: every corpus mutation is journaled to a WAL, the
        cadence policy below re-snapshots and truncates it, and a restart
        is ``Mileena.load(snapshot_dir)``.  The process backend re-bases
        its mutation log on every new snapshot (a replica that falls
        behind reloads the file), which is what keeps envelope logs
        bounded under sustained churn.
    snapshot_every_mutations:
        The re-snapshot cadence (see :class:`~repro.persist.SnapshotManager`);
        it also bounds the WAL and the process backend's per-envelope
        mutation logs.  A time-based cadence is set on the platform with
        ``attach_snapshots(every_seconds=...)``.
    wal_fsync:
        Fsync every WAL append and snapshot write (power-cut durability)
        instead of flush-only (process-crash durability, the default).
    trace_sample_rate:
        Head-sampling probability for trace *retention*: every request
        still builds its span tree (cheap), but only this fraction is
        kept in the trace buffer — except slow requests, which are always
        kept (below).  ``1.0`` retains everything, ``0.0`` retains only
        slow requests.
    slow_trace_seconds:
        The always-on slow-request log threshold: any request whose root
        span runs at least this long is retained regardless of the
        sampling verdict.  The ring buffer keeps the 256 most recent
        retained traces; ``Gateway.ops_report()`` renders the slowest of
        them.  See ``docs/OBSERVABILITY.md``.
    ops_port:
        Opt-in HTTP ops surface: when set, the gateway starts a threaded
        stdlib :class:`~repro.obs.server.OpsServer` on
        ``(ops_host, ops_port)`` serving ``/metrics`` (OpenMetrics
        exposition with per-bucket trace exemplars), ``/health``
        (readiness: 200 when the breaker would admit a dispatch and
        fewer than ``max_pending`` requests are pending, else 503),
        ``/ops``, and ``/traces[/<id>]``; ``0`` binds an ephemeral port
        (read it from ``gateway.ops_server.port``).  The server stops with
        the gateway.  ``None`` (default) starts nothing.  See
        ``docs/OBSERVABILITY.md``.
    ops_host:
        Bind address for the ops server (default loopback; widen
        deliberately — the surface is unauthenticated).
    retry_max_attempts / retry_backoff_seconds / retry_jitter_seed:
        Total dispatch attempts (first try included) for *transient*
        failures (:class:`~repro.exceptions.TransientError` subclasses);
        deterministic errors never retry.  Retries back off exponentially
        from ``retry_backoff_seconds`` with ±50 % jitter
        (``retry_jitter_seed`` pins the jitter for deterministic tests)
        and never sleep past the request's budget.
    breaker_failure_threshold / breaker_recovery_seconds:
        The per-backend circuit breaker: this many consecutive dispatch
        failures open it, converting further requests into fast typed
        :class:`~repro.exceptions.BackendUnavailable` rejections until a
        half-open probe succeeds after the recovery window.  With the
        breaker open (or the deadline lapsed) a request is answered from
        the last-known-good cache, flagged ``degraded=True``, or fails
        with a typed error.  See ``docs/RELIABILITY.md``.

    Discovery-side knobs (``join_threshold``, ``union_threshold``,
    ``vectorized``) live on the platform's discovery index — set them on
    the index constructor; the process backend's
    :class:`~repro.serving.backends.PlatformSpec` carries them in the
    snapshot sections so worker replicas stay result-identical.
    ``docs/TUNING.md`` has the combined knobs table and trade-offs.
    """

    max_workers: int = 4
    max_pending: int = 64
    cache_capacity: int = 256
    cache_results: bool = True
    cache_proxy_scores: bool = True
    run_automl: bool = False
    backend: str | None = None
    process_workers: int | None = None
    snapshot_dir: str | None = None
    snapshot_every_mutations: int | None = 64
    wal_fsync: bool = False
    trace_sample_rate: float = 0.1
    slow_trace_seconds: float = 1.0
    ops_port: int | None = None
    ops_host: str = "127.0.0.1"
    retry_max_attempts: int = 2
    retry_backoff_seconds: float = 0.05
    retry_jitter_seed: int | None = None
    breaker_failure_threshold: int = 8
    breaker_recovery_seconds: float = 5.0


@dataclass
class ComputeOutcome:
    """A computed result plus the corpus epoch it was computed at.

    ``epoch`` is the stamp the gateway compares against its cache key:
    mismatched stamps (a mutation raced the computation, or a process-pool
    replica ran ahead of this envelope's mutation log) are served to the
    caller but never cached.  ``stale=True`` marks a process-pool replica
    that could not compute at the expected epoch at all.  ``worker`` and
    ``reloaded`` are process-backend bookkeeping: the worker pid lets the
    parent track which mutation-log entries every replica has applied (so
    acknowledged entries can be dropped from future envelopes), and
    ``reloaded`` reports that the replica re-bootstrapped itself from the
    latest snapshot file to catch up.
    """

    result: SearchResult | AutoMLServiceResult | None
    epoch: int
    stale: bool = False
    worker: int | None = None
    reloaded: bool = False
    #: Replica-side span records (``repro.obs.trace.SpanRecord`` rows) a
    #: process-pool worker collected while computing this outcome; the
    #: parent stitches them into the live trace with ``attach_records``.
    spans: tuple = ()


@dataclass
class GatewayResponse:
    """Outcome of one gateway request.

    ``degraded=True`` marks a response served from the last-known-good
    cache because the primary dispatch was unavailable — the result may be
    stale relative to the current corpus, and callers that cannot tolerate
    that should treat it as a failure.
    """

    request_id: int
    status: str
    result: SearchResult | AutoMLServiceResult | None = None
    error: str | None = None
    cache_hit: bool = False
    waited_seconds: float = 0.0
    service_seconds: float = 0.0
    degraded: bool = False

    @property
    def ok(self) -> bool:
        return self.status == OK


class Gateway:
    """A concurrent, caching front door to a :class:`Mileena` platform."""

    def __init__(
        self,
        platform: Mileena,
        config: GatewayConfig | None = None,
        metrics: MetricsRegistry | None = None,
        clock: object | None = None,
        service: MileenaAutoMLService | None = None,
        backend: object | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.platform = platform
        self.config = config if config is not None else GatewayConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(
            sample_rate=self.config.trace_sample_rate,
            slow_threshold_seconds=self.config.slow_trace_seconds,
            buffer=TraceBuffer(),
            metrics=self.metrics,
        )
        self.clock = clock if clock is not None else getattr(platform, "clock", WallClock())
        self.cache: ResultCache | None = None
        if self.config.cache_results:
            self.cache = ResultCache(
                capacity=self.config.cache_capacity,
                metrics=self.metrics,
                name="gateway_cache",
            )
            # Let the platform memoise discovery candidates in the same
            # epoch-keyed cache (near-identical requests share discovery).
            if getattr(platform, "cache", None) is None:
                platform.cache = self.cache
        if getattr(platform, "metrics", None) is None:
            platform.metrics = self.metrics
        # Durable state: attach a snapshot manager when configured (a
        # platform that already carries one — e.g. from
        # Mileena.attach_snapshots(...) — is reused as is, but gains
        # this gateway's metrics registry so persist.* counters land with
        # the serving metrics).
        self.snapshots = getattr(platform, "snapshots", None)
        if self.snapshots is not None and self.snapshots.metrics is None:
            self.snapshots.metrics = self.metrics
        if self.config.snapshot_dir is not None and self.snapshots is None:
            self.snapshots = platform.attach_snapshots(
                self.config.snapshot_dir,
                every_mutations=self.config.snapshot_every_mutations,
                clock=self.clock,
                fsync=self.config.wal_fsync,
                metrics=self.metrics,
            )
        if self.config.cache_proxy_scores and not isinstance(platform.proxy, CachingProxy):
            platform.proxy = CachingProxy(platform.proxy, metrics=self.metrics)
        self.service = service if service is not None else MileenaAutoMLService(
            platform=platform, clock=self.clock
        )
        self._pending = 0
        self._next_request_id = 0
        self._lock = threading.Lock()
        # In-flight coalescing, shared by every execution backend.
        self._flights = SingleFlight()
        from repro.serving.backends import resolve_backend

        choice = backend if backend is not None else self.config.backend
        self.backend = resolve_backend(
            choice if choice is not None else "thread", self.config
        )
        # Resilience wrapper around the dispatch stage: retry policy and
        # per-backend circuit breaker (see repro.serving.resilience and
        # docs/RELIABILITY.md).
        self.resilience = ResilientDispatch(
            policy=RetryPolicy(
                max_attempts=self.config.retry_max_attempts,
                backoff_seconds=self.config.retry_backoff_seconds,
                seed=self.config.retry_jitter_seed,
            ),
            breaker=CircuitBreaker(
                name=getattr(self.backend, "name", "unknown"),
                clock=self.clock,
                failure_threshold=self.config.breaker_failure_threshold,
                recovery_seconds=self.config.breaker_recovery_seconds,
                metrics=self.metrics,
            ),
            metrics=self.metrics,
        )
        # Last-known-good results for graceful degradation: keyed on
        # (mode, request fingerprint) with *no* epoch scoping — a
        # degraded response is allowed to be stale, that is its contract.
        self._lkg = ResultCache(
            capacity=self.config.cache_capacity,
            metrics=self.metrics,
            name="lkg_cache",
        )
        # Opt-in HTTP ops surface: OpenMetrics exposition, readiness and
        # trace lookup over stdlib HTTP (see repro.obs.server and
        # docs/OBSERVABILITY.md).
        self.ops_server = None
        try:
            self.backend.start(self)
            if self.config.ops_port is not None:
                from repro.obs.server import OpsServer

                self.metrics.arm_exemplars()
                self.ops_server = OpsServer(
                    self, host=self.config.ops_host, port=self.config.ops_port
                )
                self.ops_server.start()
        except BaseException:
            # A constructor that raises (a bad pool size, a taken port)
            # must not leak what the backend started: its workers and its
            # corpus journal observer.
            self.backend.shutdown()
            raise

    @property
    def mode(self) -> str:
        """What one request computes: ``"search"`` or ``"automl"``."""
        return "automl" if self.config.run_automl else "search"

    # -- submission ------------------------------------------------------------
    def submit(
        self, request: SearchRequest, time_budget_seconds: float | None = None
    ) -> Future:
        """Admit a request into the execution backend; resolves to a GatewayResponse.

        Raises :class:`AdmissionError` when ``max_pending`` requests are
        already in flight.
        """
        with self._lock:
            if self._pending >= self.config.max_pending:
                raise self._reject()
            self._pending += 1
            self.metrics.set_gauge("gateway.pending", self._pending)
            request_id = self._next_request_id
            self._next_request_id += 1
        # The deadline starts at admission: queue wait consumes the budget.
        timer = BudgetTimer(self.clock, time_budget_seconds)
        return self.backend.submit(request_id, request, timer)

    def _reject(self) -> AdmissionError:
        """Rejection bookkeeping shared by single and batch submission.

        Called with ``self._lock`` held.  Emits the rejection counter AND
        re-publishes the pending gauge, so dashboards see one identical
        metric series whether the rejection surfaced as a raised
        :class:`AdmissionError` (``submit``) or as a synthetic ``rejected``
        response in a ``run_many`` burst.
        """
        self.metrics.increment("gateway.rejected")
        self.metrics.set_gauge("gateway.pending", self._pending)
        return AdmissionError(
            f"gateway queue is full ({self._pending} pending, "
            f"max_pending={self.config.max_pending})"
        )

    def run_many(
        self,
        requests: list[SearchRequest],
        time_budget_seconds: float | None = None,
    ) -> list[GatewayResponse]:
        """Submit a batch and gather responses in request order.

        Requests refused by admission control come back as ``rejected``
        responses rather than raising, so one overloaded burst cannot lose
        track of which request failed.
        """
        futures: list[Future | GatewayResponse] = []
        for request in requests:
            try:
                futures.append(self.submit(request, time_budget_seconds))
            except AdmissionError as error:
                # submit() already did the rejection bookkeeping (counter +
                # pending gauge) via _reject; only the response id is local.
                with self._lock:
                    request_id = self._next_request_id
                    self._next_request_id += 1
                futures.append(
                    GatewayResponse(request_id, REJECTED, error=str(error))
                )
        return [
            item if isinstance(item, GatewayResponse) else item.result()
            for item in futures
        ]

    # -- lifecycle -------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        if self.ops_server is not None:
            self.ops_server.stop()
        self.backend.shutdown(wait=wait)

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @property
    def pending(self) -> int:
        """Requests submitted but not yet finished."""
        return self._pending

    # -- ops surface -----------------------------------------------------------
    def stats(self) -> dict:
        """A structured health snapshot: metrics, caches, backend, traces.

        See :func:`repro.obs.report.gateway_stats` for the shape and
        ``docs/OBSERVABILITY.md`` for how to read it.
        """
        from repro.obs.report import gateway_stats

        return gateway_stats(self)

    def ops_report(self, slowest: int = 3) -> str:
        """An operator-readable text report, slowest recent traces included."""
        from repro.obs.report import ops_report

        return ops_report(self, slowest=slowest)

    # -- serve pipeline --------------------------------------------------------
    # One pipeline for every backend: ``_serve`` runs the stages on the
    # backend's thread and only the ``compute`` callable differs.

    def _begin(self, request_id: int, timer: BudgetTimer):
        """Record arrival; return (queue wait, early EXPIRED response or None)."""
        waited = timer.elapsed()
        self.metrics.increment("gateway.requests")
        self.metrics.observe("gateway.queue_wait_seconds", waited)
        if timer.expired():
            self.metrics.increment("gateway.expired")
            return waited, GatewayResponse(
                request_id,
                EXPIRED,
                error="deadline expired while queued",
                waited_seconds=waited,
            )
        return waited, None

    def _cache_key(self, timer: BudgetTimer, fingerprint):
        """The (mode, fingerprint, budget, epoch) cache key, or None when uncached.

        The submitted budget is part of the key: a result computed under a
        tight deadline may be truncated, and must never be served to a
        request with a looser (or no) deadline.  The corpus epoch is the
        last element; ``_store`` compares it against the outcome's stamp.
        """
        if self.cache is None:
            return None
        return (
            self.mode,
            fingerprint,
            timer.budget_seconds,
            self.platform.corpus.epoch,
        )

    def _lookup(self, key, request_id: int, waited: float) -> GatewayResponse | None:
        """A cached response for ``key``, or None on a miss."""
        cached = self.cache.get(key, _MISS)
        if cached is _MISS:
            return None
        self.metrics.increment("gateway.ok")
        return GatewayResponse(
            request_id,
            OK,
            result=cached,
            cache_hit=True,
            waited_seconds=waited,
        )

    def _compute_local(
        self, request: SearchRequest, remaining: float | None
    ) -> ComputeOutcome:
        """Run the request in this process and stamp the resulting epoch.

        The request is copied so concurrent workers never share a mutable
        budget field, and so the caller's object stays untouched.  The
        stamp is read *after* the computation: if a register/unregister
        raced it, the stamp no longer matches the cache key's epoch and the
        result is served but not cached.
        """
        fault_point("gateway.compute")
        scoped = replace(request, time_budget_seconds=remaining)
        with span("compute"):
            if self.config.run_automl:
                result = self.service.run(scoped, time_budget_seconds=remaining)
            else:
                result = self.platform.search(scoped)
        return ComputeOutcome(result=result, epoch=self.platform.corpus.epoch)

    def _store(self, key, timer: BudgetTimer, outcome: ComputeOutcome) -> None:
        """Cache a computed result, unless truncated or epoch-mismatched.

        Never cache a result whose deadline ran out mid-computation: the
        search may have been truncated by the budget, and queue wait (which
        varies per submission) determines how much budget the computation
        actually saw.  Never cache a result stamped with a different epoch
        than the key was built for: the corpus mutated underneath it.
        """
        if key is None or self.cache is None:
            return
        if timer.expired():
            return
        if outcome.epoch != key[-1]:
            self.metrics.increment("gateway.stale_results")
            return
        self.cache.put(key, outcome.result)

    def _join_flight(
        self, key, flight: Future, request_id: int, timer: BudgetTimer, waited: float
    ) -> GatewayResponse:
        """Follower path: wait on the leading worker's in-flight result.

        The leader occupies a worker slot, so waiting cannot deadlock the
        pool.  A leader failure propagates its exception to every follower
        (raised out of ``flight.result`` and converted to FAILED upstream).
        """
        self.metrics.increment("gateway.coalesced")
        budgeted = timer.budget_seconds is not None
        try:
            result = flight.result(timeout=timer.remaining() if budgeted else None)
        except FutureTimeoutError:
            self.metrics.increment("gateway.expired")
            return GatewayResponse(
                request_id,
                EXPIRED,
                error="deadline expired waiting on a coalesced request",
                waited_seconds=waited,
            )
        self.metrics.increment("gateway.ok")
        return GatewayResponse(
            request_id, OK, result=result, cache_hit=True, waited_seconds=waited
        )

    def _complete(
        self,
        request_id: int,
        fingerprint,
        key,
        timer: BudgetTimer,
        waited: float,
        outcome: ComputeOutcome,
        flight: Future | None,
        leading: bool,
        service_seconds: float,
    ) -> GatewayResponse:
        """Shared post-compute tail: record, cache (stamp-checked), hand off."""
        self.metrics.observe("gateway.service_seconds", service_seconds)
        self._store(key, timer, outcome)
        if not timer.expired():
            # Last-known-good is keyed without budget or epoch, and kept
            # whether or not the result cache is on: a degraded response
            # may serve a stale result, but never a truncated one.
            self._lkg.put((self.mode, fingerprint), outcome.result)
        if leading:
            self._flights.finish(key, flight, outcome.result)
        self.metrics.increment("gateway.ok")
        return GatewayResponse(
            request_id,
            OK,
            result=outcome.result,
            waited_seconds=waited,
            service_seconds=service_seconds,
        )

    def _abort_flight(self, key, flight: Future | None, leading: bool, error) -> None:
        """Shared compute-failure hand-off: propagate to any followers."""
        if leading:
            self._flights.fail(key, flight, error)

    def _failed(self, request_id: int, error: Exception) -> GatewayResponse:
        """Shared failure response (one request must not kill the pool)."""
        self.metrics.increment("gateway.failed")
        return GatewayResponse(request_id, FAILED, error=repr(error))

    def _request_done(self) -> None:
        with self._lock:
            self._pending -= 1
            self.metrics.set_gauge("gateway.pending", self._pending)

    # -- worker entry point (every backend) -------------------------------------
    def _serve(
        self,
        request_id: int,
        request: SearchRequest,
        timer: BudgetTimer,
        compute,
    ) -> GatewayResponse:
        """Serve one request end to end on the calling thread.

        ``compute(request, remaining_budget) -> ComputeOutcome`` is supplied
        by the execution backend: the thread backend computes in this
        process, the process backend ships an envelope to a worker
        process.

        Every request opens a trace (retention is the tracer's concern —
        see :class:`GatewayConfig.trace_sample_rate`); the root ``request``
        span stays active for the whole pipeline, so the stage spans in
        ``_serve_stages`` and everything the platform emits underneath
        nest into one tree.
        """
        try:
            root = self.tracer.trace(
                "request",
                request_id=request_id,
                backend=getattr(self.backend, "name", "unknown"),
                mode=self.mode,
            )
            with root:
                try:
                    response = self._serve_stages(request_id, request, timer, compute)
                except Exception as error:  # noqa: BLE001
                    response = self._failed(request_id, error)
                root.annotate(status=response.status)
                return response
        finally:
            self._request_done()

    def _serve_stages(
        self,
        request_id: int,
        request: SearchRequest,
        timer: BudgetTimer,
        compute,
    ) -> GatewayResponse:
        """The traced pipeline body shared by every backend.

        Span taxonomy (see ``docs/OBSERVABILITY.md``): ``admission`` covers
        deadline accounting at entry; ``cache_lookup`` covers the cache
        probe plus any coalesced wait on another worker's in-flight
        result; ``dispatch`` covers the backend's compute hand-off — its
        children are ``compute`` (in-process) or the stitched replica-side
        spans (process backend).
        """
        with span("admission") as admission:
            waited, early = self._begin(request_id, timer)
            admission.annotate(waited_seconds=waited)
            if early is not None:
                admission.annotate(outcome="expired")
                return early
        fingerprint = request_fingerprint(request)
        key = self._cache_key(timer, fingerprint)
        flight = None
        leading = False
        if key is not None:
            with span("cache_lookup") as lookup:
                hit = self._lookup(key, request_id, waited)
                if hit is not None:
                    lookup.annotate(outcome="hit")
                    return hit
                flight, leading = self._flights.begin(key)
                if not leading:
                    lookup.annotate(outcome="coalesced")
                    return self._join_flight(key, flight, request_id, timer, waited)
                lookup.annotate(outcome="miss")
        remaining = timer.remaining() if timer.budget_seconds is not None else None
        started = self.clock.now()
        try:
            with span("dispatch") as dispatch:
                outcome = self.resilience.run(compute, request, remaining, timer)
                dispatch.annotate(epoch=outcome.epoch, stale=outcome.stale)
        except (RequestTimeout, BackendUnavailable) as error:
            return self._dispatch_failed(
                request_id, fingerprint, key, waited, flight, leading, error
            )
        except BaseException as error:
            self._abort_flight(key, flight, leading, error)
            raise
        return self._complete(
            request_id,
            fingerprint,
            key,
            timer,
            waited,
            outcome,
            flight,
            leading,
            self.clock.now() - started,
        )

    # -- graceful degradation ---------------------------------------------------
    def _lkg_response(
        self, request_id: int, fingerprint, waited: float, reason: str
    ) -> GatewayResponse | None:
        """A degraded response from the last-known-good cache, or None."""
        cached = self._lkg.get((self.mode, fingerprint), _MISS)
        if cached is _MISS:
            return None
        with span("request.degraded", reason=reason, source="lkg_cache"):
            self.metrics.increment("gateway.degraded")
        self.metrics.increment("gateway.ok")
        return GatewayResponse(
            request_id,
            OK,
            result=cached,
            cache_hit=True,
            degraded=True,
            waited_seconds=waited,
        )

    def _dispatch_failed(
        self,
        request_id: int,
        fingerprint,
        key,
        waited: float,
        flight: Future | None,
        leading: bool,
        error: Exception,
    ) -> GatewayResponse:
        """Typed dispatch failure: last-known-good, else a typed failure.

        No second computation is attempted.  Followers coalesced behind
        this flight get the original error (a degraded response is private
        to the request that produced it — it was never epoch-stamped, so it
        must not feed the flight table or the result cache).
        """
        self._abort_flight(key, flight, leading, error)
        timed_out = isinstance(error, RequestTimeout)
        reason = "timeout" if timed_out else "backend_unavailable"
        fallback = self._lkg_response(request_id, fingerprint, waited, reason=reason)
        if fallback is not None:
            return fallback
        if timed_out:
            self.metrics.increment("gateway.expired")
            return GatewayResponse(
                request_id,
                EXPIRED,
                error=str(error) or "deadline expired during dispatch",
                waited_seconds=waited,
            )
        failure = DegradedResult(
            f"backend dispatch failed and no last-known-good result was cached: {error}"
        )
        failure.__cause__ = error
        return self._failed(request_id, failure)
