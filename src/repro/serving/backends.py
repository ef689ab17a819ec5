"""Pluggable execution backends for the serving gateway.

The gateway's serve pipeline (admission, cache lookup, coalescing,
epoch-stamped caching) lives in :class:`repro.serving.gateway.Gateway`;
a backend decides *where* requests run:

``thread``
    The original bounded ``ThreadPoolExecutor``.  Cheapest to start, but
    CPU-bound search work is GIL-serialised — its wins come from caching
    and coalescing, not parallel compute.

``process``
    A ``ProcessPoolExecutor`` of *platform replicas* for true multi-core
    speedup.  Each worker process bootstraps its own copy of the platform
    from a picklable :class:`PlatformSpec` (raw relations **and** the
    prebuilt sketches ride along, because a DP-privatised sketch is
    randomised at registration time — rebuilding it in the worker would
    break result identity with the parent).  Requests travel as picklable
    :class:`RequestEnvelope`\\ s carrying the post-bootstrap corpus
    mutation log, so replicas replay register/unregister churn before
    computing; every outcome is epoch-stamped and a replica that cannot
    reach the envelope's expected epoch reports ``stale`` and the parent
    recomputes locally instead of serving (or caching) a wrong-corpus
    result.  Orchestration (cache, coalescing, deadlines) stays in parent
    threads, so all backends share one cache and one coalescing table.

All backends are result identical under concurrent
register/unregister churn — ``tests/serving/test_backend_parity.py`` is
the contract.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Protocol, runtime_checkable

from repro.core.clock import BudgetTimer
from repro.core.request import SearchRequest
from repro.exceptions import BackendError
from repro.faults.injector import pending_fault
from repro.obs import RemoteTrace, attach_records, current_span, span
from repro.serving.gateway import ComputeOutcome, GatewayConfig, GatewayResponse

THREAD = "thread"
PROCESS = "process"

#: How many times the process backend re-sends an envelope to a freshly
#: respawned pool after a worker death before computing in the parent.
REDISPATCH_ATTEMPTS = 2


@runtime_checkable
class ExecutionBackend(Protocol):
    """Where gateway requests run.

    ``start(gateway)`` binds the backend to its gateway and builds pools;
    ``submit`` schedules one admitted request and returns a
    :class:`concurrent.futures.Future` resolving to a
    :class:`~repro.serving.gateway.GatewayResponse`; ``shutdown`` releases
    every pool.  Implementations must be result identical: the parity
    suite drives all of them through the same workloads.
    """

    name: str

    def start(self, gateway) -> None: ...

    def submit(
        self, request_id: int, request: SearchRequest, timer: BudgetTimer
    ) -> Future: ...

    def shutdown(self, wait: bool = True) -> None: ...


# -- thread backend ------------------------------------------------------------
class ThreadBackend:
    """The gateway's original worker pool: one thread serves one request."""

    name = THREAD

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        self._gateway = None
        self._pool: ThreadPoolExecutor | None = None

    def start(self, gateway) -> None:
        self._gateway = gateway
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_workers, thread_name_prefix="gateway-worker"
        )

    def submit(
        self, request_id: int, request: SearchRequest, timer: BudgetTimer
    ) -> Future:
        submitted_at = self._gateway.clock.now()
        self._gateway.metrics.adjust_gauge(f"gateway.backend.{self.name}.queue_depth", 1)
        return self._pool.submit(self._run, request_id, request, timer, submitted_at)

    def _run(
        self,
        request_id: int,
        request: SearchRequest,
        timer: BudgetTimer,
        submitted_at: float,
    ) -> GatewayResponse:
        gateway = self._gateway
        gateway.metrics.observe(
            f"gateway.backend.{self.name}.dispatch_seconds",
            gateway.clock.now() - submitted_at,
        )
        try:
            return gateway._serve(request_id, request, timer, self._compute)
        finally:
            gateway.metrics.adjust_gauge(f"gateway.backend.{self.name}.queue_depth", -1)

    def _compute(self, request: SearchRequest, remaining: float | None) -> ComputeOutcome:
        return self._gateway._compute_local(request, remaining)

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait)


# -- process backend -----------------------------------------------------------
@dataclass
class PlatformSpec:
    """Everything a worker process needs to rebuild the platform.

    Every field must pickle.  ``registrations`` are the parent's
    :class:`~repro.core.catalog.DatasetRegistration` objects (raw relation
    + privacy budget + *prebuilt* sketch): discovery profiles are
    re-derived deterministically from the relations, while sketches are
    reused verbatim so privatised (randomised) sketches stay identical
    across replicas.  ``base_epoch`` is the parent corpus epoch the
    snapshot corresponds to; the mutation log in each envelope continues
    from there.

    When the gateway has durable state (``GatewayConfig.snapshot_dir``),
    ``snapshot`` is ``(path, epoch)`` of the on-disk snapshot file and
    ``registrations`` stays empty: workers warm-start via
    ``Mileena.load`` — profiles are restored without re-profiling a
    single relation, and nothing heavyweight crosses the pickle boundary.
    """

    #: Full discovery-index configuration (kind, shard count, every engine
    #: knob incl. the adaptive/multi-probe LSH ones — replicas must
    #: re-derive the same band layout as the parent or process-backend
    #: results would diverge).  Captured with
    #: :func:`repro.persist.snapshot.capture_engine_config` and rebuilt
    #: with :func:`repro.persist.snapshot.build_corpus_stores` — the same
    #: pair the snapshot format uses, so replica bootstrap and snapshot
    #: restore can never drift apart knob by knob.
    index: dict
    discovery_top_k: int
    search_fraction: float
    automl_splits: int
    base_epoch: int
    registrations: tuple = ()
    # Non-default platform components (proxy model, sketch builder, shared
    # MinHasher) must replicate too, or a customised platform would return
    # different results from worker processes than from the parent.  The
    # proxy is the *unwrapped* model — each replica gets its own
    # CachingProxy (an inherited one would carry an unpicklable lock and a
    # cache that must not be shared across processes anyway).
    proxy: object | None = None
    builder: object | None = None
    minhasher: object | None = None
    cache_proxy_scores: bool = True
    snapshot: tuple | None = None


@dataclass
class RequestEnvelope:
    """A picklable unit of work shipped to a worker process.

    ``ops`` is the *bounded* post-bootstrap mutation log: ``(epoch_after,
    op, payload)`` records journaled straight off the corpus (``op`` is
    ``"add"``/``"add_many"``/``"remove"``, one record per epoch bump), with
    everything every replica is known to have applied — or that the latest
    on-disk snapshot covers — already dropped by the parent.  A replica
    replays the records newer than its own epoch; if it finds a gap (the
    parent pruned records it never saw), it re-bootstraps from
    ``snapshot`` (``(path, epoch)`` of the newest snapshot file) and
    replays the rest.  ``expected_epoch`` is the parent corpus epoch the
    request was admitted against — the replica's result is only valid if
    it computes at exactly that epoch.
    """

    mode: str
    request: SearchRequest
    budget_seconds: float | None
    expected_epoch: int
    ops: tuple = ()
    snapshot: tuple | None = None
    #: Parent-side trace context: ``(trace_id, parent_span_id)`` of the
    #: live ``dispatch`` span, or ``None`` when untraced.  The replica
    #: roots its ``replica`` span tree at it and ships the records back in
    #: ``ComputeOutcome.spans`` so both sides stitch into one trace.
    trace: tuple | None = None
    #: A :class:`~repro.faults.injector.FaultSpec` armed at the
    #: ``replica.dispatch`` site in the *parent*, shipped along so the
    #: worker performs it (crash / delay / raise) deterministically while
    #: handling exactly this envelope.  ``None`` in production.
    fault: object | None = None


class PlatformReplica:
    """A per-worker-process copy of the platform, rebuilt from a spec."""

    def __init__(self, spec: PlatformSpec) -> None:
        self.spec = spec
        self.reloads = 0
        if spec.snapshot is not None:
            self._install_snapshot(spec.snapshot[0])
        else:
            self._install(self._build_platform(spec), spec.base_epoch)
        registrations = self.platform.corpus.registrations
        if registrations:
            self._warm_up(next(iter(registrations.values())).relation)

    def _build_platform(self, spec: PlatformSpec):
        from repro.core.catalog import Corpus
        from repro.core.platform import Mileena
        from repro.discovery.minhash import MinHasher
        from repro.persist.snapshot import build_corpus_stores

        minhasher = spec.minhasher if spec.minhasher is not None else MinHasher()
        discovery, sketches = build_corpus_stores(spec.index, minhasher)
        corpus = Corpus(discovery=discovery, sketches=sketches)
        kwargs = {}
        if spec.proxy is not None:
            kwargs["proxy"] = spec.proxy
        if spec.builder is not None:
            kwargs["builder"] = spec.builder
        platform = Mileena(corpus=corpus, discovery_top_k=spec.discovery_top_k, **kwargs)
        for registration in spec.registrations:
            corpus.add(registration)
        return platform

    def _install(self, platform, parent_epoch: int) -> None:
        """Adopt ``platform`` as this replica's state (bootstrap or reload)."""
        from repro.core.service import MileenaAutoMLService
        from repro.serving.cache import CachingProxy

        if self.spec.cache_proxy_scores and not isinstance(platform.proxy, CachingProxy):
            platform.proxy = CachingProxy(platform.proxy)
        self.platform = platform
        self.service = MileenaAutoMLService(
            platform=platform,
            search_fraction=self.spec.search_fraction,
            automl_splits=self.spec.automl_splits,
        )
        #: The parent corpus epoch this replica's state corresponds to.
        self.parent_epoch = parent_epoch

    def _install_snapshot(self, path: str) -> None:
        """(Re)build the platform from the on-disk snapshot file.

        A restored corpus carries the parent's epoch counter, so
        ``parent_epoch`` continues from whatever the file holds — which
        may be newer than the ref that pointed here (snapshot files are
        atomically replaced); replay simply skips the already-covered
        records.
        """
        from repro.core.platform import Mileena

        platform = Mileena.load(path)
        self._install(platform, platform.corpus.epoch)

    def _warm_up(self, relation) -> None:
        """Prime the lazily built engine structures (packed signature
        matrices, corpus IDF, weighted norms) so the first real request
        does not pay their construction cost."""
        discovery = self.platform.corpus.discovery
        try:
            discovery.join_candidates(relation, top_k=1)
            discovery.union_candidates(relation, top_k=1)
        except Exception:  # noqa: BLE001 - warm-up must never fail bootstrap
            pass

    def _replay(self, envelope: RequestEnvelope) -> bool:
        """Apply the envelope's log records newer than this replica's state.

        Records are 1:1 with parent epoch bumps, so each applied record
        must continue ``parent_epoch`` exactly; returns False on a gap —
        the parent pruned records this replica never applied (it was
        bootstrapped before they were dropped), which is the signal to
        re-bootstrap from the newest snapshot.
        """
        corpus = self.platform.corpus
        for epoch, op, payload in envelope.ops:
            if epoch <= self.parent_epoch:
                continue
            if epoch != self.parent_epoch + 1:
                return False
            if op == "add":
                corpus.add(payload)
            elif op == "add_many":
                corpus.add_many(list(payload))
            else:
                corpus.remove(payload)
            self.parent_epoch = epoch
        return self.parent_epoch >= envelope.expected_epoch

    def execute(self, envelope: RequestEnvelope) -> ComputeOutcome:
        """Run one envelope, collecting replica-side spans when traced.

        The ``replica`` root span (and its ``replica.replay`` /
        ``replica.bootstrap`` / ``replica.compute`` children, plus
        whatever the platform emits beneath them) is parented at the
        envelope's shipped ``dispatch`` span id; the records ride back on
        the outcome for the parent to stitch in.
        """
        remote = RemoteTrace(envelope.trace, "replica", worker=os.getpid())
        with remote:
            outcome = self._execute(envelope, remote)
        return replace(outcome, spans=remote.records)

    def _execute(self, envelope: RequestEnvelope, remote: RemoteTrace) -> ComputeOutcome:
        pid = os.getpid()
        if envelope.fault is not None:
            # Parent-coordinated chaos: crash (os._exit), stall, or raise
            # exactly where a real worker failure would surface.
            envelope.fault.perform()
        reloaded = False
        with span("replica.replay") as replay:
            caught_up = self._replay(envelope)
            replay.annotate(epoch=self.parent_epoch)
        if not caught_up:
            snapshot = envelope.snapshot
            if snapshot is not None and snapshot[1] > self.parent_epoch:
                # The missing records are covered by a newer on-disk
                # snapshot: warm-start from it and replay the rest.
                with span("replica.bootstrap") as bootstrap:
                    self._install_snapshot(snapshot[0])
                    bootstrap.annotate(epoch=self.parent_epoch)
                self.reloads += 1
                reloaded = True
                remote.annotate(reloaded=True)
                with span("replica.replay") as replay:
                    self._replay(envelope)
                    replay.annotate(epoch=self.parent_epoch)
        if self.parent_epoch != envelope.expected_epoch:
            # This replica ran ahead (a newer envelope's log was replayed
            # first) or is unrecoverably behind the pruned log; either way
            # its corpus no longer matches the epoch this request was
            # admitted against, and the parent must recompute.
            remote.annotate(stale=True)
            return ComputeOutcome(
                result=None,
                epoch=self.parent_epoch,
                stale=True,
                worker=pid,
                reloaded=reloaded,
            )
        with span("replica.compute"):
            if envelope.mode == "automl":
                result = self.service.run(
                    envelope.request, time_budget_seconds=envelope.budget_seconds
                )
            else:
                result = self.platform.search(envelope.request)
        return ComputeOutcome(
            result=result, epoch=self.parent_epoch, worker=pid, reloaded=reloaded
        )


_REPLICA: PlatformReplica | None = None


def _bootstrap_replica(spec: PlatformSpec) -> None:
    global _REPLICA
    _REPLICA = PlatformReplica(spec)


def _replica_ready(_: int) -> int:
    """The worker's pid when its replica is up, 0 otherwise.

    The pid doubles as the replica's identity for mutation-log
    acknowledgement tracking in the parent (see
    ``ProcessPoolBackend._note_outcome``).
    """
    return os.getpid() if _REPLICA is not None else 0


def _execute_envelope(envelope: RequestEnvelope) -> ComputeOutcome:
    if _REPLICA is None:  # pragma: no cover - initializer always runs first
        raise BackendError("worker process has no platform replica")
    return _REPLICA.execute(envelope)


def platform_spec(gateway) -> PlatformSpec:
    """Snapshot the gateway's platform into a picklable worker spec.

    Everything captured here must pickle (the ``spawn`` start method pickles
    the spec outright; ``fork`` inherits it, but envelopes and results are
    always pickled).  Custom clocks and monkeypatched platform stubs are
    deliberately not captured — use the thread backend for those.
    """
    from repro.persist.snapshot import capture_engine_config
    from repro.serving.cache import CachingProxy

    platform = gateway.platform
    discovery = platform.corpus.discovery
    proxy = platform.proxy
    if isinstance(proxy, CachingProxy):
        proxy = proxy.inner
    base_epoch, registrations = platform.corpus.registration_snapshot()
    return PlatformSpec(
        index=capture_engine_config(discovery),
        discovery_top_k=platform.discovery_top_k,
        search_fraction=gateway.service.search_fraction,
        automl_splits=gateway.service.automl_splits,
        base_epoch=base_epoch,
        registrations=tuple(registrations.values()),
        proxy=proxy,
        builder=platform.builder,
        minhasher=getattr(discovery, "minhasher", None),
        cache_proxy_scores=gateway.config.cache_proxy_scores,
    )


class ProcessPoolBackend:
    """Multi-core execution: platform replicas in worker processes.

    Parent threads keep running the shared serve pipeline (admission,
    cache, coalescing, deadlines); only the platform computation crosses
    the process boundary.  The parent subscribes to the corpus's mutation
    journal, so every envelope carries the exact op sequence (one record
    per epoch bump) a replica needs to reach the request's epoch.

    The log is **bounded** two ways:

    * every outcome acknowledges the epoch its replica reached; once all
      worker pids have acknowledged an entry it can never be needed again
      and is dropped before the next envelope is pickled;
    * with durable state configured (``GatewayConfig.snapshot_dir``), the
      snapshot manager's cadence re-bases the log wholesale — entries at
      or below the newest snapshot's epoch are dropped, and a replica that
      missed them warm-starts from the snapshot file instead (its
      ``ComputeOutcome.reloaded`` flag feeds ``persist.replica_reloads``).
      Under sustained churn the envelope log therefore never exceeds the
      snapshot cadence.
    """

    name = PROCESS

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        self._gateway = None
        self._pool: ProcessPoolExecutor | None = None
        self._orchestrator: ThreadPoolExecutor | None = None
        self._log: list[tuple[int, str, object]] = []
        self._synced_epoch = 0
        # Epoch every replica is guaranteed to be able to reach without
        # the entries below it: the max of the bootstrap base, the newest
        # on-disk snapshot, and the all-pids acknowledgement floor.
        self._floor = 0
        self._workers = 0
        self._acked: dict[int, int] = {}
        self._snapshot_ref: tuple | None = None
        # Written by the snapshot manager's listener (inside the corpus
        # lock) and consumed under _log_lock in _sync_ops: a plain
        # attribute hand-off, so the corpus-lock → log-lock order is never
        # inverted.
        self._pending_snapshot: tuple | None = None
        self._log_lock = threading.Lock()
        # Supervision state: the bootstrap spec is kept so a broken pool
        # (dead worker) can be respawned; the generation counter makes
        # restarts idempotent across racing orchestrator threads (only the
        # thread that saw the still-current generation rebuilds — the rest
        # just redispatch onto the fresh pool).
        self._spec: PlatformSpec | None = None
        self._pool_generation = 0
        self._restart_lock = threading.Lock()

    def start(self, gateway) -> None:
        self._gateway = gateway
        corpus = gateway.platform.corpus
        # Journal first, snapshot second: anything that mutates between
        # the two lands in the log with an epoch the bootstrap state
        # already covers, and the floor drops it before the first envelope.
        self._synced_epoch = corpus.subscribe(self._observe)
        manager = getattr(gateway, "snapshots", None)
        spec = platform_spec(gateway)
        if manager is not None:
            # Bootstrap replicas from the durable snapshot instead of
            # pickling every registration into the spec: refresh the file
            # to the current corpus state and ship only its path.
            path = manager.snapshot()
            self._pending_snapshot = (str(path), manager.snapshot_epoch)
            spec = replace(
                spec,
                registrations=(),
                base_epoch=manager.snapshot_epoch,
                snapshot=(str(path), manager.snapshot_epoch),
            )
            manager.add_listener(self._on_snapshot)
        with self._log_lock:
            self._floor = spec.base_epoch
        self._workers = self.config.process_workers or self.config.max_workers
        self._spec = spec
        # The process pool is created (and warmed) before any orchestration
        # thread exists, so fork-started workers never inherit a mid-request
        # parent thread.
        self._pool = self._spawn_pool(spec)
        self._orchestrator = ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="gateway-orchestrator",
        )

    # -- mutation journal --------------------------------------------------------
    def _observe(self, epoch: int, op: str, payload: object) -> None:
        """Corpus journal feed (runs inside the corpus lock)."""
        with self._log_lock:
            self._log.append((epoch, op, payload))
            self._synced_epoch = epoch
            self._gateway.metrics.set_gauge(
                f"gateway.backend.{self.name}.log_length", len(self._log)
            )

    def _on_snapshot(self, path, epoch: int) -> None:
        """Snapshot-manager listener (runs inside the corpus lock)."""
        self._pending_snapshot = (str(path), epoch)

    # -- supervision -------------------------------------------------------------
    def _spawn_pool(self, spec: PlatformSpec) -> ProcessPoolExecutor:
        """Build and warm a replica pool from ``spec``."""
        workers = self._workers
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_bootstrap_replica,
            initargs=(spec,),
        )
        pids = list(pool.map(_replica_ready, range(workers)))
        if not all(pids):
            pool.shutdown(wait=False)
            raise BackendError("process backend failed to bootstrap its replicas")
        with self._log_lock:
            for pid in pids:
                # Every worker bootstrapped at (at least) the base state.
                self._acked.setdefault(pid, spec.base_epoch)
        return pool

    def _ensure_pool(self, generation: int) -> None:
        """Replace a broken pool; idempotent across racing dispatchers.

        ``generation`` is the pool generation the caller dispatched
        against — when another thread already swapped the pool, there is
        nothing to do.  The replacement pool warm-starts from the newest
        on-disk snapshot when one exists (replicas come back at its epoch
        and replay only the envelope tail) and otherwise re-captures the
        live platform, so recovered workers are result identical to the
        crashed ones.
        """
        with self._restart_lock:
            if self._pool_generation != generation:
                return
            gateway = self._gateway
            with span("replica.restart") as restart:
                old_pool = self._pool
                with self._log_lock:
                    pending = self._pending_snapshot
                    if pending is not None and (
                        self._snapshot_ref is None or pending[1] > self._snapshot_ref[1]
                    ):
                        self._snapshot_ref = pending
                    snapshot = self._snapshot_ref
                    # Dead workers never acknowledge again; their stale
                    # entries would pin the log floor forever.
                    self._acked = {}
                if snapshot is not None:
                    spec = replace(
                        self._spec,
                        registrations=(),
                        base_epoch=snapshot[1],
                        snapshot=snapshot,
                    )
                else:
                    spec = platform_spec(gateway)
                self._pool = self._spawn_pool(spec)
                with self._log_lock:
                    self._floor = max(self._floor, spec.base_epoch)
                self._pool_generation += 1
                restart.annotate(
                    generation=self._pool_generation, epoch=spec.base_epoch
                )
            gateway.metrics.increment("faults.replica_restarts")
            if old_pool is not None:
                old_pool.shutdown(wait=False)

    def submit(
        self, request_id: int, request: SearchRequest, timer: BudgetTimer
    ) -> Future:
        submitted_at = self._gateway.clock.now()
        self._gateway.metrics.adjust_gauge(f"gateway.backend.{self.name}.queue_depth", 1)
        return self._orchestrator.submit(
            self._run, request_id, request, timer, submitted_at
        )

    def _run(
        self,
        request_id: int,
        request: SearchRequest,
        timer: BudgetTimer,
        submitted_at: float,
    ) -> GatewayResponse:
        gateway = self._gateway
        gateway.metrics.observe(
            f"gateway.backend.{self.name}.dispatch_seconds",
            gateway.clock.now() - submitted_at,
        )
        try:
            return gateway._serve(request_id, request, timer, self._compute)
        finally:
            gateway.metrics.adjust_gauge(f"gateway.backend.{self.name}.queue_depth", -1)

    def _sync_ops(self) -> tuple[tuple, int, tuple | None]:
        """Prune and snapshot the mutation log; return (log, epoch, snapshot).

        The journal observer keeps the log current, so the only work here
        is advancing the floor — adopting a newly published snapshot and
        folding in the acknowledgement floor (sound only once every worker
        pid is known: all replicas bootstrap at the base state, and a pid
        is discovered at the latest with its first acknowledgement) — and
        dropping the entries below it before they get pickled.
        """
        with self._log_lock:
            pending = self._pending_snapshot
            if pending is not None and (
                self._snapshot_ref is None or pending[1] > self._snapshot_ref[1]
            ):
                self._snapshot_ref = pending
                self._floor = max(self._floor, pending[1])
            if self._acked and len(self._acked) >= self._workers:
                self._floor = max(self._floor, min(self._acked.values()))
            if self._log and self._log[0][0] <= self._floor:
                floor = self._floor
                self._log = [record for record in self._log if record[0] > floor]
                self._gateway.metrics.set_gauge(
                    f"gateway.backend.{self.name}.log_length", len(self._log)
                )
            return tuple(self._log), self._synced_epoch, self._snapshot_ref

    def _note_outcome(self, outcome: ComputeOutcome) -> None:
        """Record a replica acknowledgement (and any snapshot reload)."""
        if outcome.reloaded:
            self._gateway.metrics.increment("persist.replica_reloads")
        if outcome.worker is None:
            return
        with self._log_lock:
            previous = self._acked.get(outcome.worker)
            if previous is None or outcome.epoch > previous:
                self._acked[outcome.worker] = outcome.epoch

    def _compute(self, request: SearchRequest, remaining: float | None) -> ComputeOutcome:
        """Supervised dispatch: respawn a broken pool and redispatch.

        A worker death (SIGKILL, ``os._exit``, OOM) surfaces as
        :class:`BrokenProcessPool`; the in-flight envelope is not lost —
        the pool is respawned (see :meth:`_ensure_pool`) and the envelope
        re-dispatched up to ``REDISPATCH_ATTEMPTS`` times.
        Computes are deterministic and side-effect free in the worker, so
        re-dispatch is always safe.  With redispatch exhausted (or the
        respawn itself failing) the parent computes locally — same answer,
        GIL-bound speed — rather than failing the request.
        """
        gateway = self._gateway
        for attempt in range(REDISPATCH_ATTEMPTS + 1):
            generation = self._pool_generation
            try:
                return self._dispatch_once(request, remaining)
            except BrokenProcessPool:
                try:
                    self._ensure_pool(generation)
                except Exception:  # noqa: BLE001 - respawn failed; fall back
                    break
                if attempt < REDISPATCH_ATTEMPTS:
                    gateway.metrics.increment("faults.redispatches")
        gateway.metrics.increment("faults.local_fallbacks")
        return gateway._compute_local(request, remaining)

    def _dispatch_once(
        self, request: SearchRequest, remaining: float | None
    ) -> ComputeOutcome:
        gateway = self._gateway
        ops, expected_epoch, snapshot = self._sync_ops()
        # Cross-process trace propagation: the caller is the gateway's
        # ``dispatch`` span (this method runs inside it on the
        # orchestrator thread), so its ids root the replica's span tree.
        parent = current_span()
        trace_ref = (
            (parent.trace.trace_id, parent.span_id) if parent is not None else None
        )
        envelope = RequestEnvelope(
            mode=gateway.mode,
            request=replace(request, time_budget_seconds=remaining),
            budget_seconds=remaining,
            expected_epoch=expected_epoch,
            ops=ops,
            snapshot=snapshot,
            trace=trace_ref,
            fault=pending_fault("replica.dispatch"),
        )
        gateway.metrics.adjust_gauge(f"gateway.backend.{self.name}.inflight_computes", 1)
        started = gateway.clock.now()
        try:
            outcome = self._pool.submit(_execute_envelope, envelope).result()
        finally:
            gateway.metrics.adjust_gauge(
                f"gateway.backend.{self.name}.inflight_computes", -1
            )
            gateway.metrics.observe(
                f"gateway.backend.{self.name}.compute_seconds",
                gateway.clock.now() - started,
            )
        self._note_outcome(outcome)
        if outcome.spans:
            # Stitch the replica-side spans into the live parent trace
            # (even for a stale outcome — the replay/bootstrap timeline is
            # exactly what explains the stale fallback's latency).
            attach_records(outcome.spans)
        if outcome.stale:
            # The replica could not reach this envelope's epoch; recompute
            # in-process so the caller still gets a correct answer.
            gateway.metrics.increment(f"gateway.backend.{self.name}.stale_replicas")
            return gateway._compute_local(request, remaining)
        return outcome

    def shutdown(self, wait: bool = True) -> None:
        if self._gateway is not None:
            corpus = getattr(self._gateway.platform, "corpus", None)
            if corpus is not None and hasattr(corpus, "unsubscribe"):
                corpus.unsubscribe(self._observe)
            manager = getattr(self._gateway, "snapshots", None)
            if manager is not None:
                manager.remove_listener(self._on_snapshot)
        if self._orchestrator is not None:
            self._orchestrator.shutdown(wait=wait)
        if self._pool is not None:
            self._pool.shutdown(wait=wait)


BACKENDS = {
    THREAD: ThreadBackend,
    PROCESS: ProcessPoolBackend,
}


def resolve_backend(choice, config: GatewayConfig):
    """An :class:`ExecutionBackend` instance from a name or an instance."""
    if isinstance(choice, str):
        try:
            factory = BACKENDS[choice]
        except KeyError:
            raise BackendError(
                f"unknown execution backend {choice!r}; "
                f"expected one of {sorted(BACKENDS)}"
            ) from None
        return factory(config)
    return choice
