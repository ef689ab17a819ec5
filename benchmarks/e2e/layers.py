"""Outside-in tracing of the layers under ``src/repro/``.

The benchmark records spans from its own files: :func:`install` wraps the
public entry points of each layer (methods on the public classes, and
module-level functions wherever a ``repro`` module binds them) and
:func:`restore` puts every original back.  Nothing under ``src/`` knows it
is being traced.

Three wrapper kinds keep the overhead proportional to what they measure:

* a **span** wrapper (layer boundaries, up to a thousand per request)
  records name, start, end and the span that caused it;
* a **tally** wrapper (the ~28k semi-ring ``*``/``+`` per request, metric
  bookkeeping, fingerprints) adds one call count and the outermost call's
  time to the *enclosing* span — never one span per call;
* a **count** wrapper (``expand``, ~55k nested calls per request) only
  counts.

Spans stay in memory; :func:`write_spans` dumps them when a workload ends.
Worker processes forked while the wrappers are installed inherit them, so
every wrapper passes straight through in any process but the recorder's.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
import weakref
from contextlib import contextmanager

_clock = time.perf_counter


class Span:
    """One recorded interval: who caused it and what it tallied."""

    __slots__ = ("id", "name", "start", "end", "parent", "tallies")

    def __init__(self, span_id: int, name: str, parent: "Span | None") -> None:
        self.id = span_id
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.tallies: dict[str, list] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def add(self, name: str, count: int = 1, seconds: float = 0.0) -> None:
        entry = self.tallies.get(name)
        if entry is None:
            entry = self.tallies[name] = [0, 0.0]
        entry[0] += count
        entry[1] += seconds

    def request(self) -> int | None:
        """Id of the root span (the client-side request or mutation)."""
        span = self
        while span.parent is not None:
            span = span.parent
        return span.id

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent.id if self.parent is not None else None,
            "request": self.request(),
            "tallies": {k: [c, s] for k, (c, s) in self.tallies.items()},
        }


class _ThreadState:
    """Per-thread cursor: innermost open span, tally nesting, write marker."""

    __slots__ = ("top", "open_groups", "orphans", "writing")

    def __init__(self) -> None:
        self.top: Span | None = None
        self.open_groups: set[str] = set()
        self.orphans = Span(-1, "thread", None)
        self.writing = False


class _OpenSpan:
    """Context manager behind :meth:`Recorder.span` (a class: it is on the hot path)."""

    __slots__ = ("recorder", "name", "parent", "root_key", "span", "state", "previous")

    def __init__(self, recorder, name, parent, root_key) -> None:
        self.recorder = recorder
        self.name = name
        self.parent = parent
        self.root_key = root_key

    def __enter__(self) -> Span:
        recorder = self.recorder
        state = self.state = recorder.state()
        previous = self.previous = state.top
        span = self.span = Span(
            next(recorder._ids), self.name, previous if previous is not None else self.parent
        )
        recorder.spans.append(span)
        if self.root_key is not None:
            recorder.roots[self.root_key] = span
        state.top = span
        span.start = _clock()
        return span

    def __exit__(self, *exc_info) -> None:
        self.span.end = _clock()
        self.state.top = self.previous
        if self.root_key is not None:
            self.recorder.roots.pop(self.root_key, None)


class Recorder:
    """In-memory span store shared by every wrapper of one traced pass."""

    def __init__(self) -> None:
        #: True makes every wrapper pass straight through; set for good in a
        #: forked worker process (see :func:`install`).
        self.off = False
        self.spans: list[Span] = []
        #: client-side request span by ``id(request.train)``: lets the span a
        #: gateway worker thread opens find the request that caused it.
        self.roots: dict[int, Span] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        #: calls seen by :func:`_counted` wrappers, by name
        self.counters: dict[str, itertools.count] = {}
        self._read: dict[str, int] = {}

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    def span(self, name: str, parent: Span | None = None) -> "_OpenSpan":
        """Open a span on this thread (``parent`` links across threads)."""
        return _OpenSpan(self, name, parent, None)

    def request(self, name: str, train) -> "_OpenSpan":
        """A client-side root span that worker-thread spans can link to."""
        return _OpenSpan(self, name, None, id(train))

    @contextmanager
    def writing(self, name: str):
        """A client-side root span that marks this thread as on the write path."""
        state = self.state()
        state.writing = True
        try:
            with self.span(name):
                yield
        finally:
            state.writing = False

    # -- read-out --------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def seconds(self, name: str) -> float:
        return sum(span.duration for span in self.spans if span.name == name)

    def counted(self, name: str) -> int:
        """Calls a :func:`_counted` wrapper saw; read after :func:`restore`.

        A ``count`` only reveals its value by being advanced, so the first
        read is kept and the counter must not be in use any more.
        """
        if name not in self._read:
            self._read[name] = next(self.counters[name])
        return self._read[name]

    def tally(self, *names: str, under: str | None = None) -> tuple[int, float]:
        """(calls, seconds) for ``names``, summed over every span and thread.

        ``under`` keeps only what was tallied directly on spans of that name
        or outside any span (a gateway worker thread before it enters one).
        """
        count, seconds = 0, 0.0
        spans = self.spans if under is None else self.named(under)
        for holder in itertools.chain(spans, (t.orphans for t in self._threads)):
            for name in names:
                entry = holder.tallies.get(name)
                if entry is not None:
                    count += entry[0]
                    seconds += entry[1]
        return count, seconds


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the part child spans cover.

    Children may overlap one another (coalesced or concurrent work under one
    parent) and may stick out of the parent (a cross-thread child that ends
    late), so the covered part is the union of the child intervals clipped
    to the parent's own interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent.id, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.duration - covered
    return result


def write_spans(recorder: Recorder, path) -> int:
    """Dump every span as one JSON line; returns how many were written."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in recorder.spans:
            handle.write(json.dumps(span.as_dict()) + "\n")
    return len(recorder.spans)


# -- wrappers --------------------------------------------------------------------
def _spanned(recorder: Recorder, name: str, function, link=None, before=None, note=None):
    """Wrap ``function`` in a span.

    ``link(args, kwargs)`` names a parent from another thread when this
    thread has no open span; ``before(args, kwargs)`` runs ahead of the call
    and its value reaches ``note(span, args, kwargs, result, value)``, which
    runs after the span closed and may add counts to it.
    """

    def wrapper(*args, **kwargs):
        if recorder.off:
            return function(*args, **kwargs)
        parent = link(args, kwargs) if link is not None else None
        value = before(args, kwargs) if before is not None else None
        with recorder.span(name, parent) as span:
            result = function(*args, **kwargs)
        if note is not None:
            note(span, args, kwargs, result, value)
        return result

    wrapper.__wrapped__ = function
    return wrapper


def _tallied(recorder: Recorder, name: str, group: str, function, read_name=None):
    """Wrap ``function`` in a call count plus outermost-call time.

    Calls nested inside another call of the same ``group`` are counted but
    not timed again.  ``read_name`` replaces ``name`` when the thread is not
    inside :meth:`Recorder.writing`.
    """
    local = recorder._local

    def wrapper(*args, **kwargs):
        if recorder.off:
            return function(*args, **kwargs)
        try:
            state = local.state
        except AttributeError:
            state = recorder.state()
        holder = state.top or state.orphans
        label = name if read_name is None or state.writing else read_name
        if group in state.open_groups:
            holder.add(label)
            return function(*args, **kwargs)
        state.open_groups.add(group)
        start = _clock()
        try:
            return function(*args, **kwargs)
        finally:
            holder.add(label, 1, _clock() - start)
            state.open_groups.discard(group)

    wrapper.__wrapped__ = function
    return wrapper


def _counted(recorder: Recorder, name: str, function):
    """Wrap ``function`` in a bare call count (for calls too frequent to time).

    ``next`` on an ``itertools.count`` is atomic, so concurrent client
    threads never lose an increment.
    """
    counter = recorder.counters.setdefault(name, itertools.count())

    def wrapper(*args, **kwargs):
        if not recorder.off:
            next(counter)
        return function(*args, **kwargs)

    wrapper.__wrapped__ = function
    return wrapper


def _bindings(function):
    """Every ``(module, attribute)`` under ``repro`` bound to ``function``."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.split(".")[0] == "repro":
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                found.append((module, attribute))
    return found


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every layer entry point; returns the undo list for :func:`restore`."""
    from repro.core.platform import Mileena
    from repro.core.proxy import AugmentationState, SketchProxyModel
    from repro.core.requester import Requester
    from repro.core.search import GreedySketchSearch
    from repro.discovery.profiles import profile_relation
    from repro.obs.trace import Span as ProgramSpan
    from repro.persist.manager import SnapshotManager
    from repro.persist.wal import MutationWAL, apply_records
    from repro.privacy.fpm import FactorizedPrivacyMechanism
    from repro.semiring.covariance import CovarianceElement
    from repro.serving.cache import CachingProxy
    from repro.serving.fingerprint import relation_fingerprint, request_fingerprint
    from repro.serving.metrics import MetricsRegistry
    from repro.serving.sharded import ShardedDiscoveryIndex, ShardedSketchStore
    from repro.sketches.builder import SketchBuilder
    from repro.sketches.sketch import vertical_augment

    undo: list[tuple[object, str, object]] = []
    # Fork-started pool workers inherit the wrappers but not the recorder's
    # threads or file: they pass through for the rest of their lives.  (A weak
    # reference: fork hooks cannot be removed and must not pin the spans.)
    alive = weakref.ref(recorder)

    def switch_off_in_child() -> None:
        inherited = alive()
        if inherited is not None:
            inherited.off = True

    os.register_at_fork(after_in_child=switch_off_in_child)

    def patch(owner, attribute: str, make) -> None:
        raw = vars(owner)[attribute]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        undo.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)

    def spanned(owner, attribute, name, **hooks) -> None:
        patch(owner, attribute, lambda fn: _spanned(recorder, name, fn, **hooks))

    def tallied(owner, attribute, name, group=None, read_name=None) -> None:
        patch(
            owner,
            attribute,
            lambda fn: _tallied(recorder, name, group or name, fn, read_name),
        )

    def everywhere(function, make) -> None:
        wrapped = make(function)
        for module, attribute in _bindings(function):
            undo.append((module, attribute, function))
            setattr(module, attribute, wrapped)

    # serving: the gateway's own work is the request span's self time; the
    # fingerprints are the one piece of it with a public entry point.
    for function in (request_fingerprint, relation_fingerprint):
        everywhere(
            function,
            lambda fn: _tallied(recorder, "serving.fingerprint", "serving.fingerprint", fn),
        )

    # core
    def search_root(args, kwargs):
        request = args[1] if len(args) > 1 else kwargs["request"]
        return recorder.roots.get(id(request.train))

    def note_search(span, args, kwargs, result, _):
        span.add("core.candidates", result.candidates_considered)

    spanned(Mileena, "search", "core.search", link=search_root, note=note_search)
    spanned(GreedySketchSearch, "run", "core.greedy")
    spanned(AugmentationState, "train_element", "core.state_element")
    spanned(AugmentationState, "test_element", "core.state_element")
    tallied(AugmentationState, "with_join", "core.with_join")
    tallied(AugmentationState, "with_union", "core.with_union")
    spanned(SketchProxyModel, "evaluate", "core.proxy_evaluate")
    tallied(CachingProxy, "evaluate", "core.proxy_lookup")
    spanned(Requester, "build_sketches", "core.requester_sketch")

    # ml
    spanned(Requester, "train_final_model", "ml.final_model")

    # sketches
    def note_join(span, args, kwargs, result, _):
        span.add("sketches.keys_joined", len(result))

    everywhere(
        vertical_augment,
        lambda fn: _spanned(recorder, "sketches.vertical_augment", fn, note=note_join),
    )
    tallied(ShardedSketchStore, "get", "sketches.store_get")

    def note_build(span, args, kwargs, result, _):
        budget = kwargs.get("budget", args[4] if len(args) > 4 else None)
        if budget is not None:
            writing = recorder.state().writing
            span.add("privacy.privatize" if writing else "privacy.privatize_read")

    spanned(SketchBuilder, "build", "sketches.build", note=note_build)

    # semiring
    tallied(CovarianceElement, "__mul__", "semiring.mul", "semiring")
    tallied(CovarianceElement, "__add__", "semiring.add", "semiring")
    # ~55k calls per cold request, nearly all from inside ``*`` and ``+``:
    # counted only, their time is part of the enclosing operation's.
    patch(CovarianceElement, "expand", lambda fn: _counted(recorder, "semiring.expand", fn))

    # discovery
    spanned(ShardedDiscoveryIndex, "join_candidates", "discovery.join")
    spanned(ShardedDiscoveryIndex, "union_candidates", "discovery.union")
    spanned(ShardedDiscoveryIndex, "register", "discovery.register")
    spanned(ShardedDiscoveryIndex, "unregister", "discovery.unregister")
    everywhere(
        profile_relation, lambda fn: _spanned(recorder, "discovery.profile", fn)
    )

    # privacy
    for attribute in ("privatize_keyed", "privatize_element"):
        tallied(
            FactorizedPrivacyMechanism,
            attribute,
            "privacy.fpm",
            read_name="privacy.fpm_read",
        )

    # persist
    def wal_size(args, kwargs):
        return os.path.getsize(args[0].path)

    def note_append(span, args, kwargs, result, size_before):
        span.add("persist.wal_bytes", os.path.getsize(args[0].path) - size_before)

    def note_replay(span, args, kwargs, result, _):
        span.add("persist.replayed", result)

    spanned(MutationWAL, "append", "persist.wal_append", before=wal_size, note=note_append)
    spanned(SnapshotManager, "snapshot", "persist.snapshot_save")
    spanned(Mileena, "load", "persist.load")
    everywhere(
        apply_records,
        lambda fn: _spanned(recorder, "persist.wal_replay", fn, note=note_replay),
    )

    # obs
    for attribute in ("increment", "observe", "set_gauge", "adjust_gauge"):
        tallied(MetricsRegistry, attribute, "obs.metric")
    tallied(ProgramSpan, "__enter__", "obs.span")
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    """Put back every attribute :func:`install` replaced, newest first."""
    for owner, attribute, raw in reversed(undo):
        setattr(owner, attribute, raw)


# -- derivation ------------------------------------------------------------------
def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def derive(recorder: Recorder, facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``facts`` carries what only the workload driver knows: ``requests``
    (gateway requests sent), ``request_seconds`` (their summed wall),
    ``compute_seconds`` (the part of it spent in ``Mileena.search`` — for
    the process backend, on the paired in-parent runs), ``cache_hits``,
    ``coalesced``, ``waited_seconds``, ``mutations``, ``lag_seconds`` and
    the ``untraced_p50_ms`` / ``traced_p50_ms`` pair; process-only and
    computed values (``dispatch_overhead_ms``, ``pickle_bytes``,
    ``worker_start_s``, ``sketch_pickle_bytes``) default to 0.

    Request-side times (``serving.*``, ``obs.*``) are per gateway request;
    compute-side times (``core.*`` onwards) are per executed search, and
    shares are of the summed ``Mileena.search`` wall; write-side times are
    per call.
    """
    ms = 1000.0
    requests = facts["requests"]
    searches = len(recorder.named("core.search"))
    search_seconds = recorder.seconds("core.search")
    own = self_times(recorder.spans)

    def span_ms(name: str, per: float) -> float:
        return _per(recorder.seconds(name) * ms, per)

    def call_ms(name: str) -> float:
        return span_ms(name, len(recorder.named(name)))

    def self_ms(name: str, per: float) -> float:
        return _per(sum(own[s.id] for s in recorder.named(name)) * ms, per)

    def count(*names: str) -> int:
        return recorder.tally(*names)[0]

    semiring = recorder.tally("semiring.mul", "semiring.add")
    fingerprint = recorder.tally("serving.fingerprint")
    metric_calls = recorder.tally("obs.metric")
    fpm = recorder.tally("privacy.fpm", "privacy.fpm_read")
    lookups = count("core.proxy_lookup")
    evaluations = len(recorder.named("core.proxy_evaluate"))
    private_builds = count("privacy.privatize")
    snapshots = recorder.named("persist.snapshot_save")
    loads = len(recorder.named("persist.load"))
    discovery_seconds = recorder.seconds("discovery.join") + recorder.seconds(
        "discovery.union"
    )
    request_self = facts["request_seconds"] - facts["compute_seconds"]
    # the part of the gateway's own time that a wrapped entry point explains
    attributed = recorder.tally("serving.fingerprint", "obs.metric", under="serving.request")[1]
    untraced = facts["untraced_p50_ms"]
    values = {
        "serving.request_self_ms": _per(request_self * ms, requests),
        "serving.fingerprint_ms": _per(fingerprint[1] * ms, requests),
        "serving.queue_wait_ms": _per(facts["waited_seconds"] * ms, requests),
        "serving.cache_hit_share": _per(facts["cache_hits"], requests),
        "serving.coalesced_share": _per(facts["coalesced"], requests),
        "serving.dispatch_overhead_ms": facts.get("dispatch_overhead_ms", 0.0),
        "serving.pickle_bytes_per_request": facts.get("pickle_bytes", 0.0),
        "serving.worker_start_s": facts.get("worker_start_s", 0.0),
        "core.search_ms": span_ms("core.search", searches),
        "core.greedy_share": _per(recorder.seconds("core.greedy"), search_seconds),
        "core.greedy_self_ms": self_ms("core.greedy", searches),
        "core.state_element_ms": span_ms("core.state_element", searches),
        "core.candidates_per_request": _per(count("core.candidates"), searches),
        "core.augment_evals_per_request": _per(
            count("core.with_join", "core.with_union"), searches
        ),
        "core.proxy_evaluate_ms": span_ms("core.proxy_evaluate", searches),
        "core.proxy_evaluate_calls": _per(evaluations, searches),
        "core.proxy_cache_hit_share": 1.0 - _per(evaluations, lookups) if lookups else 0.0,
        "core.requester_sketch_ms": span_ms("core.requester_sketch", searches),
        "sketches.vertical_augment_ms": span_ms("sketches.vertical_augment", searches),
        "sketches.vertical_augment_calls": _per(
            len(recorder.named("sketches.vertical_augment")), searches
        ),
        "sketches.keys_joined_per_request": _per(count("sketches.keys_joined"), searches),
        "sketches.store_get_calls": _per(count("sketches.store_get"), searches),
        "sketches.build_ms": call_ms("sketches.build"),
        "sketches.pickled_bytes_per_dataset": facts.get("sketch_pickle_bytes", 0.0),
        "semiring.mul_calls": _per(count("semiring.mul"), searches),
        "semiring.add_calls": _per(count("semiring.add"), searches),
        "semiring.expand_calls": _per(recorder.counted("semiring.expand"), searches),
        "semiring.ops_ms": _per(semiring[1] * ms, searches),
        "semiring.share": _per(semiring[1], search_seconds),
        "discovery.join_ms": span_ms("discovery.join", searches),
        "discovery.union_ms": span_ms("discovery.union", searches),
        "discovery.share": _per(discovery_seconds, search_seconds),
        "discovery.profile_ms": call_ms("discovery.profile"),
        "discovery.register_ms": call_ms("discovery.register"),
        "discovery.unregister_ms": call_ms("discovery.unregister"),
        "ml.final_model_ms": span_ms("ml.final_model", searches),
        "privacy.fpm_ms": _per(fpm[1] * ms, private_builds),
        "privacy.privatize_calls": private_builds,
        "privacy.privatize_calls_on_read_path": count(
            "privacy.privatize_read", "privacy.fpm_read"
        ),
        "persist.wal_append_ms": call_ms("persist.wal_append"),
        "persist.wal_bytes_per_mutation": _per(
            count("persist.wal_bytes"), len(recorder.named("persist.wal_append"))
        ),
        "persist.snapshot_save_ms": call_ms("persist.snapshot_save"),
        "persist.snapshot_stalls": len(snapshots),
        "persist.snapshot_stall_max_ms": max(
            (span.duration * ms for span in snapshots), default=0.0
        ),
        "persist.load_ms": call_ms("persist.load"),
        "persist.wal_replay_ms": span_ms("persist.wal_replay", loads),
        "persist.replay_records": _per(count("persist.replayed"), loads),
        "obs.metric_calls_per_request": _per(metric_calls[0], requests),
        "obs.spans_per_request": _per(count("obs.span"), requests),
        "bench.trace_overhead_share": _per(facts["traced_p50_ms"] - untraced, untraced),
        "bench.trace_coverage_share": 1.0
        - _per(request_self - attributed, facts["request_seconds"]),
        "bench.generator_lag_ms": _per(facts["lag_seconds"] * ms, requests),
    }
    return {name: float(value) for name, value in values.items()}
