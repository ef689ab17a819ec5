"""Trace propagation parity across the execution backends.

A sampled request must come back as ONE stitched trace whatever backend
ran it: parent-side spans (admission, cache_lookup, dispatch) plus the
compute spans — which for the process backend are collected in a worker
process, shipped back inside ``ComputeOutcome``, and re-attached to the
parent's live trace.  The replica's persistence spans (WAL replay,
snapshot bootstrap) must survive the same journey.
"""

import pytest

from repro.core import Mileena, SearchRequest
from repro.datasets import CorpusSpec, generate_corpus
from repro.serving import Gateway, GatewayConfig

BACKENDS = ("thread", "process")

_SPEC = CorpusSpec(num_datasets=12, requester_rows=90, provider_rows=90, seed=19)
_INITIAL = 8

#: Spans every backend must contribute from the gateway side of the trace.
PARENT_SIDE = {"request", "admission", "cache_lookup", "dispatch"}

#: Compute-phase spans the platform emits wherever the search actually runs.
COMPUTE_SIDE = {
    "compute.sketches",
    "discovery.join",
    "discovery.union",
    "discovery.shard_fanout",
    "score.greedy",
    "score.proxy",
    "score.final_model",
}


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(_SPEC)


@pytest.fixture(scope="module")
def request_for(corpus):
    return SearchRequest(
        train=corpus.train,
        test=corpus.test,
        target=corpus.target,
        max_augmentations=2,
    )


def fresh_platform(corpus, **kwargs):
    platform = Mileena.sharded(num_shards=2, **kwargs)
    for relation in corpus.providers[:_INITIAL]:
        platform.register_dataset(relation)
    return platform


def churn_step(platform, corpus, index):
    extra = corpus.providers[_INITIAL:]
    relation = extra[index % len(extra)]
    if relation.name in platform.corpus:
        platform.corpus.remove(relation.name)
    else:
        platform.register_dataset(relation)


def traced_config(**overrides):
    defaults = dict(max_workers=2, process_workers=1, trace_sample_rate=1.0)
    defaults.update(overrides)
    return GatewayConfig(**defaults)


def names_of(trace):
    return {record.name for record in trace.records}


def by_name(trace):
    return {record.name: record for record in trace.records}


@pytest.mark.parametrize("backend", BACKENDS)
def test_sampled_request_yields_one_stitched_trace(corpus, request_for, backend):
    with Gateway(
        fresh_platform(corpus), traced_config(backend=backend)
    ) as gateway:
        response = gateway.run_many([request_for])[0]
        assert response.ok, response.error
        [trace] = gateway.tracer.buffer.snapshot()

    names = names_of(trace)
    assert PARENT_SIDE <= names, names
    assert COMPUTE_SIDE <= names, names
    # Stitched: every record — wherever it was produced — carries the same
    # trace id, and the span tree is fully connected (no orphans).
    assert {record.trace_id for record in trace.records} == {trace.trace_id}
    ids = {record.span_id for record in trace.records}
    orphans = [
        record.name
        for record in trace.records
        if record.parent_id is not None and record.parent_id not in ids
    ]
    assert orphans == [], orphans

    records = by_name(trace)
    assert records["request"].attrs["status"] == "ok"
    assert records["cache_lookup"].attrs["outcome"] == "miss"
    assert records["admission"].parent_id == records["request"].span_id
    if backend == "process":
        # Replica-side spans shipped across the process boundary and
        # re-rooted under the parent's dispatch span.
        assert {"replica", "replica.replay", "replica.compute"} <= names
        assert records["replica"].parent_id == records["dispatch"].span_id
        assert records["replica.compute"].parent_id == records["replica"].span_id
        assert records["compute.sketches"].parent_id == records["replica.compute"].span_id
    else:
        assert records["compute"].parent_id == records["dispatch"].span_id
        assert records["compute.sketches"].parent_id == records["compute"].span_id


@pytest.mark.parametrize("backend", BACKENDS)
def test_cache_hit_trace_marks_outcome(corpus, request_for, backend):
    with Gateway(
        fresh_platform(corpus), traced_config(backend=backend)
    ) as gateway:
        assert gateway.run_many([request_for])[0].ok
        assert gateway.run_many([request_for])[0].cache_hit
        miss, hit = gateway.tracer.buffer.snapshot()
    assert by_name(miss)["cache_lookup"].attrs["outcome"] == "miss"
    assert by_name(hit)["cache_lookup"].attrs["outcome"] == "hit"
    assert COMPUTE_SIDE <= names_of(miss)
    assert not (COMPUTE_SIDE & names_of(hit))


def test_unsampled_requests_leave_no_traces(corpus, request_for):
    config = traced_config(backend="thread", trace_sample_rate=0.0)
    with Gateway(fresh_platform(corpus), config) as gateway:
        assert gateway.run_many([request_for])[0].ok
        assert len(gateway.tracer.buffer) == 0
    # The always-on counters still tick without retention.
    assert gateway.metrics.counter_value("trace.finished") == 1
    assert gateway.metrics.counter_value("trace.recorded") == 0


def test_replica_bootstrap_spans_survive_snapshot_reload(
    tmp_path, corpus, request_for
):
    """Churn past the snapshot cadence with no traffic, then request: the
    replica must warm-start from the snapshot file, and the trace must show
    it — ``replica.bootstrap`` stitched into the parent trace."""
    platform = fresh_platform(corpus)
    config = traced_config(
        backend="process",
        snapshot_dir=str(tmp_path),
        snapshot_every_mutations=3,
    )
    with Gateway(platform, config) as gateway:
        warm = gateway.run_many([request_for])[0]
        assert warm.ok, warm.error
        for index in range(9):
            churn_step(platform, corpus, index)
        after = gateway.run_many([request_for])[0]
        assert after.ok, after.error
        traces = gateway.tracer.buffer.snapshot()

    assert gateway.metrics.counter("persist.replica_reloads").value >= 1
    reloaded = [
        trace for trace in traces if "replica.bootstrap" in names_of(trace)
    ]
    assert reloaded, [sorted(names_of(trace)) for trace in traces]
    records = by_name(reloaded[-1])
    assert records["replica"].attrs.get("reloaded") is True
    assert records["replica.bootstrap"].parent_id == records["replica"].span_id
    assert records["replica"].parent_id == records["dispatch"].span_id
    # The bootstrap install restores the snapshot's epoch.
    assert "epoch" in records["replica.bootstrap"].attrs


def test_ops_report_renders_end_to_end(corpus, request_for):
    with Gateway(fresh_platform(corpus), traced_config(backend="thread")) as gateway:
        assert gateway.run_many([request_for])[0].ok
        report = gateway.ops_report()
        stats = gateway.stats()
    assert "== gateway ops report ==" in report
    assert "score.greedy" in report  # the slowest trace renders its tree
    assert "p95=" in report
    assert stats["traces"]["recorded"] == 1
    assert stats["backend"]["name"] == "thread"
    assert stats["pending"] == 0
