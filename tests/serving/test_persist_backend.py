"""Process-backend durability: snapshot bootstrap and bounded mutation logs.

The acceptance bar for the durable-state subsystem: a replica restored
from snapshot sections (at start, at respawn, or from the snapshot file
after a gap) plus the envelope tail returns byte-identical results to the
live platform, and the per-envelope mutation log stays bounded (≤ the snapshot
cadence with durability on; pruned to unacknowledged entries with it off)
under sustained register/unregister churn — the log can never again grow
without bound.
"""

import pickle

import pytest

from repro.core import Mileena, SearchRequest
from repro.datasets import CorpusSpec, generate_corpus
from repro.discovery.index import DiscoveryIndex
from repro.serving import Gateway, GatewayConfig
from repro.serving.backends import PlatformReplica, platform_spec
from repro.serving.sharded import ShardedDiscoveryIndex

_SPEC = CorpusSpec(num_datasets=14, requester_rows=110, provider_rows=110, seed=7)
_INITIAL = 8


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


def fresh_platform(corpus, snapshot_dir=None):
    platform = Mileena.sharded(num_shards=2)
    if snapshot_dir is not None:
        platform.attach_snapshots(snapshot_dir, every_mutations=64)
    for relation in corpus.providers[:_INITIAL]:
        platform.register_dataset(relation)
    return platform


def churn_step(platform, corpus, index):
    """One register-or-unregister mutation, deterministic per index."""
    extra = corpus.providers[_INITIAL:]
    if index % 3 == 2:
        victim = corpus.providers[index % _INITIAL].name
        if victim in platform.corpus:
            platform.corpus.remove(victim)
            return ("removed", victim)
    relation = extra[index % len(extra)]
    if relation.name in platform.corpus:
        platform.corpus.remove(relation.name)
        return ("removed", relation.name)
    platform.register_dataset(relation)
    return ("added", relation.name)


def result_identity(result):
    report = result.final_report
    return (
        tuple((c.kind, c.dataset, c.join_key) for c in result.plan.candidates),
        result.proxy_test_r2,
        report.model.model_.intercept,
        report.model.model_.coefficients.tobytes(),
    )


def test_snapshot_bootstrap_is_byte_identical(tmp_path, corpus, request_for):
    """Replicas restored from the live platform's snapshot sections must
    match the sequential oracle exactly — including DP-randomised sketches,
    which ride along verbatim and are never rebuilt — and starting the
    gateway writes no snapshot file."""
    oracle = fresh_platform(corpus)
    for index, relation in enumerate(corpus.providers[:3]):
        oracle.corpus.remove(relation.name)
        oracle.register_dataset(relation, epsilon=2.0)
    expected = result_identity(oracle.search(request_for))

    platform = fresh_platform(corpus, snapshot_dir=tmp_path)
    for relation in corpus.providers[:3]:
        platform.corpus.remove(relation.name)
        platform.register_dataset(relation, epsilon=2.0)
    # DP sketches are randomised per registration: force the oracle's onto
    # the gateway platform so both sides score identical sketches.
    for relation in corpus.providers[:3]:
        name = relation.name
        platform.corpus.registrations[name] = oracle.corpus.registrations[name]
        platform.corpus.sketches.add(oracle.corpus.sketches.get(name), replace=True)
    config = GatewayConfig(
        max_workers=2,
        process_workers=1,
        backend="process",
        snapshot_dir=str(tmp_path),
        snapshot_every_mutations=4,
    )
    with Gateway(platform, config) as gateway:
        # No start-time refresh: the replicas restored from captured
        # sections, not from a freshly written file.
        assert gateway.metrics.counter_value("persist.snapshots") == 0
        response = gateway.run_many([request_for])[0]
    assert response.ok, response.error
    assert result_identity(response.result) == expected
    # Served by the replica at the admitted epoch, not by parent fallback.
    assert gateway.metrics.counter("gateway.backend.process.stale_replicas").value == 0


def test_replica_replays_profiles_instead_of_reprofiling(
    corpus, request_for, monkeypatch
):
    """The one bootstrap path: a replica built from a pickled spec (what
    the ``spawn`` start method ships) replays the parent's discovery
    profiles without re-profiling a single relation, and searches
    bit-identically to the live platform — DP-randomised sketches
    included."""
    platform = fresh_platform(corpus)
    for relation in corpus.providers[:3]:
        platform.corpus.remove(relation.name)
        platform.register_dataset(relation, epsilon=2.0)
    expected = result_identity(platform.search(request_for))
    with Gateway(platform, GatewayConfig(max_workers=1)) as gateway:
        spec = pickle.loads(pickle.dumps(platform_spec(gateway)))

    registered = []

    def counting(register):
        def wrapped(index, relation):
            registered.append(relation.name)
            return register(index, relation)

        return wrapped

    for index_class in (DiscoveryIndex, ShardedDiscoveryIndex):
        monkeypatch.setattr(index_class, "register", counting(index_class.register))
    replica = PlatformReplica(spec)
    assert registered == []
    assert replica.parent_epoch == platform.corpus.epoch
    assert result_identity(replica.platform.search(request_for)) == expected


def test_envelope_log_bounded_by_cadence_under_churn(tmp_path, corpus, request_for):
    cadence = 4
    platform = fresh_platform(corpus)
    reference = fresh_platform(corpus)
    config = GatewayConfig(
        max_workers=2,
        process_workers=1,
        backend="process",
        snapshot_dir=str(tmp_path),
        snapshot_every_mutations=cadence,
    )
    with Gateway(platform, config) as gateway:
        backend = gateway.backend
        for index in range(18):
            op, name = churn_step(platform, corpus, index)
            churn_step(reference, corpus, index)
            # The raw log is re-based every `cadence` mutations by the
            # snapshot listener; _sync_ops prunes it before pickling.
            ops, _, _ = backend._sync_ops()
            assert len(ops) <= cadence, (index, len(ops))
            if index % 6 == 5:
                response = gateway.run_many([request_for])[0]
                assert response.ok, response.error
        final = gateway.run_many([request_for])[0]
    assert final.ok
    assert result_identity(final.result) == result_identity(
        reference.search(request_for)
    )
    assert gateway.metrics.counter("persist.snapshots").value >= 4


def test_replica_reloads_from_snapshot_after_pruned_churn(
    tmp_path, corpus, request_for
):
    """Churn (with no traffic) past the cadence prunes the log below the
    newest snapshot; the next request forces the replica to warm-start
    from the snapshot file — and still compute at the admitted epoch
    rather than punting back to the parent."""
    platform = fresh_platform(corpus)
    reference = fresh_platform(corpus)
    config = GatewayConfig(
        max_workers=2,
        process_workers=1,
        backend="process",
        snapshot_dir=str(tmp_path),
        snapshot_every_mutations=3,
    )
    with Gateway(platform, config) as gateway:
        warm = gateway.run_many([request_for])[0]
        assert warm.ok
        for index in range(9):
            churn_step(platform, corpus, index)
            churn_step(reference, corpus, index)
        after = gateway.run_many([request_for])[0]
    assert after.ok, after.error
    assert result_identity(after.result) == result_identity(
        reference.search(request_for)
    )
    assert gateway.metrics.counter("persist.replica_reloads").value >= 1
    assert gateway.metrics.counter("gateway.backend.process.stale_replicas").value == 0


def test_log_pruned_by_acknowledgements_without_snapshots(corpus, request_for):
    """Satellite: with durability off, entries every replica has applied
    are dropped before pickling, so steady traffic keeps the envelope log
    bounded under sustained churn (it used to grow monotonically)."""
    platform = fresh_platform(corpus)
    config = GatewayConfig(max_workers=2, process_workers=1, backend="process")
    observed: list[int] = []
    with Gateway(platform, config) as gateway:
        backend = gateway.backend
        for index in range(10):
            churn_step(platform, corpus, index)
            response = gateway.run_many([request_for])[0]
            assert response.ok, response.error
            ops, _, _ = backend._sync_ops()
            observed.append(len(ops))
    # Every request acknowledges the epoch it computed at, so the next
    # envelope carries at most the single not-yet-acked mutation (and the
    # post-request sync always comes back empty).
    assert max(observed) == 0, observed
    with backend._log_lock:
        assert len(backend._log) == 0
