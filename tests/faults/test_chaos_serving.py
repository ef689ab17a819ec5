"""Deterministic chaos scenarios against the serving stack.

Each scenario computes a no-fault baseline, injects one seeded fault, and
asserts the gateway recovers with a *bit-identical* answer — plus the
telemetry (counters, spans) an operator would use to see the recovery.
"""

from dataclasses import replace

from chaos_helpers import INITIAL, fresh_platform, result_identity

from repro.core import Mileena
from repro.faults import FaultPlan, armed
from repro.privacy.fpm import FactorizedPrivacyMechanism
from repro.serving import Gateway, GatewayConfig


def names_of(trace):
    return {record.name for record in trace.records}


def test_worker_killed_mid_request_recovers_bit_identical(
    corpus, request_for, chaos_seed
):
    """A replica killed while holding the request: the supervisor respawns
    the pool, re-dispatches the envelope, and the caller never notices —
    the answer matches the no-fault run byte for byte."""
    expected = result_identity(fresh_platform(corpus).search(request_for))
    platform = fresh_platform(corpus)
    config = GatewayConfig(
        max_workers=2,
        process_workers=1,
        backend="process",
        trace_sample_rate=1.0,
    )
    plan = FaultPlan(seed=chaos_seed).crash("replica.dispatch", on_hit=1)
    with Gateway(platform, config) as gateway:
        with armed(plan) as injector:
            response = gateway.run_many([request_for])[0]
        traces = gateway.tracer.buffer.snapshot()
    assert response.ok, response.error
    assert not response.degraded
    assert result_identity(response.result) == expected
    assert injector.fired == [("replica.dispatch", 1, "crash")]
    assert gateway.metrics.counter_value("faults.replica_restarts") >= 1
    assert gateway.metrics.counter_value("faults.redispatches") >= 1
    # The restart is visible in the request's own trace, fully connected.
    restarted = [t for t in traces if "replica.restart" in names_of(t)]
    assert restarted, [sorted(names_of(t)) for t in traces]
    trace = restarted[0]
    ids = {record.span_id for record in trace.records}
    orphans = [
        record.name
        for record in trace.records
        if record.parent_id is not None and record.parent_id not in ids
    ]
    assert orphans == [], orphans


def test_respawn_after_acked_churn_serves_from_replicas(
    tmp_path, corpus, request_for, chaos_seed
):
    """With durable state on, acknowledged churn moves the log floor past
    the newest snapshot; a pool respawned after a worker death must come
    back at the live epoch, so cold requests are still answered by
    replicas, bit-identical to a flat reference, with none found stale."""
    reference = Mileena()
    for relation in corpus.providers[:INITIAL]:
        reference.register_dataset(relation)
    platform = fresh_platform(corpus)
    config = GatewayConfig(
        max_workers=2,
        process_workers=1,
        backend="process",
        snapshot_dir=str(tmp_path),
        snapshot_every_mutations=64,
    )
    extra = corpus.providers[INITIAL:]
    cold = [replace(request_for, time_budget_seconds=600.0 + i) for i in range(4)]
    plan = FaultPlan(seed=chaos_seed).crash("replica.dispatch", on_hit=1)
    served, expected = [], []
    with Gateway(platform, config) as gateway:
        for relation in extra[:4]:
            platform.register_dataset(relation)
            reference.register_dataset(relation)
            served.append(gateway.run_many([request_for])[0])
            expected.append(result_identity(reference.search(request_for)))
        with armed(plan) as injector:
            served.append(gateway.run_many(cold[:1])[0])
        served.extend(gateway.run_many([request])[0] for request in cold[1:])
    expected.extend([expected[-1]] * len(cold))
    assert injector.fired == [("replica.dispatch", 1, "crash")]
    for response, identity in zip(served, expected, strict=True):
        assert response.ok, response.error
        assert result_identity(response.result) == identity
    assert gateway.metrics.counter_value("faults.replica_restarts") >= 1
    assert gateway.metrics.counter_value("gateway.backend.process.stale_replicas") == 0
    assert gateway.metrics.counter_value("faults.local_fallbacks") == 0


def test_transient_compute_fault_is_retried(corpus, request_for, chaos_seed):
    """An injected transient exception on the first attempt: the retry
    policy backs off (within budget) and the second attempt answers."""
    expected = result_identity(fresh_platform(corpus).search(request_for))
    platform = fresh_platform(corpus)
    config = GatewayConfig(
        max_workers=2,
        retry_backoff_seconds=0.01,
        retry_jitter_seed=chaos_seed,
    )
    plan = FaultPlan(seed=chaos_seed).raise_("gateway.compute", on_hit=1)
    with Gateway(platform, config) as gateway:
        with armed(plan):
            response = gateway.run_many([request_for])[0]
    assert response.ok, response.error
    assert result_identity(response.result) == expected
    assert gateway.metrics.counter_value("gateway.retries") >= 1


def test_open_breaker_serves_last_known_good_degraded(
    corpus, request_for, chaos_seed
):
    """Sustained failures trip the breaker; with it open, requests are
    rejected fast and answered from the last-known-good cache — stale by
    contract, flagged ``degraded=True``."""
    platform = fresh_platform(corpus)
    config = GatewayConfig(
        max_workers=1,
        retry_max_attempts=1,
        breaker_failure_threshold=2,
        trace_sample_rate=1.0,
    )
    plan = FaultPlan(seed=chaos_seed).raise_("gateway.compute", on_hit=None)
    with Gateway(platform, config) as gateway:
        primed = gateway.run_many([request_for])[0]
        assert primed.ok, primed.error
        # Mutate the corpus so the epoch-scoped result cache cannot answer;
        # only the LKG cache (keyed without the epoch) still can.
        platform.register_dataset(corpus.providers[INITIAL])
        with armed(plan):
            first = gateway.run_many([request_for])[0]
            second = gateway.run_many([request_for])[0]
            third = gateway.run_many([request_for])[0]
        traces = gateway.tracer.buffer.snapshot()
    assert first.status == "failed" and second.status == "failed"
    assert third.ok and third.degraded
    assert result_identity(third.result) == result_identity(primed.result)
    assert gateway.metrics.counter_value("gateway.breaker.open_total") >= 1
    assert gateway.metrics.counter_value("gateway.breaker.fast_rejections") >= 1
    assert gateway.metrics.counter_value("gateway.degraded") >= 1
    degraded = [t for t in traces if "request.degraded" in names_of(t)]
    assert degraded, [sorted(names_of(t)) for t in traces]


def test_lkg_is_kept_without_a_result_cache(corpus, request_for, chaos_seed):
    """Last-known-good does not depend on the result cache: with
    ``cache_results=False`` a primed success still answers, degraded,
    once the breaker opens."""
    platform = fresh_platform(corpus)
    config = GatewayConfig(
        max_workers=1,
        retry_max_attempts=1,
        breaker_failure_threshold=1,
        cache_results=False,
    )
    plan = FaultPlan(seed=chaos_seed).raise_("gateway.compute", on_hit=None)
    with Gateway(platform, config) as gateway:
        primed = gateway.run_many([request_for])[0]
        assert primed.ok, primed.error
        with armed(plan):
            first = gateway.run_many([request_for])[0]
            second = gateway.run_many([request_for])[0]
    assert first.status == "failed"
    assert second.ok and second.degraded, second.error
    assert second.cache_hit
    assert result_identity(second.result) == result_identity(primed.result)
    assert gateway.metrics.counter_value("gateway.degraded") == 1


def test_open_breaker_without_lkg_fails_fast_with_no_compute(
    corpus, request_for, chaos_seed, monkeypatch
):
    """An open breaker with nothing in last-known-good is a fast typed
    failure: no search runs and, for a private request, no requester-side
    noise is drawn a second time."""
    calls = {"search": 0, "privatize": 0}

    def spy(owner, name, counter):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[counter] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(Mileena, "search", "search")
    spy(FactorizedPrivacyMechanism, "privatize_element", "privatize")
    spy(FactorizedPrivacyMechanism, "privatize_keyed", "privatize")

    private = replace(request_for, epsilon=1.0)
    platform = fresh_platform(corpus)
    config = GatewayConfig(
        max_workers=1,
        retry_max_attempts=1,
        breaker_failure_threshold=1,
    )
    plan = FaultPlan(seed=chaos_seed).raise_("gateway.compute", on_hit=None)
    with Gateway(platform, config) as gateway:
        with armed(plan):
            first = gateway.run_many([private])[0]
            before = dict(calls)
            second = gateway.run_many([private])[0]
    assert first.status == "failed"
    assert second.status == "failed"
    assert "DegradedResult" in second.error, second.error
    assert calls == before, (before, calls)
    assert gateway.metrics.counter_value("gateway.breaker.fast_rejections") >= 1
    assert gateway.metrics.counter_value("gateway.degraded") == 0
