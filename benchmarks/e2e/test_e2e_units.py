"""Unit checks for the benchmark's own arithmetic and tables (well under 2 s).

The benchmark itself is not run here; these pin the pieces a wrong number
could hide in: the percentile rule, self-time arithmetic, wrapper
install/restore, generator determinism, and the ``BENCHMARK.json`` ⇄
``metrics.py`` ⇄ ``workloads.py`` name agreement.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from e2e import layers, metrics, workloads
from repro.semiring.covariance import CovarianceElement
from repro.serving.fingerprint import request_fingerprint

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- percentile rule ---------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(5, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
     (1000, 99.0), (10_000, 99.9)],
)  # fmt: skip
def test_highest_percentile_needs_ten_samples_beyond(count, expected):
    assert metrics.highest_supported_percentile(count) == expected


def test_percentile_interpolates():
    assert metrics.percentile([5, 1, 3, 2, 4], 50) == 3
    assert metrics.percentile([1, 2, 3, 4], 50) == 2.5
    assert metrics.percentile([1, 2, 3, 4], 100) == 4
    assert metrics.percentile([7], 90) == 7
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


# -- self time ---------------------------------------------------------------------
def _span(span_id, start, end, parent=None):
    span = layers.Span(span_id, f"s{span_id}", parent)
    span.start, span.end = start, end
    return span


def test_self_time_with_overlapping_and_overhanging_children():
    root = _span(0, 0.0, 10.0)
    spans = [
        root,
        _span(1, 1.0, 4.0, root),
        _span(2, 3.0, 6.0, root),  # overlaps span 1: the union is [1, 6]
        _span(3, 8.0, 12.0, root),  # ends after the parent: clipped to [8, 10]
    ]
    grandchild = _span(4, 1.5, 2.0, spans[1])
    own = layers.self_times(spans + [grandchild])
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)
    assert grandchild.request() == 0


def test_tally_counts_nested_calls_but_times_the_outermost_once():
    recorder = layers.Recorder()

    def inner():
        return 1

    counted_inner = layers._tallied(recorder, "inner", "group", inner)
    outer = layers._tallied(recorder, "outer", "group", lambda: counted_inner() + 1)
    with recorder.span("holder") as holder:
        assert outer() == 2
        assert counted_inner() == 1
    assert holder.tallies["outer"][0] == 1 and holder.tallies["outer"][1] > 0
    nested_and_direct = holder.tallies["inner"]
    assert nested_and_direct[0] == 2
    assert nested_and_direct[1] <= holder.duration
    # outside any span the tally lands on the thread's orphan holder
    assert counted_inner() == 1
    assert recorder.tally("inner")[0] == 3
    assert recorder.tally("inner", under="holder")[0] == 3
    assert recorder.tally("inner", under="elsewhere")[0] == 1
    recorder.off = True  # what a forked worker sees: straight pass-through
    assert counted_inner() == 1
    assert recorder.tally("inner")[0] == 3


# -- install / restore -------------------------------------------------------------
def test_install_restore_leaves_every_patched_attribute_identical():
    recorder = layers.Recorder()
    undo = layers.install(recorder)
    try:
        assert len(undo) > 30
        for owner, attribute, raw in undo:
            assert vars(owner)[attribute] is not raw
        a = CovarianceElement.from_row(("x",), [2.0])
        b = CovarianceElement.from_row(("y",), [3.0])
        with recorder.span("probe"):
            product = a * b
        assert product.count == 1.0 and product.features == ("x", "y")
    finally:
        layers.restore(undo)
    for owner, attribute, raw in undo:
        assert vars(owner)[attribute] is raw
    assert recorder.tally("semiring.mul")[0] == 1
    assert recorder.counted("semiring.expand") == 2
    # a second cycle wraps the originals again, not the old wrappers
    again = layers.install(layers.Recorder())
    layers.restore(again)
    assert again == undo


# -- generators --------------------------------------------------------------------
def _columns(relation):
    return {name: list(relation.column(name)) for name in relation.schema.names}


def test_generators_are_deterministic_for_a_seed_and_differ_across_seeds():
    one = workloads.held_out_relation(5, 3, 1)
    same = workloads.held_out_relation(5, 3, 1)
    other = workloads.held_out_relation(6, 3, 1)
    assert one.name == same.name and _columns(one) == _columns(same)
    assert _columns(one) != _columns(other)
    assert len(one) == 120

    order = workloads.popular_order(5)
    assert np.array_equal(order, workloads.popular_order(5))
    assert not np.array_equal(order, workloads.popular_order(6))
    blocks = order[:800].reshape(-1, workloads.POOL_SIZE)
    assert all(sorted(block) == list(range(workloads.POOL_SIZE)) for block in blocks)

    assert [workloads.churn_epsilon(slot) for slot in range(8)].count(1.0) == 2


def test_unique_requests_have_distinct_fingerprints_and_repeat_for_a_seed():
    corpus = workloads.build_corpus(5)
    again = workloads.build_corpus(5)
    prints = {
        request_fingerprint(workloads.unique_request(corpus, index)) for index in range(4)
    }
    assert len(prints) == 4
    assert request_fingerprint(workloads.unique_request(again, 2)) in prints
    other = workloads.build_corpus(6)
    assert request_fingerprint(workloads.unique_request(other, 2)) not in prints


def test_budget_stops_at_the_count_and_flags_a_cut_short_pass():
    budget = workloads.Budget(60.0, ops=3)
    assert [budget.take() for _ in range(5)] == [0, 1, 2, None, None]
    assert not budget.cut_short
    expired = workloads.Budget(0.0, ops=3)
    assert expired.take() is None and expired.cut_short
    timed = workloads.Budget(0.0)
    assert timed.take() is None and not timed.cut_short


# -- manifest ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metric_and_workload_tables():
    manifest = json.loads(MANIFEST.read_text())
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60

    declared = [(w["name"], w["why"]) for w in manifest["workloads"]]
    assert declared == [(w.name, w.why) for w in workloads.WORKLOADS]
    assert all(len(why) <= 200 and "\n" not in why for _, why in declared)

    end_to_end = [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ]
    assert end_to_end == list(metrics.END_TO_END)
    assert all(0 < bound <= 0.25 for *_, bound in end_to_end)
    assert ("setup_s", "s", "lower") in [entry[:3] for entry in end_to_end]
    setup_bound = next(bound for name, *_, bound in end_to_end if name == "setup_s")
    assert setup_bound == max(bound for *_, bound in end_to_end)

    per_layer = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    assert per_layer == list(metrics.PER_LAYER)
    assert len(per_layer) <= 128

    names = [w[0] for w in declared] + [m[0] for m in end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m[1]) for m in end_to_end + per_layer)
    assert metrics.EXACT <= {name for name, _, _ in metrics.PER_LAYER}
