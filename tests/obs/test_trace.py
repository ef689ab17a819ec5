"""Unit tests for the tracing layer: spans, sampling, buffer, stitching."""

import json
import random
import threading

import pytest

from repro.obs import (
    CompletedTrace,
    RemoteTrace,
    SpanRecord,
    TraceBuffer,
    Tracer,
    attach_records,
    current_span,
    render_trace,
    span,
)


def _record(trace_id="t", span_id="s", parent_id=None, name="x", start=0.0, duration=0.1):
    return SpanRecord(
        trace_id=trace_id,
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        start=start,
        duration=duration,
    )


class TestSpanContext:
    def test_span_without_trace_is_noop(self):
        before = current_span()
        with span("anything", key="value") as noop:
            noop.annotate(more=1)
            assert current_span() is before is None

    def test_nested_spans_share_trace_and_link_parents(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.trace("request") as root:
            with span("outer") as outer:
                assert current_span() is outer
                with span("inner", detail="yes") as inner:
                    assert current_span() is inner
            assert current_span() is root
        records = {record.name: record for record in root.trace.records}
        assert set(records) == {"request", "outer", "inner"}
        assert records["inner"].parent_id == records["outer"].span_id
        assert records["outer"].parent_id == root.span_id
        assert records["request"].parent_id is None
        assert records["inner"].attrs == {"detail": "yes"}
        assert len({record.trace_id for record in records.values()}) == 1

    def test_exception_annotates_error_and_propagates(self):
        tracer = Tracer(sample_rate=1.0)
        with pytest.raises(ValueError):
            with tracer.trace("request") as root:
                with span("failing"):
                    raise ValueError("boom")
        records = {record.name: record for record in root.trace.records}
        assert records["failing"].attrs["error"] == "ValueError"
        assert records["request"].attrs["error"] == "ValueError"
        assert current_span() is None

    def test_threads_do_not_inherit_spans(self):
        tracer = Tracer(sample_rate=1.0)
        seen = []
        with tracer.trace("request"):
            worker = threading.Thread(target=lambda: seen.append(current_span()))
            worker.start()
            worker.join()
        assert seen == [None]


class TestTracerRetention:
    def test_sample_rate_validation(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(sample_rate=-0.1)

    def test_sampled_trace_is_retained(self):
        tracer = Tracer(sample_rate=1.0)
        with tracer.trace("request"):
            pass
        assert len(tracer.buffer) == 1
        assert tracer.buffer.snapshot()[0].sampled

    def test_unsampled_fast_trace_is_dropped(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_seconds=60.0)
        with tracer.trace("request"):
            pass
        assert len(tracer.buffer) == 0

    def test_slow_trace_retained_even_when_unsampled(self):
        tracer = Tracer(sample_rate=0.0, slow_threshold_seconds=0.0)
        with tracer.trace("request"):
            pass
        [trace] = tracer.buffer.snapshot()
        assert trace.slow and not trace.sampled

    def test_retention_counters(self):
        from repro.serving.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        tracer = Tracer(
            sample_rate=0.5,
            slow_threshold_seconds=60.0,
            metrics=metrics,
            rng=random.Random(7),
        )
        for _ in range(40):
            with tracer.trace("request"):
                pass
        counters = metrics.snapshot()["counters"]
        assert counters["trace.finished"] == 40
        assert counters["trace.recorded"] == len(tracer.buffer)
        assert 0 < counters["trace.recorded"] < 40

    def test_buffer_capacity_bounds_memory(self):
        tracer = Tracer(sample_rate=1.0, buffer=TraceBuffer(capacity=3))
        for index in range(10):
            with tracer.trace("request", index=index):
                pass
        kept = tracer.buffer.snapshot()
        assert len(kept) == 3
        assert [trace.attrs["index"] for trace in kept] == [7, 8, 9]


class TestTraceBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)

    def test_slowest_orders_by_duration(self):
        buffer = TraceBuffer()
        for duration in (0.2, 0.9, 0.1):
            buffer.add(
                CompletedTrace(
                    trace_id=f"t{duration}",
                    name="request",
                    start=0.0,
                    duration=duration,
                    sampled=True,
                    slow=False,
                    records=(),
                )
            )
        slowest = buffer.slowest(2)
        assert [trace.duration for trace in slowest] == [0.9, 0.2]

    def test_export_jsonl_roundtrips(self, tmp_path):
        tracer = Tracer(sample_rate=1.0)
        with tracer.trace("request"):
            with span("child", epoch=3):
                pass
        path = tmp_path / "traces.jsonl"
        written = tracer.buffer.export_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert written == len(rows) == 2
        by_name = {row["name"]: row for row in rows}
        assert by_name["child"]["attrs"] == {"epoch": 3}
        assert by_name["child"]["parent_id"] == by_name["request"]["span_id"]
        assert all(row["sampled"] for row in rows)


class TestRemoteStitching:
    def test_remote_trace_without_ref_is_noop(self):
        remote = RemoteTrace(None, "replica")
        with remote:
            remote.annotate(ignored=True)
            assert current_span() is None
        assert remote.records == ()

    def test_remote_records_root_at_shipped_parent(self):
        with RemoteTrace(("abc", "parent-span"), "replica", worker=1) as remote:
            with span("replica.compute"):
                pass
        names = {record.name: record for record in remote.records}
        assert set(names) == {"replica", "replica.compute"}
        assert names["replica"].parent_id == "parent-span"
        assert names["replica"].trace_id == "abc"
        assert names["replica.compute"].parent_id == names["replica"].span_id

    def test_attach_records_extends_current_trace(self):
        tracer = Tracer(sample_rate=1.0)
        foreign = (_record(name="replica.compute"),)
        with tracer.trace("request") as root:
            assert attach_records(foreign)
        assert foreign[0] in root.trace.records

    def test_attach_records_without_trace_is_refused(self):
        assert not attach_records((_record(),))


class TestRenderTrace:
    def test_orphan_records_are_promoted_not_dropped(self):
        trace = CompletedTrace(
            trace_id="t",
            name="request",
            start=0.0,
            duration=0.5,
            sampled=True,
            slow=True,
            records=(
                _record(span_id="root", name="request"),
                _record(span_id="lost", parent_id="never-shipped", name="replica.compute"),
            ),
        )
        rendered = render_trace(trace)
        assert "replica.compute" in rendered
        assert "slow" in rendered
