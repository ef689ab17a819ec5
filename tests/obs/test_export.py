"""OpenMetrics exposition: rendering, parsing, sanitization, exemplars."""

import pytest

from repro.obs import (
    OpenMetricsParseError,
    Tracer,
    parse_openmetrics,
    render_openmetrics,
    sanitize_name,
)
from repro.obs.export import FALLBACK_HELP, VALID_NAME, help_for, load_help_catalog
from repro.serving.metrics import MetricsRegistry


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.increment("gateway.requests", 7)
    registry.increment("gateway.failed", 2)
    registry.set_gauge("gateway.pending", 3.0)
    for value in (0.004, 0.04, 0.4, 4.0, 400.0):
        registry.observe("gateway.service_seconds", value)
    return registry


class TestSanitizeName:
    def test_dots_become_underscores(self):
        assert sanitize_name("gateway.breaker.state") == "gateway_breaker_state"

    def test_arbitrary_illegal_characters(self):
        assert sanitize_name("a b-c/d") == "a_b_c_d"

    def test_leading_digit_gains_underscore(self):
        assert sanitize_name("9lives") == "_9lives"

    def test_empty_name(self):
        assert sanitize_name("") == "_"

    def test_results_are_always_legal(self):
        for ugly in ("x.y", "..", "3.14", "per-cent%", "ünïcode"):
            assert VALID_NAME.match(sanitize_name(ugly))


class TestRenderOpenMetrics:
    def test_round_trips_through_the_validating_parser(self):
        text = render_openmetrics(populated_registry())
        families = parse_openmetrics(text)
        assert families["gateway_requests"]["type"] == "counter"
        assert families["gateway_requests"]["samples"][
            ("gateway_requests_total", ())
        ] == 7
        assert families["gateway_pending"]["type"] == "gauge"
        assert families["gateway_pending"]["samples"][("gateway_pending", ())] == 3.0
        assert families["gateway_service_seconds"]["type"] == "histogram"

    def test_is_deterministic_and_eof_terminated(self):
        registry = populated_registry()
        text = render_openmetrics(registry)
        assert text == render_openmetrics(registry)
        assert text.endswith("# EOF\n")

    def test_catalogued_metrics_carry_catalog_help(self):
        text = render_openmetrics(populated_registry())
        families = parse_openmetrics(text)
        for family in ("gateway_requests", "gateway_pending", "gateway_service_seconds"):
            assert families[family]["help"] != FALLBACK_HELP

    def test_uncatalogued_metric_falls_back_to_placeholder_help(self):
        registry = MetricsRegistry()
        registry.increment("not.in.any.catalog")
        families = parse_openmetrics(render_openmetrics(registry))
        assert families["not_in_any_catalog"]["help"] == FALLBACK_HELP

    def test_histogram_buckets_are_cumulative_and_match_count(self):
        text = render_openmetrics(populated_registry())
        families = parse_openmetrics(text)
        family = families["gateway_service_seconds"]
        buckets = [
            value
            for (name, _), value in family["samples"].items()
            if name == "gateway_service_seconds_bucket"
        ]
        assert buckets == sorted(buckets)
        assert buckets[-1] == family["samples"][("gateway_service_seconds_count", ())]
        assert family["samples"][("gateway_service_seconds_sum", ())] == pytest.approx(
            0.004 + 0.04 + 0.4 + 4.0 + 400.0
        )

    def test_matches_registry_snapshot_exactly(self):
        """The exposition and ``snapshot()`` describe the same state."""
        registry = populated_registry()
        snapshot = registry.snapshot()
        families = parse_openmetrics(render_openmetrics(registry))
        for name, value in snapshot["counters"].items():
            sanitized = sanitize_name(name)
            assert families[sanitized]["samples"][(f"{sanitized}_total", ())] == value
        for name, value in snapshot["gauges"].items():
            sanitized = sanitize_name(name)
            assert families[sanitized]["samples"][(sanitized, ())] == value
        for name, state in snapshot["histograms"].items():
            sanitized = sanitize_name(name)
            samples = families[sanitized]["samples"]
            assert samples[(f"{sanitized}_count", ())] == state["count"]
            assert samples[(f"{sanitized}_sum", ())] == pytest.approx(state["sum"])
            cumulative = 0
            bucket_values = []
            for count in state["bucket_counts"]:
                cumulative += count
                bucket_values.append(cumulative)
            rendered = [
                value
                for (sample_name, _), value in samples.items()
                if sample_name == f"{sanitized}_bucket"
            ]
            assert rendered == bucket_values


class TestSnapshotBuckets:
    def test_snapshot_exposes_raw_bucket_counts(self):
        registry = populated_registry()
        state = registry.snapshot()["histograms"]["gateway.service_seconds"]
        assert len(state["bucket_counts"]) == len(state["buckets"]) + 1
        assert sum(state["bucket_counts"]) == state["count"] == 5

    def test_render_and_exposition_agree_on_percentiles_source(self):
        """``render()`` (summary) and the exposition (raw buckets) must be
        two views of one locked capture, not two reads."""
        registry = populated_registry()
        state = registry.snapshot()["histograms"]["gateway.service_seconds"]
        summary = registry.histogram("gateway.service_seconds").summary()
        assert state["count"] == summary["count"]
        assert state["sum"] == pytest.approx(summary["sum"])
        assert state["p95"] == pytest.approx(summary["p95"])


class TestExemplars:
    def test_disarmed_histogram_renders_no_exemplars(self):
        families = parse_openmetrics(render_openmetrics(populated_registry()))
        assert families["gateway_service_seconds"]["exemplars"] == {}

    def test_armed_histogram_captures_trace_id_per_bucket(self):
        registry = MetricsRegistry()
        registry.arm_exemplars()
        tracer = Tracer(sample_rate=1.0, metrics=registry)
        with tracer.trace("request") as root:
            registry.observe("gateway.service_seconds", 0.3)
            trace_id = root.trace.trace_id
        families = parse_openmetrics(render_openmetrics(registry))
        exemplars = families["gateway_service_seconds"]["exemplars"]
        assert len(exemplars) == 1
        (key, (labels, value)) = next(iter(exemplars.items()))
        assert key[0] == "gateway_service_seconds_bucket"
        assert dict(labels)["trace_id"] == trace_id
        assert value == pytest.approx(0.3)

    def test_observation_outside_a_span_captures_nothing(self):
        registry = MetricsRegistry()
        registry.arm_exemplars()
        registry.observe("gateway.service_seconds", 0.3)
        families = parse_openmetrics(render_openmetrics(registry))
        assert families["gateway_service_seconds"]["exemplars"] == {}

    def test_arming_is_retroactive_and_sticky(self):
        registry = MetricsRegistry()
        before = registry.histogram("existing.seconds")
        registry.arm_exemplars()
        after = registry.histogram("created.later.seconds")
        tracer = Tracer(sample_rate=1.0)
        with tracer.trace("request"):
            before.observe(0.1)
            after.observe(0.2)
        assert registry.snapshot()["histograms"]["existing.seconds"]["exemplars"]
        assert registry.snapshot()["histograms"]["created.later.seconds"]["exemplars"]


class TestHelpCatalog:
    def test_default_catalog_loads_rows(self):
        catalog = load_help_catalog()
        assert catalog
        assert help_for("gateway.requests", catalog)

    def test_placeholder_rows_match_concrete_names(self):
        catalog = load_help_catalog()
        assert help_for("gateway.backend.process.queue_depth", catalog)
        assert help_for("gateway_cache.hits", catalog)

    def test_missing_file_yields_empty_catalog(self, tmp_path):
        assert load_help_catalog(tmp_path / "absent.md") == ()


class TestParserRejects:
    def test_missing_eof(self):
        with pytest.raises(OpenMetricsParseError, match="EOF"):
            parse_openmetrics("# HELP x h\n# TYPE x counter\nx_total 1\n")

    def test_blank_line(self):
        with pytest.raises(OpenMetricsParseError, match="blank"):
            parse_openmetrics("# HELP x h\n# TYPE x counter\n\nx_total 1\n# EOF\n")

    def test_sample_outside_any_family(self):
        with pytest.raises(OpenMetricsParseError, match="outside"):
            parse_openmetrics("orphan_total 1\n# EOF\n")

    def test_type_without_help(self):
        with pytest.raises(OpenMetricsParseError, match="HELP"):
            parse_openmetrics("# TYPE x counter\nx_total 1\n# EOF\n")

    def test_duplicate_family(self):
        text = (
            "# HELP x h\n# TYPE x counter\nx_total 1\n"
            "# HELP x h\n# TYPE x counter\nx_total 2\n# EOF\n"
        )
        with pytest.raises(OpenMetricsParseError, match="duplicate family"):
            parse_openmetrics(text)

    def test_negative_counter(self):
        with pytest.raises(OpenMetricsParseError, match="negative"):
            parse_openmetrics("# HELP x h\n# TYPE x counter\nx_total -1\n# EOF\n")

    def test_wrong_suffix_for_type(self):
        with pytest.raises(OpenMetricsParseError, match="does not belong"):
            parse_openmetrics("# HELP x h\n# TYPE x counter\nx 1\n# EOF\n")

    def test_non_monotone_buckets(self):
        text = (
            "# HELP h h\n# TYPE h histogram\n"
            'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 3\n'
            "h_sum 1.0\nh_count 3\n# EOF\n"
        )
        with pytest.raises(OpenMetricsParseError, match="decreases"):
            parse_openmetrics(text)

    def test_inf_bucket_must_equal_count(self):
        text = (
            "# HELP h h\n# TYPE h histogram\n"
            'h_bucket{le="1"} 2\nh_bucket{le="+Inf"} 3\n'
            "h_sum 1.0\nh_count 4\n# EOF\n"
        )
        with pytest.raises(OpenMetricsParseError, match="_count"):
            parse_openmetrics(text)

    def test_malformed_sample_line(self):
        with pytest.raises(OpenMetricsParseError, match="malformed"):
            parse_openmetrics("# HELP x h\n# TYPE x counter\nx_total one\n# EOF\n")
