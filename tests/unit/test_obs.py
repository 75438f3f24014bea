"""Unit tests for the observability layer: tracer, sinks, and metrics.

The tracing invariants the engine relies on: spans nest and close (even
under exceptions), sinks can be swapped mid-process, scoped tracing
restores the prior configuration, and everything is a cheap no-op while
the tracer is disabled.
"""

import json

import pytest

from repro import obs
from repro.obs import Counter, Gauge, Histogram, JsonlSink, MemorySink, MetricsRegistry, StderrSink
from repro.obs.trace import _NOOP_SPAN


@pytest.fixture(autouse=True)
def _pristine_tracer():
    """Every test starts and ends with the tracer disabled and sink-free."""
    obs.configure(sink=None, enabled=False)
    yield
    obs.configure(sink=None, enabled=False)


class TestSpanNesting:
    def test_disabled_span_is_shared_noop(self):
        assert not obs.enabled()
        span = obs.span("anything", key=1)
        assert span is _NOOP_SPAN
        assert obs.span("other") is span
        with span as inner:
            inner.set(ignored=True)  # must not raise

    def test_nested_spans_link_parent_ids_and_depths(self):
        with obs.tracing("memory") as sink:
            with obs.span("outer", a=1):
                with obs.span("inner"):
                    obs.event("tick", n=3)
        outer = sink.spans("outer")[0]
        inner = sink.spans("inner")[0]
        tick = sink.events("tick")[0]
        assert outer["parent_id"] is None and outer["depth"] == 0
        assert inner["parent_id"] == outer["span_id"] and inner["depth"] == 1
        assert tick["span_id"] == inner["span_id"] and tick["depth"] == 2
        # Children close before parents.
        assert sink.records.index(inner) < sink.records.index(outer)

    def test_span_set_attaches_late_attributes(self):
        with obs.tracing("memory") as sink:
            with obs.span("work", phase="start") as span:
                span.set(found=7)
        record = sink.spans("work")[0]
        assert record["attrs"] == {"phase": "start", "found": 7}

    def test_exception_closes_span_and_records_error(self):
        with obs.tracing("memory") as sink:
            with pytest.raises(ValueError):
                with obs.span("doomed"):
                    raise ValueError("boom")
            # The stack unwound: a new span is again a root.
            with obs.span("after"):
                pass
        doomed = sink.spans("doomed")[0]
        assert doomed["error"] == "ValueError"
        assert doomed["dur"] >= 0
        assert sink.spans("after")[0]["parent_id"] is None
        assert obs.get_tracer().current_span() is None

    def test_event_outside_any_span_has_null_span_id(self):
        with obs.tracing("memory") as sink:
            obs.event("lonely")
        record = sink.events("lonely")[0]
        assert record["span_id"] is None and record["depth"] == 0


class TestConfigurationAndSinks:
    def test_sink_swap_mid_process_splits_records(self):
        first, second = MemorySink(), MemorySink()
        obs.configure(sink=first)
        with obs.span("one"):
            pass
        obs.configure(sink=second)
        with obs.span("two"):
            pass
        assert [r["name"] for r in first.records] == ["one"]
        assert [r["name"] for r in second.records] == ["two"]

    def test_configure_none_removes_sinks_and_disables(self):
        obs.configure(sink=MemorySink())
        assert obs.enabled()
        obs.configure(sink=None)
        assert not obs.enabled()
        assert not obs.get_tracer()._sinks

    def test_tracing_scope_restores_prior_state(self):
        outer_sink = MemorySink()
        obs.configure(sink=outer_sink)
        with obs.tracing("memory") as inner_sink:
            with obs.span("scoped"):
                pass
        assert obs.enabled()
        assert obs.get_tracer()._sinks[0][0] is outer_sink
        assert inner_sink.spans("scoped")
        assert not outer_sink.records
        with obs.span("outer-again"):
            pass
        assert outer_sink.spans("outer-again")

    def test_tracing_scope_restores_disabled_state_after_exception(self):
        assert not obs.enabled()
        with pytest.raises(RuntimeError):
            with obs.tracing("memory"):
                assert obs.enabled()
                raise RuntimeError("bail")
        assert not obs.enabled()

    def test_jsonl_sink_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "nested" / "trace.jsonl"
        with obs.tracing(str(path)):
            with obs.span("job", n=2):
                obs.event("mark")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {r["name"] for r in lines} == {"job", "mark"}
        assert all("ts" in r and "mono" in r for r in lines)

    def test_stderr_sink_renders_indented_lines(self, capsys):
        obs.configure(sink=StderrSink())
        with obs.span("outer"):
            with obs.span("inner", level=3):
                obs.event("hit", kind="kd")
        err = capsys.readouterr().err
        assert "[repro.obs] outer" in err
        assert "[repro.obs]   inner" in err and "level=3" in err
        assert "· hit" in err and "kind=kd" in err

    def test_memory_sink_filters_and_clear(self):
        with obs.tracing("memory") as sink:
            with obs.span("a"):
                obs.event("e")
            with obs.span("b"):
                pass
            assert len(sink.spans()) == 2
            assert len(sink.spans("a")) == 1
            assert len(sink.events()) == 1
            sink.clear()
            assert sink.records == []

    def test_resolve_sink_ownership(self):
        mine = MemorySink()
        sink, owned = obs.resolve_sink(mine)
        assert sink is mine and owned is False
        for spec in ("stderr", "memory"):
            _, owned = obs.resolve_sink(spec)
            assert owned is True


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        for value in (1.0, 3.0):
            registry.histogram("h").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["c"] == 5
        assert snapshot["g"] == 2.5
        assert snapshot["h"] == {"count": 2, "total": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0}

    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_reset_empties_registry(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert len(registry) == 0 and registry.snapshot() == {}

    def test_empty_histogram_summary_is_zeros(self):
        assert Histogram("h").summary() == {
            "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
        }

    def test_module_helpers_gate_on_enabled(self):
        obs.configure(reset_metrics=True)
        obs.count("repro.test.c", 3)
        obs.gauge("repro.test.g", 1.0)
        obs.observe("repro.test.h", 2.0)
        assert obs.get_metrics().snapshot() == {}
        obs.configure(enabled=True)
        obs.count("repro.test.c", 3)
        obs.gauge("repro.test.g", 1.0)
        obs.observe("repro.test.h", 2.0)
        snapshot = obs.get_metrics().snapshot()
        assert snapshot["repro.test.c"] == 3
        assert snapshot["repro.test.g"] == 1.0
        assert snapshot["repro.test.h"]["count"] == 1
        obs.configure(reset_metrics=True, enabled=False)

    def test_stream_stats_publish_feeds_registry_when_enabled(self):
        from repro.streaming.stats import StreamStats

        stats = StreamStats(
            elements_processed=10,
            stream_distance_computations=100,
            postprocess_distance_computations=20,
            stream_seconds=0.5,
        )
        stats.record_stored(7)
        obs.configure(reset_metrics=True)
        stats.publish("SFDM2")
        assert obs.get_metrics().snapshot() == {}
        obs.configure(enabled=True)
        stats.publish("SFDM2")
        snapshot = obs.get_metrics().snapshot()
        assert snapshot["repro.runs"] == 1
        assert snapshot["repro.runs.SFDM2"] == 1
        assert snapshot["repro.elements_processed"] == 10
        assert snapshot["repro.distance.stream"] == 100
        assert snapshot["repro.stored.final"] == 7
        assert snapshot["repro.seconds.stream"]["count"] == 1
        obs.configure(reset_metrics=True, enabled=False)
