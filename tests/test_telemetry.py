"""Tests of :mod:`repro.telemetry` — metrics, spans, calibration.

Unit-level coverage for the observability layer: the label-aware
metrics registry and its Prometheus rendering, span recording/ingestion
and the Chrome-trace export, the per-kind cost calibrator behind ticket
ETAs, and the thread-safety of the cache's stats counters. Everything
here drives *fresh* registry instances or save/restores the global
enable flag, so tests compose with the service suite (which enables
telemetry process-wide).
"""

import json
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.engine.cache import CacheStats
from repro.errors import ConfigurationError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import iter_trace


@pytest.fixture(autouse=True)
def _restore_telemetry_state():
    """Each test starts disabled and leaves the flag as it found it."""
    was = telemetry.enabled()
    telemetry.disable()
    yield
    (telemetry.enable if was else telemetry.disable)()
    telemetry.reset_tracing()


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counter_accumulates_per_label_set(self):
        telemetry.enable()
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "jobs", labels=("kind",))
        c.inc(kind="a")
        c.inc(2.0, kind="a")
        c.inc(kind="b")
        assert c.value(kind="a") == 3.0
        assert c.value(kind="b") == 1.0
        assert c.value(kind="never") == 0.0

    def test_counter_rejects_negative_and_bad_labels(self):
        telemetry.enable()
        reg = MetricsRegistry()
        c = reg.counter("n_total", "", labels=("kind",))
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            c.inc(-1.0, kind="a")
        with pytest.raises(ConfigurationError):
            c.inc(wrong_label="a")
        with pytest.raises(ConfigurationError):
            c.inc()  # missing the declared label

    def test_disabled_updates_are_noops(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "")
        g = reg.gauge("g", "")
        h = reg.histogram("h_seconds", "")
        c.inc()
        g.set(5.0)
        h.observe(1.0)
        assert c.value() == 0.0
        assert g.value() == 0.0
        assert h.count() == 0

    def test_gauge_set_inc_dec(self):
        telemetry.enable()
        reg = MetricsRegistry()
        g = reg.gauge("depth", "")
        g.set(10.0)
        g.inc(2.0)
        g.dec(5.0)
        assert g.value() == 7.0

    def test_histogram_buckets_and_sum(self):
        telemetry.enable()
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(55.55)
        text = reg.render()
        # Cumulative le buckets, +Inf closing the distribution.
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="10"} 3' in text
        assert 'lat_seconds_bucket{le="+Inf"} 4' in text
        assert "lat_seconds_count 4" in text

    def test_render_prometheus_format(self):
        telemetry.enable()
        reg = MetricsRegistry()
        c = reg.counter("reqs_total", "requests served",
                        labels=("method", "route"))
        c.inc(method="GET", route="/v1/sweeps/*")
        text = reg.render()
        assert "# HELP reqs_total requests served" in text
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{method="GET",route="/v1/sweeps/*"} 1' in text

    def test_reregistration_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "", labels=("k",))
        b = reg.counter("x_total", "", labels=("k",))
        assert a is b
        with pytest.raises(ConfigurationError):
            reg.gauge("x_total", "")  # same name, different type
        with pytest.raises(ConfigurationError):
            reg.counter("x_total", "", labels=("other",))  # label clash

    def test_concurrent_counter_increments_are_exact(self):
        telemetry.enable()
        reg = MetricsRegistry()
        c = reg.counter("hammer_total", "")
        n_threads, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == n_threads * per_thread


# ----------------------------------------------------------------------
# Span tracing
# ----------------------------------------------------------------------

class TestTracing:
    def test_record_spans_captures_nested_sections(self):
        telemetry.enable()
        telemetry.reset_tracing()
        with telemetry.record_spans() as spans:
            with telemetry.span("outer", n=3):
                with telemetry.span("inner"):
                    time.sleep(0.001)
        names = [s["name"] for s in spans]
        assert names == ["inner", "outer"]  # exit order
        inner, outer = spans
        assert outer["duration_s"] >= inner["duration_s"] > 0.0
        assert outer["meta"] == {"n": 3}
        assert json.dumps(spans)  # JSON-ready by construction
        stats = telemetry.phase_stats()
        assert stats["outer"]["count"] == 1
        assert stats["inner"]["mean_s"] == pytest.approx(
            stats["inner"]["total_s"])

    def test_disabled_spans_record_nothing(self):
        telemetry.reset_tracing()
        with telemetry.record_spans() as spans:
            with telemetry.span("assemble"):
                pass
        assert spans == []
        assert telemetry.phase_stats() == {}

    def test_chrome_trace_export(self):
        telemetry.enable()
        telemetry.reset_tracing()
        with telemetry.span("power", batch=4):
            pass
        events = telemetry.chrome_trace()
        assert len(events) == 1
        (event,) = events
        assert event["ph"] == "X"
        assert event["name"] == "power"
        assert event["dur"] >= 0.0
        assert event["ts"] == pytest.approx(
            next(iter_trace())["start_unix"] * 1e6)
        assert event["args"] == {"batch": 4}
        json.dumps(events)  # chrome://tracing wants plain JSON

    def test_solver_emits_assemble_factor_power_spans(self):
        from repro.swm.solver import SWMSolver3D

        telemetry.enable()
        solver = SWMSolver3D()
        heights = np.zeros((4, 4))
        with telemetry.record_spans() as spans:
            solver.solve(heights, 5e-6, 1e9)
        names = {s["name"] for s in spans}
        assert {"assemble", "factor", "power"} <= names

    def test_2d_solve_records_near_inside_assemble(self):
        """The near-pair block of a traced 2D solve is a ``near`` span,
        and the writes into the block system are ``scatter`` spans;
        both lie inside an ``assemble`` span."""
        from repro.swm.solver2d import SWMSolver2D

        telemetry.enable()
        profile = np.random.default_rng(2).normal(0.0, 0.2, 16)
        with telemetry.record_spans() as spans:
            SWMSolver2D().solve_um(profile, 5.0, 5e9)
        assembles = [s for s in spans if s["name"] == "assemble"]
        near = [s for s in spans if s["name"] == "near"]
        scatter = [s for s in spans if s["name"] == "scatter"]
        # One near pass serves both media; each medium writes its pairs'
        # S and D, then its near entries (one block here).
        assert assembles and len(near) == 1 and len(scatter) == 6

        def inside(inner, outer):
            start = outer["start_unix"] - 1e-4
            end = outer["start_unix"] + outer["duration_s"] + 1e-4
            return (start <= inner["start_unix"]
                    and inner["start_unix"] + inner["duration_s"] <= end)

        assert all(any(inside(s, a) for a in assembles)
                   for s in near + scatter)

    def test_execute_job_payload_carries_spans(self):
        from repro.engine.runtime import execute_job
        from repro.engine.spec import DeterministicScenario, SweepSpec

        spec = SweepSpec(
            scenarios=DeterministicScenario("s", np.zeros((4, 4)),
                                            period_m=5e-6),
            frequencies_hz=[1e9])
        job = spec.jobs()[0]
        cold = execute_job(job)
        assert "spans" not in cold  # disabled: no payload bloat
        telemetry.enable()
        payload = execute_job(job)
        assert {s["name"] for s in payload["spans"]} >= {"job", "factor"}


# ----------------------------------------------------------------------
# Cost calibration
# ----------------------------------------------------------------------

class TestCostCalibrator:
    def test_unobserved_kind_predicts_none(self):
        cal = telemetry.CostCalibrator()
        assert cal.predict("stochastic", 1e6) is None
        assert cal.predict_total([("stochastic", 1e6)]) is None

    def test_single_observation_scales_by_ratio(self):
        cal = telemetry.CostCalibrator()
        cal.observe("profile", 100.0, 2.0)
        assert cal.predict("profile", 200.0) == pytest.approx(4.0)

    def test_linear_data_is_recovered(self):
        cal = telemetry.CostCalibrator()
        for cost in (1e6, 2e6, 5e6, 8e6):
            cal.observe("stochastic", cost, 0.5 + 2e-7 * cost)
        assert cal.predict("stochastic", 4e6) == pytest.approx(
            0.5 + 2e-7 * 4e6, rel=1e-6)
        snap = cal.snapshot()["stochastic"]
        assert snap["n"] == 4
        assert snap["seconds_per_cost_unit"] == pytest.approx(2e-7)

    def test_kinds_are_fitted_independently(self):
        cal = telemetry.CostCalibrator()
        cal.observe("profile", 10.0, 1.0)
        cal.observe("stochastic", 10.0, 100.0)
        assert cal.predict("profile", 10.0) == pytest.approx(1.0)
        assert cal.predict("stochastic", 10.0) == pytest.approx(100.0)
        # One unobserved kind poisons the total (honest None).
        assert cal.predict_total([("profile", 10.0),
                                  ("deterministic", 10.0)]) is None
        assert cal.predict_total([("profile", 10.0),
                                  ("stochastic", 10.0)]
                                 ) == pytest.approx(101.0)

    def test_predictions_never_negative(self):
        cal = telemetry.CostCalibrator()
        # Anti-correlated window: slope would be negative.
        cal.observe("k", 1.0, 10.0)
        cal.observe("k", 2.0, 1.0)
        pred = cal.predict("k", 100.0)
        assert pred is not None and pred >= 0.0

    def test_invalid_observations_ignored(self):
        cal = telemetry.CostCalibrator()
        cal.observe("k", -1.0, 1.0)
        cal.observe("k", 1.0, -1.0)
        assert cal.observations("k") == 0


# ----------------------------------------------------------------------
# CacheStats thread-safety
# ----------------------------------------------------------------------

class TestCacheStatsConcurrency:
    def test_concurrent_bumps_never_drop_counts(self):
        """The ThreadingHTTPServer audit: unlocked ``stats.misses += 1``
        is a read-modify-write that loses increments under contention;
        :meth:`CacheStats.bump` must not."""
        stats = CacheStats()
        n_threads, per_thread = 8, 5000

        def work():
            for _ in range(per_thread):
                stats.bump("misses")
                stats.bump("memory_hits")

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.misses == n_threads * per_thread
        assert stats.memory_hits == n_threads * per_thread

    def test_snapshot_is_one_consistent_read(self):
        stats = CacheStats()
        stats.bump("memory_hits", 3)
        stats.bump("disk_hits", 2)
        stats.bump("misses")
        snap = stats.snapshot()
        assert snap == {"memory_hits": 3, "disk_hits": 2, "misses": 1,
                        "stores": 0, "disk_evictions": 0, "hits": 5}
        assert stats.hits == 5


# ----------------------------------------------------------------------
# Structured logs
# ----------------------------------------------------------------------

class TestStructuredLogs:
    def test_buffer_stamps_monotonic_seq_and_filters(self):
        buf = telemetry.LogBuffer(maxlen=8)
        log = telemetry.StructuredLogger("t", buffer=buf)
        log.info("a", worker_id="w1")
        log.warning("b", worker_id="w2")
        log.error("c", worker_id="w1")
        records = buf.records()
        assert [r["seq"] for r in records] == [1, 2, 3]
        assert [r["message"] for r in buf.records(worker="w1")] == \
            ["a", "c"]
        # level is a *minimum* severity
        assert [r["message"] for r in buf.records(level="warning")] == \
            ["b", "c"]
        assert [r["message"] for r in buf.records(since_seq=2)] == ["c"]
        assert [r["message"] for r in buf.records(limit=1)] == ["c"]

    def test_buffer_is_bounded_ring_and_clear_keeps_seq(self):
        buf = telemetry.LogBuffer(maxlen=3)
        for i in range(5):
            buf.append({"message": str(i)})
        records = buf.records()
        assert [r["message"] for r in records] == ["2", "3", "4"]
        assert [r["seq"] for r in records] == [3, 4, 5]
        buf.clear()
        assert buf.records() == []
        assert buf.append({"message": "next"}) == 6  # seq never recycles

    def test_bind_carries_correlation_fields(self):
        buf = telemetry.LogBuffer()
        log = telemetry.StructuredLogger("fleet.worker", buffer=buf)
        child = log.bind(worker_id="w-9", ticket="t-1")
        rec = child.warning("lease lost", slot="abc")
        assert rec["worker_id"] == "w-9"
        assert rec["ticket"] == "t-1"
        assert rec["slot"] == "abc"
        assert rec["logger"] == "fleet.worker"
        # parent unchanged
        assert "worker_id" not in log.info("plain")

    def test_stream_threshold_and_json_lines(self):
        import io
        buf = telemetry.LogBuffer()
        stream = io.StringIO()
        log = telemetry.StructuredLogger("t", buffer=buf, stream=stream,
                                         level="warning")
        log.info("quiet")
        log.warning("loud")
        assert "quiet" not in stream.getvalue()
        assert "loud" in stream.getvalue()
        assert len(buf.records()) == 2  # buffer always gets everything

        jstream = io.StringIO()
        jlog = telemetry.StructuredLogger("t", buffer=buf, stream=jstream,
                                          json_lines=True)
        jlog.info("structured", key="deadbeef")
        parsed = json.loads(jstream.getvalue())
        assert parsed["message"] == "structured"
        assert parsed["key"] == "deadbeef"

    def test_format_human_inlines_correlation(self):
        line = telemetry.format_human(
            {"time_unix": 0.0, "level": "warning", "logger": "x",
             "message": "m", "worker_id": "w", "attempt": 2})
        assert "WARNING" in line
        assert "worker_id=w" in line
        assert "attempt=2" in line

    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown log level"):
            telemetry.level_rank("loud")
        with pytest.raises(ConfigurationError):
            telemetry.LogBuffer(maxlen=0)


# ----------------------------------------------------------------------
# Prometheus exposition edge cases
# ----------------------------------------------------------------------

class TestPrometheusExposition:
    def test_escape_label_round_trip(self):
        from repro.telemetry.metrics import _escape_label, _unescape_label
        for raw in ('plain', 'a"b', 'back\\slash', 'new\nline',
                    'all\\"of\nit', 'trailing\\'):
            assert _unescape_label(_escape_label(raw)) == raw

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""
        # a registered family with no series still renders HELP/TYPE
        reg = MetricsRegistry()
        reg.counter("lonely_total", "no series yet", labels=("k",))
        assert "# TYPE lonely_total counter" in reg.render()

    def test_histogram_inf_bucket_closes_distribution(self):
        telemetry.enable()
        reg = MetricsRegistry()
        h = reg.histogram("t_seconds", "", buckets=(1.0,))
        h.observe(0.5)
        h.observe(99.0)  # lands only in +Inf
        text = reg.render()
        assert 't_seconds_bucket{le="1"} 1' in text
        assert 't_seconds_bucket{le="+Inf"} 2' in text
        parsed = telemetry.parse_prometheus(text)
        buckets = {lab["le"]: v for lab, v in parsed["t_seconds_bucket"]}
        assert buckets["+Inf"] == 2.0
        assert parsed["t_seconds_count"][0][1] == 2.0

    def test_parse_round_trips_render(self):
        telemetry.enable()
        reg = MetricsRegistry()
        c = reg.counter("odd_total", "", labels=("path",))
        c.inc(path='a"b\\c\nd')
        g = reg.gauge("plain", "")
        g.set(2.5)
        parsed = telemetry.parse_prometheus(reg.render())
        assert parsed["odd_total"] == [({"path": 'a"b\\c\nd'}, 1.0)]
        assert parsed["plain"] == [({}, 2.5)]


# ----------------------------------------------------------------------
# Federation
# ----------------------------------------------------------------------

def _worker_snapshot():
    """A tiny cumulative registry snapshot, as a heartbeat would ship."""
    telemetry.enable()
    reg = MetricsRegistry()
    jobs = reg.counter("repro_worker_jobs_total", "", labels=("outcome",))
    jobs.inc(outcome="ok")
    jobs.inc(outcome="ok")
    lat = reg.histogram("repro_worker_job_seconds", "", buckets=(1.0,))
    lat.observe(0.5)
    return reg.snapshot()


class TestFederation:
    def test_render_appends_worker_label(self):
        fed = telemetry.FederatedTelemetry()
        fed.ingest("w1", metrics=_worker_snapshot())
        text = fed.render_prometheus()
        assert ('repro_worker_jobs_total{outcome="ok",worker="w1"} 2'
                in text)
        assert ('repro_worker_job_seconds_bucket'
                '{worker="w1",le="1"} 1') in text
        assert 'repro_worker_job_seconds_count{worker="w1"} 1' in text
        # one TYPE line per family even with several workers
        fed.ingest("w2", metrics=_worker_snapshot())
        text = fed.render_prometheus()
        assert text.count("# TYPE repro_worker_jobs_total counter") == 1
        assert 'repro_worker_jobs_total{outcome="ok",worker="w2"} 2' \
            in text

    def test_merge_is_idempotent_on_redelivery(self):
        fed = telemetry.FederatedTelemetry()
        snapshot = _worker_snapshot()
        logs = [{"seq": 1, "level": "info", "message": "a"},
                {"seq": 2, "level": "warning", "message": "b"}]
        assert fed.ingest("w1", metrics=snapshot, logs=logs) == 2
        before = fed.render_prometheus()
        # the retried heartbeat re-delivers the same snapshot + records
        assert fed.ingest("w1", metrics=snapshot, logs=logs) == 0
        assert fed.render_prometheus() == before
        assert len(fed.logs()) == 2
        # new records past the seq watermark still land
        assert fed.ingest(
            "w1", logs=[{"seq": 3, "message": "c"}]) == 1
        assert [r["message"] for r in fed.logs()] == ["a", "b", "c"]

    def test_logs_tagged_and_filtered_per_worker(self):
        fed = telemetry.FederatedTelemetry()
        fed.ingest("w1", logs=[{"seq": 1, "level": "warning",
                                "message": "w1 says"}])
        fed.ingest("w2", logs=[{"seq": 1, "level": "info",
                                "message": "w2 says"}])
        assert [r["worker_id"] for r in fed.logs()] == ["w1", "w2"]
        assert [r["message"] for r in fed.logs(worker="w2")] == \
            ["w2 says"]
        assert [r["message"] for r in fed.logs(level="warning")] == \
            ["w1 says"]

    def test_snapshot_forget_and_empty_render(self):
        fed = telemetry.FederatedTelemetry()
        assert fed.render_prometheus() == ""
        fed.ingest("w1", metrics=_worker_snapshot(),
                   stats={"concurrency": 2}, time_unix=123.0)
        snap = fed.worker_snapshot("w1")
        assert snap["stats"] == {"concurrency": 2}
        assert snap["time_unix"] == 123.0
        assert "repro_worker_jobs_total" in snap["metrics"]
        assert fed.workers() == ["w1"]
        fed.forget("w1")
        assert fed.worker_snapshot("w1") is None
        assert fed.render_prometheus() == ""
