"""Tests of the async sweep service (``repro.service``).

Three layers, three test groups:

- the wire format round-trips every engine object — in particular,
  every registered experiment's planned spec keeps its content hash
  through ``to_wire -> json -> from_wire`` at quick *and* paper scale;
- the scheduler answers cache hits immediately and deduplicates
  concurrent overlapping submissions to one execution per unique
  content hash, ordered longest-first by the dense-solve cost model;
- the HTTP server + client produce results bit-identical to the
  in-process engine path (the ``smoke`` marker selects the fig3
  version CI runs as its service smoke job), and only sweep routes
  submit work.
"""

import json
import select
import socket
import sys
import threading
import time
import urllib.request
import warnings

import numpy as np
import pytest

import repro.api
from repro.constants import GHZ, UM
from repro.core import StochasticLossConfig
from repro.engine import (
    DeterministicScenario,
    EstimatorSpec,
    Job,
    ParallelExecutor,
    ProfileScenario,
    ResultCache,
    SerialExecutor,
    StochasticScenario,
    SweepSpec,
    run_sweep,
)
from repro.engine.results import PointResult, SweepResult
from repro.errors import ConfigurationError
from repro.experiments.presets import PAPER, QUICK
from repro import telemetry
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.scheduler import (
    LOCAL_WORKER,
    SweepScheduler,
    estimate_job_cost,
    job_kind,
)
from repro.service.server import SweepService, make_server
from repro.surfaces import (
    ExtractedCorrelation,
    GaussianCorrelation,
    MaternCorrelation,
)


def _tiny_spec(freqs=(1.0, 3.0), name="m", seed_tag=None):
    """A fast two-point stochastic sweep (8x8 grid, 2 KL modes)."""
    tags = {"suite": "service"} if seed_tag is None else {"seed": seed_tag}
    return SweepSpec(
        scenarios=[StochasticScenario(
            name, GaussianCorrelation(1 * UM, 1 * UM),
            StochasticLossConfig(points_per_side=8, max_modes=2))],
        frequencies_hz=[f * GHZ for f in freqs],
        estimators=EstimatorSpec(kind="sscm", order=1),
        tags=tags)


import contextlib


@contextlib.contextmanager
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


@pytest.fixture(autouse=True)
def _restore_telemetry():
    """make_server enables telemetry process-wide; don't leak it."""
    was = telemetry.enabled()
    yield
    (telemetry.enable if was else telemetry.disable)()


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------

class TestWireRoundTrip:
    @pytest.mark.parametrize("scale", [QUICK, PAPER],
                             ids=["quick", "paper"])
    def test_every_experiment_plan_keeps_its_hash(self, scale):
        """The satellite guarantee: any planned spec crosses the wire
        (through actual JSON text) with an identical content hash."""
        for name in repro.api.experiments():
            spec = repro.api.plan(name, scale=scale)
            if spec is None:
                continue
            restored = wire.loads(wire.dumps(spec))
            assert isinstance(restored, SweepSpec), name
            assert restored.key == spec.key, name
            assert restored.n_jobs == spec.n_jobs, name
            assert restored.tags == spec.tags, name
            # per-job hashes (the cache keys) survive too
            for a, b in zip(spec.jobs(), restored.jobs()):
                assert a.key == b.key, name

    def test_estimator_map_round_trips(self):
        spec = SweepSpec(
            scenarios=[
                StochasticScenario(
                    "a", GaussianCorrelation(1 * UM, 1 * UM),
                    StochasticLossConfig(points_per_side=8, max_modes=2)),
                ProfileScenario("b", GaussianCorrelation(1.0, 1.0),
                                period_um=5.0, n=8),
            ],
            frequencies_hz=[1 * GHZ],
            estimators=EstimatorSpec(kind="sscm", order=1),
            estimator_map={"b": EstimatorSpec(kind="montecarlo",
                                              n_samples=16, seed=7)})
        restored = wire.loads(wire.dumps(spec))
        assert restored.key == spec.key
        assert restored.estimator_map["b"][0].n_samples == 16
        assert restored.estimator_map["b"][0].seed == 7

    def test_deterministic_scenario_heights_bit_identical(self):
        rng = np.random.default_rng(0)
        heights = rng.normal(scale=1e-6, size=(9, 9))
        spec = SweepSpec(
            scenarios=DeterministicScenario("s", heights, period_m=5e-6),
            frequencies_hz=[2 * GHZ])
        restored = wire.loads(wire.dumps(spec))
        assert restored.key == spec.key
        restored_heights = restored.scenarios[0].heights_m
        assert np.array_equal(restored_heights, heights)
        assert restored_heights.dtype == np.float64

    def test_correlation_family_round_trips(self):
        for cf in (GaussianCorrelation(1 * UM, 2 * UM),
                   ExtractedCorrelation(1 * UM, 1.4 * UM, 0.53 * UM),
                   MaternCorrelation(1 * UM, 1 * UM, nu=2.5)):
            doc = wire.to_wire(StochasticScenario(
                "x", cf, StochasticLossConfig(points_per_side=8,
                                              max_modes=2)))
            restored = wire.from_wire(json.loads(json.dumps(doc)))
            assert type(restored.correlation) is type(cf)
            assert restored.key == StochasticScenario(
                "x", cf, StochasticLossConfig(points_per_side=8,
                                              max_modes=2)).key

    def test_unregistered_correlation_rejected(self):
        class Custom(GaussianCorrelation):
            pass

        spec = SweepSpec(
            scenarios=StochasticScenario(
                "c", Custom(1.0, 1.0),
                StochasticLossConfig(points_per_side=8, max_modes=2)),
            frequencies_hz=[1 * GHZ])
        with pytest.raises(wire.WireError, match="not wire-registered"):
            wire.dumps(spec)
        wire.register_correlation(Custom)
        try:
            restored = wire.loads(wire.dumps(spec))
            assert restored.key == spec.key
        finally:
            wire._CORRELATIONS.pop("Custom")

    def test_job_round_trip(self):
        job = _tiny_spec().jobs()[1]
        restored = wire.loads(wire.dumps(job))
        assert isinstance(restored, Job)
        assert restored.key == job.key
        assert restored.index == job.index

    def test_sweep_result_round_trip_bit_identical(self):
        points = tuple(
            PointResult(scenario="m", frequency_hz=f, estimator="e",
                        key=f"k{i}", mean=1.5 + i, std=0.25,
                        values=np.linspace(0, 1, 5) * (i + 1),
                        n_evals=5, seed=None, wall_time_s=0.1,
                        cache_hit=bool(i), pid=123)
            for i, f in enumerate((1e9, 2e9)))
        result = SweepResult(frequencies_hz=(1e9, 2e9), points=points,
                             tags={"scale": "quick"}, executor="serial",
                             wall_time_s=1.25)
        restored = wire.loads(wire.dumps(result))
        assert isinstance(restored, SweepResult)
        assert restored.frequencies_hz == result.frequencies_hz
        assert restored.tags == dict(result.tags)
        for a, b in zip(result.points, restored.points):
            assert a.mean == b.mean and a.std == b.std
            assert np.array_equal(a.values, b.values)
            assert a.cache_hit == b.cache_hit

    def test_envelope_versioning(self):
        doc = json.loads(wire.dumps(_tiny_spec()))
        assert doc["wire_version"] == wire.WIRE_VERSION
        doc["wire_version"] = 999
        with pytest.raises(wire.WireError, match="unsupported"):
            wire.loads(json.dumps(doc))
        with pytest.raises(wire.WireError, match="not a repro wire"):
            wire.loads(json.dumps({"body": {}}))
        with pytest.raises(wire.WireError, match="valid JSON"):
            wire.loads("{nope")

    def test_unknown_tag_rejected(self):
        with pytest.raises(wire.WireError, match="unknown wire document"):
            wire.from_wire({"$type": "FluxCapacitor"})

    def test_numpy_scalars_in_config_fields_encode(self):
        """Engine-legal numpy scalars in dataclass fields must cross
        the wire (as plain JSON numbers) with the hash preserved."""
        spec = SweepSpec(
            scenarios=StochasticScenario(
                "m", GaussianCorrelation(1 * UM, 1 * UM),
                StochasticLossConfig(points_per_side=np.int64(8),
                                     max_modes=np.int64(2))),
            frequencies_hz=[1 * GHZ],
            estimators=EstimatorSpec(kind="sscm", order=1))
        restored = wire.loads(wire.dumps(spec))
        assert restored.key == spec.key

    def test_unencodable_object_is_wire_error(self):
        spec = _tiny_spec()
        spec.tags["weird"] = object()
        with pytest.raises(wire.WireError):
            wire.dumps(spec)

    @pytest.mark.parametrize("case", ["unknown", "missing"])
    def test_keyword_rebuild_error_is_wire_error(self, case):
        """Decoders that rebuild a dataclass by keyword turn an unknown
        or missing field into a WireError naming the tag and the field
        (a bare TypeError would escape as an HTTP 500)."""
        if case == "unknown":
            doc = wire.to_wire(_tiny_spec())
            doc["scenarios"][0]["config"]["bogus"] = 1
            match = r"StochasticLossConfig.*'bogus'"
        else:
            doc = wire.to_wire(PointResult(
                scenario="m", frequency_hz=1e9, estimator="e", key="k",
                mean=1.0, std=0.0, values=np.zeros(1), n_evals=1,
                seed=None, wall_time_s=0.0, cache_hit=False))
            del doc["mean"]
            match = r"PointResult.*'mean'"
        with pytest.raises(wire.WireError, match=match):
            wire.from_wire(doc)

    def test_corrupt_array_rejected(self):
        doc = wire.to_wire(np.arange(4.0))
        doc["data"] = "!!!not-base64!!!"
        with pytest.raises(wire.WireError, match="corrupt ndarray"):
            wire.from_wire(doc)


# ----------------------------------------------------------------------
# Cost model + scheduler
# ----------------------------------------------------------------------

class _CountingExecutor(SerialExecutor):
    """Serial execution that records every job key it actually runs.

    Scheduler dispatch items are scenario groups (lists of jobs), so
    the record flattens them in dispatch order.
    """

    def __init__(self):
        self.executed = []
        self.lock = threading.Lock()

    def run(self, fn, items, on_result=None):
        with self.lock:
            for group in items:
                self.executed.extend(job.key for job in group)
        with _quiet():
            return super().run(fn, items, on_result=on_result)


class TestCostModel:
    def test_bigger_grid_costs_more(self):
        small = _tiny_spec().jobs()[0]
        big = SweepSpec(
            scenarios=StochasticScenario(
                "m", GaussianCorrelation(1 * UM, 1 * UM),
                StochasticLossConfig(points_per_side=16, max_modes=2)),
            frequencies_hz=[1 * GHZ],
            estimators=EstimatorSpec(kind="sscm", order=1)).jobs()[0]
        assert estimate_job_cost(big) > estimate_job_cost(small)

    def test_montecarlo_scales_with_samples(self):
        def mc_job(n):
            return SweepSpec(
                scenarios=StochasticScenario(
                    "m", GaussianCorrelation(1 * UM, 1 * UM),
                    StochasticLossConfig(points_per_side=8, max_modes=2)),
                frequencies_hz=[1 * GHZ],
                estimators=EstimatorSpec(kind="montecarlo",
                                         n_samples=n, seed=0)).jobs()[0]
        assert estimate_job_cost(mc_job(100)) == pytest.approx(
            10 * estimate_job_cost(mc_job(10)))

    def test_deterministic_solve_is_single_eval(self):
        job = SweepSpec(
            scenarios=DeterministicScenario("s", np.zeros((8, 8)),
                                            period_m=5e-6),
            frequencies_hz=[1 * GHZ]).jobs()[0]
        assert estimate_job_cost(job) == pytest.approx(float(8 * 8) ** 3)


class TestScheduler:
    def test_submit_wait_result_matches_engine(self):
        spec = _tiny_spec()
        with _quiet():
            reference = run_sweep(spec, executor=SerialExecutor(),
                                  cache=ResultCache())
        scheduler = SweepScheduler(cache=ResultCache())
        try:
            ticket = scheduler.submit(spec)
            assert scheduler.wait(ticket, timeout=120)
            result = scheduler.result(ticket)
        finally:
            scheduler.shutdown()
        assert np.array_equal(reference.mean_curve("m"),
                              result.mean_curve("m"))
        for a, b in zip(reference.points, result.points):
            assert np.array_equal(np.asarray(a.values),
                                  np.asarray(b.values))

    def test_warm_cache_completes_in_submit(self):
        spec = _tiny_spec()
        cache = ResultCache()
        with _quiet():
            run_sweep(spec, executor=SerialExecutor(), cache=cache)
        counting = _CountingExecutor()
        scheduler = SweepScheduler(executor=counting, cache=cache)
        try:
            ticket = scheduler.submit(spec)
            status = scheduler.status(ticket)
            assert status["state"] == "complete"
            assert status["cache_hits"] == status["total"]
            assert counting.executed == []
            result = scheduler.result(ticket)
            assert result.cache_hits == result.n_points
        finally:
            scheduler.shutdown()

    def test_concurrent_overlapping_submissions_dedup(self):
        """The acceptance criterion: two concurrent submissions of
        overlapping specs execute each unique content hash once."""
        spec_a = _tiny_spec(freqs=(1.0, 3.0))
        spec_b = _tiny_spec(freqs=(3.0, 5.0))  # shares the 3 GHz job
        counting = _CountingExecutor()
        scheduler = SweepScheduler(executor=counting, cache=ResultCache())
        tickets = {}

        def submit(name, spec):
            tickets[name] = scheduler.submit(spec)

        try:
            threads = [threading.Thread(target=submit, args=(n, s))
                       for n, s in (("a", spec_a), ("b", spec_b))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert scheduler.wait(tickets["a"], timeout=120)
            assert scheduler.wait(tickets["b"], timeout=120)
            res_a = scheduler.result(tickets["a"])
            res_b = scheduler.result(tickets["b"])
        finally:
            scheduler.shutdown()
        unique = {j.key for j in spec_a.jobs()} | {j.key
                                                   for j in spec_b.jobs()}
        assert len(unique) == 3
        assert sorted(counting.executed) == sorted(unique)
        # the shared 3 GHz point is numerically the same object stream
        shared = [j.key for j in spec_a.jobs()
                  if j.key in {k.key for k in spec_b.jobs()}]
        assert len(shared) == 1
        a_point = next(p for p in res_a.points if p.key == shared[0])
        b_point = next(p for p in res_b.points if p.key == shared[0])
        assert np.array_equal(np.asarray(a_point.values),
                              np.asarray(b_point.values))

    def test_longest_first_dispatch(self):
        """Jobs of one round start in descending cost order."""
        small = _tiny_spec(freqs=(1.0,), name="small")
        big = SweepSpec(
            scenarios=StochasticScenario(
                "big", GaussianCorrelation(1 * UM, 1 * UM),
                StochasticLossConfig(points_per_side=12, max_modes=2)),
            frequencies_hz=[1 * GHZ],
            estimators=EstimatorSpec(kind="sscm", order=1))
        counting = _CountingExecutor()
        scheduler = SweepScheduler(executor=counting, cache=ResultCache())
        try:
            # stop the dispatcher from racing ahead: submit both before
            # it can take a round by holding the lock
            with scheduler._lock:
                pass
            a = scheduler.submit(small)
            b = scheduler.submit(big)
            assert scheduler.wait(a, timeout=120)
            assert scheduler.wait(b, timeout=120)
        finally:
            scheduler.shutdown()
        big_key = big.jobs()[0].key
        small_key = small.jobs()[0].key
        # Whatever the round split, the big job never queues behind the
        # small one within a round; with a single round it runs first.
        if counting.executed[0] != big_key:
            assert counting.executed == [small_key, big_key]

    def test_events_and_status_progression(self):
        spec = _tiny_spec()
        scheduler = SweepScheduler(cache=ResultCache())
        try:
            with _quiet():
                ticket = scheduler.submit(spec)
                assert scheduler.wait(ticket, timeout=120)
            events, finished = scheduler.events(ticket)
            assert finished
            kinds = [e["event"] for e in events]
            assert kinds[0] == "submitted"
            assert kinds[-1] == "complete"
            assert kinds.count("point") == spec.n_jobs
            seqs = [e["seq"] for e in events]
            assert seqs == list(range(len(events)))
            # incremental read
            later, finished = scheduler.events(ticket, since=len(events))
            assert later == [] and finished
        finally:
            scheduler.shutdown()

    def test_job_failure_is_isolated_per_slot(self, monkeypatch):
        """A failing job fails only the tickets waiting on it — other
        clients' jobs in the same dispatch round are unaffected."""
        import repro.engine.runtime as runtime_module

        real = runtime_module.execute_job_group

        def flaky(jobs):
            if any(job.scenario.name == "bad" for job in jobs):
                raise RuntimeError("synthetic solver failure")
            return real(jobs)

        monkeypatch.setattr(runtime_module, "execute_job_group", flaky)
        # Different frequencies: scenario *names* are excluded from
        # content hashes, so same-physics specs would dedup into one
        # slot and the "bad" job would never actually run. The bad
        # scenario also differs physically (eta), otherwise the two
        # jobs would fuse into one frequency-stacked group and the
        # good job would share the bad one's group.
        good = _tiny_spec(freqs=(1.0,), name="good")
        bad = SweepSpec(
            scenarios=[StochasticScenario(
                "bad", GaussianCorrelation(1 * UM, 2 * UM),
                StochasticLossConfig(points_per_side=8, max_modes=2))],
            frequencies_hz=[2.0 * GHZ],
            estimators=EstimatorSpec(kind="sscm", order=1),
            tags={"suite": "service"})
        scheduler = SweepScheduler(cache=ResultCache())
        try:
            with _quiet():
                good_id = scheduler.submit(good)
                bad_id = scheduler.submit(bad)
                assert scheduler.wait(good_id, timeout=120)
                assert scheduler.wait(bad_id, timeout=120)
            assert scheduler.status(good_id)["state"] == "complete"
            status = scheduler.status(bad_id)
            assert status["state"] == "failed"
            assert "synthetic solver failure" in status["error"]
            result = scheduler.result(good_id)
            assert result.n_points == 1
        finally:
            scheduler.shutdown()

    def test_failed_job_fails_ticket(self):
        class Exploding(SerialExecutor):
            def run(self, fn, items, on_result=None):
                raise RuntimeError("worker exploded")

        scheduler = SweepScheduler(executor=Exploding(),
                                   cache=ResultCache())
        try:
            ticket = scheduler.submit(_tiny_spec())
            assert scheduler.wait(ticket, timeout=120)
            status = scheduler.status(ticket)
            assert status["state"] == "failed"
            assert status["error"]
            with pytest.raises(ConfigurationError, match="failed"):
                scheduler.result(ticket)
            events, finished = scheduler.events(ticket)
            assert finished
            assert events[-1]["event"] == "failed"
        finally:
            scheduler.shutdown()

    def test_points_follow_spec_order_not_dispatch_order(self):
        """Longest-first dispatch runs the 12x12 job before the 8x8
        one, yet ``status`` and ``result`` list points in the spec's
        job order."""
        spec = SweepSpec(
            scenarios=[StochasticScenario(
                name, GaussianCorrelation(1 * UM, 1 * UM),
                StochasticLossConfig(points_per_side=n, max_modes=2))
                for name, n in (("small", 8), ("big", 12))],
            frequencies_hz=[1 * GHZ],
            estimators=EstimatorSpec(kind="sscm", order=1))
        keys = [job.key for job in spec.jobs()]
        counting = _CountingExecutor()
        scheduler = SweepScheduler(executor=counting, cache=ResultCache())
        try:
            ticket = scheduler.submit(spec)
            assert scheduler.wait(ticket, timeout=120)
            status = scheduler.status(ticket)
            result = scheduler.result(ticket)
        finally:
            scheduler.shutdown()
        assert counting.executed == keys[::-1]
        assert [p["key"] for p in status["points"]] == keys
        assert [p.key for p in result.points] == keys
        assert [p.scenario for p in result.points] == ["small", "big"]
        assert all(p.n_evals > 0 for p in result.points)

    def test_validation(self):
        scheduler = SweepScheduler(cache=ResultCache())
        try:
            with pytest.raises(ConfigurationError, match="SweepSpec"):
                scheduler.submit("nope")
            with pytest.raises(KeyError):
                scheduler.status("missing")
        finally:
            scheduler.shutdown()
        with pytest.raises(ConfigurationError, match="shut down"):
            scheduler.submit(_tiny_spec())

    def test_parallel_executor_matches_engine(self):
        """The ``serve --jobs N`` configuration: the local worker runs
        its rounds on a thread pool, bit-identical to serial."""
        spec = SweepSpec(
            scenarios=[StochasticScenario(
                f"eta{eta}", GaussianCorrelation(1 * UM, eta * UM),
                StochasticLossConfig(points_per_side=8, max_modes=2))
                for eta in (1, 2)],
            frequencies_hz=[f * GHZ for f in (1.0, 3.0, 5.0)],
            estimators=EstimatorSpec(kind="sscm", order=1))
        with _quiet():
            reference = run_sweep(spec, executor=SerialExecutor(),
                                  cache=ResultCache())
        scheduler = SweepScheduler(executor=ParallelExecutor(2),
                                   cache=ResultCache())
        try:
            ticket = scheduler.submit(spec)
            assert scheduler.wait(ticket, timeout=300)
            result = scheduler.result(ticket)
        finally:
            scheduler.shutdown()
        assert result.n_points == reference.n_points == 6
        for a, b in zip(reference.points, result.points):
            assert a.key == b.key
            assert a.mean == b.mean and a.std == b.std
            assert np.array_equal(np.asarray(a.values),
                                  np.asarray(b.values))

    def test_shutdown_fails_queued_work_and_commits_leased(self):
        """Queued jobs fail on shutdown (no one can claim them after
        it); the local worker's running round still commits."""
        executor = _GatedExecutor()
        scheduler = SweepScheduler(executor=executor, cache=ResultCache())
        try:
            leased = scheduler.submit(_tiny_spec(freqs=(1.0,)))
            assert executor.started.wait(timeout=30)
            queued = scheduler.submit(_tiny_spec(freqs=(3.0,)))
            scheduler.shutdown(timeout=0.1)
            assert scheduler.wait(queued, timeout=0.5)
            status = scheduler.status(queued)
            assert status["state"] == "failed"
            assert status["error"] == "scheduler shut down"
            events, finished = scheduler.events(queued)
            assert finished and events[-1]["event"] == "failed"
            executor.release.set()
            assert scheduler.wait(leased, timeout=120)
            assert scheduler.status(leased)["state"] == "complete"
            scheduler._thread.join(10)
            assert not scheduler._thread.is_alive()
        finally:
            executor.release.set()
            scheduler.shutdown()


def _instant_payload(job):
    """A synthetic payload whose mean is the job's frequency."""
    return {"mean": float(job.frequency_hz), "std": 0.0,
            "values": np.zeros(1), "n_evals": 1, "seed": None,
            "wall_time_s": 1e-3}


class _InstantExecutor(SerialExecutor):
    """Answers each job with :func:`_instant_payload` instead of
    solving, so a stress test can run many rounds."""

    def run(self, fn, items, on_result=None):
        return super().run(
            lambda group: [(_instant_payload(job), None) for job in group],
            items, on_result=on_result)


class TestLocalWorker:
    """In-process execution is the scheduler's own lease-holding worker."""

    def test_local_and_fleet_workers_race_for_one_queue(self):
        """Stress: the local worker, four fleet threads and a submitter
        share the queue under a tiny switch interval; every unique job
        is claimed and committed exactly once, and every ticket gets
        its own jobs' payloads."""
        scheduler = SweepScheduler(executor=_InstantExecutor(),
                                   cache=ResultCache())
        specs = [_tiny_spec(freqs=(1.0 + i, 2.0 + i), name=f"s{i}")
                 for i in range(200)]
        n_unique = len({job.key for spec in specs for job in spec.jobs()})
        stop = threading.Event()
        outcomes, errors = [], []

        def fleet_worker(worker_id):
            try:
                while not stop.is_set():
                    for claim in scheduler.claim_jobs(worker_id,
                                                      lease_s=30):
                        outcomes.append(scheduler.complete_lease(
                            worker_id, claim.slot, claim.token, claim.key,
                            _instant_payload(claim.job)))
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=fleet_worker, args=(f"f{k}",))
                   for k in range(4)]
        try:
            for thread in threads:
                thread.start()
            tickets = [scheduler.submit(spec) for spec in specs]
            deadline = time.monotonic() + 60
            for ticket in tickets:
                assert scheduler.wait(
                    ticket, timeout=max(deadline - time.monotonic(), 0))
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            for thread in threads:
                thread.join(10)
            snapshot = scheduler.fleet_snapshot()
            local_alive = scheduler._thread.is_alive()
            scheduler.shutdown()
        assert not any(thread.is_alive() for thread in threads)
        assert local_alive and errors == []
        assert set(outcomes) <= {"committed"}
        for spec, ticket in zip(specs, tickets):
            result = scheduler.result(ticket)
            assert [p.mean for p in result.points] == list(
                spec.frequencies_hz)
        assert sum(w["claimed"] for w in snapshot["workers"]) == n_unique
        assert sum(w["completed"] for w in snapshot["workers"]) == n_unique
        assert scheduler.cache.stats.snapshot()["stores"] == n_unique

    def test_local_worker_is_a_fleet_worker(self):
        spec = _tiny_spec()
        telemetry.enable()
        leases = telemetry.REGISTRY.counter("repro_fleet_leases_total",
                                            labels=("outcome",))
        before = leases.value(outcome="committed")
        scheduler = SweepScheduler(cache=ResultCache())
        try:
            with _quiet():
                ticket = scheduler.submit(spec)
                assert scheduler.wait(ticket, timeout=120)
            snapshot = scheduler.fleet_snapshot()
            trace = scheduler.trace(ticket)
        finally:
            scheduler.shutdown()
        local, = snapshot["workers"]
        assert local["id"] == LOCAL_WORKER
        assert local["claimed"] == local["completed"] == spec.n_jobs
        assert local["failed"] == local["expired"] == 0
        assert local["rate_ewma"] > 0.0
        assert leases.value(outcome="committed") - before == spec.n_jobs
        events = trace["traceEvents"]
        lanes = {e["pid"]: e["args"]["name"] for e in events
                 if e.get("ph") == "M"}
        assert set(lanes.values()) == {"server", f"worker {LOCAL_WORKER}"}
        local_phases = {e["name"] for e in events if e.get("ph") == "X"
                        and lanes[e["pid"]] == f"worker {LOCAL_WORKER}"}
        assert {"lease", "upload"} <= local_phases
        assert [e for e in events if e["name"] == "lease"]
        assert not [e for e in events if e["name"] == "dispatch"]

    def test_grouped_solve_span_is_not_synthesized_again(self):
        """A two-frequency group solves under one ``job_group`` span,
        which rides the first member's payload: the trace takes it as
        that member's solve and synthesizes one only for the other."""
        spec = _tiny_spec()
        telemetry.enable()
        scheduler = SweepScheduler(cache=ResultCache())
        try:
            with _quiet():
                ticket = scheduler.submit(spec)
                assert scheduler.wait(ticket, timeout=120)
            points = scheduler.result(ticket).points
            trace = scheduler.trace(ticket)
        finally:
            scheduler.shutdown()
        events = trace["traceEvents"]
        lanes = {e["pid"]: e["args"]["name"] for e in events
                 if e.get("ph") == "M"}
        local = [e for e in events if e.get("ph") == "X"
                 and lanes[e["pid"]] == f"worker {LOCAL_WORKER}"]
        assert [e["name"] for e in local].count("job_group") == 1
        spanless = [point.key for point in points if not point.spans]
        assert len(spanless) == 1
        assert [e["args"]["key"] for e in local
                if e["name"] == "solve"] == spanless

    def test_local_leases_never_expire(self):
        """A blocked local round keeps its leases however long it runs:
        fleet workers find nothing to claim and nothing is reclaimed."""
        executor = _GatedExecutor()
        scheduler = SweepScheduler(executor=executor, cache=ResultCache())
        try:
            ticket = scheduler.submit(_tiny_spec())
            assert executor.started.wait(timeout=30)
            time.sleep(0.5)  # far past the shortest fleet lease, 0.05 s
            assert scheduler.claim_jobs("w", max_jobs=8, lease_s=0.05) == []
            snapshot = scheduler.fleet_snapshot()
            leases = {w["id"]: w["leases_held"]
                      for w in snapshot["workers"]}
            assert leases == {LOCAL_WORKER: 2, "w": 0}
            assert snapshot["leases_expired_total"] == 0
            executor.release.set()
            with _quiet():
                assert scheduler.wait(ticket, timeout=120)
            assert scheduler.status(ticket)["state"] == "complete"
        finally:
            executor.release.set()
            scheduler.shutdown()

    def test_local_worker_id_is_reserved(self):
        scheduler = SweepScheduler(cache=ResultCache(), local_dispatch=False)
        try:
            scheduler.submit(_tiny_spec())
            with pytest.raises(ConfigurationError, match="reserved"):
                scheduler.claim_jobs(LOCAL_WORKER, max_jobs=1)
            assert scheduler.fleet_snapshot()["workers"] == []
            assert scheduler.fleet_snapshot()["queue_depth"] == 2
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# HTTP server + client
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _serving(**kwargs):
    """A live ``make_server(port=0, **kwargs)`` on a daemon thread."""
    server = make_server(port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.service.shutdown()
        server.shutdown()
        server.server_close()
        thread.join(5)


def _url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


@pytest.fixture()
def http_server():
    with _serving(cache=ResultCache()) as server:
        yield server


@pytest.fixture()
def service_url(http_server):
    return _url(http_server)


@pytest.fixture()
def client(service_url):
    """A client of the ``service_url`` server, closed after the test."""
    with ServiceClient(service_url, poll_interval=0.02) as client:
        yield client


class TestHTTPService:
    def test_submit_poll_result_bit_identical(self, client):
        spec = _tiny_spec()
        with _quiet():
            reference = run_sweep(spec, executor=SerialExecutor(),
                                  cache=ResultCache())
        assert client.healthy()
        remote = client.run_sweep(spec, timeout=120)
        assert np.array_equal(reference.mean_curve("m"),
                              remote.mean_curve("m"))
        for a, b in zip(reference.points, remote.points):
            assert np.array_equal(np.asarray(a.values),
                                  np.asarray(b.values))
            assert a.mean == b.mean and a.std == b.std
        # second submission replays from the server cache
        warm = client.run_sweep(spec, timeout=30)
        assert warm.cache_hits == warm.n_points
        assert np.array_equal(reference.mean_curve("m"),
                              warm.mean_curve("m"))

    def test_ndjson_event_stream(self, client):
        spec = _tiny_spec()
        ticket = client.submit(spec)
        seen = []
        events = client.events(ticket, on_event=seen.append)
        assert events == seen
        kinds = [e["event"] for e in events]
        assert kinds[0] == "submitted" and kinds[-1] == "complete"
        assert kinds.count("point") == spec.n_jobs

    def test_experiments_listing_and_cache_info(self, client):
        names = [e["name"] for e in client.experiments()]
        assert names == repro.api.experiments()
        spec = _tiny_spec()
        client.run_sweep(spec, timeout=120)
        info = client.cache_info()
        assert info["stats"]["stores"] >= spec.n_jobs

    def test_solve_free_experiment_runs_inline(self, client):
        with _quiet():
            doc = client.run_experiment("table1", scale="quick",
                                        timeout=120)
        assert doc["experiment"] == "Table I"
        assert doc["all_checks_pass"] is True

    def test_http_errors_are_decoded(self, client):
        """Each error maps to ConfigurationError, and the server closes
        that connection; the client's next call works."""
        with pytest.raises(ConfigurationError, match="HTTP 404"):
            client.status("nope")
        assert client.healthy()
        with pytest.raises(ConfigurationError, match="HTTP 400"):
            client._post("/v1/sweeps", b"{not json")
        assert client.healthy()
        with pytest.raises(ConfigurationError, match="HTTP 404"):
            client._get("/v1/teapot")
        assert len(client._get("/v1/sweeps")["sweeps"]) == 0

    def test_job_routes_are_gone(self, client):
        """Work enters only as a sweep: a raw ``Job`` POST to ``jobs``
        and a per-hash read under it both answer 404 "no route"."""
        job = _tiny_spec().jobs()[0]
        root = "/".join(("", "v1", "jobs"))
        with pytest.raises(ConfigurationError, match="HTTP 404: no route"):
            client._post(root, wire.dumps(job).encode("utf-8"))
        with pytest.raises(ConfigurationError, match="HTTP 404: no route"):
            client._get(f"{root}/{job.key}")

    @pytest.mark.parametrize("batch", [False, True], ids=["job", "job-list"])
    def test_sweep_route_rejects_job_documents(self, client, batch):
        """A well-formed wire body that is not a ``SweepSpec`` — one
        ``Job``, or an envelope holding a list of them — is a 400 naming
        what it decoded to, and opens no ticket."""
        jobs = _tiny_spec().jobs()
        body = ([wire.to_wire(job) for job in jobs] if batch
                else wire.to_wire(jobs[0]))
        decoded = "list" if batch else "Job"
        with pytest.raises(ConfigurationError,
                           match=f"HTTP 400: body decodes to {decoded}, "
                                 f"expected SweepSpec"):
            client._post("/v1/sweeps",
                         json.dumps(wire.envelope(body)).encode("utf-8"))
        assert client._get("/v1/sweeps")["sweeps"] == []

    @pytest.mark.parametrize("path, tag", [
        (("options",), "SWMOptions"),
        (("system", "dielectric"), "Dielectric"),
    ], ids=["options", "materials"])
    def test_unknown_wire_field_is_400(self, client, path, tag):
        """A document rebuilt by keyword that carries an unknown field
        is a client error naming the tag and the field, not a 500."""
        doc = json.loads(wire.dumps(_tiny_spec()))
        scenario = doc["body"]["scenarios"][0]
        scenario["options"] = {"$type": "SWMOptions"}  # was None
        target = scenario
        for key in path:
            target = target[key]
        target["bogus"] = 1
        with pytest.raises(ConfigurationError,
                           match=f"HTTP 400.*{tag}.*'bogus'"):
            client._post("/v1/sweeps", json.dumps(doc).encode("utf-8"))

    def test_bad_since_parameter_is_400(self, client):
        ticket = client.submit(_tiny_spec())
        client.wait(ticket, timeout=120)
        with pytest.raises(ConfigurationError, match="HTTP 400"):
            client._get(f"/v1/sweeps/{ticket}/events?since=abc")

    @staticmethod
    def _status_line(url: str, request: bytes) -> bytes:
        """Send one raw request; the response's status line. The 2 s
        timeout turns a handler that never answers into a failure."""
        host, port = url.rsplit("/", 1)[1].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=2) as sock:
            sock.sendall(request)
            return sock.makefile("rb").readline()

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, service_url, length):
        """A non-integer or negative Content-Length is answered 400
        before any body read, instead of a 500 (``abc``) or a handler
        blocked reading to end of stream (``-1``)."""
        request = (f"POST /v1/sweeps HTTP/1.1\r\nHost: test\r\n"
                   f"Content-Length: {length}\r\n\r\n{{}}").encode()
        line = self._status_line(service_url, request)
        assert line.split()[1] == b"400", line

    def test_negative_since_is_400(self):
        """``since=-1`` on a running ticket is a 400; as a slice start
        it used to stream the ``submitted`` event twice."""
        executor = _GatedExecutor()
        server = make_server(port=0, cache=ResultCache(), executor=executor)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with ServiceClient(f"http://{host}:{port}") as client:
                ticket = client.submit(_tiny_spec())
                assert executor.started.wait(timeout=30)
                assert client.status(ticket)["state"] == "running"
            request = (f"GET /v1/sweeps/{ticket}/events?since=-1 HTTP/1.1"
                       "\r\nHost: test\r\n\r\n").encode()
            line = self._status_line(f"http://{host}:{port}", request)
            assert line.split()[1] == b"400", line
            with pytest.raises(ConfigurationError, match="since"):
                server.service.scheduler.events(ticket, since=-1)
        finally:
            executor.release.set()
            server.service.shutdown()
            server.shutdown()
            server.server_close()
            thread.join(5)

    def test_unreachable_server(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        assert not client.healthy()


def _record_requests(server, monkeypatch):
    """``(method, path, client port)`` of each request the server
    dispatches from now on."""
    seen = []
    handler = server.RequestHandlerClass
    dispatch = handler._dispatch

    def recording(self, method):
        seen.append((method, self.path, self.client_address[1]))
        dispatch(self, method)

    monkeypatch.setattr(handler, "_dispatch", recording)
    return seen


def _count_connects(client, monkeypatch):
    """A list that grows by one per connection the client opens."""
    opened = []
    connect = client._connect

    def counting():
        opened.append(1)
        return connect()

    monkeypatch.setattr(client, "_connect", counting)
    return opened


class TestKeepAlive:
    """A submit answers with the ticket's status document, and the
    client keeps one HTTP/1.1 connection per concurrent caller."""

    def test_warm_sweep_is_one_request_and_cold_one_polls(
            self, monkeypatch):
        executor = _GatedExecutor()
        spec = _tiny_spec()
        with _serving(cache=ResultCache(), executor=executor) as server, \
                ServiceClient(_url(server), poll_interval=0.02) as client:
            seen = _record_requests(server, monkeypatch)
            # The round is gated, so the POST answer reports a running
            # ticket; the first progress report opens the gate.
            cold = client.run_sweep(
                spec, progress=lambda done, total: executor.release.set(),
                timeout=120)
            assert seen[0][:2] == ("POST", "/v1/sweeps")
            assert len(seen) >= 2
            assert {method for method, _, _ in seen[1:]} == {"GET"}
            del seen[:]
            warm = client.run_sweep(spec, timeout=30)
            assert [(m, p) for m, p, _ in seen] == [("POST", "/v1/sweeps")]
        assert warm.cache_hits == warm.n_points == 2
        for a, b in zip(cold.points, warm.points):
            assert np.array_equal(np.asarray(a.values),
                                  np.asarray(b.values))

    def test_consecutive_calls_share_one_connection(
            self, http_server, client, monkeypatch):
        seen = _record_requests(http_server, monkeypatch)
        opened = _count_connects(client, monkeypatch)
        assert client.healthy()
        client.experiments()
        with _quiet():
            client.run_sweep(_tiny_spec(), timeout=120)
        client.run_sweep(_tiny_spec(), timeout=30)
        assert "repro_http_requests_total" in client.metrics_text()
        assert len(seen) >= 6
        assert len({port for _, _, port in seen}) == 1
        assert len(opened) == 1

    @staticmethod
    def _wait_dropped(client):
        """Block until the server has closed the client's one idle
        connection (its socket reads end of stream)."""
        (conn,) = client._idle
        ready, _, _ = select.select([conn.sock], [], [], 10)
        assert ready and conn.sock.recv(1, socket.MSG_PEEK) == b""

    def test_idle_drop_is_retried_once_on_a_fresh_connection(
            self, monkeypatch):
        """The server closes a connection idle past its timeout; the
        next GET and POST each go out once more on a new connection,
        and the POST opens exactly one ticket."""
        with _serving(cache=ResultCache()) as server, \
                ServiceClient(_url(server)) as client:
            monkeypatch.setattr(server.RequestHandlerClass, "timeout", 0.2)
            seen = _record_requests(server, monkeypatch)
            opened = _count_connects(client, monkeypatch)
            assert client.healthy()
            self._wait_dropped(client)
            assert client.healthy()
            self._wait_dropped(client)
            ticket = client.submit(_tiny_spec())
            assert len(opened) == 3
            assert [m for m, _, _ in seen] == ["GET", "GET", "POST"]
            assert [t["id"] for t in server.service.scheduler.tickets()] \
                == [ticket]

    def test_submit_answer_without_result_still_completes(
            self, http_server, client, monkeypatch):
        """Against a server whose submit answers with the ticket's
        links only, the client polls for the result, warm or cold."""
        submit = SweepService.submit_sweep

        def links_only(service, body):
            doc = submit(service, body)
            return {key: doc[key] for key in
                    ("id", "state", "done", "total", "cache_hits", "links")}

        monkeypatch.setattr(SweepService, "submit_sweep", links_only)
        seen = _record_requests(http_server, monkeypatch)
        with _quiet():
            cold = client.run_sweep(_tiny_spec(), timeout=120)
        del seen[:]
        warm = client.run_sweep(_tiny_spec(), timeout=30)
        assert [m for m, _, _ in seen] == ["POST", "GET"]
        assert warm.cache_hits == warm.n_points
        assert [p.mean for p in warm.points] == [p.mean for p in cold.points]

    def test_urllib_post_then_get_still_works(self, service_url):
        """A client that closes its connection after each request, and
        reads the result from a status poll, is served as before."""
        body = wire.dumps(_tiny_spec()).encode("utf-8")
        request = urllib.request.Request(
            f"{service_url}/v1/sweeps", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as resp:
            ticket = json.loads(resp.read())["id"]
        deadline = time.monotonic() + 120
        while True:
            with urllib.request.urlopen(
                    f"{service_url}/v1/sweeps/{ticket}") as resp:
                status = json.loads(resp.read())
            if status["state"] != "running":
                break
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert status["state"] == "complete"
        result = wire.from_wire(wire.open_envelope(status["result"]))
        assert result.n_points == 2

    def test_threads_share_one_client(self, http_server, client,
                                      monkeypatch):
        """4 threads x 20 calls on one client: no two requests ever
        share a connection at once, so each answer is its caller's."""
        spec = _tiny_spec()
        with _quiet():
            reference = client.run_sweep(spec, timeout=120)
        tickets = [client.submit(spec) for _ in range(4)]
        seen = _record_requests(http_server, monkeypatch)
        errors = []

        def caller(ticket):
            try:
                for i in range(20):
                    if i % 2:
                        assert client.status(ticket)["id"] == ticket
                    else:
                        warm = client.run_sweep(spec, timeout=30)
                        assert [p.mean for p in warm.points] == \
                            [p.mean for p in reference.points]
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(t,))
                   for t in tickets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(seen) == 80
        assert len({port for _, _, port in seen}) <= 4
        assert len(client._idle) <= 4


@pytest.mark.smoke
@pytest.mark.slow
@pytest.mark.skipif("REPRO_SERVICE_SMOKE" not in __import__("os").environ,
                    reason="full fig3 smoke is minutes-scale; CI's "
                           "service-smoke job sets REPRO_SERVICE_SMOKE=1 "
                           "(the fast HTTP bit-identity tests above run "
                           "everywhere)")
def test_service_smoke_fig3_http_matches_inprocess(tmp_path):
    """The CI service smoke: a quick fig3 sweep over HTTP against a
    warm cache is bit-for-bit the in-process `repro.api` path."""
    spec = repro.api.plan("fig3", scale="quick")
    cache = ResultCache(disk_dir=tmp_path / "store")
    with _quiet():
        reference = run_sweep(spec, executor=SerialExecutor(),
                              cache=cache)
    server = make_server(port=0, cache=cache)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        with ServiceClient(f"http://{host}:{port}",
                           poll_interval=0.05) as client:
            start = time.perf_counter()
            remote = client.run_sweep(spec, timeout=300)
            elapsed = time.perf_counter() - start
    finally:
        server.service.shutdown()
        server.shutdown()
        server.server_close()
        thread.join(5)
    assert remote.cache_hits == remote.n_points, "warm cache must serve all"
    for scenario in reference.scenario_names:
        assert np.array_equal(reference.mean_curve(scenario),
                              remote.mean_curve(scenario)), scenario
    for a, b in zip(reference.points, remote.points):
        assert np.array_equal(np.asarray(a.values), np.asarray(b.values))
    assert elapsed < 60.0, f"warm HTTP replay took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# Telemetry across the service stack (PR 6)
# ----------------------------------------------------------------------

def _profile_spec(freqs=(1.0,), n=12, name="p"):
    return SweepSpec(
        scenarios=ProfileScenario(name, GaussianCorrelation(1.0, 1.0),
                                  period_um=20.0, n=n),
        frequencies_hz=[f * GHZ for f in freqs],
        estimators=EstimatorSpec(kind="sscm", order=1))


class TestPerKindCostModel:
    def test_job_kind_mapping(self):
        assert job_kind(_tiny_spec().jobs()[0]) == "stochastic"
        assert job_kind(_profile_spec().jobs()[0]) == "profile"
        det = SweepSpec(
            scenarios=DeterministicScenario("s", np.zeros((8, 8)),
                                            period_m=5e-6),
            frequencies_hz=[1 * GHZ]).jobs()[0]
        assert job_kind(det) == "deterministic"

    def test_profile_jobs_have_their_own_cost_form(self):
        """2D jobs solve 2n x 2n systems with O(n^2) assembly on top —
        the naive ``evals * n^3`` form would undersell them badly."""
        n = 16
        job = _profile_spec(n=n).jobs()[0]
        evals = 1 + 2 * n  # sscm order 1 in dimension n
        naive = float(evals) * float(n) ** 3
        cost = estimate_job_cost(job)
        assert cost > naive  # never cheaper than the naive LU count
        assert cost >= float(evals) * 8.0 * float(n) ** 3  # (2n)^3 LU

    def test_profile_cost_still_orders_by_size(self):
        small = estimate_job_cost(_profile_spec(n=8).jobs()[0])
        big = estimate_job_cost(_profile_spec(n=32).jobs()[0])
        assert big > small


class TestWireV2:
    def test_point_result_spans_round_trip(self):
        spans = [{"name": "factor", "start_unix": 1.5,
                  "duration_s": 0.25, "pid": 7, "tid": 1,
                  "meta": {"n": 64}}]
        point = PointResult(
            scenario="m", frequency_hz=1e9, estimator="sscm(order=1)",
            key="k", mean=1.0, std=0.0, values=np.arange(3.0),
            n_evals=3, seed=None, wall_time_s=0.3, cache_hit=False,
            pid=7, spans=spans)
        restored = wire.from_wire(wire.to_wire(point))
        assert restored.spans == spans
        bare = PointResult(
            scenario="m", frequency_hz=1e9, estimator="sscm(order=1)",
            key="k", mean=1.0, std=0.0, values=np.arange(3.0),
            n_evals=3, seed=None, wall_time_s=0.3, cache_hit=True)
        assert wire.from_wire(wire.to_wire(bare)).spans is None

    def test_old_envelopes_are_rejected(self, client):
        """Only the current wire version decodes: v1–v4 envelopes are a
        WireError, which the service answers with 400."""
        doc = json.loads(wire.dumps(_tiny_spec()))
        assert doc["wire_version"] == wire.WIRE_VERSION == 5
        for old in (1, 2, 3, 4):
            doc["wire_version"] = old
            body = json.dumps(doc)
            with pytest.raises(wire.WireError, match="unsupported"):
                wire.loads(body)
            with pytest.raises(ConfigurationError,
                               match="HTTP 400.*unsupported wire_version"):
                client._post("/v1/sweeps", body.encode("utf-8"))
        # A PointResult document without the spans key still decodes
        point_doc = wire.to_wire(PointResult(
            scenario="m", frequency_hz=1e9, estimator="e", key="k",
            mean=1.0, std=0.0, values=np.zeros(1), n_evals=1,
            seed=None, wall_time_s=0.1, cache_hit=False))
        del point_doc["spans"]
        assert wire.from_wire(point_doc).spans is None


class _GatedExecutor(SerialExecutor):
    """Blocks each dispatch round until released (ETA-while-pending)."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.started = threading.Event()

    def run(self, fn, items, on_result=None):
        self.started.set()
        assert self.release.wait(timeout=60)
        with _quiet():
            return super().run(fn, items, on_result=on_result)


class TestSchedulerTelemetry:
    def test_cache_hits_are_tagged_and_never_calibrated(self):
        """A warm resubmission's points are marked ``cache_hit``, and
        their replayed (original) wall times never reach the
        calibrator."""
        spec = _tiny_spec()
        scheduler = SweepScheduler(cache=ResultCache())
        try:
            with _quiet():
                cold = scheduler.submit(spec)
                assert scheduler.wait(cold, timeout=120)
            kind = job_kind(spec.jobs()[0])
            n_obs = scheduler.calibrator.observations(kind)
            assert n_obs == spec.n_jobs
            assert not any(p.cache_hit
                           for p in scheduler.result(cold).points)
            warm = scheduler.submit(spec)
            assert scheduler.wait(warm, timeout=10)
            assert all(p["cache_hit"]
                       for p in scheduler.status(warm)["points"])
            assert all(p.cache_hit for p in scheduler.result(warm).points)
            # warm replay contributed zero observations
            assert scheduler.calibrator.observations(kind) == n_obs
        finally:
            scheduler.shutdown()

    def test_eta_is_none_then_finite_then_zero(self):
        executor = _GatedExecutor()
        scheduler = SweepScheduler(executor=executor, cache=ResultCache())
        spec = _tiny_spec()
        try:
            ticket = scheduler.submit(spec)
            assert executor.started.wait(timeout=30)
            # No observations of this kind yet: an honest None.
            assert scheduler.status(ticket)["eta_s"] is None
            job = spec.jobs()[0]
            scheduler.calibrator.observe(job_kind(job),
                                         estimate_job_cost(job), 0.5)
            eta = scheduler.status(ticket)["eta_s"]
            assert eta == pytest.approx(spec.n_jobs * 0.5)
            executor.release.set()
            assert scheduler.wait(ticket, timeout=120)
            assert scheduler.status(ticket)["eta_s"] == 0.0
        finally:
            executor.release.set()
            scheduler.shutdown()

    def test_calibrator_learns_from_committed_jobs(self):
        scheduler = SweepScheduler(cache=ResultCache())
        try:
            with _quiet():
                ticket = scheduler.submit(_tiny_spec())
                assert scheduler.wait(ticket, timeout=120)
            snap = scheduler.telemetry_snapshot()
            fit = snap["calibration"]["stochastic"]
            assert fit["n"] == 2
            assert fit["mean_wall_s"] > 0.0
            # A same-kind prediction is now finite and positive.
            job = _tiny_spec(freqs=(7.0,)).jobs()[0]
            pred = scheduler.calibrator.predict(
                "stochastic", estimate_job_cost(job))
            assert pred is not None and pred > 0.0
        finally:
            scheduler.shutdown()


class TestServiceTelemetryHTTP:
    @staticmethod
    def _submit_and_wait(client, spec):
        with _quiet():
            ticket = client.submit(spec)
            client.wait(ticket, timeout=180)
        return ticket

    @staticmethod
    def _series(text, prefix):
        """Value of the first sample line starting with ``prefix``."""
        for line in text.splitlines():
            if line.startswith(prefix):
                return float(line.rsplit(" ", 1)[1])
        raise AssertionError(f"no series {prefix!r} in scrape")

    def test_metrics_endpoint_is_prometheus_text(self, client):
        self._submit_and_wait(client, _tiny_spec())
        text = client.metrics_text()
        assert "# TYPE repro_scheduler_jobs_total counter" in text
        # the registry is process-global, so earlier tests may have
        # contributed — assert at least this sweep's two solves
        assert self._series(
            text, 'repro_scheduler_jobs_total{kind="stochastic",'
                  'outcome="computed"}') >= 2
        assert "# TYPE repro_cache_stats gauge" in text
        assert 'repro_cache_stats{counter="misses"}' in text
        assert "# TYPE repro_scheduler_round_seconds histogram" in text
        assert 'repro_scheduler_round_seconds_bucket{le="+Inf"}' in text
        assert "repro_scheduler_queue_wait_seconds_count" in text
        assert "repro_scheduler_queue_depth 0" in text
        assert "repro_scheduler_jobs_in_flight 0" in text
        # request latencies label by normalized route, not ticket id
        assert ('repro_http_request_seconds_count{method="GET",'
                'route="/v1/sweeps/*"}') in text
        assert "# TYPE repro_http_requests_total counter" in text

    def test_unmatched_paths_share_one_route_label(self, service_url,
                                                   client):
        """404 probes of arbitrary paths must not grow the request
        counter's series without bound: they share one route label."""

        def series():
            return {line.rsplit(" ", 1)[0]
                    for line in client.metrics_text().splitlines()
                    if line.startswith("repro_http_requests_total{")}

        series()  # the scrape's own route is counted from here on
        before = series()
        for path in ("/v1/teapot/aaa", "/v1/teapot/bbb", "/x/8831"):
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(service_url + path)
            info.value.close()
            assert info.value.code == 404
        assert len(series() - before) <= 1

    def test_trace_events_interleave_with_points(self, client):
        ticket = self._submit_and_wait(client, _tiny_spec())
        events = client.events(ticket)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "submitted" and kinds[-1] == "complete"
        assert kinds.count("point") == 2
        # The two frequencies of one scenario execute as a fused group,
        # whose shared trace rides the first committed payload only.
        assert kinds.count("trace") == 1
        # each trace directly follows its point, carrying solver spans
        for i, event in enumerate(events):
            if event["event"] != "trace":
                continue
            assert kinds[i - 1] == "point"
            assert events[i - 1]["key"] == event["key"]
            names = {s["name"] for s in event["spans"]}
            assert {"job_group", "plan", "assemble", "factor"} <= names

    def test_no_event_loss_between_since_cursors(self, service_url,
                                                 client):
        """Satellite 4: a slow consumer resuming from any ``since``
        cursor sees exactly the events it missed, in order."""
        ticket = self._submit_and_wait(client, _tiny_spec())
        full = client.events(ticket)
        assert [e["seq"] for e in full] == list(range(len(full)))

        def fetch(since):
            url = (f"{service_url}/v1/sweeps/{ticket}/events"
                   f"?since={since}")
            with urllib.request.urlopen(url) as resp:
                return [json.loads(line)
                        for line in resp.read().decode().splitlines()
                        if line.strip()]

        # Resume from every cursor position, as a consumer that
        # disconnects and reconnects mid-stream would.
        for since in range(len(full) + 1):
            tail = fetch(since)
            assert tail == full[since:], f"cursor {since} lost events"

    def test_status_eta_over_http(self, client):
        ticket = self._submit_and_wait(client, _tiny_spec())
        status = client.status(ticket)
        assert status["eta_s"] == 0.0  # terminal
        # a second, colder sweep of the same kind now predicts finite
        with _quiet():
            t2 = client.submit(_tiny_spec(freqs=(5.0, 9.0)))
            final = client.wait(t2, timeout=180)
        assert final["eta_s"] == 0.0
