"""Tests of the worker fleet (``repro.fleet``).

Three groups mirroring the subsystem's layers:

- the scheduler's lease protocol: claim/heartbeat/commit, silent-death
  reclaim with bit-identical re-leased results, stale- and double-
  commit rejection, content-hash verification, fleet-wide dedup;
- the HTTP fleet: pull workers against a ``--fleet`` style server,
  bearer auth on mutating endpoints, healthz/metrics fleet fields,
  and the client's idempotent-GET retry policy (flaky-server double);
- the CI smoke (``REPRO_FLEET_SMOKE``): fig3 quick over two worker
  subprocesses matches the in-process run.
"""

import contextlib
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from repro.constants import GHZ, UM
from repro.core import StochasticLossConfig
from repro.engine import (
    EstimatorSpec,
    ResultCache,
    SerialExecutor,
    StochasticScenario,
    SweepSpec,
    execute_job,
    run_sweep,
)
from repro.errors import ConfigurationError
from repro.fleet import FleetWorker
from repro import telemetry
from repro.service import wire
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.scheduler import SweepScheduler
from repro.service.server import SweepService, make_server
from repro.surfaces import GaussianCorrelation


def _tiny_spec(freqs=(1.0, 3.0), name="m"):
    """A fast two-point stochastic sweep (8x8 grid, 2 KL modes)."""
    return SweepSpec(
        scenarios=[StochasticScenario(
            name, GaussianCorrelation(1 * UM, 1 * UM),
            StochasticLossConfig(points_per_side=8, max_modes=2))],
        frequencies_hz=[f * GHZ for f in freqs],
        estimators=EstimatorSpec(kind="sscm", order=1))


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


def _reference_result(spec):
    with _quiet():
        return run_sweep(spec, executor=SerialExecutor(),
                         cache=ResultCache())


def _drain_with_worker(scheduler, worker_id="w", lease_s=30.0):
    """Execute everything queued through the lease protocol, honestly."""
    while True:
        claims = scheduler.claim_jobs(worker_id, max_jobs=64,
                                      lease_s=lease_s)
        if not claims:
            return
        for claim in claims:
            with _quiet():
                payload = execute_job(claim.job)
            assert scheduler.complete_lease(
                worker_id, claim.slot, claim.token, claim.key,
                payload) == "committed"


# ----------------------------------------------------------------------
# Lease protocol (in-process scheduler)
# ----------------------------------------------------------------------

class TestLeaseProtocol:
    def _fleet_scheduler(self, **kwargs):
        kwargs.setdefault("cache", ResultCache())
        kwargs.setdefault("local_dispatch", False)
        return SweepScheduler(**kwargs)

    def test_claim_execute_commit_matches_inprocess(self):
        spec = _tiny_spec()
        reference = _reference_result(spec)
        scheduler = self._fleet_scheduler()
        try:
            ticket = scheduler.submit(spec)
            _drain_with_worker(scheduler)
            assert scheduler.wait(ticket, timeout=10)
            result = scheduler.result(ticket)
            for a, b in zip(reference.points, result.points):
                assert a.mean == b.mean and a.std == b.std
                assert np.array_equal(np.asarray(a.values),
                                      np.asarray(b.values))
        finally:
            scheduler.shutdown()

    def test_claims_come_out_longest_first(self):
        scheduler = self._fleet_scheduler()
        try:
            scheduler.submit(SweepSpec(
                scenarios=[
                    StochasticScenario(
                        "small", GaussianCorrelation(1 * UM, 1 * UM),
                        StochasticLossConfig(points_per_side=8,
                                             max_modes=2)),
                    StochasticScenario(
                        "big", GaussianCorrelation(1 * UM, 1 * UM),
                        StochasticLossConfig(points_per_side=12,
                                             max_modes=2)),
                ],
                frequencies_hz=[1 * GHZ],
                estimators=EstimatorSpec(kind="sscm", order=1)))
            claims = scheduler.claim_jobs("w", max_jobs=2, lease_s=30)
            assert [c.job.scenario.name for c in claims] == ["big", "small"]
        finally:
            scheduler.shutdown()

    def test_heartbeat_keeps_lease_alive_past_deadline(self):
        scheduler = self._fleet_scheduler()
        try:
            scheduler.submit(_tiny_spec(freqs=(1.0,)))
            claim, = scheduler.claim_jobs("w", max_jobs=1, lease_s=0.15)
            for _ in range(4):
                time.sleep(0.08)
                alive = scheduler.heartbeat("w", {claim.slot: claim.token},
                                            lease_s=0.15)
                assert alive[claim.slot] is True
            # still ours: nothing for another worker to claim
            assert scheduler.claim_jobs("thief", max_jobs=4) == []
        finally:
            scheduler.shutdown()

    def test_silent_death_releases_and_result_is_bit_identical(self):
        """A worker claims everything, dies silently; leases expire,
        a second worker re-executes, and the SweepResult equals the
        in-process run bit-for-bit."""
        spec = _tiny_spec()
        reference = _reference_result(spec)
        scheduler = self._fleet_scheduler()
        try:
            ticket = scheduler.submit(spec)
            dead = scheduler.claim_jobs("dead", max_jobs=64, lease_s=0.05)
            assert len(dead) == spec.n_jobs
            # nothing available while the leases are live
            assert scheduler.claim_jobs("alive", max_jobs=64) == [] \
                or time.sleep(0.0)
            time.sleep(0.1)  # let every lease expire
            _drain_with_worker(scheduler, "alive")
            assert scheduler.wait(ticket, timeout=10)
            result = scheduler.result(ticket)
            for a, b in zip(reference.points, result.points):
                assert a.mean == b.mean and a.std == b.std
                assert np.array_equal(np.asarray(a.values),
                                      np.asarray(b.values))
            snap = scheduler.fleet_snapshot()
            assert snap["leases_expired_total"] == len(dead)
            # the late worker's uploads are stale, not double-commits
            with _quiet():
                payload = execute_job(dead[0].job)
            assert scheduler.complete_lease(
                "dead", dead[0].slot, dead[0].token, dead[0].key,
                payload) == "stale"
        finally:
            scheduler.shutdown()

    def test_double_commit_is_rejected(self):
        scheduler = self._fleet_scheduler()
        try:
            ticket = scheduler.submit(_tiny_spec(freqs=(1.0,)))
            claim, = scheduler.claim_jobs("w", max_jobs=1, lease_s=30)
            with _quiet():
                payload = execute_job(claim.job)
            assert scheduler.complete_lease(
                "w", claim.slot, claim.token, claim.key,
                payload) == "committed"
            assert scheduler.complete_lease(
                "w", claim.slot, claim.token, claim.key,
                payload) == "stale"
            assert scheduler.wait(ticket, timeout=10)
        finally:
            scheduler.shutdown()

    def test_commit_verifies_content_hash(self):
        scheduler = self._fleet_scheduler()
        try:
            scheduler.submit(_tiny_spec(freqs=(1.0,)))
            claim, = scheduler.claim_jobs("w", max_jobs=1, lease_s=30)
            with pytest.raises(ConfigurationError, match="content-hash"):
                scheduler.complete_lease("w", claim.slot, claim.token,
                                         "0" * 64, {"mean": 0.0})
            # the failed verification did not consume the lease
            with _quiet():
                payload = execute_job(claim.job)
            assert scheduler.complete_lease(
                "w", claim.slot, claim.token, claim.key,
                payload) == "committed"
        finally:
            scheduler.shutdown()

    def test_wrong_token_and_wrong_worker_are_stale(self):
        scheduler = self._fleet_scheduler()
        try:
            scheduler.submit(_tiny_spec(freqs=(1.0,)))
            claim, = scheduler.claim_jobs("w", max_jobs=1, lease_s=30)
            with _quiet():
                payload = execute_job(claim.job)
            assert scheduler.complete_lease(
                "w", claim.slot, "bad-token", claim.key,
                payload) == "stale"
            assert scheduler.complete_lease(
                "other", claim.slot, claim.token, claim.key,
                payload) == "stale"
            assert scheduler.complete_lease(
                "w", claim.slot, claim.token, claim.key,
                payload) == "committed"
        finally:
            scheduler.shutdown()

    def test_worker_reported_failure_fails_only_its_waiters(self):
        scheduler = self._fleet_scheduler()
        try:
            bad = scheduler.submit(_tiny_spec(freqs=(1.0,), name="bad"))
            good = scheduler.submit(_tiny_spec(freqs=(3.0,), name="good"))
            claims = scheduler.claim_jobs("w", max_jobs=4, lease_s=30)
            for claim in claims:
                if claim.job.scenario.name == "bad":
                    assert scheduler.fail_lease(
                        "w", claim.slot, claim.token, claim.key,
                        "boom: solver exploded") == "committed"
                else:
                    with _quiet():
                        scheduler.complete_lease(
                            "w", claim.slot, claim.token, claim.key,
                            execute_job(claim.job))
            assert scheduler.wait(bad, timeout=10)
            assert scheduler.wait(good, timeout=10)
            assert scheduler.status(bad)["state"] == "failed"
            assert "boom" in scheduler.status(bad)["error"]
            assert scheduler.status(good)["state"] == "complete"
        finally:
            scheduler.shutdown()

    def test_max_lease_attempts_fails_the_waiters(self):
        scheduler = self._fleet_scheduler(max_lease_attempts=2)
        try:
            ticket = scheduler.submit(_tiny_spec(freqs=(1.0,)))
            for _ in range(2):
                claims = scheduler.claim_jobs("crashy", max_jobs=1,
                                              lease_s=0.02)
                assert len(claims) == 1
                time.sleep(0.05)  # die without committing
            # next lease-path call reclaims past the attempt budget
            assert scheduler.claim_jobs("crashy", max_jobs=1) == []
            assert scheduler.wait(ticket, timeout=10)
            status = scheduler.status(ticket)
            assert status["state"] == "failed"
            assert "lease expired" in status["error"]
        finally:
            scheduler.shutdown()

    def test_two_workers_never_share_a_hash(self):
        """Fleet-wide dedup: overlapping sweeps, two claimants — every
        unique content hash is handed out (and executed) exactly once."""
        scheduler = self._fleet_scheduler()
        try:
            t1 = scheduler.submit(_tiny_spec(freqs=(1.0, 3.0)))
            t2 = scheduler.submit(_tiny_spec(freqs=(1.0, 5.0)))  # overlaps
            seen = []
            workers = ["w1", "w2"]
            turn = 0
            while True:
                claims = scheduler.claim_jobs(workers[turn % 2],
                                              max_jobs=1, lease_s=30)
                turn += 1
                if not claims and turn > 2:
                    break
                for claim in claims:
                    seen.append(claim.key)
                    with _quiet():
                        scheduler.complete_lease(
                            workers[(turn - 1) % 2], claim.slot,
                            claim.token, claim.key,
                            execute_job(claim.job))
            assert len(seen) == len(set(seen)) == 3  # 1+3 GHz, plus 5 GHz
            assert scheduler.wait(t1, timeout=10)
            assert scheduler.wait(t2, timeout=10)
            assert scheduler.cache.stats.snapshot()["stores"] == 3
        finally:
            scheduler.shutdown()

    def test_local_dispatch_still_works_alongside_claims(self):
        """With the dispatcher on, a leased slot is never double-run:
        the dispatcher only takes queued slots."""
        scheduler = SweepScheduler(cache=ResultCache())  # dispatcher on
        try:
            with _quiet():
                ticket = scheduler.submit(_tiny_spec())
                assert scheduler.wait(ticket, timeout=60)
            # queue drained by the dispatcher; claims find nothing
            assert scheduler.claim_jobs("w", max_jobs=8) == []
        finally:
            scheduler.shutdown()

    def test_malformed_upload_is_rejected_and_lease_survives(self):
        """A payload missing a field ``result()`` reads is refused
        before anything is cached or committed; the lease stays live,
        and a correct upload on it completes the ticket."""
        scheduler = self._fleet_scheduler()
        try:
            ticket = scheduler.submit(_tiny_spec(freqs=(1.0,)))
            claim, = scheduler.claim_jobs("w", max_jobs=1, lease_s=30)
            with _quiet():
                payload = execute_job(claim.job)
            with pytest.raises(ConfigurationError,
                               match="lacks mean, std, n_evals"):
                scheduler.complete_lease(
                    "w", claim.slot, claim.token, claim.key,
                    {"values": payload["values"]})
            assert len(scheduler.cache) == 0
            assert scheduler.status(ticket)["state"] == "running"
            # a full payload under the wrong hash is still caught
            with pytest.raises(ConfigurationError, match="mismatch"):
                scheduler.complete_lease("w", claim.slot, claim.token,
                                         "0" * 64, payload)
            assert scheduler.complete_lease(
                "w", claim.slot, claim.token, claim.key,
                payload) == "committed"
            assert scheduler.wait(ticket, timeout=10)
            assert scheduler.result(ticket).points[0].mean == payload["mean"]
        finally:
            scheduler.shutdown()

    def test_error_key_in_a_payload_is_data(self):
        """Failures travel only through fail_lease: a payload key that
        looks like an error marker commits as data."""
        scheduler = self._fleet_scheduler()
        try:
            ticket = scheduler.submit(_tiny_spec(freqs=(1.0,)))
            claim, = scheduler.claim_jobs("w", max_jobs=1, lease_s=30)
            with _quiet():
                payload = execute_job(claim.job)
            payload["__job_error__"] = "not an error"
            assert scheduler.complete_lease(
                "w", claim.slot, claim.token, claim.key,
                payload) == "committed"
            assert scheduler.wait(ticket, timeout=10)
            assert scheduler.status(ticket)["state"] == "complete"
            assert scheduler.cache.get(claim.key)["__job_error__"] \
                == "not an error"
        finally:
            scheduler.shutdown()

    def test_shutdown_fails_queued_tickets(self):
        """Nobody can claim after shutdown, so queued work fails at
        once, and so does a lease that expires after it; a live fleet
        lease still commits."""
        scheduler = self._fleet_scheduler()
        leased = scheduler.submit(_tiny_spec(freqs=(1.0,)))
        claim, = scheduler.claim_jobs("w", max_jobs=1, lease_s=30)
        expiring = scheduler.submit(_tiny_spec(freqs=(5.0,)))
        assert len(scheduler.claim_jobs("dead", max_jobs=1,
                                        lease_s=0.05)) == 1
        queued = scheduler.submit(_tiny_spec(freqs=(3.0,)))
        scheduler.shutdown()
        assert scheduler.wait(queued, timeout=0.5)
        assert scheduler.status(queued)["state"] == "failed"
        assert scheduler.status(queued)["error"] == "scheduler shut down"
        time.sleep(0.1)  # the dead worker's lease expires
        snapshot = scheduler.fleet_snapshot()  # runs a reclaim pass
        assert snapshot["leases_expired_total"] == 1
        assert snapshot["queue_depth"] == 0
        assert scheduler.wait(expiring, timeout=0.5)
        assert scheduler.status(expiring)["error"] == "scheduler shut down"
        with _quiet():
            payload = execute_job(claim.job)
        assert scheduler.complete_lease(
            "w", claim.slot, claim.token, claim.key, payload) == "committed"
        assert scheduler.wait(leased, timeout=10)
        assert scheduler.status(leased)["state"] == "complete"

    def test_claim_validation(self):
        scheduler = self._fleet_scheduler()
        try:
            with pytest.raises(ConfigurationError, match="worker id"):
                scheduler.claim_jobs("", max_jobs=1)
            with pytest.raises(ConfigurationError, match="lease_s"):
                scheduler.claim_jobs("w", max_jobs=1, lease_s=0.0)
            with pytest.raises(ConfigurationError, match="lease_s"):
                scheduler.heartbeat("w", {}, lease_s=-1.0)
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# HTTP fleet
# ----------------------------------------------------------------------

@pytest.fixture()
def fleet_server():
    """A pure fleet server (no in-process dispatch) on an ephemeral
    port; yields (url, service)."""
    scheduler = SweepScheduler(cache=ResultCache(), local_dispatch=False)
    service = SweepService(scheduler=scheduler, token="")
    server = make_server(port=0, service=service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", service
    finally:
        service.shutdown()
        server.shutdown()
        server.server_close()
        thread.join(5)


@pytest.fixture()
def client(fleet_server):
    """A client of the ``fleet_server`` server, closed after the test."""
    with ServiceClient(fleet_server[0], poll_interval=0.02) as client:
        yield client


def _series(text, name):
    """Parse one metric family out of a Prometheus text document."""
    out = {}
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            head, value = line.rsplit(" ", 1)
            out[head[len(name):]] = float(value)
    return out


class TestHTTPFleet:
    def test_workers_drain_queue_bit_identical_and_deduped(
            self, fleet_server, client):
        url, service = fleet_server
        spec = _tiny_spec()
        reference = _reference_result(spec)
        before = _series(client.metrics_text(),
                         "repro_scheduler_jobs_total")
        # two clients, overlapping work; two pull workers
        t1 = client.submit(spec)
        t2 = client.submit(_tiny_spec(freqs=(1.0, 5.0)))
        workers = [FleetWorker(url, worker_id=f"fw{i}", concurrency=2,
                               lease_s=10, exit_when_idle=True)
                   for i in range(2)]
        threads = [threading.Thread(target=w.run) for w in workers]
        with _quiet():
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        status = client.wait(t1, timeout=30)
        assert status["state"] == "complete"
        assert client.wait(t2, timeout=30)["state"] == "complete"
        remote = client.result(t1)
        for a, b in zip(reference.points, remote.points):
            assert a.mean == b.mean and a.std == b.std
            assert np.array_equal(np.asarray(a.values),
                                  np.asarray(b.values))
        # dedup invariant: 3 unique hashes -> exactly 3 computed jobs
        after = _series(client.metrics_text(),
                        "repro_scheduler_jobs_total")
        key = '{kind="stochastic",outcome="computed"}'
        assert after.get(key, 0) - before.get(key, 0) == 3
        assert service.cache.stats.snapshot()["stores"] == 3
        claimed = sum(w.stats["claimed"] for w in workers)
        committed = sum(w.stats["completed"] for w in workers)
        assert claimed == committed == 3
        # Each worker built its client from the URL and closed it.
        assert all(not w.client._idle for w in workers)

    def test_healthz_and_workers_report_fleet_state(self, client):
        health = client._get("/v1/healthz")
        assert health["ok"] is True
        assert health["local_dispatch"] is False
        assert health["queue_depth"] == 0
        client.submit(_tiny_spec())
        assert client._get("/v1/healthz")["queue_depth"] == 2
        claims = client.claim_jobs("hw", max_jobs=1, lease_s=30)
        assert len(claims) == 1
        health = client._get("/v1/healthz")
        assert health["queue_depth"] == 1
        assert health["workers"]["active"] == 1
        assert health["workers"]["leases_active"] == 1
        snapshot = client.workers()
        assert [w["id"] for w in snapshot["workers"]] == ["hw"]
        assert snapshot["workers"][0]["leases_held"] == 1
        metrics = client.metrics_text()
        assert _series(metrics, "repro_fleet_workers_active")[""] == 1
        assert _series(metrics, "repro_fleet_leases_active")[""] == 1

    def test_malformed_upload_is_400_and_ticket_survives(self, fleet_server,
                                                         client):
        _url, service = fleet_server
        ticket = client.submit(_tiny_spec(freqs=(1.0,)))
        claim, = client.claim_jobs("hw", max_jobs=1, lease_s=30)
        with _quiet():
            payload = execute_job(claim.job)
        with pytest.raises(ConfigurationError, match="HTTP 400.*lacks mean"):
            client.push_result(wire.WorkerResult(
                slot=claim.slot, token=claim.token, worker="hw",
                key=claim.key, payload={"values": payload["values"]}))
        assert len(service.cache) == 0
        assert client.status(ticket)["state"] == "running"
        assert client.push_result(wire.WorkerResult(
            slot=claim.slot, token=claim.token, worker="hw",
            key=claim.key, payload=payload)) == "committed"
        assert client.wait(ticket, timeout=30)["state"] == "complete"
        assert client.result(ticket).points[0].mean == payload["mean"]

    def test_worker_graceful_drain(self, fleet_server, client):
        url, _service = fleet_server
        ticket = client.submit(_tiny_spec())
        worker = FleetWorker(url, worker_id="drainer", concurrency=2,
                             lease_s=10, idle_poll_s=0.05)
        thread = threading.Thread(target=worker.run)
        with _quiet():
            thread.start()
            # let it claim, then request the drain mid-flight
            deadline = time.monotonic() + 10
            while (worker.stats["claimed"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            worker.stop()
            thread.join(60)
        assert not thread.is_alive()
        # drained, not dropped: every claim was committed before exit
        assert worker.stats["claimed"] >= 1
        assert worker.stats["completed"] == worker.stats["claimed"]
        assert client.wait(ticket, timeout=10)["state"] == "complete"

    def test_bearer_auth_gates_mutating_endpoints(self):
        scheduler = SweepScheduler(cache=ResultCache(),
                                   local_dispatch=False)
        service = SweepService(scheduler=scheduler, token="sekrit")
        server = make_server(port=0, service=service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        anon = ServiceClient(url, token="", max_retries=0)
        bad = ServiceClient(url, token="wrong", max_retries=0)
        authed = ServiceClient(url, token="sekrit")
        try:
            with pytest.raises(ConfigurationError, match="HTTP 401"):
                anon.submit(_tiny_spec())
            with pytest.raises(ConfigurationError, match="HTTP 401"):
                anon.claim_jobs("w", max_jobs=1)
            with pytest.raises(ConfigurationError, match="HTTP 401"):
                bad.submit(_tiny_spec())
            # reads stay open
            assert anon.healthy()
            assert "repro_" in anon.metrics_text()
            # the authed pair works end to end, worker included
            ticket = authed.submit(_tiny_spec(freqs=(1.0,)))
            worker = FleetWorker(authed, worker_id="authw",
                                 exit_when_idle=True)
            with _quiet():
                worker.run()
            assert authed.wait(ticket, timeout=30)["state"] == "complete"
        finally:
            for client in (anon, bad, authed):
                client.close()
            service.shutdown()
            server.shutdown()
            server.server_close()
            thread.join(5)

    def test_token_defaults_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_TOKEN", "envtok")
        assert SweepService(
            scheduler=SweepScheduler(cache=ResultCache(),
                                     local_dispatch=False)).token == "envtok"
        assert ServiceClient("http://x").token == "envtok"
        # explicit empty string forces auth off despite the variable
        assert ServiceClient("http://x", token="").token is None


# ----------------------------------------------------------------------
# Client retry policy (flaky-server double)
# ----------------------------------------------------------------------

class _FlakyHandler(BaseHTTPRequestHandler):
    """Fails the first ``fail_first`` requests per method with 503."""

    state = {"GET": 0, "POST": 0}
    fail_first = {"GET": 2, "POST": 2}

    def log_message(self, format, *args):  # noqa: A002
        pass

    def _serve(self, method):
        self.state[method] += 1
        if self.state[method] <= self.fail_first[method]:
            body = json.dumps({"error": "warming up"}).encode()
            self.send_response(503)
        else:
            body = json.dumps({"ok": True, "attempts":
                               self.state[method]}).encode()
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802
        self._serve("GET")

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        self._serve("POST")


@pytest.fixture()
def flaky_url():
    handler = type("Flaky", (_FlakyHandler,),
                   {"state": {"GET": 0, "POST": 0}})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", handler
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)


class TestClientRetries:
    def test_idempotent_get_retries_through_transients(self, flaky_url):
        url, handler = flaky_url
        client = ServiceClient(url, max_retries=3, backoff_base_s=0.01,
                               backoff_cap_s=0.05)
        doc = client._get("/v1/healthz")
        assert doc["ok"] is True
        assert handler.state["GET"] == 3  # 2 failures + 1 success

    def test_get_gives_up_past_the_retry_budget(self, flaky_url):
        url, handler = flaky_url
        handler.fail_first = {"GET": 99, "POST": 99}
        client = ServiceClient(url, max_retries=2, backoff_base_s=0.01,
                               backoff_cap_s=0.05)
        with pytest.raises(ConfigurationError, match="HTTP 503"):
            client._get("/v1/healthz")
        assert handler.state["GET"] == 3  # initial + 2 retries

    def test_post_never_retries(self, flaky_url):
        url, handler = flaky_url
        client = ServiceClient(url, max_retries=3, backoff_base_s=0.01)
        with pytest.raises(ConfigurationError, match="HTTP 503"):
            client._post("/v1/sweeps", b"{}")
        assert handler.state["POST"] == 1

    def test_transport_error_retries_then_service_unavailable(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.2,
                               max_retries=2, backoff_base_s=0.01,
                               backoff_cap_s=0.02)
        with pytest.raises(ServiceUnavailable):
            client._get("/v1/healthz")


# ----------------------------------------------------------------------
# Worker-side execution isolation
# ----------------------------------------------------------------------

class TestWorkerThreadIsolation:
    def test_concurrent_jobs_never_share_a_model(self):
        """The fleet worker runs claims on a thread pool; the model
        memo must be per-thread, or two same-scenario jobs would race
        on the solver's adaptive kernel tables and lose bit-identity
        (regression: fig3-over-fleet differed at ~1e-9 from the
        in-process run with a shared memo)."""
        from repro.engine import runtime

        scenario = _tiny_spec().scenarios[0]
        with _quiet():
            first = runtime._model_for(scenario)
            # same thread: memoized, one eigendecomposition
            assert runtime._model_for(scenario) is first
            got = {}

            def grab(tag):
                got[tag] = runtime._model_for(scenario)

            threads = [threading.Thread(target=grab, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        assert got[0] is not got[1]
        assert got[0] is not first and got[1] is not first


# ----------------------------------------------------------------------
# Wire v3/v4 messages
# ----------------------------------------------------------------------

class TestWorkerWire:
    def test_claim_round_trips_with_hash_intact(self):
        job = _tiny_spec(freqs=(1.0,)).jobs()[0]
        claim = wire.WorkerClaim(slot=job.key, token="t" * 32,
                                 key=job.key, lease_s=30.0, job=job)
        restored = wire.loads(wire.dumps(claim))
        assert isinstance(restored, wire.WorkerClaim)
        assert restored.slot == claim.slot
        assert restored.token == claim.token
        assert restored.job.key == job.key

    def test_result_round_trips_payload_and_error(self):
        job = _tiny_spec(freqs=(1.0,)).jobs()[0]
        with _quiet():
            payload = execute_job(job)
        ok = wire.WorkerResult(slot="s", token="t", worker="w",
                               key=job.key, payload=payload)
        restored = wire.loads(wire.dumps(ok))
        assert restored.payload["mean"] == payload["mean"]
        assert np.array_equal(np.asarray(restored.payload["values"]),
                              np.asarray(payload["values"]))
        err = wire.WorkerResult(slot="s", token="t", worker="w",
                                key=job.key, error="boom")
        assert wire.loads(wire.dumps(err)).error == "boom"

    def test_result_needs_exactly_one_of_payload_or_error(self):
        with pytest.raises(wire.WireError, match="exactly one"):
            wire.to_wire(wire.WorkerResult(slot="s", token="t",
                                           worker="w", key="k"))

    def test_worker_telemetry_round_trips(self):
        snap = wire.WorkerTelemetry(
            worker="w-1", time_unix=123.5, seq=7,
            metrics={"repro_worker_jobs_total": {
                "type": "counter", "labels": ["outcome"],
                "series": {"ok": 3}}},
            logs=({"seq": 7, "level": "warning", "message": "m"},),
            stats={"concurrency": 2, "inflight": 1})
        restored = wire.loads(wire.dumps(snap))
        assert isinstance(restored, wire.WorkerTelemetry)
        assert restored.worker == "w-1"
        assert restored.time_unix == 123.5
        assert restored.seq == 7
        assert restored.metrics["repro_worker_jobs_total"]["series"] \
            == {"ok": 3}
        assert list(restored.logs)[0]["message"] == "m"
        assert restored.stats == {"concurrency": 2, "inflight": 1}

    def test_worker_telemetry_defaults_decode(self):
        """A minimal v4 doc (no metrics/logs/stats) decodes to empty
        defaults — forward-compatible heartbeats."""
        doc = json.loads(wire.dumps(wire.WorkerTelemetry(
            worker="w", time_unix=1.0)))
        for key in ("metrics", "logs", "stats"):
            doc["body"].pop(key, None)
        restored = wire.loads(json.dumps(doc))
        assert restored.metrics == {}
        assert tuple(restored.logs) == ()
        assert restored.stats == {}


# ----------------------------------------------------------------------
# Observability: federation, flight recorder, logs, dashboard
# ----------------------------------------------------------------------

def _run_fleet(url, n_workers=2, concurrency=2):
    """Drain the queue with N in-process pull workers; returns them."""
    workers = [FleetWorker(url, worker_id=f"obs{i}",
                           concurrency=concurrency, lease_s=10,
                           exit_when_idle=True, quiet=True)
               for i in range(n_workers)]
    threads = [threading.Thread(target=w.run) for w in workers]
    with _quiet():
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    return workers


class TestObservability:
    def test_metrics_federate_per_worker_series(self, fleet_server,
                                                client):
        url, service = fleet_server
        # one ticket per worker, drained sequentially, so *both* ship a
        # non-empty registry snapshot (racing workers can leave one
        # idle, and idle workers have nothing to federate)
        t1 = client.submit(_tiny_spec())
        _run_fleet(url, n_workers=1)
        t2 = client.submit(_tiny_spec(freqs=(1.0, 5.0)))
        workers = [FleetWorker(url, worker_id="obs1", concurrency=2,
                               lease_s=10, exit_when_idle=True,
                               quiet=True)]
        with _quiet():
            workers[0].run()
        assert client.wait(t1, timeout=30)["state"] == "complete"
        assert client.wait(t2, timeout=30)["state"] == "complete"
        text = client.metrics_text()
        parsed = telemetry.parse_prometheus(text)
        jobs = parsed.get("repro_worker_jobs_total", [])
        seen = {lab.get("worker") for lab, _ in jobs}
        assert {"obs0", "obs1"} <= seen
        # scheduler-side straggler gauge is worker-labeled too
        slow = parsed.get("repro_fleet_worker_slow", [])
        assert {lab.get("worker") for lab, _ in slow} >= {"obs0", "obs1"}
        # the federation appendix groups both workers under one TYPE
        # line (the server's own doc may also carry the family here,
        # because in-process test workers share its registry)
        fed = service.scheduler.federation.render_prometheus()
        assert fed.count("# TYPE repro_worker_jobs_total counter") == 1

    def test_worker_detail_and_logs_endpoints(self, fleet_server,
                                              client):
        url, service = fleet_server
        ticket = client.submit(_tiny_spec())
        _run_fleet(url)
        client.wait(ticket, timeout=30)
        detail = client.worker_detail("obs0")
        assert detail["id"] == "obs0"
        assert "rate_ewma" in detail and "slow" in detail
        assert detail["telemetry"]["stats"]["concurrency"] == 2
        assert isinstance(detail["recent_logs"], list)
        with pytest.raises(ConfigurationError, match="404"):
            client.worker_detail("never-seen")
        # merged logs: worker records carry worker_id correlation
        records = client.logs(limit=200)
        assert any(r.get("worker_id") == "obs0" for r in records)
        assert client.logs(worker="obs1", limit=200)
        assert all(r["worker_id"] == "obs1"
                   for r in client.logs(worker="obs1"))
        for r in client.logs(level="warning"):
            assert telemetry.level_rank(r["level"]) >= \
                telemetry.level_rank("warning")

    def test_sweep_trace_merges_worker_lanes(self, fleet_server,
                                             client):
        url, service = fleet_server
        ticket = client.submit(_tiny_spec())
        _run_fleet(url)
        assert client.wait(ticket, timeout=30)["state"] == "complete"
        trace = client.sweep_trace(ticket)
        assert trace["metadata"]["ticket"] == ticket
        events = trace["traceEvents"]
        lanes = {e["args"]["name"] for e in events if e.get("ph") == "M"}
        assert "server" in lanes
        assert any(lane.startswith("worker obs") for lane in lanes)
        phases = {e["name"] for e in events if e.get("ph") == "X"}
        assert "queue-wait" in phases
        assert "lease" in phases
        assert "upload" in phases
        assert "job" in phases or "solve" in phases
        # complete events are well-formed (µs timestamps, no negatives)
        for e in events:
            if e.get("ph") == "X":
                assert e["dur"] >= 0
        with pytest.raises(ConfigurationError, match="404"):
            client.sweep_trace("no-such-ticket")

    def test_healthz_uptime_and_telemetry_flag(self, client):
        health = client._get("/v1/healthz")
        assert health["telemetry"] is True
        assert 0.0 <= health["uptime_s"] < 3600.0

    def test_top_dashboard_renders_fleet(self, fleet_server, client):
        from repro.fleet.top import fetch_view, render_view, top

        url, _service = fleet_server
        ticket = client.submit(_tiny_spec())
        _run_fleet(url)
        client.wait(ticket, timeout=30)
        view = fetch_view(client)
        assert view["health"]["ok"] is True
        screen = render_view(view)
        assert "obs0" in screen and "obs1" in screen
        assert "queue:" in screen
        # --once writes a single snapshot and exits 0
        import io

        out = io.StringIO()
        assert top(url, once=True, out=out) == 0
        assert "repro sweep service" in out.getvalue()

    def test_top_render_handles_empty_and_slow(self):
        from repro.fleet.top import render_view

        screen = render_view({
            "base_url": "http://x", "health": {}, "fleet": {},
            "sweeps": [], "warnings": []})
        assert "no workers registered" in screen
        screen = render_view({
            "base_url": "http://x",
            "health": {"queue_depth": 3, "jobs_in_flight": 1,
                       "uptime_s": 12.0, "telemetry": True},
            "fleet": {"workers": [
                {"id": "w1", "leases_held": 1, "completed": 5,
                 "failed": 0, "expired": 0, "rate_ewma": 100.0,
                 "slow": True}]},
            "sweeps": [{"id": "abcd1234efgh", "state": "running",
                        "done": 1, "total": 4}],
            "etas": {"abcd1234efgh": 7.5},
            "cache_hit_ratio": 0.5,
            "warnings": [{"time_unix": 0.0, "level": "warning",
                          "logger": "s", "message": "lease expired"}]})
        assert "SLOW" in screen
        assert "eta 7.5s" in screen
        assert "50.0%" in screen
        assert "lease expired" in screen


# ----------------------------------------------------------------------
# CI fleet smoke (subprocess server + two worker processes)
# ----------------------------------------------------------------------

@pytest.mark.smoke
@pytest.mark.skipif("REPRO_FLEET_SMOKE" not in os.environ,
                    reason="fig3-over-fleet smoke is minutes-scale; CI's "
                           "fleet-smoke job sets REPRO_FLEET_SMOKE=1 "
                           "to run it")
def test_fleet_smoke_fig3_two_workers_matches_inprocess(tmp_path):
    """The CI fleet smoke: serve --fleet, two worker subprocesses, a
    quick fig3 sweep over HTTP — results match the in-process run and
    the metrics show fleet activity."""
    import repro.api

    spec = repro.api.plan("fig3", scale="quick")
    with _quiet():
        reference = run_sweep(spec, executor=SerialExecutor(),
                              cache=ResultCache())

    env = dict(os.environ, PYTHONPATH="src")
    port = 8432
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.runner", "serve",
         "--fleet", "--port", str(port),
         "--cache-dir", str(tmp_path / "cache")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    workers = []
    url = f"http://127.0.0.1:{port}"
    client = ServiceClient(url, poll_interval=0.2)
    try:
        deadline = time.monotonic() + 30
        while not client.healthy():
            assert time.monotonic() < deadline, "server never came up"
            time.sleep(0.2)
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.experiments.runner",
                 "worker", "--server", url, "--concurrency", "2",
                 "--worker-id", f"smoke-{i}", "--exit-when-idle"],
                env=env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT)
            for i in range(2)
        ]
        ticket = client.submit(spec)
        assert client.wait(ticket, timeout=900)["state"] == "complete"
        remote = client.result(ticket)
        assert np.array_equal(
            np.asarray(reference.mean_curve(spec.scenarios[0].name)),
            np.asarray(remote.mean_curve(spec.scenarios[0].name)))
        for a, b in zip(reference.points, remote.points):
            assert a.key == b.key
            assert np.array_equal(np.asarray(a.values),
                                  np.asarray(b.values))
        snapshot = client.workers()
        assert sum(w["completed"] for w in snapshot["workers"]) \
            == len(reference.points)
        metrics = client.metrics_text()
        committed = _series(metrics, "repro_fleet_leases_total").get(
            '{outcome="committed"}', 0)
        assert committed == len(reference.points)
        # worker heartbeats federated their registries: the server's
        # exposition shows worker-labeled series from both processes
        parsed = telemetry.parse_prometheus(metrics)
        jobs = parsed.get("repro_worker_jobs_total", [])
        workers_seen = {lab.get("worker") for lab, _ in jobs}
        assert {"smoke-0", "smoke-1"} <= workers_seen
        # merged fleet logs carry worker correlation over HTTP
        records = client.logs(limit=500)
        assert {"smoke-0", "smoke-1"} <= {r.get("worker_id")
                                          for r in records
                                          if "worker_id" in r}
        # per-sweep flight recorder spans server + worker lanes;
        # REPRO_FLEET_TRACE_OUT saves it as a CI workflow artifact
        trace = client.sweep_trace(ticket)
        lanes = {e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "M"}
        assert "server" in lanes
        assert any(lane.startswith("worker smoke-") for lane in lanes)
        trace_out = os.environ.get("REPRO_FLEET_TRACE_OUT")
        if trace_out:
            Path(trace_out).parent.mkdir(parents=True, exist_ok=True)
            Path(trace_out).write_text(json.dumps(trace),
                                       encoding="utf-8")
    finally:
        client.close()
        for p in workers:
            p.terminate()
        server.terminate()
        for p in [*workers, server]:
            try:
                p.wait(30)
            except subprocess.TimeoutExpired:
                p.kill()
