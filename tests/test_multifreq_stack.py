"""Parity suite for frequency-stacked (multi-k) execution.

The tentpole contract: executing one mesh batch at many frequencies
through the k-independent :class:`AssemblyPlan`
(``solve_mesh_many_multi_k``) — and, one layer up, executing a
frequency stack of engine jobs through ``execute_job_group`` — is a
*pure performance* move. Every value must be bit-identical to the
per-frequency / per-job paths.

Grid sizes mirror ``TestLargeGridParity`` (test_fused_kernel2d.py):
the elided in-place complex multiply that motivated it only disagreed
at fig6 scale (n = 96), not at the n = 16 grids the original parity
tests used. The same buffer-alignment hazard applies to the plan's
reused geometry blocks, so the stacked-vs-serial comparisons here run
at elision scale too: n = 96 profiles for the 2D path, and for the 3D
path a 12 x 12 stochastic-size grid (N = 144 unknowns) and a 24 x 24
deterministic grid (N = 576 unknowns).
"""

from collections import Counter

import numpy as np
import pytest

from repro import telemetry
from repro.constants import GHZ, UM
from repro.core import StochasticLossConfig
from repro.engine import (
    DeterministicScenario,
    EstimatorSpec,
    ProfileScenario,
    ResultCache,
    StochasticScenario,
    SweepSpec,
)
from repro.engine.runtime import execute_job, execute_job_group
from repro.errors import SolverError
from repro.fleet import FleetWorker
from repro.service.scheduler import SweepScheduler
from repro.service.wire import WorkerClaim
from repro.surfaces import GaussianCorrelation, ProfileGenerator
from repro.swm.assembly import AssemblyOptions
from repro.swm.geometry import build_mesh_2d, build_mesh_3d
from repro.swm.plan import AssemblyPlan3D
from repro.swm.solver import SWMOptions, SWMSolver3D
from repro.swm.solver2d import SWMSolver2D

L = 5.0
FREQS = [2 * GHZ, 5 * GHZ, 8 * GHZ]


def _assert_results_equal(a, b):
    assert a.enhancement == b.enhancement
    np.testing.assert_array_equal(a.psi, b.psi)
    np.testing.assert_array_equal(a.v, b.v)
    assert a.absorbed_power == b.absorbed_power
    assert a.smooth_power == b.smooth_power


class TestLargeGridMultiKParity:
    """solve_mesh_many_multi_k vs per-frequency solves, elision scale."""

    def test_profile_fig6_grid_bit_identical(self):
        """n = 96 profiles (the grid that exposed the elided multiply),
        three frequencies stacked vs solved one k at a time."""
        gen = ProfileGenerator(GaussianCorrelation(sigma=1.0, eta=1.0),
                               period=L, n=96, normalize=True)
        rng = np.random.default_rng(0)
        meshes = [build_mesh_2d(gen.from_white_noise(
            rng.standard_normal(96)), L) for _ in range(2)]

        stacked = SWMSolver2D().solve_mesh_many_multi_k(meshes, FREQS)
        assert len(stacked) == len(FREQS)
        ref_solver = SWMSolver2D()
        for freq, row in zip(FREQS, stacked):
            assert len(row) == len(meshes)
            for mesh, got in zip(meshes, row):
                _assert_results_equal(got, ref_solver.solve_mesh(mesh,
                                                                 freq))

    def test_stochastic_size_grid_bit_identical(self):
        """12 x 12 height maps (N = 144, the stochastic pipeline's
        elision-scale mesh) through the 3D plan."""
        rng = np.random.default_rng(1)
        meshes = [build_mesh_3d(rng.normal(0.0, 0.2, (12, 12)), L)
                  for _ in range(2)]

        solver = SWMSolver3D()
        stacked = solver.solve_mesh_many_multi_k(meshes, FREQS)
        ref_solver = SWMSolver3D()
        for freq, row in zip(FREQS, stacked):
            for mesh, got in zip(meshes, row):
                _assert_results_equal(got, ref_solver.solve_mesh(mesh,
                                                                 freq))

    def test_deterministic_grid_bit_identical(self):
        """One 24 x 24 deterministic surface (N = 576 unknowns) — the
        largest dense system in the tier-1 suite."""
        x = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
        heights = 0.3 * np.outer(np.sin(x), np.cos(x))
        mesh = build_mesh_3d(heights, L)

        stacked = SWMSolver3D().solve_mesh_many_multi_k([mesh], FREQS)
        ref_solver = SWMSolver3D()
        for freq, row in zip(FREQS, stacked):
            _assert_results_equal(row[0], ref_solver.solve_mesh(mesh,
                                                                freq))


class TestExactEwaldSolve:
    """``use_tables=False`` (the exact-Ewald validation reference) is one
    more kernel evaluator on the solver's one assembly: each chunk's
    plan serves every frequency and medium, as it does for the tables."""

    def test_assembles_through_the_plan(self, monkeypatch, stacking):
        """Each chunk writes the pairs of 2 x F media
        (``AssemblyPlan3D._write_pairs``), once per medium and
        frequency, on one plan per chunk."""
        calls = []
        real = AssemblyPlan3D._write_pairs

        def spy(plan, out, k, regs, g_reg0):
            calls.append(plan)
            return real(plan, out, k, regs, g_reg0)

        monkeypatch.setattr(AssemblyPlan3D, "_write_pairs", spy)
        rng = np.random.default_rng(5)
        meshes = [build_mesh_3d(rng.normal(0.0, 0.2, (6, 6)), L)
                  for _ in range(3)]
        freqs = FREQS[:2]
        exact = SWMSolver3D(options=SWMOptions(
            assembly=AssemblyOptions(use_tables=False)))
        with stacking(2):
            exact.solve_mesh_many_multi_k(meshes, freqs)
        per_chunk = 2 * len(freqs)
        assert len(calls) == 2 * per_chunk
        for chunk, batch in ((calls[:per_chunk], 2),
                             (calls[per_chunk:], 1)):
            assert len(set(map(id, chunk))) == 1
            assert chunk[0].batch == batch

    def test_stack_matches_single_solves(self):
        rng = np.random.default_rng(3)
        meshes = [build_mesh_3d(rng.normal(0.0, 0.2, (6, 6)), L)
                  for _ in range(2)]
        freqs = FREQS[:2]
        exact = SWMSolver3D(options=SWMOptions(
            assembly=AssemblyOptions(use_tables=False)))
        stacked = exact.solve_mesh_many_multi_k(meshes, freqs)
        tabulated = SWMSolver3D().solve_mesh_many_multi_k(meshes, freqs)
        for freq, row, fast_row in zip(freqs, stacked, tabulated):
            for mesh, got, fast in zip(meshes, row, fast_row):
                _assert_results_equal(got, exact.solve_mesh(mesh, freq))
                # Tables interpolate the exact kernel to ~1e-6; the
                # enhancements measured here differ by ~2e-7.
                assert abs(got.enhancement - fast.enhancement) \
                    <= 1e-5 * got.enhancement


class TestWarmTableCaches:
    """Kernel tables of one configuration sample the same nodes, so a
    warm solver returns what a fresh one does, whatever tables it
    built before."""

    def test_solve_after_a_taller_surface_is_bit_identical(self):
        rng = np.random.default_rng(0)
        small = rng.normal(0, 0.3, (8, 8))
        big = rng.normal(0, 2.0, (8, 8))
        fresh = SWMSolver3D().solve_um(small, L, 5 * GHZ)
        solver = SWMSolver3D()
        solver.solve_um(big, L, 5 * GHZ)
        _assert_results_equal(solver.solve_um(small, L, 5 * GHZ), fresh)

    def test_warm_stack_matches_fresh_per_frequency_solves(self,
                                                           monkeypatch):
        """Warming one frequency with a tall surface leaves the two
        frequencies with tables of different lengths; the stack still
        assembles both in one pass and equals fresh per-frequency
        solves."""
        rng = np.random.default_rng(2)
        tall = build_mesh_3d(rng.normal(0.0, 0.6, (8, 8)), L)
        low = build_mesh_3d(rng.normal(0.0, 0.1, (8, 8)), L)
        mid = build_mesh_3d(rng.normal(0.0, 0.3, (8, 8)), L)
        freqs = FREQS[:2]
        tall_extent = float(np.ptp(tall.z))

        solver = SWMSolver3D()
        solver.solve_mesh(tall, freqs[0])  # warms freqs[0] only
        calls = []
        real = AssemblyPlan3D.write

        def spy(plan, media, blocks):
            calls.append(len(media))
            return real(plan, media, blocks)

        monkeypatch.setattr(AssemblyPlan3D, "write", spy)
        stacked = solver.solve_mesh_many_multi_k([low, mid], freqs)
        assert calls == [2 * len(freqs)]
        warm, cold = (solver._tables[(1, f, L, 8)] for f in freqs)
        assert warm.covers(tall_extent) and not cold.covers(tall_extent)
        for freq, row in zip(freqs, stacked):
            fresh = SWMSolver3D().solve_mesh_many([low, mid], freq)
            for got, ref in zip(row, fresh):
                _assert_results_equal(got, ref)

    def test_other_grid_size_matches_fresh_solver(self):
        """Tables are per grid: a solver that solved a 6 x 6 surface
        builds new tables for an 8 x 8 one at the same frequency and
        period, and both solves equal fresh solvers' bit for bit."""
        rng = np.random.default_rng(6)
        small = rng.normal(0.0, 0.3, (6, 6))
        big = rng.normal(0.0, 0.3, (8, 8))
        solver = SWMSolver3D()
        got = [solver.solve_um(h, L, 5 * GHZ) for h in (small, big)]
        assert {key[3] for key in solver._tables} == {6, 8}
        for h, result in zip((small, big), got):
            _assert_results_equal(result,
                                  SWMSolver3D().solve_um(h, L, 5 * GHZ))

    def test_table_growth_mid_batch_matches_fresh_solves(self, stacking):
        """One mesh per chunk: ``high`` outgrows the warm table and
        replaces it partway through the batch, and every sample still
        equals a fresh solver's."""
        rng = np.random.default_rng(4)
        mid = build_mesh_3d(rng.normal(0.0, 0.3, (8, 8)), L)
        low = build_mesh_3d(rng.normal(0.0, 0.1, (8, 8)), L)
        high = build_mesh_3d(rng.normal(0.0, 0.8, (8, 8)), L)
        freqs = FREQS[:2]

        solver = SWMSolver3D()
        solver.solve_mesh(mid, freqs[0])  # warms freqs[0] only
        before = solver._tables[(1, freqs[0], L, 8)]
        with stacking(1):
            stacked = solver.solve_mesh_many_multi_k([low, high], freqs)
        assert solver._tables[(1, freqs[0], L, 8)] is not before
        for freq, row in zip(freqs, stacked):
            for got, mesh in zip(row, (low, high)):
                _assert_results_equal(got, SWMSolver3D().solve_mesh(mesh,
                                                                    freq))


def _payload_fields(payload):
    return {k: payload[k] for k in ("mean", "std", "n_evals", "seed")}


def _assert_payloads_match(grouped, serial):
    assert len(grouped) == len(serial)
    for g, s in zip(grouped, serial):
        assert _payload_fields(g) == _payload_fields(s)
        np.testing.assert_array_equal(g["values"], s["values"])


class TestGroupedExecutionParity:
    """execute_job_group vs per-job execute_job, all scenario kinds."""

    def _jobs(self, scenario, estimator=None):
        if estimator is None:
            return SweepSpec(scenario, FREQS).jobs()
        return SweepSpec(scenario, FREQS, estimator).jobs()

    def test_stochastic_sscm_stack_matches_per_job(self):
        scenario = StochasticScenario(
            "rough", GaussianCorrelation(1 * UM, 1 * UM),
            StochasticLossConfig(points_per_side=8, max_modes=3))
        jobs = self._jobs(scenario, EstimatorSpec(order=1))
        _assert_payloads_match(execute_job_group(jobs),
                               [execute_job(j) for j in jobs])

    def test_stochastic_montecarlo_stack_matches_per_job(self, stacking):
        scenario = StochasticScenario(
            "rough-mc", GaussianCorrelation(1 * UM, 1 * UM),
            StochasticLossConfig(points_per_side=8, max_modes=3))
        jobs = self._jobs(scenario, EstimatorSpec(
            kind="montecarlo", n_samples=5, seed=3))
        # Blocks of 2 do not divide n_samples 5: the stacked path must
        # replicate the estimator's exact rng block shapes.
        with stacking(2, block_chunks=1):
            _assert_payloads_match(execute_job_group(jobs),
                                   [execute_job(j) for j in jobs])

    def test_profile_stack_matches_per_job(self):
        scenario = ProfileScenario("prof", GaussianCorrelation(1.0, 1.0),
                                   period_um=L, n=16, normalize=True)
        jobs = self._jobs(scenario, EstimatorSpec(
            kind="montecarlo", n_samples=4, seed=7))
        _assert_payloads_match(execute_job_group(jobs),
                               [execute_job(j) for j in jobs])

    def test_deterministic_stack_matches_per_job(self):
        scenario = DeterministicScenario(
            "bump", np.full((8, 8), 0.2) * UM, 5 * UM)
        jobs = self._jobs(scenario)
        _assert_payloads_match(execute_job_group(jobs),
                               [execute_job(j) for j in jobs])

    def test_ungroupable_jobs_fall_back_per_job(self):
        """Jobs with different scenarios share no plan; the group call
        must still return one payload per job, in order."""
        a = DeterministicScenario("flat", np.zeros((8, 8)), 5 * UM)
        b = DeterministicScenario("bump", np.full((8, 8), 0.2 * 1e-6),
                                  5 * UM)
        jobs = (SweepSpec(a, [2 * GHZ]).jobs()
                + SweepSpec(b, [2 * GHZ]).jobs())
        _assert_payloads_match(execute_job_group(jobs),
                               [execute_job(j) for j in jobs])

    def test_grouped_wall_time_attribution_sums_to_total(self):
        scenario = DeterministicScenario(
            "walls", np.full((8, 8), 0.1) * UM, 5 * UM)
        jobs = self._jobs(scenario)
        payloads = execute_job_group(jobs)
        walls = [p["wall_time_s"] for p in payloads]
        assert all(w >= 0.0 for w in walls)
        # Per-job shares are cost-weighted fractions of one measured
        # group wall; they must reconstitute it (same-cost jobs here,
        # so equal shares).
        np.testing.assert_allclose(walls, walls[0])


class TestGroupFailureIsolation:
    """A job group with one failing member, run by the scheduler and by
    a fleet worker: only that job fails, each healthy member is solved
    at most twice (the group attempt, then alone), and the fallback is
    counted once. A lone failing job is not retried."""

    FAIL_HZ = 3 * GHZ

    @pytest.fixture
    def solves(self, monkeypatch):
        """Block systems laid out per frequency; FAIL_HZ raises."""
        counts = Counter()
        real = SWMSolver3D._medium_blocks

        def counted(solver, systems, frequency_hz, *args):
            counts[frequency_hz] += 1
            if frequency_hz == self.FAIL_HZ:
                raise SolverError("synthetic failure")
            return real(solver, systems, frequency_hz, *args)

        monkeypatch.setattr(SWMSolver3D, "_medium_blocks", counted)
        was = telemetry.enabled()
        telemetry.enable()  # the fallback counter is a no-op otherwise
        yield counts
        (telemetry.enable if was else telemetry.disable)()

    @staticmethod
    def _spec(freqs_ghz):
        scenario = DeterministicScenario(
            "isolate", np.full((8, 8), 0.1) * UM, 5 * UM)
        return SweepSpec(scenario, [f * GHZ for f in freqs_ghz])

    @staticmethod
    def _fallbacks():
        return telemetry.REGISTRY.counter(
            "repro_engine_group_fallbacks_total").value()

    @staticmethod
    def _succeeded(route, spec):
        """Per job, whether it completed when run through ``route``."""
        jobs = spec.jobs()
        if route == "fleet":
            worker = FleetWorker("http://127.0.0.1:9")
            claims = [WorkerClaim(f"slot{i}", "token", job.key, 30.0, job)
                      for i, job in enumerate(jobs)]
            return [error is None for _, error in worker._execute_many(claims)]
        cache = ResultCache()
        scheduler = SweepScheduler(cache=cache)
        try:
            assert scheduler.wait(scheduler.submit(spec), timeout=120)
        finally:
            scheduler.shutdown()
        return [cache.get(job.key) is not None for job in jobs]

    @pytest.mark.parametrize("route", ["scheduler", "fleet"])
    def test_only_the_failing_member_fails(self, solves, route):
        before = self._fallbacks()
        spec = self._spec((1, 2, 3, 4))
        assert self._succeeded(route, spec) == [True, True, False, True]
        assert solves[self.FAIL_HZ] == 2
        assert all(solves[f * GHZ] <= 2 for f in (1, 2, 4))
        assert self._fallbacks() - before == 1

    @pytest.mark.parametrize("route", ["scheduler", "fleet"])
    def test_lone_failing_job_runs_once(self, solves, route):
        before = self._fallbacks()
        assert self._succeeded(route, self._spec((3,))) == [False]
        assert solves[self.FAIL_HZ] == 1
        assert self._fallbacks() == before
