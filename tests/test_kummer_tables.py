"""Kummer offset tables (:mod:`repro.swm.fastkernel2d`) against the exact
Kummer sum.

Every accuracy bound here names its tolerance, its norm and its
reference: the exact evaluator :class:`KummerKernel`
(``periodic_green2d_pair``), read through the same plan as the tables.
The sweep covers eta 1 to 3 um (L = 5 eta), 1 and 5 GHz and both media,
on perfbench's 64-point profiles.
"""

import hashlib
import os
import subprocess
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.constants import GHZ, METER_TO_UM
from repro.errors import ConfigurationError, SolverError
from repro.greens.periodic2d import (log_remainder, mode_seed,
                                     periodic_green2d_pair)
from repro.materials import PAPER_SYSTEM
from repro.surfaces import GaussianCorrelation, ProfileGenerator
from repro.swm import fastkernel2d
from repro.swm.assembly2d import Assembly2DOptions, assemble_medium_2d
from repro.swm.fastkernel2d import (
    KERNEL_REVISION_2D,
    KummerKernel,
    NodeMap,
    build_tables,
    fold_profile_offsets,
    lookup,
)
from repro.swm.geometry import build_mesh_2d
from repro.swm.plan import AssemblyPlan2D, _profile_fold
from repro.swm.solver2d import SWMSolver2D

N = 64
M_MAX = 96
ETAS = (1.0, 2.0, 3.0)
FREQS_GHZ = (1, 5)


def _ks(f_ghz):
    f = f_ghz * GHZ
    return [PAPER_SYSTEM.k1(f) / METER_TO_UM, PAPER_SYSTEM.k2(f) / METER_TO_UM]


def _meshes(eta, b=3, seed=1, n=N):
    period = 5.0 * eta
    gen = ProfileGenerator(GaussianCorrelation(sigma=1.0, eta=eta),
                           period=period, n=n, normalize=True)
    rng = np.random.default_rng(seed)
    return [build_mesh_2d(gen.from_white_noise(rng.standard_normal(n)),
                          period) for _ in range(b)]


def _extent(meshes):
    return max(float(np.ptp(mesh.z)) for mesh in meshes)


def _both(meshes, ks):
    """Tables (sized with the solver's 1.5x margin) and exact kernels."""
    period = meshes[0].period
    tables = build_tables(ks, period, N, M_MAX, 1.5 * _extent(meshes))
    return tables, [KummerKernel(k, period, M_MAX) for k in ks]


class ExactSolver2D(SWMSolver2D):
    """The 2D solver on the exact Kummer sum, the tables' reference: its
    chunks get :class:`KummerKernel` evaluators instead of tables."""

    def _get_tables(self, keys, ks, meshes):
        return [KummerKernel(k, meshes[0].period, self.options.assembly.m_max)
                for k in ks]


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.fixture(scope="module", params=ETAS)
def eta_meshes(request):
    return _meshes(request.param)


class TestAccuracy:
    @pytest.mark.parametrize("f_ghz", FREQS_GHZ)
    def test_pointwise_error_over_max_exact(self, eta_meshes, f_ghz):
        """Per component (g, gx, gz) on a plan's pairs,
        ``max|tables - exact| / max|exact|`` over the same pairs stays
        <= 1e-6 in both media (worst measured: 8.1e-8, the conductor's
        gz at eta = 3 um, 5 GHz)."""
        plan = AssemblyPlan2D.build(eta_meshes, Assembly2DOptions())
        tables, exact = _both(eta_meshes, _ks(f_ghz))
        vals = plan.eval_tables(tables + exact)
        for fast, ref in zip(vals[:2], vals[2:]):
            for got, want in zip(fast, ref):
                assert _rel(got, want) <= 1e-6

    @pytest.mark.parametrize("f_ghz", FREQS_GHZ)
    def test_matrix_error_over_max_entry(self, eta_meshes, f_ghz):
        """``max|S_tables - S_exact| / max|S_exact|`` and the same for D
        stay <= 2e-6 in both media (worst measured: 4.6e-7 for D and
        3.4e-8 for S, the conductor at eta = 3 um, 5 GHz)."""
        plan = AssemblyPlan2D.build(eta_meshes, Assembly2DOptions())
        ks = _ks(f_ghz)
        tables, exact = _both(eta_meshes, ks)
        fast = plan.dense(zip(ks, tables))
        ref = plan.dense(zip(ks, exact))
        for (d_f, s_f), (d_e, s_e) in zip(fast, ref):
            assert _rel(d_f, d_e) <= 2e-6
            assert _rel(s_f, s_e) <= 2e-6

    def test_enhancement_against_exact_solve(self, eta_meshes):
        """Pr/Ps of the tabulated solve is within 1e-6 relative of the
        exact Kummer solve at 1 and 5 GHz (perfbench's reference gate;
        worst measured: 1.7e-8)."""
        freqs = [f * GHZ for f in FREQS_GHZ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fast = SWMSolver2D().solve_mesh_many_multi_k(eta_meshes, freqs)
            ref = ExactSolver2D().solve_mesh_many_multi_k(eta_meshes, freqs)
        for row_f, row_e in zip(fast, ref):
            for a, b in zip(row_f, row_e):
                assert abs(a.enhancement - b.enhancement) <= (
                    1e-6 * abs(b.enhancement))

    def test_coarsened_map_trips_the_bound(self, monkeypatch):
        """Uniform ``L/128`` nodes (no near-plane term in the map) miss
        the conductor's structure at ``|dz| ~ 1/k_m``: the pointwise
        bound of :meth:`test_pointwise_error_over_max_exact` fails."""
        monkeypatch.setattr(fastkernel2d, "NEAR_PLANE_WEIGHT", 0.0)
        meshes = _meshes(1.0)
        plan = AssemblyPlan2D.build(meshes, Assembly2DOptions())
        (_, tab), (_, ref) = _both(meshes, _ks(5))
        vals = plan.eval_tables([tab, ref])
        worst = max(_rel(got, want) for got, want in zip(*vals))
        assert worst > 1e-6


class TestBitIdentity:
    def test_grown_table_returns_short_table_bits(self):
        """Node positions depend on (period, m_max) and the node index
        only, so a longer table returns the shorter one's bits wherever
        both cover, alone or fused with other media."""
        meshes = _meshes(2.0)
        ks = _ks(5)
        ext = _extent(meshes)
        short = build_tables(ks[1:], meshes[0].period, N, M_MAX, ext)[0]
        long_ = build_tables(ks, meshes[0].period, N, M_MAX, 4.0 * ext)[1]
        assert long_._last > short._last
        plan = AssemblyPlan2D.build(meshes, Assembly2DOptions())
        for a, b in zip(plan.eval_tables([short])[0],
                        plan.eval_tables([long_])[0]):
            np.testing.assert_array_equal(a, b)
        rows = short._last + 1
        for a, b in zip(short._values, long_._values):
            np.testing.assert_array_equal(a, b[:a.size])
        assert all(a.size == rows * short.n_offsets for a in short._values)

    @pytest.mark.parametrize("n", [6, 15, N])
    def test_builds_of_any_length_share_node_rows(self, n):
        """Builds of 13, 46, 101 and 203 nodes (none a multiple of 8;
        one, two and four node blocks) return the same bytes on the
        nodes they share, in both media, also on grids with few offsets
        (n = 6: three), where one product over all nodes could pick
        row-count-dependent BLAS kernels."""
        nmap = NodeMap(5.0, M_MAX)
        counts = (13, 46, 101, 203)
        builds = [build_tables(_ks(5), 5.0, n, M_MAX,
                               float(nmap.heights(c - 2)[c - 3]))
                  for c in counts]
        assert [tabs[0]._last + 1 for tabs in builds] == list(counts)
        for tabs in builds[:-1]:
            for tab, ref in zip(tabs, builds[-1]):
                for a, b in zip(tab._values, ref._values):
                    assert a.tobytes() == b[:a.size].tobytes()

    @pytest.mark.parametrize("n", [N, 96])
    def test_build_under_other_blas_threads(self, n):
        """A build in a fresh interpreter under another
        ``OPENBLAS_NUM_THREADS`` returns this process's bytes."""
        ks = _ks(5)
        script = (
            "import hashlib, sys\n"
            "from repro.swm.fastkernel2d import build_tables\n"
            "ks = [complex(a) for a in sys.argv[2:]]\n"
            "for tab in build_tables(ks, 5.0, int(sys.argv[1]), 96, 6.0):\n"
            "    for q in tab._values:\n"
            "        print(hashlib.sha256(q.tobytes()).hexdigest())\n")
        want = [hashlib.sha256(q.tobytes()).hexdigest()
                for tab in build_tables(ks, 5.0, n, 96, 6.0)
                for q in tab._values]
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                               if p)
        for threads in ("1", "3"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": path}
            got = subprocess.run(
                [sys.executable, "-c", script, str(n), *map(repr, ks)],
                env=env, capture_output=True, text=True,
                check=True).stdout.split()
            assert got == want

    def test_fused_lookup_equals_each_table_alone(self):
        meshes = _meshes(1.0)
        tables, _ = _both(meshes, _ks(1) + _ks(5))
        plan = AssemblyPlan2D.build(meshes, Assembly2DOptions())
        one = AssemblyPlan2D.build(meshes[1:2], Assembly2DOptions())
        fused = plan.eval_tables(tables)
        for tab, vals in zip(tables, fused):
            for a, b, c in zip(vals, plan.eval_tables([tab])[0],
                               one.eval_tables([tab])[0]):
                np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(a[1:2], c)

    def test_batched_and_per_sample_solves(self):
        """A batched solve and per-sample solves on one warm solver
        (whose tables grow as taller samples arrive) agree bit for bit."""
        base = _meshes(1.0, b=4, seed=3)
        meshes = [build_mesh_2d(scale * mesh.z, mesh.period)
                  for scale, mesh in zip((0.2, 0.5, 1.0, 2.0), base)]
        freqs = [f * GHZ for f in FREQS_GHZ]
        warm = SWMSolver2D()
        serial, conductor_tables = [], set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for mesh in meshes:
                serial.append(warm.solve_mesh_many_multi_k([mesh], freqs))
                conductor_tables.add(id(warm._tables[(2, freqs[0],
                                                      mesh.period, N)]))
            batched = SWMSolver2D().solve_mesh_many_multi_k(meshes, freqs)
        assert len(conductor_tables) > 1  # the warm tables grew
        for fi in range(len(freqs)):
            for i, res in enumerate(batched[fi]):
                one = serial[i][fi][0]
                assert one.enhancement == res.enhancement
                np.testing.assert_array_equal(one.psi, res.psi)
                np.testing.assert_array_equal(one.v, res.v)

    def test_plan_assembly_matches_one_profile_assembly(self):
        """``assemble_medium_2d`` sizes its own table to one profile and
        still returns the shared table's bits."""
        meshes = _meshes(3.0, b=2)
        ks = _ks(5)
        tables, _ = _both(meshes, ks)
        plan = AssemblyPlan2D.build(meshes, Assembly2DOptions())
        stacks = plan.dense(zip(ks, tables))
        for k, (d_many, s_many) in zip(ks, stacks):
            for i, mesh in enumerate(meshes):
                d_one, s_one = assemble_medium_2d(mesh, k)
                np.testing.assert_array_equal(d_many[i], d_one)
                np.testing.assert_array_equal(s_many[i], s_one)


class TestTables:
    def test_nodes_invert_the_map(self):
        nmap = NodeMap(5.0, M_MAX)
        z = nmap.heights(400)
        assert z[0] == 0.0 and np.all(np.diff(z) > 0.0)
        np.testing.assert_allclose(nmap.position(z), np.arange(400),
                                   rtol=0, atol=1e-9)
        # Fine at the plane, L/128 far from it.
        assert z[1] < 5.0 / (2 * np.pi * M_MAX)
        assert np.diff(z)[-1] == pytest.approx(5.0 / 128, rel=0.1)

    def test_nodes_hold_the_exact_residual(self):
        """At its nodes (``dz > 0``) and offsets, the matrix-form build
        equals the exact sum's mode-by-mode contraction minus the
        closed-form log remainder, per component within 1e-13 of the
        exact kernel's maximum."""
        period, n = 5.0, 16
        ks = _ks(5)
        tables = build_tables(ks, period, n, M_MAX, 2.0)
        rows = tables[0]._last + 1
        z = tables[0].nmap.heights(rows)[1:, None]
        dx = np.arange(1, n // 2 + 1) * (period / n)
        logs = log_remainder(*mode_seed(dx, period), z, period)
        exact = periodic_green2d_pair(dx, z, ks, period, M_MAX)
        for tab, totals in zip(tables, exact):
            for values, total, log in zip(tab._values, totals, logs):
                got = values.reshape(rows, -1)[1:]
                assert np.max(np.abs(got - (total - log))) <= (
                    1e-13 * np.max(np.abs(total)))

    def test_covers_and_out_of_range_lookup(self):
        meshes = _meshes(1.0)
        ext = _extent(meshes)
        tab = build_tables(_ks(5)[:1], meshes[0].period, N, M_MAX,
                           0.5 * ext)[0]
        assert tab.covers(0.5 * ext) and not tab.covers(ext)
        plan = AssemblyPlan2D.build(meshes, Assembly2DOptions())
        with pytest.raises(ConfigurationError):
            plan.eval_tables([tab])

    def test_rejects_other_grids_and_node_maps(self):
        """A table serves only its own grid, and tables fused in one
        lookup must share a node map (period and ``m_max``)."""
        meshes = _meshes(1.0)
        plan = AssemblyPlan2D.build(meshes, Assembly2DOptions())
        ext = 2.0 * _extent(meshes)
        right, = build_tables(_ks(5)[:1], meshes[0].period, N, M_MAX, ext)
        for n, m_max in ((N // 2, M_MAX), (N, 48)):
            wrong, = build_tables(_ks(5)[1:], meshes[0].period, n, m_max,
                                  ext)
            with pytest.raises(ConfigurationError, match="another grid"):
                plan.eval_tables([right, wrong])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_tables(_ks(5), 5.0, N, M_MAX, float("nan"))
        with pytest.raises(ConfigurationError):
            NodeMap(5.0, 0)
        with pytest.raises(ConfigurationError):
            fold_profile_offsets(np.array([0.0]), N, 5.0)
        with pytest.raises(ConfigurationError):
            lookup([], _profile_fold(N, 5.0), np.zeros(1))

    def test_fold_reads_the_exact_log_seeds(self):
        fold = _profile_fold(N, 5.0)
        assert fold.col.min() == 0 and fold.col.max() == N // 2 - 1
        assert set(np.unique(fold.sx)) <= {-1.0, 1.0}


class TestSolverTables:
    def test_cache_reuse_growth_and_count(self, stacking):
        """A covering table is reused; a taller chunk rebuilds both
        media in one pass, and ``repro_swm_kummer_table_builds_total``
        counts every table built."""
        rng = np.random.default_rng(5)
        profiles = np.stack([rng.normal(0.0, 0.1, 16),
                             rng.normal(0.0, 0.1, 16),
                             rng.normal(0.0, 1.0, 16)])
        solver = SWMSolver2D()
        builds = telemetry.REGISTRY.counter(
            "repro_swm_kummer_table_builds_total")
        was = telemetry.enabled()
        telemetry.enable()
        try:
            before = builds.value()
            with warnings.catch_warnings(), stacking(1):
                warnings.simplefilter("ignore", RuntimeWarning)
                solver.solve_many_um(profiles, 5.0, 5 * GHZ)
            after = builds.value()
        finally:
            (telemetry.enable if was else telemetry.disable)()
        assert after - before == 2 * 2  # 2 media x (first chunk + growth)
        assert len(solver._tables) == 2
        solver.reset_tables()
        assert not solver._tables

    def test_reserve_serves_every_covered_chunk_from_one_build(self,
                                                               stacking):
        """With a reserved height range, the first chunk builds tables
        that cover the reserve, and taller chunks within it reuse them;
        a chunk past it grows them to its range with the 1.5x margin.
        Values equal those of the unreserved solver bit for bit."""
        rng = np.random.default_rng(5)
        profiles = np.stack([rng.normal(0.0, 0.1, 16),
                             rng.normal(0.0, 1.0, 16)])
        tall = rng.normal(0.0, 4.0, 16)
        z_reserve = 1.2 * float(np.ptp(profiles[1]))
        plain = SWMSolver2D()
        solver = SWMSolver2D()
        solver.reset_tables(z_reserve=z_reserve)
        with warnings.catch_warnings(), stacking(1):
            warnings.simplefilter("ignore", RuntimeWarning)
            got = solver.solve_many_um(profiles, 5.0, 5 * GHZ)
            first = dict(solver._tables)
            want = plain.solve_many_um(profiles, 5.0, 5 * GHZ)
            assert [r.absorbed_power for r in got] == \
                [r.absorbed_power for r in want]
            nmap = NodeMap(5.0, Assembly2DOptions().m_max)
            assert len(first) == 2
            for tables in first.values():
                assert tables._last == nmap.last_row(z_reserve)
            solver.solve_um(tall, 5.0, 5 * GHZ)
        for key, tables in solver._tables.items():
            assert tables is not first[key]
            assert tables._last == nmap.last_row(1.5 * float(np.ptp(tall)))

    def test_reserve_must_be_finite_and_non_negative(self):
        solver = SWMSolver2D()
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                solver.reset_tables(z_reserve=bad)

    def test_profile_groups_build_the_same_tables_for_every_seed(self):
        """The engine reserves the profile model's height range, so a
        group's table sizes, and so its build cost, do not depend on the
        samples its seed draws."""
        from repro.engine import (EstimatorSpec, ProfileScenario,
                                  ResultCache, SerialExecutor, SweepSpec,
                                  run_sweep)
        from repro.engine.runtime import (PROFILE_TABLE_RANGE_SIGMAS,
                                          _profile_components, clear_memo)

        scenario = ProfileScenario("bem2", GaussianCorrelation(sigma=0.5,
                                                               eta=1.0),
                                   period_um=5.0, n=16, normalize=True)
        nmap = NodeMap(5.0, Assembly2DOptions().m_max)
        sizes = set()
        for seed in range(4):
            clear_memo()
            spec = SweepSpec(scenarios=[scenario],
                             frequencies_hz=[5 * GHZ],
                             estimators=EstimatorSpec(kind="montecarlo",
                                                      n_samples=4,
                                                      seed=seed))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                run_sweep(spec, executor=SerialExecutor(),
                          cache=ResultCache(disk_dir=None))
            _, solver = _profile_components(scenario)
            assert len(solver._tables) == 2
            sizes |= {tables._last for tables in solver._tables.values()}
        clear_memo()
        assert sizes == {nmap.last_row(PROFILE_TABLE_RANGE_SIGMAS * 0.5)}

    def test_non_finite_heights_fail_cleanly(self):
        profile = np.zeros(16)
        profile[3] = np.nan
        with pytest.raises(SolverError):
            SWMSolver2D().solve_um(profile, 5.0, 5 * GHZ)


class TestRevisions:
    def test_tables_revision_keys_every_2d_hash(self, monkeypatch):
        from repro.swm import assembly2d

        opts = Assembly2DOptions()
        assert KERNEL_REVISION_2D == 3
        assert opts.to_spec() == {**asdict(opts), "kernel": 3}
        monkeypatch.setattr(assembly2d, "KERNEL_REVISION_2D",
                            KERNEL_REVISION_2D + 1)
        assert opts.to_spec()["kernel"] == KERNEL_REVISION_2D + 1
