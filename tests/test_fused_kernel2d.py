"""Parity suite for the fused 2D periodic-kernel pipeline.

The contract under test: fusing is a *pure performance* move.
``periodic_green2d_pair`` must be bit-identical to per-call
``periodic_green2d`` + ``periodic_green2d_gradient``, the fused
two-medium :meth:`AssemblyPlan2D.dense` pass to its per-medium call
(and per-mesh ``assemble_medium_2d``), and the batched solver path
routed through them to per-sample solves — in every regime the assembly
exercises: ``dz = 0`` (the PV sign convention), zero separation (the
``exclude_primary`` limit), wrapped near pairs, and mixed batch sizes,
for both media. The plan-level tests read the exact Kummer sum
(:class:`~repro.swm.fastkernel2d.KummerKernel`); the solver-level ones
run the default offset tables.
"""

import numpy as np
import pytest

from repro.constants import GHZ, METER_TO_UM
from repro.errors import ConfigurationError, MeshError
from repro.greens.periodic2d import (
    periodic_green2d,
    periodic_green2d_gradient,
    periodic_green2d_pair,
)
from repro.materials import PAPER_SYSTEM
from repro.surfaces import GaussianCorrelation
from repro.swm.assembly2d import Assembly2DOptions, assemble_medium_2d
from repro.swm.fastkernel2d import (
    KummerKernel,
    _g_reg0_cached,
    regular_at_zero,
)
from repro.greens.freespace import green2d_and_gradient
from repro.swm.geometry import build_mesh_2d
from repro.swm.plan import AssemblyPlan2D, _wrap
from repro.swm.solver2d import SWMSolver2D

L = 5.0
FREQ = 20 * GHZ


def _mirror(plan, values, odd):
    """``(B, N, N)`` stack of per-pair ``(B, M)`` values by parity: pair
    ``p`` fills ``(iu[p], ju[p])`` with its value and ``(ju[p], iu[p])``
    with the value (a kernel) or its negation (a gradient); the
    diagonal is zero."""
    iu, ju = plan.pairs.iu, plan.pairs.ju
    out = np.zeros((plan.batch, plan.n, plan.n), dtype=np.complex128)
    out[:, iu, ju] = values
    out[:, ju, iu] = -values if odd else values
    return out


def _wavenumbers(frequency_hz=FREQ):
    k1 = PAPER_SYSTEM.k1(frequency_hz) / METER_TO_UM
    k2 = PAPER_SYSTEM.k2(frequency_hz) / METER_TO_UM
    return k1, k2


def _exact(opts, *ks):
    """``(k, evaluator)`` media of the exact Kummer sum."""
    return [(k, KummerKernel(k, L, opts.m_max)) for k in ks]


def _kernels(ks, m_max=96):
    return [KummerKernel(k, L, m_max) for k in ks]


def _assert_pair_matches_per_call(dx, dz, ks, m_max, exclude_primary):
    fused = periodic_green2d_pair(dx, dz, ks, L, m_max=m_max,
                                  exclude_primary=exclude_primary)
    assert len(fused) == len(ks)
    for kk, (g, gx, gz) in zip(ks, fused):
        g_ref = periodic_green2d(dx, dz, kk, L, m_max=m_max,
                                 exclude_primary=exclude_primary)
        gx_ref, gz_ref = periodic_green2d_gradient(
            dx, dz, kk, L, m_max=m_max, exclude_primary=exclude_primary)
        np.testing.assert_array_equal(g, g_ref)
        np.testing.assert_array_equal(gx, gx_ref)
        np.testing.assert_array_equal(gz, gz_ref)


class TestPairKernelParity:
    """periodic_green2d_pair vs the per-call green/gradient pair."""

    @pytest.mark.parametrize("exclude_primary", [True, False])
    def test_generic_separations_both_media(self, exclude_primary):
        rng = np.random.default_rng(1)
        dx = rng.uniform(-L / 2, L / 2, (10,))
        dz = rng.uniform(-2.0, 2.0, (10,))
        _assert_pair_matches_per_call(dx, dz, _wavenumbers(), 96,
                                      exclude_primary)

    @pytest.mark.parametrize("exclude_primary", [True, False])
    def test_dz_zero_pv_plane(self, exclude_primary):
        """On-surface entries: the |dz| kink resolved as sign(0) = 0."""
        dx = np.linspace(0.2, 2.4, 9)
        dz = np.zeros_like(dx)
        _assert_pair_matches_per_call(dx, dz, _wavenumbers(), 96,
                                      exclude_primary)

    def test_zero_separation_exclude_primary_limit(self):
        """rho = 0 entries take the analytic limit (green) / PV 0
        (gradient) — bit-identical through the fused path."""
        dx = np.array([0.0, 0.3, 1.25])
        dz = np.array([0.0, 0.0, -0.7])
        _assert_pair_matches_per_call(dx, dz, _wavenumbers(), 64, True)

    def test_zero_separation_without_exclusion_raises(self):
        z = np.array([0.0])
        with pytest.raises(ConfigurationError):
            periodic_green2d_pair(z, z, _wavenumbers(), L)

    def test_wrapped_near_pairs_batched_shapes(self):
        """The assembly regime: shared (N, N) minimum-image wrapped dx
        (diagonal displaced to L/4) against a stacked (B, N, N) dz."""
        rng = np.random.default_rng(2)
        n, b = 12, 4
        x = np.arange(n) * (L / n)
        dx = x[:, None] - x[None, :]
        dx = dx - L * np.round(dx / L)
        np.fill_diagonal(dx, 0.25 * L)
        z = rng.normal(0.0, 0.3, (b, n))
        dz = z[:, :, None] - z[:, None, :]
        dz[1] = 0.0  # one all-PV sample in the stack
        _assert_pair_matches_per_call(dx, dz, _wavenumbers(), 96, True)

    def test_single_medium_and_three_media(self):
        rng = np.random.default_rng(3)
        dx = rng.uniform(-L / 2, L / 2, 8)
        dz = rng.uniform(-1.0, 1.0, 8)
        k1, k2 = _wavenumbers()
        _assert_pair_matches_per_call(dx, dz, (k2,), 48, True)
        _assert_pair_matches_per_call(dx, dz, (k1, k2, 2.0 * k1), 48, True)

    def test_validation(self):
        z = np.array([0.5])
        with pytest.raises(ConfigurationError):
            periodic_green2d_pair(z, z, _wavenumbers(), period=-1.0)
        with pytest.raises(ConfigurationError):
            periodic_green2d_pair(z, z, _wavenumbers(), L, m_max=0)


class TestPairAssemblyParity:
    """The fused two-medium assembly vs the per-medium reference."""

    def _meshes(self, b=3, n=16, seed=5, scale=0.3):
        rng = np.random.default_rng(seed)
        return [build_mesh_2d(rng.normal(0.0, scale, n), L)
                for _ in range(b)]

    @staticmethod
    def _pair(meshes, k1, k2, opts=None):
        opts = opts or Assembly2DOptions()
        plan = AssemblyPlan2D.build(meshes, opts)
        return plan.dense(_exact(opts, k1, k2))

    @staticmethod
    def _medium(meshes, k):
        plan = AssemblyPlan2D.build(meshes, Assembly2DOptions())
        return plan.dense(_exact(Assembly2DOptions(), k))[0]

    def test_matches_per_medium_batched_assembly(self):
        meshes = self._meshes()
        k1, k2 = _wavenumbers()
        (d1, s1), (d2, s2) = self._pair(meshes, k1, k2)
        for k, d_f, s_f in ((k1, d1, s1), (k2, d2, s2)):
            d_ref, s_ref = self._medium(meshes, k)
            np.testing.assert_array_equal(d_f, d_ref)
            np.testing.assert_array_equal(s_f, s_ref)

    def test_matches_per_mesh_assembly(self):
        meshes = self._meshes(b=2)
        k1, k2 = _wavenumbers()
        opts = Assembly2DOptions(m_max=48)
        (d1, s1), (d2, s2) = self._pair(meshes, k1, k2, opts)
        for i, mesh in enumerate(meshes):
            for k, d_f, s_f in ((k1, d1, s1), (k2, d2, s2)):
                d_one, s_one = assemble_medium_2d(
                    mesh, k, opts, kernel=KummerKernel(k, L, opts.m_max))
                np.testing.assert_array_equal(d_f[i], d_one)
                np.testing.assert_array_equal(s_f[i], s_one)

    def test_flat_profile_stack(self):
        """fx = 0 everywhere: all near pairs are exactly on-surface."""
        meshes = [build_mesh_2d(np.zeros(12), L) for _ in range(2)]
        k1, k2 = _wavenumbers()
        (d1, s1), (d2, s2) = self._pair(meshes, k1, k2)
        d_ref, s_ref = self._medium(meshes, k2)
        np.testing.assert_array_equal(d2, d_ref)
        np.testing.assert_array_equal(s2, s_ref)

    def test_rejects_empty_and_mismatched(self):
        k1, k2 = _wavenumbers()
        with pytest.raises(MeshError):
            self._pair([], k1, k2)
        m1 = build_mesh_2d(np.zeros(8), L)
        m2 = build_mesh_2d(np.zeros(8), L + 1.0)
        with pytest.raises(MeshError):
            self._pair([m1, m2], k1, k2)


class TestPairPlan2D:
    """The plan evaluates the total kernel once per unordered pair."""

    def _plan(self, b=3, n=24):
        rng = np.random.default_rng(7)
        meshes = [build_mesh_2d(rng.normal(0.0, 0.4, n), L)
                  for _ in range(b)]
        return AssemblyPlan2D.build(meshes, Assembly2DOptions())

    def test_mirrored_kernel_matches_full_evaluation(self):
        bound = 1e-13
        plan = self._plan()
        x = plan.meshes[0].x
        dx = _wrap(x[:, None] - x[None, :], L)
        np.fill_diagonal(dx, 0.25 * L)
        z = np.stack([m.z for m in plan.meshes])
        ks = _wavenumbers()
        full = periodic_green2d_pair(dx, z[:, :, None] - z[:, None, :], ks,
                                     L, m_max=96)
        off = ~np.eye(plan.n, dtype=bool)
        for pair_vals, ref in zip(plan.eval_tables(_kernels(ks)), full):
            for comp, (got, want) in enumerate(zip(pair_vals, ref)):
                mirrored = _mirror(plan, got, odd=comp > 0)
                assert np.all(mirrored[:, ~off] == 0.0)
                err = np.max(np.abs(mirrored[:, off] - want[:, off]))
                assert err <= bound * np.max(np.abs(want[:, off]))

    def test_far_pairs_equal_regularized_plus_free_space(self):
        bound = 1e-13
        plan = self._plan()
        far = np.ones(plan.dx.size, dtype=bool)
        far[plan.pair] = False
        dx, dz = plan.dx[far], plan.dz[:, far]
        rho2 = dx * dx + dz * dz
        for kk, (g, gx, gz) in zip(_wavenumbers(), plan.eval_tables(
                _kernels(_wavenumbers()))):
            reg = periodic_green2d_pair(dx, dz, (kk,), L, m_max=96,
                                        exclude_primary=True)[0]
            g0, dg0 = green2d_and_gradient(rho2, 0.5 * np.log(rho2), kk)
            free = (g0, dg0 * dx, dg0 * dz)
            for got, r, f in zip((g[:, far], gx[:, far], gz[:, far]),
                                 reg, free):
                want = r + f
                err = np.max(np.abs(got - want))
                assert err <= bound * np.max(np.abs(want))


class TestZeroLimitCache:
    """g_reg(0) is a pure scalar of (k, period, m_max) — cached once."""

    def test_value_matches_fresh_mode_sum(self):
        _, k2 = _wavenumbers()
        got = regular_at_zero(k2, L, 96)
        ref = complex(periodic_green2d(np.array(0.0), np.array(0.0),
                                       complex(k2), L, m_max=96,
                                       exclude_primary=True))
        assert got == ref

    def test_key_normalizes_numpy_scalars(self):
        _, k2 = _wavenumbers()
        before = _g_reg0_cached.cache_info()
        a = regular_at_zero(np.complex128(k2), np.float64(L), 77)
        b = regular_at_zero(complex(k2), L, 77)
        after = _g_reg0_cached.cache_info()
        assert a == b
        # The two spellings share one entry: at most one new miss.
        assert after.misses <= before.misses + 1

    def test_batch_chunks_share_one_evaluation(self, stacking):
        rng = np.random.default_rng(9)
        profiles = rng.normal(0.0, 0.3, (5, 12))
        solver = SWMSolver2D()
        before = _g_reg0_cached.cache_info()
        with stacking(2):
            solver.solve_many_um(profiles, L, FREQ)  # 3 chunks x 2 media
        after = _g_reg0_cached.cache_info()
        assert after.misses <= before.misses + 2  # one per medium at most


class TestLargeGridParity:
    """Regression for the fig6 quick-scale grid (n = 96).

    numpy's elided in-place complex multiply inside the free-space
    Hankel terms rounded a final ulp differently from the out-of-place
    multiply depending on buffer alignment, so per-sample ``(N, N)`` and
    batched ``(B, N, N)`` assemblies disagreed bitwise at this size
    (they agreed at the n = 16 grids the original parity tests used).
    The Hankel factors are now materialized before the scalar multiply;
    per-sample and batched solves must agree on the grid that exposed
    it.
    """

    def test_fig6_grid_bit_identical(self):
        from repro.surfaces import ProfileGenerator

        gen = ProfileGenerator(GaussianCorrelation(sigma=1.0, eta=1.0),
                               period=L, n=96, normalize=True)
        rng = np.random.default_rng(0)
        profiles = np.stack([gen.from_white_noise(rng.standard_normal(96))
                             for _ in range(2)])
        solver = SWMSolver2D()
        serial = [solver.solve_um(p, L, 5 * GHZ) for p in profiles]
        bat = solver.solve_many_um(profiles, L, 5 * GHZ)
        for a, b in zip(serial, bat):
            assert a.enhancement == b.enhancement
            np.testing.assert_array_equal(a.psi, b.psi)
            np.testing.assert_array_equal(a.v, b.v)


class TestSolverMixedBatchSizes:
    """Batched solves vs per-sample, across chunking edge cases."""

    B = 5

    def _profiles(self):
        rng = np.random.default_rng(11)
        return rng.normal(0.0, 0.3, (self.B, 16))

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_bit_identical_across_batch_sizes(self, stacking, batch_size):
        """Chunks of 1 (degenerate stacks), 3 (non-divisor of B) and 64
        (> B, one full stack) all reproduce per-sample solves."""
        profiles = self._profiles()
        ref = SWMSolver2D()
        serial = [ref.solve_um(p, L, FREQ) for p in profiles]
        with stacking(batch_size):
            bat = SWMSolver2D().solve_many_um(profiles, L, FREQ)
        assert len(bat) == len(serial)
        for a, b in zip(serial, bat):
            assert a.enhancement == b.enhancement
            np.testing.assert_array_equal(a.psi, b.psi)
            np.testing.assert_array_equal(a.v, b.v)
            assert a.absorbed_power == b.absorbed_power
            assert a.smooth_power == b.smooth_power
