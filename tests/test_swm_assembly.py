"""Tests of the 3D MOM assembly (exact vs tabulated kernels, self terms)."""

import numpy as np
import pytest

from repro.constants import GHZ, METER_TO_UM
from repro.materials import PAPER_SYSTEM
from repro.swm.assembly import (
    AssemblyOptions,
    assemble_medium,
    rectangle_inverse_distance_integral,
)
from repro.swm import fastkernel
from repro.swm.fastkernel import (
    KernelTables,
    green_and_gradient_multi,
    shell_phase_sums,
    tables_for_mesh,
)
from repro.swm.geometry import build_mesh_3d, grid_coords
from repro.swm.plan import AssemblyPlan3D, _grid_pairs, _wrap
from repro.errors import MeshError


def _rough_mesh(n=8, period=5.0, amp=0.5, seed=0):
    rng = np.random.default_rng(seed)
    # Smooth random surface (bandlimited) to keep slopes moderate.
    x = np.arange(n) * period / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    w = 2 * np.pi / period
    h = amp * (np.cos(w * xx + 1.0) * np.cos(w * yy)
               + 0.5 * np.sin(2 * w * xx) * np.cos(w * yy + 0.3))
    return build_mesh_3d(h, period)


K2 = PAPER_SYSTEM.k2(5 * GHZ) / METER_TO_UM
K1 = PAPER_SYSTEM.k1(5 * GHZ) / METER_TO_UM


class TestRectangleIntegral:
    def test_square_closed_form(self):
        # integral of 1/r over a d x d square = 4 d asinh(1).
        d = 0.7
        got = rectangle_inverse_distance_integral(d, d)
        assert got == pytest.approx(4 * d * np.arcsinh(1.0), rel=1e-12)

    def test_matches_numeric_quadrature(self):
        a, b = 0.5, 0.3
        xs = (np.arange(4000) + 0.5) / 4000 * a - a / 2
        ys = (np.arange(4000) + 0.5) / 4000 * b - b / 2
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        numeric = np.mean(1.0 / np.hypot(xx, yy)) * a * b
        got = rectangle_inverse_distance_integral(a, b)
        assert got == pytest.approx(numeric, rel=1e-3)

    def test_validation(self):
        with pytest.raises(MeshError):
            rectangle_inverse_distance_integral(-1.0, 1.0)


class TestFastKernelAgainstExact:
    @pytest.mark.parametrize("k", [K1, K2])
    def test_matrices_match(self, k):
        mesh = _rough_mesh()
        exact_opts = AssemblyOptions(use_tables=False)
        fast_opts = AssemblyOptions(use_tables=True)
        d_e, s_e = assemble_medium(mesh, k, exact_opts)
        d_f, s_f = assemble_medium(mesh, k, fast_opts)
        scale_s = np.max(np.abs(s_e))
        scale_d = np.max(np.abs(d_e))
        np.testing.assert_allclose(s_f, s_e, atol=2e-6 * scale_s)
        np.testing.assert_allclose(d_f, d_e, atol=2e-6 * scale_d)

    @pytest.mark.parametrize("k", [K1, K2])
    @pytest.mark.parametrize("amp", [0.02, 2.0])
    @pytest.mark.parametrize("period", [5.0, 15.0])
    def test_matrices_match_across_periods_and_heights(self, period, amp,
                                                       k):
        """The fixed node spacings scale with the period, not with the
        height range, so flat and tall surfaces on short and long
        periods all hold the bound (worst measured: 2.2e-7)."""
        mesh = _rough_mesh(period=period, amp=amp)
        d_e, s_e = assemble_medium(mesh, k, AssemblyOptions(use_tables=False))
        d_f, s_f = assemble_medium(mesh, k, AssemblyOptions(use_tables=True))
        np.testing.assert_allclose(s_f, s_e, atol=2e-6 * np.max(np.abs(s_e)))
        np.testing.assert_allclose(d_f, d_e, atol=2e-6 * np.max(np.abs(d_e)))

    def test_prebuilt_tables_reused(self):
        mesh = _rough_mesh()
        opts = AssemblyOptions()
        cfg = opts.ewald_config(mesh.period)
        tables = tables_for_mesh(K2, mesh, cfg)
        d_a, s_a = assemble_medium(mesh, K2, opts, tables=tables)
        d_b, s_b = assemble_medium(mesh, K2, opts)
        np.testing.assert_allclose(s_a, s_b, rtol=1e-10)
        np.testing.assert_allclose(d_a, d_b, rtol=1e-10)

    def test_tables_reject_out_of_range_dz(self):
        mesh = _rough_mesh(amp=0.2)
        cfg = AssemblyOptions().ewald_config(mesh.period)
        tables = KernelTables(K2, cfg, z_extent=0.1)
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            tables.green_and_gradient(np.array([0.5]), np.array([0.0]),
                                      np.array([5.0]))


class TestFlatRowSums:
    """On a flat surface, sum_j S_ij ~ integral of G over the patch =
    j/(2k) (only the specular spectral mode survives)."""

    @pytest.mark.parametrize("k", [K2])
    def test_single_layer_row_sum(self, k):
        mesh = build_mesh_3d(np.zeros((12, 12)), 5.0)
        _, s = assemble_medium(mesh, k, AssemblyOptions())
        row_sums = s.sum(axis=1)
        expected = 1j / (2 * k)
        np.testing.assert_allclose(row_sums, expected, rtol=2e-2)

    def test_double_layer_vanishes_on_flat(self):
        mesh = build_mesh_3d(np.zeros((10, 10)), 5.0)
        d, _ = assemble_medium(mesh, K2, AssemblyOptions())
        assert np.max(np.abs(d)) < 1e-8


class TestStructure:
    def test_kernel_symmetry_far_pairs(self):
        """G(r_i, r_j) = G(r_j, r_i) wherever the midpoint rule is used.

        Near pairs use source-cell tangent-plane quadrature, which is
        deliberately asymmetric (collocation); the reciprocity of the
        underlying kernel shows up on the far pairs.
        """
        mesh = _rough_mesh()
        opts = AssemblyOptions()
        _, s = assemble_medium(mesh, K2, opts)
        w = mesh.jac * mesh.cell_area
        g = s / w[None, :]

        def wrap(d):
            return d - mesh.period * np.round(d / mesh.period)

        dx = wrap(mesh.x[:, None] - mesh.x[None, :])
        dy = wrap(mesh.y[:, None] - mesh.y[None, :])
        far = np.hypot(dx, dy) > (opts.near_radius_cells + 0.1) * mesh.spacing
        asym = np.abs(g - g.T)[far]
        assert asym.max() < 1e-8 * np.abs(g).max()

    def test_no_nans(self):
        mesh = _rough_mesh(amp=1.2)
        for k in (K1, K2):
            d, s = assemble_medium(mesh, k, AssemblyOptions())
            assert np.all(np.isfinite(d))
            assert np.all(np.isfinite(s))


class TestShellKernel:
    """White-box checks of the tabulated kernel's per-sample work:
    shell-collapsed spectral sum, cached self term, shared evaluation
    across tables, and the shared-grid contract."""

    @staticmethod
    def _separations(mesh):
        plan = AssemblyPlan3D.build([mesh], AssemblyOptions())
        return plan.dx, plan.dy, plan.dz

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("k", [K1, K2])
    def test_shell_sum_matches_explicit_mode_sum(self, n, k):
        mesh = _rough_mesh(n=n)
        cfg = AssemblyOptions().ewald_config(mesh.period)
        tab = tables_for_mesh(k, mesh, cfg)
        dx, dy, dz = self._separations(mesh)
        got = tuple(np.zeros(dz.shape, dtype=np.complex128)
                    for _ in range(4))
        phases = shell_phase_sums(dx, dy, mesh.period, cfg.n_modes)
        t = np.abs(dz) * tab._z_inv_h
        fastkernel._add_shells([tab], [got], np.sign(dz), t, phases)

        # Explicit 25-mode sum over the same interpolated shell tables
        # (tabulated on |dz|; the z-derivative is odd in dz).
        idx = t.astype(np.intp)
        frac = t - idx
        ref = [np.zeros(dz.shape, dtype=np.complex128) for _ in range(4)]
        for m in range(-cfg.n_modes, cfg.n_modes + 1):
            for q in range(-cfg.n_modes, cfg.n_modes + 1):
                rows = tab._shells[m * m + q * q][:, idx]
                b = rows[0] + frac * rows[1]
                minus = rows[2] + frac * rows[3]
                kx = 2 * np.pi * m / mesh.period
                ky = 2 * np.pi * q / mesh.period
                phase = np.exp(1j * (kx * dx + ky * dy))
                ref[0] += phase * b
                ref[1] += 1j * kx * phase * b
                ref[2] += 1j * ky * phase * b
                ref[3] += np.sign(dz) * phase * minus
        for a, b in zip(got, ref):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    def test_self_term_computed_once_per_table(self, monkeypatch):
        calls = []
        compute = KernelTables._regular_at_zero

        def counted(self):
            calls.append(self)
            return compute(self)

        monkeypatch.setattr(KernelTables, "_regular_at_zero", counted)
        mesh = _rough_mesh()
        tables = tables_for_mesh(K2, mesh, AssemblyOptions().ewald_config(
            mesh.period))
        first = assemble_medium(mesh, K2, AssemblyOptions(), tables=tables)
        for _ in range(3):
            again = assemble_medium(mesh, K2, AssemblyOptions(),
                                    tables=tables)
        assert calls == [tables]
        np.testing.assert_array_equal(again[1], first[1])

    def test_multi_table_evaluation_is_bit_identical(self):
        """On the plan's pair arrays, the fused pass equals a direct
        multi-table call, each table alone and a one-sample plan."""
        meshes = [_rough_mesh(seed=0), _rough_mesh(amp=0.3, seed=1)]
        cfg = AssemblyOptions().ewald_config(meshes[0].period)
        tabs = [KernelTables(k, cfg, z_extent=2.0) for k in (K1, K2)]
        plan = AssemblyPlan3D.build(meshes, AssemblyOptions())
        fused = plan.eval_tables(tabs)
        direct = green_and_gradient_multi(tabs, plan.dx, plan.dy, plan.dz)
        single_sample = AssemblyPlan3D.build(meshes[1:], AssemblyOptions())
        for tab, got, other in zip(tabs, fused, direct):
            alone = tab.green_and_gradient(plan.dx, plan.dy, plan.dz)
            sample = tab.green_and_gradient(single_sample.dx,
                                            single_sample.dy,
                                            single_sample.dz)
            for a, b, c, d in zip(got, other, alone, sample):
                np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(a, c)
                np.testing.assert_array_equal(a[1:], d)

    @pytest.mark.parametrize("n", [7, 8])
    def test_pair_offsets_are_exactly_antisymmetric(self, n):
        """The reversed pair's wrapped offsets are the exact negation,
        the +-L/2 column of an even grid included, so mirroring by
        parity reads the right values."""
        period = 5.0
        pairs = _grid_pairs(n, period)
        x = np.repeat(grid_coords(n, period), n)
        y = np.tile(grid_coords(n, period), n)
        for c, got in ((x, pairs.dx), (y, pairs.dy)):
            full = _wrap(c[:, None] - c[None, :], period)
            np.testing.assert_array_equal(full, -full.T)
            np.testing.assert_array_equal(full[pairs.iu, pairs.ju], got)
            assert np.any(np.abs(got) == period / 2) == (n % 2 == 0)
        assert not (pairs.dx.flags.writeable or pairs.iu.flags.writeable)

    def test_mirrored_kernel_matches_full_evaluation(self):
        """Mirroring the pair kernel by parity reproduces a direct
        evaluation on every ordered pair (which sums the images in
        another order, hence a rounding-level bound)."""
        bound = 1e-13
        meshes = [_rough_mesh(seed=0), _rough_mesh(amp=0.3, seed=1)]
        cfg = AssemblyOptions().ewald_config(meshes[0].period)
        tabs = [KernelTables(k, cfg, z_extent=2.0) for k in (K1, K2)]
        plan = AssemblyPlan3D.build(meshes, AssemblyOptions())
        period = meshes[0].period
        dx = _wrap(meshes[0].x[:, None] - meshes[0].x[None, :], period)
        dy = _wrap(meshes[0].y[:, None] - meshes[0].y[None, :], period)
        np.fill_diagonal(dx, 0.25 * period)
        z = np.stack([m.z for m in meshes])
        full = green_and_gradient_multi(tabs, dx, dy,
                                        z[:, :, None] - z[:, None, :])
        off = ~np.eye(plan.n, dtype=bool)
        for pair_vals, ref in zip(plan.eval_tables(tabs), full):
            for comp, (got, want) in enumerate(zip(pair_vals, ref)):
                mirrored = plan.mirror(got, odd=comp > 0)
                assert np.all(mirrored[:, ~off] == 0.0)
                err = np.max(np.abs(mirrored[:, off] - want[:, off]))
                assert err <= bound * np.max(np.abs(want[:, off]))

    def test_tables_on_mismatched_grids_raise(self):
        from repro.errors import ConfigurationError

        mesh = _rough_mesh()
        cfg = AssemblyOptions().ewald_config(mesh.period)
        dx, dy, dz = self._separations(mesh)
        tab = KernelTables(K1, cfg, z_extent=2.0)
        more_images = KernelTables(K2, AssemblyOptions(
            n_images=3).ewald_config(mesh.period), z_extent=2.0)
        assert not tab.shares_grids(more_images)
        with pytest.raises(ConfigurationError, match="shared grids"):
            green_and_gradient_multi([tab, more_images], dx, dy, dz)
        other_modes = shell_phase_sums(dx, dy, mesh.period, cfg.n_modes + 1)
        with pytest.raises(ConfigurationError, match="mode set"):
            green_and_gradient_multi([tab], dx, dy, dz, other_modes)

    @pytest.mark.parametrize("k", [K1, K2])
    def test_table_length_never_changes_a_value(self, k):
        """Tables of one (k, cfg) sample one node set: a short table
        (built for exactly this mesh's height range) and a long one
        share grids and return the same bits wherever both cover."""
        mesh = _rough_mesh()
        cfg = AssemblyOptions().ewald_config(mesh.period)
        dx, dy, dz = self._separations(mesh)
        short = KernelTables(k, cfg, z_extent=float(np.max(np.abs(dz))))
        long = KernelTables(k, cfg, z_extent=10.0)
        assert short.shares_grids(long)
        for a, b in zip(short.green_and_gradient(dx, dy, dz),
                        long.green_and_gradient(dx, dy, dz)):
            np.testing.assert_array_equal(a, b)
        # Mixed lengths stack; the shortest table bounds dz.
        for a, b in zip(green_and_gradient_multi([long, short],
                                                 dx, dy, dz)[0],
                        long.green_and_gradient(dx, dy, dz)):
            np.testing.assert_array_equal(a, b)
        from repro.errors import ConfigurationError
        tiny = KernelTables(k, cfg, z_extent=0.1)
        with pytest.raises(ConfigurationError, match="z range"):
            green_and_gradient_multi([long, tiny], dx, dy, dz)

    def test_unwrapped_separations_raise(self):
        from repro.errors import ConfigurationError

        mesh = _rough_mesh()
        tab = tables_for_mesh(K2, mesh, AssemblyOptions().ewald_config(
            mesh.period))
        with pytest.raises(ConfigurationError, match="minimum image"):
            tab.green_and_gradient(np.array([0.6 * mesh.period]),
                                   np.array([0.0]), np.array([0.0]))
