"""Tests of the 3D MOM assembly (exact vs tabulated kernels, self terms)."""

import math
import warnings

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
    EwaldKernel,
    KernelTables,
    fold_offsets,
    lookup,
    offset_kernel,
    tables_for_mesh,
)
from repro.swm.geometry import build_mesh_3d, grid_coords
from repro.swm import plan as plan_module
from repro.swm.plan import (AssemblyPlan3D, _grid_fold, _grid_pairs,
                            _subcell_offsets, _wrap)
from repro.swm.solver import SWMSolver3D, _SWMSolver
from repro.errors import ConfigurationError, MeshError
from repro.greens.ewald import _primary_minus_free_limit
from repro.greens.special import erfc_scaled_pair, ewald_spectral_brackets


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
        tables = KernelTables(K2, cfg, mesh.n, z_extent=0.1)
        plan = AssemblyPlan3D.build([mesh], AssemblyOptions())
        with pytest.raises(ConfigurationError):
            plan.eval_tables([tables])


def _medium_k(which, f_ghz):
    k = PAPER_SYSTEM.k1 if which == 1 else PAPER_SYSTEM.k2
    return k(f_ghz * GHZ) / METER_TO_UM


class TestKernelAccuracyNorms:
    """Fast-vs-exact bounds that name their norm and reference (exact
    Ewald, ``use_tables=False`` / :class:`EwaldKernel`)."""

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("period", [5.0, 15.0])
    @pytest.mark.parametrize("amp", [0.02, 2.0])
    def test_matrix_error_over_max_entry(self, n, period, amp):
        """``max|S_fast - S_exact| / max|S_exact|`` and the same for D
        stay <= 1e-7 at 1, 5 and 20 GHz in both media (worst measured:
        1.6e-9 for S, 1.5e-8 for D)."""
        mesh = _rough_mesh(n=n, period=period, amp=amp)
        for f_ghz in (1, 5, 20):
            for which in (1, 2):
                k = _medium_k(which, f_ghz)
                d_e, s_e = assemble_medium(
                    mesh, k, AssemblyOptions(use_tables=False))
                d_f, s_f = assemble_medium(mesh, k, AssemblyOptions())
                for fast, exact in ((s_f, s_e), (d_f, d_e)):
                    err = np.max(np.abs(fast - exact)) / np.max(np.abs(exact))
                    assert err <= 1e-7, (f_ghz, which, err)

    @pytest.mark.parametrize("f_ghz", [1, 5])
    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("n, period, amp", [(8, 5.0, 0.5),
                                                (7, 15.0, 2.0)])
    def test_pointwise_error_over_max_exact(self, n, period, amp, which,
                                            f_ghz):
        """Per component on a plan's pairs, ``max|fast - exact|`` over
        ``max|exact|`` on the same pairs stays <= 1e-5 (worst measured:
        1.5e-6, the conductor's gz). Both kernels are read through the
        plan, as the solves read them."""
        mesh = _rough_mesh(n=n, period=period, amp=amp)
        k = _medium_k(which, f_ghz)
        cfg = AssemblyOptions().ewald_config(period)
        plan = AssemblyPlan3D.build([mesh], AssemblyOptions())
        fast, exact = plan.eval_tables([tables_for_mesh(k, mesh, cfg),
                                        EwaldKernel(k, cfg)])
        for got, want in zip(fast, exact):
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= 1e-5


def _component_near(plan, k, regs):
    """The near entries' ``(S, D)`` as ``(B, E)`` arrays in component
    form: the free-space gradient's x, y and z sub-cell means, each
    added to its regularized component and then projected on the source
    cell's ``(fx, fy, -1)``."""
    g_reg, gx_reg, gy_reg, gz_reg = regs
    pair, sign, cols = plan.pair, plan.sign, plan.cols
    du, dv = _subcell_offsets(plan.options.near_quadrature, plan.spacing)
    sx = (sign * plan.pairs.dx[pair])[:, None] - du
    sy = (sign * plan.pairs.dy[pair])[:, None] - dv
    fx, fy = plan.fx[:, cols], plan.fy[:, cols]
    sz = ((sign * plan.dz[:, pair])[..., None]
          - (fx[..., None] * du + fy[..., None] * dv))
    rr = np.sqrt(sx * sx + sy * sy + sz * sz)
    # numpy's complex exp, not the plan's real-pass phase.
    grr = np.exp(1j * k * rr) / (4.0 * np.pi * rr)
    dg = (1j * k - 1.0 / rr) * grr / rr
    g = g_reg[:, pair] + grr.mean(axis=-1)
    gx = sign * gx_reg[:, pair] + (dg * sx).mean(axis=-1)
    gy = sign * gy_reg[:, pair] + (dg * sy).mean(axis=-1)
    gz = sign * gz_reg[:, pair] + (dg * sz).mean(axis=-1)
    return (g * plan.ds_true[:, cols],
            (gx * fx + gy * fy - gz) * plan.area)


class TestNearTangentPlane:
    """The near pass averages the free-space primary over the source
    sub-cell's tangent plane, where ``sx fx + sy fy - sz`` is one
    projection per entry: its two means must reproduce the component
    form's three gradient means to rounding."""

    @pytest.mark.parametrize("n", [6, 8, 12])
    @pytest.mark.parametrize("use_tables", [True, False])
    def test_entries_match_component_form(self, n, use_tables):
        """``max|plan - component form|`` over ``max|component form|``
        on each sample's near entries, flat and rough, stays <= 1e-13
        for S and D in both media at 1 and 5 GHz, with tables and with
        exact Ewald."""
        meshes = [_rough_mesh(n=n, amp=0.8, seed=n),
                  build_mesh_3d(np.zeros((n, n)), 5.0)]
        opts = AssemblyOptions(use_tables=use_tables)
        cfg = opts.ewald_config(5.0)
        plan = AssemblyPlan3D.build(meshes, opts)
        rows, cols = plan.rows, plan.cols
        for f_ghz in (1, 5):
            for which in (1, 2):
                k = _medium_k(which, f_ghz)
                kern = (KernelTables(k, cfg, n, z_extent=3.0) if use_tables
                        else EwaldKernel(k, cfg))
                d, s = plan.dense([(k, kern)])[0]
                s_ref, d_ref = _component_near(
                    plan, k, plan.eval_tables([kern])[0])
                for got, want in ((s[:, rows, cols], s_ref),
                                  (d[:, rows, cols], d_ref)):
                    for a, b in zip(got, want):
                        err = np.max(np.abs(a - b))
                        assert err <= 1e-13 * np.max(np.abs(b)), (
                            f_ghz, which, err)

    @pytest.mark.parametrize("n", [6, 8])
    def test_near_blocks_never_change_a_system(self, monkeypatch, stacking,
                                               n):
        """Near blocks of 1 sample, 2 samples and all samples write the
        same bits into every solver system, two frequencies stacked."""
        rng = np.random.default_rng(n)
        meshes = [build_mesh_3d(rng.normal(0.0, 0.4, (n, n)), 5.0)
                  for _ in range(4)]
        meshes.append(build_mesh_3d(np.zeros((n, n)), 5.0))
        points = AssemblyPlan3D.build(meshes[:1],
                                      AssemblyOptions()).sub_points
        systems = {}

        def capture(solver, a, rhs, n_unknowns, nb):
            systems[per].append(a.copy())
            return np.ones((nb, 2 * n_unknowns), dtype=np.complex128)

        monkeypatch.setattr(_SWMSolver, "_factor_stack", capture)
        for per in (1, 2, len(meshes)):
            monkeypatch.setattr(plan_module, "NEAR_BLOCK_POINTS",
                                per * points)
            systems[per] = []
            solver = SWMSolver3D()
            plan = AssemblyPlan3D.build(meshes, solver.options.assembly)
            assert len(plan._near_blocks()) == -(-len(meshes) // per)
            with warnings.catch_warnings(), stacking(len(meshes)):
                warnings.simplefilter("ignore", RuntimeWarning)
                solver.solve_mesh_many_multi_k(meshes, [2 * GHZ, 5 * GHZ])
        for per in (2, len(meshes)):
            assert len(systems[per]) == len(systems[1]) == 2
            for got, want in zip(systems[per], systems[1]):
                np.testing.assert_array_equal(got.view(np.uint64),
                                              want.view(np.uint64))


class TestRevisions:
    def test_3d_revisions_are_pinned(self):
        """Both 3D kernels share the plan's arithmetic and ``green3d``,
        so a change to either bumps both revisions; each reaches its
        content hash."""
        assert fastkernel.KERNEL_REVISION == 7
        assert fastkernel.EWALD_KERNEL_REVISION == "ewald-3"
        assert AssemblyOptions().to_spec()["kernel"] == 7
        assert AssemblyOptions(use_tables=False).to_spec()["kernel"] == (
            "ewald-3")


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
    """White-box checks of the offset-table kernel: the shell-collapsed
    spectral sum behind its nodes, the cached self term, the fused lookup
    across tables, the folding of pair offsets, and the history-free
    node set."""

    @staticmethod
    def _offsets(n, period=5.0):
        """Every distinct wrapped offset of the n x n grid's ordered
        pairs (both signs of the +-L/2 column of an even grid)."""
        x = np.repeat(grid_coords(n, period), n)
        y = np.tile(grid_coords(n, period), n)
        off = ~np.eye(n * n, dtype=bool)
        dx = _wrap(x[:, None] - x[None, :], period)[off]
        dy = _wrap(y[:, None] - y[None, :], period)[off]
        return np.unique(np.stack([dx, dy]), axis=1)

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("k", [K1, K2])
    def test_shell_sum_matches_explicit_mode_sum(self, n, k):
        """The tables' per-shell phase sums equal the explicit 25-mode
        sum of exact spectral brackets at every wrapped offset."""
        period = 5.0
        cfg = AssemblyOptions().ewald_config(period)
        dx, dy = self._offsets(n, period)
        z = np.linspace(-2.0, 2.0, 9)
        got = fastkernel._spectral_terms(k, cfg, dx, dy, z)

        e = cfg.effective_split
        ref = [np.zeros((dx.size, z.size), dtype=np.complex128)
               for _ in range(4)]
        for m in range(-cfg.n_modes, cfg.n_modes + 1):
            for q in range(-cfg.n_modes, cfg.n_modes + 1):
                kx = 2 * np.pi * m / period
                ky = 2 * np.pi * q / period
                gamma = np.sqrt(complex(k * k - kx * kx - ky * ky))
                if gamma.imag < 0:
                    gamma = -gamma
                coef = 1j / (4.0 * period * period * gamma)
                plus, minus = ewald_spectral_brackets(z, gamma, e)
                b = plus * coef
                minus = minus * coef
                phase = np.exp(1j * (kx * dx + ky * dy))[:, None]
                ref[0] += phase * b
                ref[1] += 1j * kx * phase * b
                ref[2] += 1j * ky * phase * b
                ref[3] += phase * (1j * gamma) * minus
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

    @pytest.mark.parametrize("period", [5.0, 15.0])
    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("f_ghz", [1, 9])
    @pytest.mark.parametrize("which", [1, 2])
    def test_self_term_and_columns_from_one_spectral_pass(self, which,
                                                          f_ghz, n,
                                                          period):
        """The build's spectral pass, with the zero offset appended,
        gives the self term the bits of one scalar bracket call per
        lattice image plus a standalone zero-offset spectral call, and
        leaves every table column the bits of ``offset_kernel``."""
        k = _medium_k(which, f_ghz)
        cfg = AssemblyOptions().ewald_config(period)
        tab = KernelTables(k, cfg, n, z_extent=1.0)
        e, nim = cfg.effective_split, cfg.n_images
        want = _primary_minus_free_limit(k, e)
        for p in range(-nim, nim + 1):
            for q in range(-nim, nim + 1):
                if p or q:
                    r = math.hypot(p * period, q * period)
                    want += (complex(erfc_scaled_pair(np.array(r), k, e))
                             / (8.0 * math.pi * r))
        zero = np.zeros(1)
        want += complex(fastkernel._spectral_terms(k, cfg, zero, zero,
                                                   zero)[0][0, 0])
        got = tab.regular_at_zero()
        assert (np.array([got]).view(np.uint64).tolist()
                == np.array([want]).view(np.uint64).tolist())

        a, b = fastkernel._canonical_offsets(n)
        nodes = np.arange(tab._last + 1) * (period
                                            / fastkernel.Z_NODES_PER_PERIOD)
        spacing = period / n
        for values, q in zip(tab._values, offset_kernel(
                k, cfg, a * spacing, b * spacing, nodes)):
            np.testing.assert_array_equal(
                values.reshape(nodes.size + 1, a.size)[1:].view(np.uint64),
                np.ascontiguousarray(q.T).view(np.uint64))

    def test_multi_table_evaluation_is_bit_identical(self):
        """On the plan's pair arrays, the fused pass equals a direct
        multi-table lookup, each table alone and a one-sample plan."""
        meshes = [_rough_mesh(seed=0), _rough_mesh(amp=0.3, seed=1)]
        cfg = AssemblyOptions().ewald_config(meshes[0].period)
        tabs = [KernelTables(k, cfg, 8, z_extent=2.0) for k in (K1, K2)]
        plan = AssemblyPlan3D.build(meshes, AssemblyOptions())
        fused = plan.eval_tables(tabs)
        direct = lookup(tabs, _grid_fold(8, meshes[0].period), plan.dz)
        single_sample = AssemblyPlan3D.build(meshes[1:], AssemblyOptions())
        for tab, got, other in zip(tabs, fused, direct):
            alone = plan.eval_tables([tab])[0]
            sample = single_sample.eval_tables([tab])[0]
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
        """Mirroring the pair kernel by parity reproduces a lookup on
        every ordered pair (whose reversed offsets fold onto the same
        columns with opposite signs; the x = 0 and y = 0 gradient
        entries, zero up to rounding, flip sign, hence a rounding-level
        bound)."""
        bound = 1e-13
        meshes = [_rough_mesh(seed=0), _rough_mesh(amp=0.3, seed=1)]
        cfg = AssemblyOptions().ewald_config(meshes[0].period)
        tabs = [KernelTables(k, cfg, 8, z_extent=2.0) for k in (K1, K2)]
        plan = AssemblyPlan3D.build(meshes, AssemblyOptions())
        period = meshes[0].period
        off = ~np.eye(plan.n, dtype=bool)
        dx = _wrap(meshes[0].x[:, None] - meshes[0].x[None, :], period)
        dy = _wrap(meshes[0].y[:, None] - meshes[0].y[None, :], period)
        z = np.stack([m.z for m in meshes])
        dz = (z[:, :, None] - z[:, None, :])[:, off]
        full = lookup(tabs, fold_offsets(dx[off], dy[off], 8, period), dz)
        for pair_vals, ref in zip(plan.eval_tables(tabs), full):
            for comp, (got, want) in enumerate(zip(pair_vals, ref)):
                mirrored = _mirror(plan, got, odd=comp > 0)
                assert np.all(mirrored[:, ~off] == 0.0)
                err = np.max(np.abs(mirrored[:, off] - want))
                assert err <= bound * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("k", [K1, K2])
    def test_folded_lookup_matches_direct_evaluation(self, n, k):
        """At node heights (both signs), the folded lookup equals
        ``offset_kernel`` evaluated directly at every wrapped offset,
        the +-L/2 column of the even grid included."""
        period = 5.0
        cfg = AssemblyOptions().ewald_config(period)
        dx, dy = self._offsets(n, period)
        for c in (dx, dy):
            assert np.any(c == period / 2) == np.any(c == -period / 2) \
                == (n % 2 == 0)
        h = period / fastkernel.Z_NODES_PER_PERIOD
        z = np.arange(-12, 13) * h
        tab = KernelTables(k, cfg, n, z_extent=float(np.max(z)))
        got = lookup([tab], fold_offsets(dx, dy, n, period),
                     np.broadcast_to(z[:, None], (z.size, dx.size)))[0]
        want = offset_kernel(k, cfg, dx, dy, z)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b.T)) <= 1e-13 * np.max(np.abs(b))

    @pytest.mark.parametrize("k", [K1, K2])
    def test_table_length_never_changes_a_value(self, k):
        """Tables of one (k, cfg, n) sample one node set: a short table
        (built for exactly this mesh's height range) and a long one
        hold the same bits on their shared nodes and return the same
        bits wherever both cover."""
        mesh = _rough_mesh()
        cfg = AssemblyOptions().ewald_config(mesh.period)
        plan = AssemblyPlan3D.build([mesh], AssemblyOptions())
        short = KernelTables(k, cfg, mesh.n,
                             z_extent=float(np.max(np.abs(plan.dz))))
        long = KernelTables(k, cfg, mesh.n, z_extent=10.0)
        for a, b in zip(short._values, long._values):
            np.testing.assert_array_equal(a, b[:a.size])
        for a, b in zip(plan.eval_tables([short])[0],
                        plan.eval_tables([long])[0]):
            np.testing.assert_array_equal(a, b)
        # Mixed lengths stack; the shortest table bounds dz.
        for a, b in zip(plan.eval_tables([long, short])[0],
                        plan.eval_tables([long])[0]):
            np.testing.assert_array_equal(a, b)
        tiny = KernelTables(k, cfg, mesh.n, z_extent=0.1)
        with pytest.raises(ConfigurationError, match="tabulated range"):
            plan.eval_tables([long, tiny])

    @pytest.mark.parametrize("amp", [0.02, 0.5, 2.0])
    def test_mesh_tables_cover_the_stencil(self, amp):
        """A table sized to exactly a mesh's height range covers every
        pair's interpolation stencil; one node short of it raises."""
        mesh = _rough_mesh(amp=amp)
        cfg = AssemblyOptions().ewald_config(mesh.period)
        plan = AssemblyPlan3D.build([mesh], AssemblyOptions())
        tab = tables_for_mesh(K2, mesh, cfg)
        assert tab.covers(float(np.ptp(mesh.z)))
        plan.eval_tables([tab])
        h = mesh.period / fastkernel.Z_NODES_PER_PERIOD
        short = KernelTables(K2, cfg, mesh.n, z_extent=max(
            float(np.max(np.abs(plan.dz))) - h, 0.0))
        with pytest.raises(ConfigurationError, match="tabulated range"):
            plan.eval_tables([short])

    def test_tables_on_mismatched_grids_raise(self):
        mesh = _rough_mesh()
        cfg = AssemblyOptions().ewald_config(mesh.period)
        plan = AssemblyPlan3D.build([mesh], AssemblyOptions())
        right = KernelTables(K1, cfg, 8, z_extent=2.0)
        for wrong in (KernelTables(K2, cfg, 6, z_extent=2.0),
                      KernelTables(K2, AssemblyOptions().ewald_config(6.0),
                                   8, z_extent=2.0)):
            with pytest.raises(ConfigurationError, match="another grid"):
                plan.eval_tables([right, wrong])
        # Another Ewald truncation on the same grid stacks fine.
        more_images = KernelTables(K2, AssemblyOptions(
            n_images=3).ewald_config(mesh.period), 8, z_extent=2.0)
        plan.eval_tables([right, more_images])

    def test_unwrapped_separations_raise(self):
        period = 5.0
        with pytest.raises(ConfigurationError, match="minimum image"):
            fold_offsets(np.array([0.6 * period]), np.array([0.0]), 8,
                         period)
        with pytest.raises(ConfigurationError, match="nonzero"):
            fold_offsets(np.array([0.0]), np.array([0.0]), 8, period)
