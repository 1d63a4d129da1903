"""Tests of the 3D SWM solver — the paper's central machinery."""

import numpy as np
import pytest

from repro.constants import GHZ, UM
from repro.errors import ConfigurationError
from repro.materials import PAPER_SYSTEM
from repro.surfaces import GaussianCorrelation, SurfaceGenerator
from repro.surfaces.deterministic import egg_carton
from repro.swm.solver import SWMSolver3D


@pytest.fixture(scope="module")
def solver():
    return SWMSolver3D()


class TestFlatSurface:
    """The closed-loop validation: a flat patch must reproduce the
    analytic flat-interface solution."""

    def test_enhancement_is_unity(self, solver):
        res = solver.solve_um(np.zeros((12, 12)), 5.0, 5 * GHZ)
        assert res.enhancement == pytest.approx(1.0, abs=0.01)

    def test_surface_field_is_t0(self, solver):
        f = 3 * GHZ
        res = solver.solve_um(np.zeros((10, 10)), 5.0, f)
        t0 = PAPER_SYSTEM.flat_transmission(f)
        np.testing.assert_allclose(res.psi, t0, rtol=5e-3)

    def test_normal_derivative_is_minus_jk2_t0(self, solver):
        f = 3 * GHZ
        res = solver.solve_um(np.zeros((14, 14)), 5.0, f)
        k2_um = PAPER_SYSTEM.k2(f) * 1e-6
        expected = -1j * k2_um * PAPER_SYSTEM.flat_transmission(f)
        np.testing.assert_allclose(res.v, expected, rtol=2e-2)

    def test_converges_with_refinement(self, solver):
        errs = []
        for n in (8, 16):
            res = solver.solve_um(np.zeros((n, n)), 5.0, 5 * GHZ)
            errs.append(abs(res.enhancement - 1.0))
        assert errs[1] < errs[0]

    def test_frequency_independent(self, solver):
        for f in (1 * GHZ, 9 * GHZ):
            res = solver.solve_um(np.zeros((12, 12)), 5.0, f)
            assert res.enhancement == pytest.approx(1.0, abs=0.02)


class TestRoughSurface:
    def test_rough_absorbs_more_at_high_frequency(self, solver):
        cf = GaussianCorrelation(1.0, 1.0)
        gen = SurfaceGenerator(cf, 5.0, 14, normalize=True)
        h = gen.sample(3).heights
        res = solver.solve_um(h, 5.0, 7 * GHZ)
        assert res.enhancement > 1.15

    def test_enhancement_rises_with_frequency(self, solver):
        cf = GaussianCorrelation(1.0, 1.0)
        h = SurfaceGenerator(cf, 5.0, 12, normalize=True).sample(5).heights
        freqs = np.array([1.0, 4.0, 8.0]) * GHZ
        vals = [solver.solve_um(h, 5.0, float(f)).enhancement for f in freqs]
        assert vals[2] > vals[1] > vals[0] - 0.02

    def test_absorbed_power_positive(self, solver):
        h = egg_carton(12, 5.0, amplitude=0.8)
        res = solver.solve_um(h, 5.0, 5 * GHZ)
        assert res.absorbed_power > 0.0

    def test_deeper_roughness_is_lossier(self, solver):
        f = 6 * GHZ
        shallow = egg_carton(12, 5.0, amplitude=0.3)
        deep = egg_carton(12, 5.0, amplitude=1.0)
        e_shallow = solver.solve_um(shallow, 5.0, f).enhancement
        e_deep = solver.solve_um(deep, 5.0, f).enhancement
        assert e_deep > e_shallow

    def test_translation_invariance(self, solver):
        """Shifting the surface heights by a constant must not change
        the loss factor (rigid offset of the patch)."""
        h = egg_carton(10, 5.0, amplitude=0.6)
        a = solver.solve_um(h, 5.0, 5 * GHZ).enhancement
        b = solver.solve_um(h + 2.0, 5.0, 5 * GHZ).enhancement
        assert a == pytest.approx(b, rel=1e-6)

    def test_si_and_um_paths_agree(self, solver):
        h_um = egg_carton(8, 5.0, amplitude=0.5)
        a = solver.solve_um(h_um, 5.0, 5 * GHZ).enhancement
        b = solver.solve(h_um * UM, 5.0 * UM, 5 * GHZ).enhancement
        assert a == pytest.approx(b, rel=1e-12)


class TestDiagnostics:
    def test_resolution_warning(self, solver):
        with pytest.warns(RuntimeWarning, match="skin depth"):
            solver.solve_um(np.zeros((6, 6)), 20.0, 20 * GHZ)

    def test_smooth_power_validation(self, solver):
        with pytest.raises(ConfigurationError):
            solver.smooth_power(-5.0, 5 * GHZ)

    def test_table_cache_reused_across_samples(self):
        solver = SWMSolver3D()
        h1 = egg_carton(8, 5.0, amplitude=0.4)
        h2 = egg_carton(8, 5.0, amplitude=0.35)
        solver.solve_um(h1, 5.0, 5 * GHZ)
        n_tables = len(solver._tables)
        solver.solve_um(h2, 5.0, 5 * GHZ)
        assert len(solver._tables) == n_tables  # reused, not rebuilt
