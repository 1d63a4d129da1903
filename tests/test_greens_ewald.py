"""Tests of the doubly-periodic Ewald Green's function."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.greens.ewald import (
    EwaldConfig,
    periodic_green,
    periodic_green_and_gradient,
    periodic_green_direct,
)
from repro.greens.freespace import green3d

L = 5.0
K2 = (1 + 1j) / 0.92  # copper-like at ~5 GHz (1/um)
K1 = 2.02e-4 + 0j     # SiO2 at ~5 GHz (1/um)


@pytest.fixture(scope="module")
def separations():
    rng = np.random.default_rng(0)
    dx = rng.uniform(-2, 2, 12)
    dy = rng.uniform(-2, 2, 12)
    dz = rng.uniform(-2.5, 2.5, 12)
    return dx, dy, dz


class TestAgainstDirectSum:
    def test_lossy_medium_matches_brute_force(self, separations):
        dx, dy, dz = separations
        cfg = EwaldConfig(period=L)
        got = periodic_green(dx, dy, dz, K2, cfg)
        ref = periodic_green_direct(dx, dy, dz, K2, L, n_images=30)
        np.testing.assert_allclose(got, ref, rtol=1e-10)

    def test_exclude_primary_matches_brute_force(self, separations):
        dx, dy, dz = separations
        cfg = EwaldConfig(period=L)
        got = periodic_green(dx, dy, dz, K2, cfg, exclude_primary=True)
        r = np.sqrt(dx**2 + dy**2 + dz**2)
        ref = (periodic_green_direct(dx, dy, dz, K2, L, n_images=30)
               - green3d(r, K2))
        np.testing.assert_allclose(got, ref, rtol=1e-8)

    def test_direct_sum_requires_loss(self, separations):
        dx, dy, dz = separations
        with pytest.raises(ConfigurationError):
            periodic_green_direct(dx, dy, dz, 1.0 + 0j, L)


class TestSplitInvariance:
    """The defining property of Ewald: independence of the splitting E."""

    @pytest.mark.parametrize("k", [K1, K2, 0.5 + 0.2j])
    def test_result_independent_of_split(self, separations, k):
        dx, dy, dz = separations
        base = periodic_green(
            dx, dy, dz, k, EwaldConfig(period=L, n_images=4, n_modes=4))
        for factor in (0.5, 1.5, 2.0):
            split = factor * np.sqrt(np.pi) / L
            cfg = EwaldConfig(period=L, split=split, n_images=5, n_modes=5)
            other = periodic_green(dx, dy, dz, k, cfg)
            np.testing.assert_allclose(other, base, rtol=1e-7, atol=1e-10)


class TestTruncation:
    def test_default_truncation_converged(self, separations):
        dx, dy, dz = separations
        coarse = periodic_green(dx, dy, dz, K2,
                                EwaldConfig(period=L, n_images=2, n_modes=2))
        fine = periodic_green(dx, dy, dz, K2,
                              EwaldConfig(period=L, n_images=4, n_modes=4))
        np.testing.assert_allclose(coarse, fine, rtol=2e-5, atol=1e-9)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EwaldConfig(period=-1.0)
        with pytest.raises(ConfigurationError):
            EwaldConfig(period=L, n_images=0)
        with pytest.raises(ConfigurationError):
            EwaldConfig(period=L, split=-0.1)


class TestGradient:
    @pytest.mark.parametrize("k", [K1, K2])
    def test_matches_finite_differences(self, separations, k):
        # For the quasi-static medium (K1) the kernel carries a huge
        # constant specular term (~1/(k1 L^2)), so central differences
        # need a larger step to beat cancellation noise; the kernel is
        # smooth on the scale of L, making h = 1e-3 safely in-range.
        dx, dy, dz = separations
        cfg = EwaldConfig(period=L)
        _, gx, gy, gz = periodic_green_and_gradient(dx, dy, dz, k, cfg)
        h = 1e-3
        fx = (periodic_green(dx + h, dy, dz, k, cfg)
              - periodic_green(dx - h, dy, dz, k, cfg)) / (2 * h)
        fy = (periodic_green(dx, dy + h, dz, k, cfg)
              - periodic_green(dx, dy - h, dz, k, cfg)) / (2 * h)
        fz = (periodic_green(dx, dy, dz + h, k, cfg)
              - periodic_green(dx, dy, dz - h, k, cfg)) / (2 * h)
        scale = np.max(np.abs(gx)) + np.max(np.abs(gz)) + 1e-12
        np.testing.assert_allclose(gx, fx, rtol=2e-4, atol=3e-6 * scale)
        np.testing.assert_allclose(gy, fy, rtol=2e-4, atol=3e-6 * scale)
        np.testing.assert_allclose(gz, fz, rtol=2e-4, atol=3e-6 * scale)


class TestPeriodicity:
    def test_periodic_in_both_lattice_directions(self, separations):
        # Exact periodicity holds for the infinite sums; with a truncated
        # image window the shifted evaluation loses the outermost ring,
        # so use a wider window and a matching tolerance.
        dx, dy, dz = separations
        cfg = EwaldConfig(period=L, n_images=5, n_modes=5)
        base = periodic_green(dx, dy, dz, K2, cfg)
        shifted = periodic_green(dx + L, dy - 2 * L, dz, K2, cfg)
        np.testing.assert_allclose(shifted, base, rtol=1e-6, atol=1e-10)


class TestSelfLimit:
    def test_regularized_value_continuous_at_zero(self):
        cfg = EwaldConfig(period=L)
        z = np.array([0.0])
        at0 = periodic_green(z, z, z, K2, cfg, exclude_primary=True)
        near = periodic_green(np.array([1e-5]), z, z, K2, cfg,
                              exclude_primary=True)
        np.testing.assert_allclose(at0, near, rtol=1e-4)

    def test_zero_separation_without_exclusion_raises(self):
        cfg = EwaldConfig(period=L)
        z = np.array([0.0])
        with pytest.raises(ConfigurationError):
            periodic_green(z, z, z, K2, cfg)
