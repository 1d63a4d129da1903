"""Tests of the Kummer-accelerated 1D-periodic 2D Green's function."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.greens.freespace import green2d
from repro.greens.periodic2d import (
    periodic_green2d,
    periodic_green2d_direct,
    periodic_green2d_gradient,
    periodic_green2d_pair,
)

L = 5.0
K2 = (1 + 1j) / 0.92
K1 = 2.02e-4 + 0j


@pytest.fixture(scope="module")
def separations():
    rng = np.random.default_rng(1)
    return rng.uniform(-2, 2, 10), rng.uniform(-2.5, 2.5, 10)


class TestAgainstDirectSum:
    def test_lossy_matches_hankel_images(self, separations):
        dx, dz = separations
        got = periodic_green2d(dx, dz, K2, L)
        ref = periodic_green2d_direct(dx, dz, K2, L, n_images=300)
        np.testing.assert_allclose(got, ref, rtol=1e-7)

    def test_exclude_primary(self, separations):
        dx, dz = separations
        got = periodic_green2d(dx, dz, K2, L, exclude_primary=True)
        rho = np.sqrt(dx**2 + dz**2)
        ref = (periodic_green2d_direct(dx, dz, K2, L, n_images=300)
               - green2d(rho, K2))
        np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-9)


class TestConvergence:
    @pytest.mark.parametrize("k", [K1, K2])
    def test_m_max_converged(self, separations, k):
        dx, dz = separations
        a = periodic_green2d(dx, dz, k, L, m_max=64)
        b = periodic_green2d(dx, dz, k, L, m_max=256)
        np.testing.assert_allclose(a, b, rtol=1e-7, atol=1e-11)

    def test_on_surface_dz_zero(self):
        """The Kummer acceleration must handle dz = 0 (slowest case).

        The residual terms decay like 1/m^3, so the tail beyond m_max
        scales like 1/m_max^2 — quadratic convergence is what we check.
        """
        dx = np.linspace(0.2, 2.4, 8)
        dz = np.zeros_like(dx)
        a = periodic_green2d(dx, dz, K2, L, m_max=96)
        b = periodic_green2d(dx, dz, K2, L, m_max=768)
        err_a = np.max(np.abs(a - b) / np.abs(b))
        assert err_a < 1e-5
        c = periodic_green2d(dx, dz, K2, L, m_max=192)
        err_c = np.max(np.abs(c - b) / np.abs(b))
        assert err_c < err_a / 2.0


class TestGradient:
    @pytest.mark.parametrize("k", [K1, K2])
    def test_matches_finite_differences(self, separations, k):
        dx, dz = separations
        gx, gz = periodic_green2d_gradient(dx, dz, k, L)
        h = 1e-6
        fx = (periodic_green2d(dx + h, dz, k, L)
              - periodic_green2d(dx - h, dz, k, L)) / (2 * h)
        fz = (periodic_green2d(dx, dz + h, k, L)
              - periodic_green2d(dx, dz - h, k, L)) / (2 * h)
        np.testing.assert_allclose(gx, fx, rtol=1e-5, atol=1e-9)
        np.testing.assert_allclose(gz, fz, rtol=1e-5, atol=1e-9)


class TestStructure:
    def test_periodicity(self, separations):
        dx, dz = separations
        a = periodic_green2d(dx, dz, K2, L)
        b = periodic_green2d(dx + 3 * L, dz, K2, L)
        np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_self_limit_continuous(self):
        z = np.array([0.0])
        at0 = periodic_green2d(z, z, K2, L, exclude_primary=True)
        near = periodic_green2d(np.array([1e-5]), z, K2, L,
                                exclude_primary=True)
        np.testing.assert_allclose(at0, near, rtol=1e-3)

    def test_zero_separation_raises_without_exclusion(self):
        z = np.array([0.0])
        with pytest.raises(ConfigurationError):
            periodic_green2d(z, z, K2, L)

    def test_validation(self):
        z = np.array([0.5])
        with pytest.raises(ConfigurationError):
            periodic_green2d(z, z, K2, period=-1.0)
        with pytest.raises(ConfigurationError):
            periodic_green2d(z, z, K2, L, m_max=0)

    def test_gradient_validates_m_max(self):
        """Regression: the gradient used to accept m_max < 1 silently,
        returning an asymptote-only (truncated) series where the value
        function raised ConfigurationError."""
        z = np.array([0.5])
        with pytest.raises(ConfigurationError):
            periodic_green2d_gradient(z, z, K2, L, m_max=0)
        with pytest.raises(ConfigurationError):
            periodic_green2d_gradient(z, z, K2, L, m_max=-3)
        with pytest.raises(ConfigurationError):
            periodic_green2d_gradient(z, z, K2, period=0.0)


class TestEvanescentRealPath:
    """Evanescent modes of a real wavenumber accumulate in real
    arithmetic; a vanishing imaginary part forces the complex path."""

    @pytest.mark.parametrize("exclude_primary", [False, True])
    @pytest.mark.parametrize("k", [K1, 3.0 + 0j])  # 3.0: m = 1, 2 propagate
    def test_matches_forced_complex_path(self, separations, k,
                                         exclude_primary):
        dx, dz = separations
        (real,) = periodic_green2d_pair(dx, dz, (k,), L, 96,
                                        exclude_primary)
        (forced,) = periodic_green2d_pair(dx, dz, (k + 1e-30j,), L, 96,
                                          exclude_primary)
        for got, ref in zip(real, forced):
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_gz_exactly_zero_on_dz_zero_plane(self):
        dx = np.linspace(-2.4, 2.4, 8)
        dz = np.zeros_like(dx)
        for exclude_primary in (False, True):
            for _, _, gz in periodic_green2d_pair(dx, dz, (K1, K2), L,
                                                  96, exclude_primary):
                assert np.all(gz == 0.0)
