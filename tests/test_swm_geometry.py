"""Tests of the SWM surface meshes and spectral differentiation."""

import numpy as np
import pytest

from repro.errors import MeshError
from repro.swm.geometry import (
    build_mesh_2d,
    build_mesh_3d,
    build_meshes_3d,
    spectral_gradient_1d,
    spectral_gradient_2d,
)


class TestSpectralGradient:
    def test_exact_on_fourier_mode_2d(self):
        n, period = 32, 5.0
        x = np.arange(n) * period / n
        xx, yy = np.meshgrid(x, x, indexing="ij")
        w = 2 * np.pi * 3 / period
        h = np.sin(w * xx) * np.cos(2 * w * yy)
        fx, fy = spectral_gradient_2d(h, period)
        np.testing.assert_allclose(fx, w * np.cos(w * xx) * np.cos(2 * w * yy),
                                   atol=1e-10)
        np.testing.assert_allclose(fy, -2 * w * np.sin(w * xx)
                                   * np.sin(2 * w * yy), atol=1e-10)

    def test_exact_on_fourier_mode_1d(self):
        n, period = 64, 4.0
        x = np.arange(n) * period / n
        w = 2 * np.pi * 5 / period
        fx = spectral_gradient_1d(np.sin(w * x), period)
        np.testing.assert_allclose(fx, w * np.cos(w * x), atol=1e-9)

    def test_constant_has_zero_gradient(self):
        fx, fy = spectral_gradient_2d(np.full((16, 16), 3.3), 5.0)
        np.testing.assert_allclose(fx, 0.0, atol=1e-12)
        np.testing.assert_allclose(fy, 0.0, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(MeshError):
            spectral_gradient_2d(np.zeros((8, 9)), 5.0)


class TestMesh3D:
    def test_flat_mesh_properties(self):
        mesh = build_mesh_3d(np.zeros((8, 8)), 4.0)
        assert mesh.size == 64
        assert mesh.spacing == pytest.approx(0.5)
        np.testing.assert_allclose(mesh.jac, 1.0)
        assert mesh.total_true_area() == pytest.approx(16.0)

    def test_true_area_exceeds_flat_area(self):
        n, period = 32, 5.0
        x = np.arange(n) * period / n
        xx, yy = np.meshgrid(x, x, indexing="ij")
        w = 2 * np.pi / period
        h = 0.8 * np.cos(w * xx) * np.cos(w * yy)
        mesh = build_mesh_3d(h, period)
        assert mesh.total_true_area() > period ** 2

    def test_jacobian_formula(self):
        n, period = 16, 5.0
        rng = np.random.default_rng(0)
        h = rng.standard_normal((n, n)) * 0.1
        mesh = build_mesh_3d(h, period)
        np.testing.assert_allclose(
            mesh.jac, np.sqrt(1 + mesh.fx ** 2 + mesh.fy ** 2), rtol=1e-12)

    def test_collocation_points_on_surface(self):
        h = np.arange(16, dtype=float).reshape(4, 4)
        mesh = build_mesh_3d(h, 4.0)
        np.testing.assert_array_equal(mesh.z, h.ravel())

    def test_validation(self):
        with pytest.raises(MeshError):
            build_mesh_3d(np.zeros((3, 3)), 5.0)
        with pytest.raises(MeshError):
            build_mesh_3d(np.zeros((8, 8)), -1.0)
        with pytest.raises(MeshError):
            build_mesh_3d(np.zeros(8), 5.0)
        with pytest.raises(MeshError):
            build_meshes_3d(np.zeros((8, 8)), 5.0)
        with pytest.raises(MeshError):
            build_meshes_3d(np.zeros((2, 8, 9)), 5.0)
        with pytest.raises(MeshError):
            spectral_gradient_2d(np.zeros((2, 8, 9)), 5.0)


class TestStackedMeshes:
    """A block's meshes take their slopes from one FFT over the stack;
    each must keep the bits of its map built alone."""

    @pytest.mark.parametrize("n", [4, 5, 7, 8, 12, 20, 32])
    @pytest.mark.parametrize("batch", [1, 2, 3, 17])
    def test_stacked_meshes_match_per_map(self, n, batch):
        rng = np.random.default_rng(n * 100 + batch)
        heights = rng.normal(0.0, 0.4, (batch, n, n))
        stacked = build_meshes_3d(heights, 5.0)
        assert len(stacked) == batch
        for h, got in zip(heights, stacked):
            alone = build_mesh_3d(h, 5.0)
            fx, fy = spectral_gradient_2d(h, 5.0)
            for name in ("x", "y", "z", "fx", "fy", "jac"):
                np.testing.assert_array_equal(
                    getattr(got, name).view(np.uint64),
                    getattr(alone, name).view(np.uint64))
            np.testing.assert_array_equal(got.fx.view(np.uint64),
                                          fx.ravel().view(np.uint64))
            np.testing.assert_array_equal(got.fy.view(np.uint64),
                                          fy.ravel().view(np.uint64))
            assert (got.n, got.period) == (alone.n, alone.period)


class TestMesh2D:
    def test_flat_profile(self):
        mesh = build_mesh_2d(np.zeros(16), 4.0)
        assert mesh.size == 16
        assert mesh.total_true_length() == pytest.approx(4.0)

    def test_arc_length_of_cosine(self):
        """Total true length of A cos(2 pi x/L) matches quadrature."""
        n, period, amp = 512, 5.0, 1.0
        x = np.arange(n) * period / n
        w = 2 * np.pi / period
        mesh = build_mesh_2d(amp * np.cos(w * x), period)
        xs = np.linspace(0, period, 20001)
        exact = np.trapezoid(np.sqrt(1 + (amp * w * np.sin(w * xs)) ** 2), xs)
        assert mesh.total_true_length() == pytest.approx(exact, rel=1e-4)

    def test_validation(self):
        with pytest.raises(MeshError):
            build_mesh_2d(np.zeros(2), 5.0)
        with pytest.raises(MeshError):
            build_mesh_2d(np.zeros((4, 4)), 5.0)
