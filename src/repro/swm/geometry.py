"""Surface meshes for the SWM boundary-element solvers.

A mesh is the discrete geometry of one L-periodic patch: cell-center
positions, surface heights, slopes (computed spectrally, consistent with
the periodic surface model), unnormalized normals and area Jacobians.

All lengths here are in *solver units* (micrometers in practice — the
public solvers convert from SI); the Green's function modules receive the
same units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import MeshError


def spectral_gradient_2d(heights: np.ndarray, period: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Periodic (FFT) partial derivatives ``(f_x, f_y)`` of a height map,
    or of every map of a ``(B, n, n)`` stack from one FFT over it (each
    map's slopes are the bits it gets alone)."""
    h = np.asarray(heights, dtype=np.float64)
    if h.ndim not in (2, 3) or h.shape[-2] != h.shape[-1]:
        raise MeshError("heights must be a square 2D array or a (B, n, n) "
                        "stack of them")
    n = h.shape[-1]
    k1 = 2.0 * math.pi * np.fft.fftfreq(n, d=period / n)
    kx, ky = np.meshgrid(k1, k1, indexing="ij")
    # Zero the (unpaired) Nyquist mode in each axis for a clean derivative.
    if n % 2 == 0:
        kx[n // 2, :] = 0.0
        ky[:, n // 2] = 0.0
    spec = np.fft.fft2(h)
    fx = np.real(np.fft.ifft2(1j * kx * spec))
    fy = np.real(np.fft.ifft2(1j * ky * spec))
    return fx, fy


def spectral_gradient_1d(profile: np.ndarray, period: float) -> np.ndarray:
    """Periodic (FFT) derivative ``f_x`` of a 1D profile."""
    h = np.asarray(profile, dtype=np.float64)
    if h.ndim != 1:
        raise MeshError("profile must be a 1D array")
    n = h.shape[0]
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=period / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    spec = np.fft.fft(h)
    return np.real(np.fft.ifft(1j * k * spec))


@dataclass(frozen=True)
class SurfaceMesh3D:
    """Flattened collocation data of an n x n periodic rough patch.

    Attributes (all 1D arrays of length ``N = n*n`` unless noted):

    - ``x, y, z`` — collocation points (z = surface height);
    - ``fx, fy`` — surface slopes at the points;
    - ``jac`` — area Jacobian ``sqrt(1 + fx^2 + fy^2)``;
    - ``period``, ``n``, ``spacing`` — patch metadata.

    The unit normal (pointing out of the conductor, up) is
    ``(-fx, -fy, 1) / jac``.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    fx: np.ndarray
    fy: np.ndarray
    jac: np.ndarray
    period: float
    n: int

    @property
    def size(self) -> int:
        return int(self.x.size)

    @property
    def spacing(self) -> float:
        return self.period / self.n

    @property
    def cell_area(self) -> float:
        """Parameter-plane cell area ``(L/n)^2``."""
        return self.spacing ** 2

    def true_areas(self) -> np.ndarray:
        """True (tilted) area elements ``jac * (L/n)^2``."""
        return self.jac * self.cell_area

    def total_true_area(self) -> float:
        """Total rough-surface area (>= L^2; the high-frequency loss limit)."""
        return float(np.sum(self.true_areas()))


def grid_coords(n: int, period: float) -> np.ndarray:
    """Cell-center coordinates of an n-point periodic grid along one axis."""
    return (np.arange(n) + 0.0) * (period / n)


def build_meshes_3d(heights: np.ndarray, period: float
                    ) -> list[SurfaceMesh3D]:
    """One :class:`SurfaceMesh3D` per map of a ``(B, n, n)`` height stack,
    every map's slopes from one FFT (:func:`spectral_gradient_2d`)."""
    h = np.asarray(heights, dtype=np.float64)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise MeshError(f"heights must be a (B, n, n) stack of square maps, "
                        f"got shape {h.shape}")
    if period <= 0.0:
        raise MeshError(f"period must be positive, got {period}")
    n = h.shape[-1]
    if n < 4:
        raise MeshError(f"mesh needs at least 4 points per side, got {n}")
    coords = grid_coords(n, period)
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    fx, fy = spectral_gradient_2d(h, period)
    jac = np.sqrt(1.0 + fx * fx + fy * fy)
    return [SurfaceMesh3D(
        x=xx.ravel(), y=yy.ravel(), z=h[i].ravel(),
        fx=fx[i].ravel(), fy=fy[i].ravel(), jac=jac[i].ravel(),
        period=float(period), n=n,
    ) for i in range(h.shape[0])]


def build_mesh_3d(heights: np.ndarray, period: float) -> SurfaceMesh3D:
    """Build a :class:`SurfaceMesh3D` from an n x n height map: the
    one-map case of :func:`build_meshes_3d`."""
    h = np.asarray(heights, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise MeshError(f"heights must be square 2D, got shape {h.shape}")
    return build_meshes_3d(h[None], period)[0]


@dataclass(frozen=True)
class SurfaceMesh2D:
    """Collocation data of an n-point periodic rough profile (2D SWM)."""

    x: np.ndarray
    z: np.ndarray
    fx: np.ndarray
    jac: np.ndarray
    period: float
    n: int

    @property
    def size(self) -> int:
        return int(self.x.size)

    @property
    def spacing(self) -> float:
        return self.period / self.n

    def true_lengths(self) -> np.ndarray:
        """True arc-length elements ``jac * (L/n)``."""
        return self.jac * self.spacing

    def total_true_length(self) -> float:
        return float(np.sum(self.true_lengths()))


def build_mesh_2d(profile: np.ndarray, period: float) -> SurfaceMesh2D:
    """Build a :class:`SurfaceMesh2D` from an n-point height profile."""
    h = np.asarray(profile, dtype=np.float64)
    if h.ndim != 1:
        raise MeshError(f"profile must be 1D, got shape {h.shape}")
    if period <= 0.0:
        raise MeshError(f"period must be positive, got {period}")
    n = h.shape[0]
    if n < 4:
        raise MeshError(f"mesh needs at least 4 points, got {n}")
    x = np.arange(n) * (period / n)
    fx = spectral_gradient_1d(h, period)
    jac = np.sqrt(1.0 + fx * fx)
    return SurfaceMesh2D(x=x, z=h.copy(), fx=fx, jac=jac,
                         period=float(period), n=n)
