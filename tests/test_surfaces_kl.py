"""Tests of the Karhunen-Loeve expansion."""

import numpy as np
import pytest

from repro.errors import StochasticError
from repro.surfaces import GaussianCorrelation, build_kl, kl_from_correlation


def _grid_points(n: int, period: float) -> np.ndarray:
    c = np.arange(n) * period / n
    xx, yy = np.meshgrid(c, c, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


class TestBuildKL:
    def test_diagonal_covariance(self):
        cov = np.diag([4.0, 1.0, 0.25])
        kl = build_kl(cov, energy_fraction=0.9)
        assert kl.eigenvalues[0] == pytest.approx(4.0)
        assert kl.dimension == 2  # 5/5.25 = 95% captured by two modes
        assert kl.total_variance == pytest.approx(5.25)

    def test_modes_orthonormal(self):
        cf = GaussianCorrelation(1.0, 1.0)
        cov = cf.periodic_covariance_matrix(_grid_points(10, 5.0), 5.0)
        kl = build_kl(cov, energy_fraction=0.9)
        gram = kl.modes.T @ kl.modes
        np.testing.assert_allclose(gram, np.eye(kl.dimension), atol=1e-10)

    def test_energy_fraction_monotone_in_modes(self):
        cf = GaussianCorrelation(1.0, 1.0)
        cov = cf.periodic_covariance_matrix(_grid_points(10, 5.0), 5.0)
        k1 = build_kl(cov, energy_fraction=0.5)
        k2 = build_kl(cov, energy_fraction=0.95)
        assert k2.dimension >= k1.dimension
        assert k2.captured_fraction >= 0.95

    def test_max_modes_cap(self):
        cf = GaussianCorrelation(1.0, 1.0)
        cov = cf.periodic_covariance_matrix(_grid_points(10, 5.0), 5.0)
        kl = build_kl(cov, energy_fraction=0.999, max_modes=5)
        assert kl.dimension == 5

    def test_realize_variance(self):
        """Ensemble variance of realizations matches the truncated
        covariance trace."""
        cf = GaussianCorrelation(1.0, 1.0)
        cov = cf.periodic_covariance_matrix(_grid_points(8, 5.0), 5.0)
        kl = build_kl(cov, energy_fraction=0.95)
        rng = np.random.default_rng(0)
        total = 0.0
        n_s = 400
        for _ in range(n_s):
            f = kl.realize(rng.standard_normal(kl.dimension))
            total += np.sum(f ** 2)
        got = total / n_s
        assert got == pytest.approx(np.sum(kl.eigenvalues), rel=0.1)

    def test_realize_bits_ignore_xi_layout(self):
        """Realizing one sample from a row, a strided column or a copy
        gives the same bits, so a sampler may walk its normals in any
        layout without breaking serial-vs-batched identity."""
        cf = GaussianCorrelation(1.0, 1.0)
        cov = cf.periodic_covariance_matrix(_grid_points(6, 5.0), 5.0)
        kl = build_kl(cov)
        xi = np.random.default_rng(1).standard_normal((5, kl.dimension))
        columns = np.asfortranarray(xi).T  # (M, 5), columns strided
        for s in range(5):
            f = kl.realize(xi[s])
            np.testing.assert_array_equal(f, kl.realize(xi[s].copy()))
            np.testing.assert_array_equal(f, kl.realize(columns[:, s]))
            np.testing.assert_allclose(
                f, sum(np.sqrt(lam) * x * kl.modes[:, m] for m, (lam, x)
                       in enumerate(zip(kl.eigenvalues, xi[s]))),
                rtol=1e-12, atol=1e-14)

    def test_validation(self):
        with pytest.raises(StochasticError):
            build_kl(np.zeros((3, 4)))
        with pytest.raises(StochasticError):
            build_kl(np.eye(3), energy_fraction=0.0)
        asym = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(StochasticError):
            build_kl(asym)
        with pytest.raises(StochasticError):
            build_kl(np.zeros((3, 3)))  # no variance

    def test_realize_rejects_wrong_length(self):
        kl = build_kl(np.eye(4))
        with pytest.raises(StochasticError):
            kl.realize(np.zeros(kl.dimension + 1))


class TestKLFromCorrelation:
    def test_periodic_path(self):
        cf = GaussianCorrelation(1.0, 1.0)
        pts = _grid_points(8, 5.0)
        kl = kl_from_correlation(cf, pts, period=5.0)
        # total variance = N * sigma^2
        assert kl.total_variance == pytest.approx(64 * 1.0, rel=1e-9)

    def test_eigenvalue_decay(self):
        """Smooth (Gaussian) CF => fast eigenvalue decay: the premise of
        the SSCM dimensionality reduction."""
        cf = GaussianCorrelation(1.0, 1.0)
        kl = kl_from_correlation(cf, _grid_points(12, 5.0), period=5.0,
                                 energy_fraction=0.999, max_modes=60)
        ev = kl.eigenvalues
        assert np.all(np.diff(ev) <= 1e-12)  # sorted descending
        assert ev[30] < ev[0] * 3e-2
        assert ev[-1] < ev[0] * 2e-2
