"""Tests of the correlation functions and their spectra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.surfaces import (
    ExponentialCorrelation,
    ExtractedCorrelation,
    GaussianCorrelation,
    MaternCorrelation,
)

ALL_CFS = [
    GaussianCorrelation(1.0, 1.0),
    GaussianCorrelation(0.5, 2.0),
    ExponentialCorrelation(1.0, 1.5),
    ExtractedCorrelation(1.0, 1.4, 0.53),
    MaternCorrelation(1.0, 1.0, nu=1.5),
    MaternCorrelation(0.7, 2.0, nu=2.5),
]


@pytest.mark.parametrize("cf", ALL_CFS, ids=lambda c: repr(c))
class TestCommonProperties:
    def test_zero_lag_is_variance(self, cf):
        assert float(cf(np.array(0.0))) == pytest.approx(cf.sigma ** 2,
                                                         rel=1e-9)

    def test_bounded_by_variance(self, cf):
        d = np.linspace(0.0, 20.0 * cf.reference_length, 200)
        assert np.all(cf(d) <= cf.sigma ** 2 + 1e-12)

    def test_decays_to_zero(self, cf):
        far = float(cf(np.array(30.0 * cf.reference_length)))
        assert abs(far) < 1e-3 * cf.sigma ** 2

    def test_spectrum_2d_nonnegative(self, cf):
        k = np.linspace(0.0, 30.0 / cf.reference_length, 300)
        assert np.all(cf.spectrum_2d(k) >= -1e-12 * cf.sigma ** 2)

    def test_spectrum_2d_normalization(self, cf):
        """integral W2 d^2k = sigma^2 (heavy-tailed CFs converge slowly,
        hence the 2.5% window-truncation allowance)."""
        k = np.linspace(0.0, 80.0 / cf.reference_length, 30000)
        total = np.trapezoid(2.0 * np.pi * k * cf.spectrum_2d(k), k)
        assert total == pytest.approx(cf.sigma ** 2, rel=2.5e-2)

    def test_spectrum_1d_normalization(self, cf):
        k = np.linspace(0.0, 80.0 / cf.reference_length, 30000)
        total = 2.0 * np.trapezoid(cf.spectrum_1d(k), k)
        assert total == pytest.approx(cf.sigma ** 2, rel=2.5e-2)

    def test_covariance_matrix_symmetric_psd(self, cf):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 4 * cf.reference_length, size=(25, 2))
        c = cf.covariance_matrix(pts)
        np.testing.assert_allclose(c, c.T, rtol=1e-12)
        evals = np.linalg.eigvalsh(c)
        assert evals.min() > -1e-8 * cf.sigma ** 2


class TestGaussian:
    def test_analytic_spectrum_matches_numeric(self):
        cf = GaussianCorrelation(1.3, 0.8)
        k = np.linspace(0.0, 10.0, 50)
        scale2 = float(np.max(cf.spectrum_2d(k)))
        np.testing.assert_allclose(cf.spectrum_2d(k),
                                   cf._numeric_spectrum_2d(k),
                                   atol=5e-5 * scale2)
        scale1 = float(np.max(cf.spectrum_1d(k)))
        np.testing.assert_allclose(cf.spectrum_1d(k),
                                   cf._numeric_spectrum_1d(k),
                                   atol=5e-5 * scale1)

    def test_slope_variance_closed_forms(self):
        cf = GaussianCorrelation(1.0, 2.0)
        assert cf.slope_variance_2d() == pytest.approx(4.0 / 4.0)
        assert cf.slope_variance_1d() == pytest.approx(2.0 / 4.0)

    @given(st.floats(0.1, 3.0), st.floats(0.2, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_slope_variance_matches_spectral_integral(self, sigma, eta):
        cf = GaussianCorrelation(sigma, eta)
        k = np.linspace(0.0, 40.0 / eta, 20000)
        spectral = np.trapezoid(k ** 3 * cf.spectrum_2d(k), k) * 2 * np.pi
        assert spectral == pytest.approx(cf.slope_variance_2d(), rel=1e-3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GaussianCorrelation(-1.0, 1.0)
        with pytest.raises(ConfigurationError):
            GaussianCorrelation(1.0, 0.0)


class TestExtracted:
    def test_paper_parameters_short_range_gaussian_like(self):
        """Near d = 0 the CF behaves like exp(-d^2/(eta1 eta2))."""
        cf = ExtractedCorrelation(1.0, 1.4, 0.53)
        d = np.array([0.01, 0.05, 0.1])
        approx = np.exp(-d ** 2 / (1.4 * 0.53))
        np.testing.assert_allclose(cf(d), approx, rtol=5e-2)

    def test_spectrum_cache_consistent(self):
        cf = ExtractedCorrelation(1.0, 1.4, 0.53)
        k = np.linspace(0.0, 5.0, 20)
        a = cf.spectrum_2d(k)
        b = cf.spectrum_2d(k)  # cached path
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [4096, 1000])
    def test_blocked_transforms_match_one_shot_formula(self, n):
        """The numeric transforms run in row blocks of k; each row's
        trapezoid sum must equal the one-array formula bit for bit,
        also when ``n`` is not a multiple of the block."""
        from scipy.special import j0

        cf = ExtractedCorrelation(1.0, 1.4, 0.53)
        k = np.linspace(0.0, 80.0 / cf.reference_length, n)
        d = np.linspace(0.0, 40.0 * cf.reference_length, 4096)
        c = cf(d)
        w2 = np.trapezoid(j0(np.outer(k, d)) * (c * d)[None, :],
                          dx=d[1] - d[0], axis=1) / (2.0 * np.pi)
        w1 = np.trapezoid(np.cos(np.outer(k, d)) * c[None, :],
                          dx=d[1] - d[0], axis=1) / np.pi
        np.testing.assert_array_equal(cf._numeric_spectrum_2d(k), w2)
        np.testing.assert_array_equal(cf._numeric_spectrum_1d(k), w1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExtractedCorrelation(1.0, -1.4, 0.53)


class TestPeriodicCovariance:
    def test_minimum_image_wrapping(self):
        cf = GaussianCorrelation(1.0, 1.0)
        period = 5.0
        pts = np.array([[0.1, 0.0], [4.9, 0.0]])  # 0.2 apart through wrap
        c = cf.periodic_covariance_matrix(pts, period)
        direct = float(cf(np.array(0.2)))
        assert c[0, 1] == pytest.approx(direct, rel=1e-12)

    def test_reduces_to_plain_for_central_points(self):
        cf = GaussianCorrelation(1.0, 0.5)
        pts = np.array([[2.0, 2.0], [2.3, 2.1]])
        plain = cf.covariance_matrix(pts)
        wrapped = cf.periodic_covariance_matrix(pts, 10.0)
        np.testing.assert_allclose(plain, wrapped, rtol=1e-12)


class TestMatern:
    def test_nu_half_matches_exponential(self):
        """Matern(nu=1/2) has the exponential CF's shape (with the
        sqrt(2 nu)/eta = 1/eta' scaling)."""
        eta = 1.0
        m = MaternCorrelation(1.0, eta, nu=0.5)
        d = np.linspace(0.01, 4.0, 50)
        expected = np.exp(-np.sqrt(2 * 0.5) * d / eta)
        np.testing.assert_allclose(m(d), expected, rtol=1e-6)

    def test_spectrum_normalization_tight(self):
        m = MaternCorrelation(1.0, 1.0, nu=1.5)
        k = np.linspace(0.0, 400.0, 400000)
        total = np.trapezoid(2 * np.pi * k * m.spectrum_2d(k), k)
        assert total == pytest.approx(1.0, rel=2e-2)
