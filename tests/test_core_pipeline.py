"""Tests of the end-to-end stochastic pipeline."""

import warnings

import numpy as np
import pytest

from repro.constants import GHZ, UM
from repro.core import (
    DeterministicLossModel,
    StochasticLossConfig,
    StochasticLossModel,
)
from repro.engine import ResultCache
from repro.errors import ConfigurationError
from repro.surfaces import GaussianCorrelation
from repro.surfaces.deterministic import egg_carton


SMALL_CONFIG = StochasticLossConfig(points_per_side=8, max_modes=5)


@pytest.fixture(scope="module")
def model():
    return StochasticLossModel(GaussianCorrelation(1 * UM, 1 * UM),
                               SMALL_CONFIG)


class TestConfig:
    def test_defaults_follow_paper_geometry(self):
        cfg = StochasticLossConfig(max_points_per_side=100)
        period, n = cfg.resolve(GaussianCorrelation(1 * UM, 1 * UM))
        assert period == pytest.approx(5 * UM)
        assert n == 40  # L / (eta / 8)

    def test_cap_applies(self):
        cfg = StochasticLossConfig(max_points_per_side=16)
        _, n = cfg.resolve(GaussianCorrelation(1 * UM, 1 * UM))
        assert n == 16

    def test_explicit_overrides(self):
        cfg = StochasticLossConfig(period_m=8 * UM, points_per_side=12)
        period, n = cfg.resolve(GaussianCorrelation(1 * UM, 1 * UM))
        assert period == pytest.approx(8 * UM)
        assert n == 12

    def test_validation(self):
        cfg = StochasticLossConfig(period_m=-1.0)
        with pytest.raises(ConfigurationError):
            cfg.resolve(GaussianCorrelation(1 * UM, 1 * UM))


class TestKLSetup:
    def test_dimension_capped(self, model):
        assert model.dimension == 5

    def test_surface_shape_and_units(self, model):
        xi = np.zeros(model.dimension)
        h = model.surface_from_xi(xi)
        assert h.shape == (8, 8)
        np.testing.assert_allclose(h, 0.0)

    def test_surface_scales_linearly_with_xi(self, model):
        xi = np.zeros(model.dimension)
        xi[0] = 1.0
        h1 = model.surface_from_xi(xi)
        h2 = model.surface_from_xi(2 * xi)
        np.testing.assert_allclose(h2, 2 * h1, rtol=1e-12)

    def test_mean_mode_removed(self):
        """With remove_mean_mode the retained KL modes are orthogonal to
        the constant vector (no stochastic dimension wasted on offsets)."""
        m = StochasticLossModel(GaussianCorrelation(1 * UM, 1 * UM),
                                StochasticLossConfig(points_per_side=8,
                                                     max_modes=5,
                                                     remove_mean_mode=True))
        means = np.abs(m.kl.modes.sum(axis=0))
        assert np.max(means) < 1e-8

    def test_mean_mode_kept_when_disabled(self):
        m = StochasticLossModel(GaussianCorrelation(1 * UM, 1 * UM),
                                StochasticLossConfig(points_per_side=8,
                                                     max_modes=5,
                                                     remove_mean_mode=False))
        means = np.abs(m.kl.modes.sum(axis=0))
        assert np.max(means) > 1e-3


class TestStatistics:
    def test_sscm_mean_physical(self, model):
        res = model.sscm(5 * GHZ, order=1)
        assert 1.0 < res.mean < 2.0
        assert res.n_samples == 2 * model.dimension + 1

    def test_mc_agrees_with_sscm(self, model):
        mc = model.montecarlo(5 * GHZ, 24, seed=0)
        ss = model.sscm(5 * GHZ, order=1)
        assert ss.mean == pytest.approx(mc.mean, abs=4 * mc.stderr + 0.02)

    def test_mean_enhancement_sweep(self, model):
        freqs = np.array([2.0, 6.0]) * GHZ
        means = model.mean_enhancement(freqs, order=1)
        assert means.shape == (2,)
        assert means[1] > means[0]


class TestDeterministicModel:
    def test_flat_sweep_is_unity(self):
        dm = DeterministicLossModel()
        freqs = np.array([2.0, 5.0]) * GHZ
        vals = dm.enhancement(np.zeros((8, 8)), 5 * UM, freqs)
        np.testing.assert_allclose(vals, 1.0, atol=0.03)

    def test_rough_sweep_matches_single_solves(self):
        """The public frequency sweep of one surface gives, bit for bit,
        what a standalone solve gives at each frequency."""
        dm = DeterministicLossModel()
        heights = egg_carton(8, 5.0, amplitude=0.4) * UM
        freqs = np.array([2.0, 6.0]) * GHZ
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            vals = dm.enhancement(heights, 5 * UM, freqs,
                                  cache=ResultCache())
            alone = [dm.solve(heights, 5 * UM, f).enhancement
                     for f in freqs]
        assert vals.shape == (2,)
        np.testing.assert_array_equal(vals, alone)
