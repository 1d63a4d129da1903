"""Smoke + shape tests for every paper-figure reproduction.

Each experiment encodes the qualitative claims of its figure as named
checks; here we run the quick presets and require every check to pass.
The standard/paper scales are exercised by the benchmark harness.
"""

import numpy as np
import pytest

import repro.api as api
from repro.experiments import QUICK, Scale, registry, scale_from_env
from repro.errors import ConfigurationError

#: A minimal scale for CI smoke: same resolution logic as QUICK (the
#: experiments are only meaningful with a resolved mesh) but fewer
#: frequencies, modes and samples.
TINY = Scale(name="quick", grid_n=8, spacing_divisor=4.0, grid_cap=22,
             f_max_ghz=4.0, spheroid_grid_n=20, fig5_f_max_ghz=4.0,
             n_frequencies=3, max_modes=6, mc_samples=16,
             surrogate_samples=5000)


class TestPresets:
    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "standard")
        assert scale_from_env().name == "standard"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ConfigurationError):
            scale_from_env()

    def test_scale_validation(self):
        with pytest.raises(ConfigurationError):
            Scale(name="x", grid_n=2, spacing_divisor=4.0, grid_cap=22,
                  f_max_ghz=5.0, spheroid_grid_n=8, fig5_f_max_ghz=5.0,
                  n_frequencies=3, max_modes=4, mc_samples=16,
                  surrogate_samples=100)

    def test_points_for_resolves_skin_depth(self):
        from repro.constants import GHZ
        # Surface-limited: step = eta/4 regardless of patch size.
        assert QUICK.points_for(5.0, 1.0, 1 * GHZ) == 20
        # Skin-depth-limited: raising the top frequency shrinks the step
        # until the cost cap binds.
        n_low_f = QUICK.points_for(15.0, 3.0, 1 * GHZ)
        n_high_f = QUICK.points_for(15.0, 3.0, 9 * GHZ)
        assert n_high_f > n_low_f
        assert n_high_f == QUICK.grid_cap  # cap binds at 9 GHz

    def test_registry_complete(self):
        assert set(registry.names()) == {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table1"}


class TestFig2:
    def test_statistics_round_trip(self):
        res = api.run("fig2", TINY)
        assert res.all_checks_pass(), res.checks
        assert "C_target" in res.series and "C_recovered" in res.series


class TestFig3:
    @pytest.mark.slow
    def test_shape_checks(self):
        res = api.run("fig3", TINY)
        assert res.all_checks_pass(), res.checks

    def test_table_renders(self):
        res = api.run("fig2", TINY)
        text = res.format_table()
        assert "Fig. 2" in text
        assert "PASS" in text


class TestFig4:
    @pytest.mark.slow
    def test_swm_tracks_spm2_for_extracted_cf(self):
        res = api.run("fig4", TINY)
        assert res.all_checks_pass(), res.checks


class TestFig5:
    @pytest.mark.slow
    def test_hbm_comparison(self):
        res = api.run("fig5", TINY)
        assert res.checks["hbm_rises"], res.notes
        assert res.checks["swm_rises"], res.notes
        assert res.checks["swm_tracks_hbm"], res.notes
        assert res.checks["spm2_out_of_regime"], res.notes


class TestFig6:
    @pytest.mark.slow
    def test_dimensionality_claim(self):
        res = api.run("fig6", TINY)
        assert res.all_checks_pass(), res.checks


class TestFig7:
    @pytest.mark.slow
    def test_sscm_vs_mc(self):
        res = api.get("fig7", seed=3).run(TINY)
        assert res.checks["sscm2_matches_mc"], res.notes
        assert res.checks["means_agree"], res.notes


class TestTable1:
    def test_sampling_counts(self):
        res = api.run("table1", TINY)
        assert res.all_checks_pass(), res.checks
        assert np.all(res.series["SSCM_1st"] == 2 * res.series["M_kl"] + 1)
