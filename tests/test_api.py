"""Tests of the declarative experiment API (`repro.api` + registry).

The acceptance property pinned here: quick-scale series produced by the
declarative plan/reduce path are **bit-identical** to the seed's serial
path (build one ``StochasticLossModel`` per curve, sweep in-process).
"""

import warnings

import numpy as np
import pytest

import repro.api as api
from repro.constants import GHZ, UM
from repro.core import StochasticLossConfig, StochasticLossModel
from repro.engine import clear_memo, default_cache
from repro.errors import ConfigurationError
from repro.experiments import Scale, registry
from repro.experiments.base import Experiment, ExperimentResult
from repro.stochastic.montecarlo import MonteCarloEstimator
from repro.surfaces import GaussianCorrelation

#: Minimal scale: every stochastic grid resolves to 8x8 with 2 KL modes,
#: so one figure is a handful of small dense solves.
MINI = Scale(name="quick", grid_n=8, spacing_divisor=1.0, grid_cap=8,
             f_max_ghz=4.0, spheroid_grid_n=12, fig5_f_max_ghz=3.0,
             n_frequencies=2, max_modes=2, mc_samples=8,
             surrogate_samples=2000)

EXPECTED_NAMES = ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table1"]


class TestRegistry:
    def test_every_figure_registered(self):
        assert api.experiments() == EXPECTED_NAMES
        assert registry.names() == EXPECTED_NAMES

    def test_create_returns_fresh_experiment_instances(self):
        a = registry.create("fig3")
        b = registry.create("fig3")
        assert isinstance(a, Experiment)
        assert a is not b
        assert a.name == "fig3" and a.title == "Fig. 3"

    def test_constructor_params_forward(self):
        exp = api.get("fig3", sigma_um=2.0)
        assert exp.sigma_um == 2.0

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            registry.create("fig99")
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            api.plan("fig99")

    def test_duplicate_registration_rejected(self, monkeypatch):
        monkeypatch.setattr(registry, "_REGISTRY",
                            dict(registry._REGISTRY))

        class Duplicate(Experiment):
            name = "fig3"

            def plan(self, scale):
                return None

            def reduce(self, sweep, scale):
                raise NotImplementedError

        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(Duplicate)

    def test_unnamed_class_rejected(self):
        class NoName(Experiment):
            def plan(self, scale):
                return None

            def reduce(self, sweep, scale):
                raise NotImplementedError

        with pytest.raises(ConfigurationError, match="non-empty 'name'"):
            registry.register(NoName)


class TestPlans:
    def test_fig3_is_one_multi_scenario_spec(self):
        spec = api.plan("fig3", MINI)
        assert [s.name for s in spec.scenarios] == [
            "eta1um", "eta2um", "eta3um"]
        # all etas x all frequencies under one estimator: 3 x 2 jobs
        assert spec.n_jobs == 6
        assert {j.estimator_label for j in spec.jobs()} == {"sscm(order=1)"}
        assert spec.tags["experiment"] == "fig3"

    def test_fig7_is_one_scenario_three_estimators(self):
        spec = api.plan("fig7", MINI)
        assert [s.name for s in spec.scenarios] == ["model"]
        labels = [j.estimator_label for j in spec.jobs()]
        assert labels == ["montecarlo(n=8, seed=2009)", "sscm(order=1)",
                          "sscm(order=2)"]

    def test_fig6_pairs_estimators_per_scenario(self):
        spec = api.plan("fig6", MINI)
        by_scenario = {}
        for job in spec.jobs():
            by_scenario.setdefault(job.scenario.name,
                                   set()).add(job.estimator_label)
        assert by_scenario["bem3-eta1um"] == {"sscm(order=1)"}
        assert by_scenario["bem2-eta1um"] == {
            "montecarlo(n=16, seed=2009)"}

    def test_solver_free_experiments_plan_none(self):
        assert api.plan("fig2", MINI) is None
        assert api.plan("table1", MINI) is None

    def test_scale_accepts_names_and_rejects_unknown(self):
        assert api.plan("fig3", "quick").n_jobs == 12  # 3 etas x 4 freqs
        with pytest.raises(ConfigurationError, match="unknown scale"):
            api.plan("fig3", "huge")

    def test_sweeps_for_omits_solver_free_plans(self):
        specs = api.sweeps_for(["fig2", "fig7", "table1"], MINI)
        assert list(specs) == ["fig7"]


class TestRoundTrip:
    """Declarative path vs the seed's serial per-model path."""

    @pytest.fixture(autouse=True)
    def _cold_engine(self):
        # Bit-identity must hold from a cold start, not via cache replay.
        default_cache().clear()
        clear_memo()
        yield
        default_cache().clear()
        clear_memo()

    def test_fig3_series_bit_identical_to_serial_seed_path(self):
        # MINI's coarsest grid is under-resolved at its top frequency:
        # the sweep and the direct path each warn about the skin depth.
        with pytest.warns(RuntimeWarning, match="skin depth") as caught:
            result = api.run("fig3", MINI)
            freqs = (np.linspace(1.0, MINI.f_max_ghz, MINI.n_frequencies)
                     * GHZ)
            for eta in (1.0, 2.0, 3.0):
                cf = GaussianCorrelation(sigma=1.0 * UM, eta=eta * UM)
                n = MINI.points_for(5.0 * eta, eta, MINI.f_max_hz)
                model = StochasticLossModel(
                    cf, StochasticLossConfig(points_per_side=n,
                                             max_modes=MINI.max_modes))
                seed_series = np.array([
                    model.sscm_direct(float(f), order=1).mean
                    for f in freqs])
                np.testing.assert_array_equal(
                    result.series[f"SWM(eta={eta:g}um)"], seed_series)
        assert all(issubclass(w.category, RuntimeWarning)
                   and "skin depth" in str(w.message) for w in caught)

    def test_fig7_values_bit_identical_to_direct_estimators(self):
        from repro.engine import run_sweep

        spec = api.plan("fig7", MINI)
        sweep = run_sweep(spec)
        model = StochasticLossModel(
            GaussianCorrelation(sigma=1.0 * UM, eta=1.0 * UM),
            StochasticLossConfig(points_per_side=MINI.grid_n,
                                 max_modes=MINI.max_modes))
        direct_mc = MonteCarloEstimator(
            model.enhancement_model(5.0 * GHZ),
            model.dimension).run(MINI.mc_samples, seed=2009)
        mc_point = sweep.point("model",
                               estimator="montecarlo(n=8, seed=2009)")
        np.testing.assert_array_equal(mc_point.values, direct_mc.samples)
        for order in (1, 2):
            direct = model.sscm_direct(5.0 * GHZ, order=order)
            point = sweep.point("model",
                                estimator=f"sscm(order={order})")
            np.testing.assert_array_equal(point.values,
                                          direct.node_values)


class TestRunMany:
    def test_merged_batch_matches_individual_runs(self):
        names = ["fig2", "fig7", "table1"]
        merged = api.run_many(names, MINI)
        assert list(merged) == names
        for name in names:
            single = api.run(name, MINI)
            assert merged[name].checks == single.checks
            for label, series in single.series.items():
                np.testing.assert_array_equal(merged[name].series[label],
                                              series)

    def test_batch_progress_attributes_points_per_experiment(self):
        default_cache().clear()
        seen = []
        api.run_many(["fig7"], MINI,
                     batch_progress=lambda name, done, total:
                     seen.append((name, done, total)))
        assert seen[-1] == ("fig7", 3, 3)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            api.run_many(["fig2", "fig2"], MINI)


class TestResultSerialization:
    def _result(self):
        res = ExperimentResult(
            experiment="Fig. X", description="serialization test",
            x_label="f", x=np.array([1.0, 2.0]))
        res.add_series("a", np.array([0.5, 1.5]))
        res.check("good", True)
        res.check("bad", False)
        res.notes.append("a note")
        return res

    def test_to_dict_is_json_ready(self):
        doc = self._result().to_dict()
        assert doc["x"] == [1.0, 2.0]
        assert doc["series"]["a"] == [0.5, 1.5]
        assert doc["checks"] == {"good": True, "bad": False}
        assert doc["all_checks_pass"] is False
        assert doc["notes"] == ["a note"]

    def test_to_json_round_trips(self):
        import json

        doc = json.loads(self._result().to_json())
        assert doc["experiment"] == "Fig. X"
        assert doc["series"]["a"] == [0.5, 1.5]

    def test_failing_checks_listed_in_order(self):
        assert self._result().failing_checks() == ["bad"]


class TestLazyFacadeImport:
    def test_import_repro_does_not_load_experiments(self):
        """`import repro` must stay cheap (every CLI call and fleet
        worker process imports it); the facade and the figure modules
        load on first attribute use."""
        import subprocess
        import sys

        code = (
            "import sys, repro\n"
            "assert 'repro.experiments' not in sys.modules\n"
            "assert 'repro.api' not in sys.modules\n"
            "assert repro.api.experiments()[0] == 'fig2'\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)
