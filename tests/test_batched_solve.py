"""Tests of the batched sample-solve path (solver, engine, hashes).

The contract under test everywhere: stacking is a *pure performance*
move — batched solves are bit-identical to the sequential per-sample
path (same kernel values, same LAPACK factorizations, same seed
stream), whatever chunks the solver stacks.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from repro.constants import GHZ, UM
from repro.core import StochasticLossConfig, StochasticLossModel
from repro.engine.runtime import clear_memo, execute_job
from repro.engine.spec import (
    DeterministicScenario,
    EstimatorSpec,
    Job,
    ProfileScenario,
    StochasticScenario,
)
from repro.errors import ConfigurationError, MeshError, SolverError
from repro.service.wire import WireError, dumps, loads, to_wire
from repro.surfaces import GaussianCorrelation
from repro.swm.assembly import AssemblyOptions, assemble_medium
from repro.swm.assembly2d import Assembly2DOptions
from repro.swm.fastkernel import KernelTables
from repro.swm.geometry import build_mesh_3d
from repro.swm.plan import AssemblyPlan3D, _PairPlan
from repro.swm.solver import SWMOptions, SWMSolver3D
from repro.swm.solver2d import SWM2DOptions, SWMSolver2D

FREQ = 20 * GHZ


def _random_heights(b: int, n: int, seed: int = 42,
                    scale: float = 0.3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, (b, n, n))


class TestSolver3DBatchedParity:
    def test_bit_identical_to_per_sample(self):
        heights = _random_heights(6, 8)
        heights[3] *= 4.0  # force a kernel-table rebuild mid-batch
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = SWMSolver3D()
            serial = [ref.solve_um(h, 5.0, FREQ) for h in heights]
            bat = SWMSolver3D().solve_many_um(heights, 5.0, FREQ)
        assert len(bat) == len(serial)
        for a, b in zip(serial, bat):
            assert a.enhancement == b.enhancement
            np.testing.assert_array_equal(a.psi, b.psi)
            np.testing.assert_array_equal(a.v, b.v)
            assert a.absorbed_power == b.absorbed_power
            assert a.smooth_power == b.smooth_power

    def test_chunked_stacking_matches_full_batch(self, stacking):
        heights = _random_heights(5, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            full = SWMSolver3D().solve_many_um(heights, 5.0, FREQ)
            with stacking(2):
                chunked = SWMSolver3D().solve_many_um(heights, 5.0, FREQ)
        for a, b in zip(full, chunked):
            assert a.enhancement == b.enhancement

    def test_solve_many_si_units(self):
        heights = _random_heights(3, 8) * UM
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            solver = SWMSolver3D()
            many = solver.solve_many(heights, 5 * UM, FREQ)
            one = SWMSolver3D().solve(heights[0], 5 * UM, FREQ)
        assert many[0].enhancement == one.enhancement

    def test_single_sample_batch_matches_solve_um(self):
        heights = _random_heights(1, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            one = SWMSolver3D().solve_um(heights[0], 5.0, FREQ)
            bat = SWMSolver3D().solve_many_um(heights, 5.0, FREQ)
        assert bat[0].enhancement == one.enhancement

    def test_validates_input_shape(self):
        with pytest.raises(ConfigurationError):
            SWMSolver3D().solve_many_um(np.zeros((8, 8)), 5.0, FREQ)

    def test_rejects_empty_batch(self):
        with pytest.raises(ConfigurationError):
            SWMSolver3D().solve_mesh_many([], FREQ)

    def test_rejects_mismatched_grids(self):
        m1 = build_mesh_3d(np.zeros((8, 8)), 5.0)
        m2 = build_mesh_3d(np.zeros((12, 12)), 5.0)
        with pytest.raises(ConfigurationError):
            SWMSolver3D().solve_mesh_many([m1, m2], FREQ)


class TestSolver2DBatchedParity:
    def test_bit_identical_to_per_sample(self):
        rng = np.random.default_rng(7)
        profiles = rng.normal(0.0, 0.3, (6, 16))
        solver = SWMSolver2D()
        serial = [solver.solve_um(p, 5.0, FREQ) for p in profiles]
        bat = solver.solve_many_um(profiles, 5.0, FREQ)
        for a, b in zip(serial, bat):
            assert a.enhancement == b.enhancement
            np.testing.assert_array_equal(a.psi, b.psi)
            np.testing.assert_array_equal(a.v, b.v)

    def test_chunked_stacking_matches_full_batch(self, stacking):
        rng = np.random.default_rng(8)
        profiles = rng.normal(0.0, 0.3, (5, 16))
        full = SWMSolver2D().solve_many_um(profiles, 5.0, FREQ)
        with stacking(2):
            chunked = SWMSolver2D().solve_many_um(profiles, 5.0, FREQ)
        for a, b in zip(full, chunked):
            assert a.enhancement == b.enhancement

    def test_validates_input_shape(self):
        with pytest.raises(ConfigurationError):
            SWMSolver2D().solve_many_um(np.zeros(16), 5.0, FREQ)


class TestOneFactorization:
    """Single and stacked solves share one factorization call, so they
    agree bit for bit under any BLAS threading. numpy and scipy bundle
    separate LAPACK builds that can disagree in the last ulp on systems
    this small, so a per-sample path on the other library would not."""

    @pytest.mark.parametrize("n", [16, 32])  # 2n = 32 and 64 unknowns
    def test_2d_single_matches_stacked(self, n):
        profiles = np.random.default_rng(n).normal(0.0, 0.3, (3, n))
        solver = SWMSolver2D()
        stacked = solver.solve_many_um(profiles, 5.0, FREQ)
        for profile, got in zip(profiles, stacked):
            one = solver.solve_um(profile, 5.0, FREQ)
            np.testing.assert_array_equal(one.psi, got.psi)
            np.testing.assert_array_equal(one.v, got.v)
            assert one.enhancement == got.enhancement

    def test_3d_single_matches_stacked(self):
        heights = _random_heights(3, 4)  # 4 x 4 grid: 2N = 32 unknowns
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = SWMSolver3D()
            serial = [ref.solve_um(h, 5.0, FREQ) for h in heights]
            stacked = SWMSolver3D().solve_many_um(heights, 5.0, FREQ)
        for one, got in zip(serial, stacked):
            np.testing.assert_array_equal(one.psi, got.psi)
            np.testing.assert_array_equal(one.v, got.v)
            assert one.enhancement == got.enhancement


class TestSharedSolvePath:
    """Both solvers run one solve path. The 2D solver defines none of
    it, so a second copy beside the 3D one cannot grow back."""

    ENTRY_POINTS = ("solve", "solve_um", "solve_mesh", "solve_many",
                    "solve_many_um", "solve_mesh_many",
                    "solve_mesh_many_multi_k")
    KERNEL = ("_solve_stack", "_medium_blocks", "_factor_stack",
              "_finish_many")

    def test_2d_solver_defines_no_solve_path(self):
        own = vars(SWMSolver2D)
        assert not [name for name in self.ENTRY_POINTS if name in own]
        # Prefix match, so a renamed copy (``_factor_stack_2d``) fails.
        assert not [name for name in own
                    if name.startswith(self.KERNEL)]

    def test_both_solvers_resolve_to_one_function(self):
        for name in self.ENTRY_POINTS + self.KERNEL:
            assert getattr(SWMSolver2D, name, None) is getattr(
                SWMSolver3D, name), name


class TestBatchedAssembly:
    def test_matches_per_mesh_assembly(self):
        heights = _random_heights(3, 8)
        meshes = [build_mesh_3d(h, 5.0) for h in heights]
        solver = SWMSolver3D()
        k1, _ = solver._wavenumbers_um(FREQ)
        tables = solver._get_tables(1, k1, FREQ, meshes)
        opts = solver.options.assembly
        plan = AssemblyPlan3D.build(meshes, opts)
        d_many, s_many = plan.dense(((k1, tables),))[0]
        for i, mesh in enumerate(meshes):
            d_one, s_one = assemble_medium(mesh, k1, opts, tables=tables)
            np.testing.assert_array_equal(d_many[i], d_one)
            np.testing.assert_array_equal(s_many[i], s_one)

    def test_rejects_mismatched_meshes(self):
        m1 = build_mesh_3d(np.zeros((8, 8)), 5.0)
        m2 = build_mesh_3d(np.zeros((8, 8)), 6.0)
        with pytest.raises(MeshError):
            AssemblyPlan3D.build([m1, m2], AssemblyOptions())

    @pytest.mark.parametrize("n", [6, 8, 12])
    def test_exact_plan_matches_one_mesh_plans(self, n):
        """Exact Ewald is an evaluator on the same plan: a B-mesh plan
        equals B one-mesh assemblies bit for bit, as the tables do."""
        from repro.swm.fastkernel import EwaldKernel

        meshes = [build_mesh_3d(h, 5.0) for h in _random_heights(2, n)]
        opts = AssemblyOptions(use_tables=False)
        k = 0.5 + 0.3j
        kernel = EwaldKernel(k, opts.ewald_config(5.0))
        plan = AssemblyPlan3D.build(meshes, opts)
        d_many, s_many = plan.dense(((k, kernel),))[0]
        for i, mesh in enumerate(meshes):
            d_one, s_one = assemble_medium(mesh, k, opts)
            np.testing.assert_array_equal(d_many[i], d_one)
            np.testing.assert_array_equal(s_many[i], s_one)


class TestKernelTablesCovers:
    def test_covers_reports_tabulated_range(self):
        from repro.swm.assembly import AssemblyOptions

        cfg = AssemblyOptions().ewald_config(5.0)
        tables = KernelTables(0.5 + 0.2j, cfg, 8, z_extent=2.0)
        assert tables.covers(1.0)
        assert tables.covers(2.0)
        assert not tables.covers(3.0)

    def test_solver_reuses_covering_tables(self):
        solver = SWMSolver3D()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            heights = _random_heights(1, 8)[0]
            solver.solve_um(heights, 5.0, FREQ)
            tables = dict(solver._tables)
            solver.solve_um(0.5 * heights, 5.0, FREQ)  # smaller extent
        assert dict(solver._tables) == tables  # reused, not rebuilt

    def test_table_growth_is_counted_once_per_medium(self, stacking):
        """A later chunk that outgrows the first chunk's tables builds
        one more table per medium, replacing the old one, and
        ``repro_swm_table_builds_total`` counts every build."""
        from repro import telemetry

        rng = np.random.default_rng(5)
        heights = np.stack([rng.normal(0.0, 0.1, (8, 8)),
                            rng.normal(0.0, 1.0, (8, 8))])
        solver = SWMSolver3D()
        builds = telemetry.REGISTRY.counter("repro_swm_table_builds_total")
        was = telemetry.enabled()
        telemetry.enable()  # the counter is a no-op otherwise
        try:
            before = builds.value()
            with warnings.catch_warnings(), stacking(1):
                warnings.simplefilter("ignore", RuntimeWarning)
                solver.solve_many_um(heights, 5.0, FREQ)
            after = builds.value()
        finally:
            (telemetry.enable if was else telemetry.disable)()
        assert after - before == 2 * 2  # 2 media x (first chunk + growth)
        assert len(solver._tables) == 2


class TestWarningAttribution:
    """The skin-depth warning must point at the *user's* call site for
    every public entry point (solve, solve_um, solve_mesh, and the
    batched variants), not at a solver-internal frame."""

    # 8 points over 5 um at 50 GHz: spacing 0.625 um >> 1.5 * delta.
    FREQ_COARSE = 50 * GHZ

    def _assert_warns_here(self, trigger):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trigger()
        rt = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert rt, "expected the skin-depth resolution warning"
        assert rt[0].filename == __file__

    def test_solve_points_at_caller(self):
        solver = SWMSolver3D()
        self._assert_warns_here(
            lambda: solver.solve(np.zeros((8, 8)), 5 * UM, self.FREQ_COARSE))

    def test_solve_um_points_at_caller(self):
        solver = SWMSolver3D()
        self._assert_warns_here(
            lambda: solver.solve_um(np.zeros((8, 8)), 5.0, self.FREQ_COARSE))

    def test_solve_mesh_points_at_caller(self):
        solver = SWMSolver3D()
        mesh = build_mesh_3d(np.zeros((8, 8)), 5.0)
        self._assert_warns_here(
            lambda: solver.solve_mesh(mesh, self.FREQ_COARSE))

    def test_solve_many_um_points_at_caller(self):
        solver = SWMSolver3D()
        self._assert_warns_here(
            lambda: solver.solve_many_um(np.zeros((2, 8, 8)), 5.0,
                                         self.FREQ_COARSE))

    def test_solve_many_points_at_caller(self):
        solver = SWMSolver3D()
        self._assert_warns_here(
            lambda: solver.solve_many(np.zeros((2, 8, 8)) * UM, 5 * UM,
                                      self.FREQ_COARSE))

    def test_solve_mesh_many_points_at_caller(self):
        solver = SWMSolver3D()
        meshes = [build_mesh_3d(np.zeros((8, 8)), 5.0)]
        self._assert_warns_here(
            lambda: solver.solve_mesh_many(meshes, self.FREQ_COARSE))

    def test_solve_mesh_many_multi_k_points_at_caller(self):
        solver = SWMSolver3D()
        meshes = [build_mesh_3d(np.zeros((8, 8)), 5.0)]
        self._assert_warns_here(
            lambda: solver.solve_mesh_many_multi_k(
                meshes, [self.FREQ_COARSE]))


class TestWarningAttribution2D(TestWarningAttribution):
    """The 2D solver now carries the same skin-depth check as the 3D
    one (it historically had none), with the same stacklevel threading:
    every public entry point attributes the warning to the caller."""

    def test_solve_points_at_caller(self):
        solver = SWMSolver2D()
        self._assert_warns_here(
            lambda: solver.solve(np.zeros(8), 5 * UM, self.FREQ_COARSE))

    def test_solve_um_points_at_caller(self):
        solver = SWMSolver2D()
        self._assert_warns_here(
            lambda: solver.solve_um(np.zeros(8), 5.0, self.FREQ_COARSE))

    def test_solve_mesh_points_at_caller(self):
        from repro.swm.geometry import build_mesh_2d

        solver = SWMSolver2D()
        mesh = build_mesh_2d(np.zeros(8), 5.0)
        self._assert_warns_here(
            lambda: solver.solve_mesh(mesh, self.FREQ_COARSE))

    def test_solve_many_um_points_at_caller(self):
        solver = SWMSolver2D()
        self._assert_warns_here(
            lambda: solver.solve_many_um(np.zeros((2, 8)), 5.0,
                                         self.FREQ_COARSE))

    def test_solve_many_points_at_caller(self):
        solver = SWMSolver2D()
        self._assert_warns_here(
            lambda: solver.solve_many(np.zeros((2, 8)) * UM, 5 * UM,
                                      self.FREQ_COARSE))

    def test_solve_mesh_many_points_at_caller(self):
        from repro.swm.geometry import build_mesh_2d

        solver = SWMSolver2D()
        meshes = [build_mesh_2d(np.zeros(8), 5.0)]
        self._assert_warns_here(
            lambda: solver.solve_mesh_many(meshes, self.FREQ_COARSE))

    def test_solve_mesh_many_multi_k_points_at_caller(self):
        from repro.swm.geometry import build_mesh_2d

        solver = SWMSolver2D()
        meshes = [build_mesh_2d(np.zeros(8), 5.0)]
        self._assert_warns_here(
            lambda: solver.solve_mesh_many_multi_k(
                meshes, [self.FREQ_COARSE]))

    def test_fine_mesh_does_not_warn(self):
        solver = SWMSolver2D()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solver.solve_um(np.zeros(96), 5.0, self.FREQ_COARSE)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]


# ----------------------------------------------------------------------
# Engine-level parity: every scenario kind, batched vs per-sample.
# ----------------------------------------------------------------------

CORR_3D = GaussianCorrelation(sigma=1 * UM, eta=1 * UM)
CONFIG_3D = StochasticLossConfig(points_per_side=8, max_modes=4)
CORR_2D = GaussianCorrelation(sigma=1.0, eta=1.0)  # profile scenarios: um


def _run_job(scenario, estimator, frequency_hz=5 * GHZ):
    clear_memo()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return execute_job(Job(scenario, frequency_hz, estimator, 0))


class TestEngineBatchedParity:
    def test_stochastic_montecarlo(self, stacking):
        est = EstimatorSpec(kind="montecarlo", n_samples=10, seed=3)
        a = _run_job(StochasticScenario("m", CORR_3D, CONFIG_3D), est)
        # (samples per chunk, chunks per engine block): blocks of 1 and
        # of 4, and one block of three chunks (4, 4, 2).
        for chunk, block_chunks in ((1, 1), (4, 1), (4, 16)):
            with stacking(chunk, block_chunks):
                b = _run_job(StochasticScenario("m", CORR_3D, CONFIG_3D),
                             est)
            np.testing.assert_array_equal(a["values"], b["values"])
            assert a["mean"] == b["mean"] and a["std"] == b["std"]

    def test_stochastic_sscm(self, stacking):
        est = EstimatorSpec(kind="sscm", order=1)
        a = _run_job(StochasticScenario("m", CORR_3D, CONFIG_3D), est)
        with stacking(4, block_chunks=1):
            b = _run_job(StochasticScenario("m", CORR_3D, CONFIG_3D), est)
        np.testing.assert_array_equal(a["values"], b["values"])

    def test_profile_montecarlo(self, stacking):
        est = EstimatorSpec(kind="montecarlo", n_samples=9, seed=1)
        a = _run_job(ProfileScenario("p", CORR_2D, period_um=5.0, n=16), est)
        with stacking(4, block_chunks=1):
            b = _run_job(ProfileScenario("p", CORR_2D, period_um=5.0, n=16),
                         est)
        np.testing.assert_array_equal(a["values"], b["values"])

    def test_deterministic_matches_batched_solver(self):
        heights = _random_heights(1, 8, seed=5)[0] * UM
        scen = DeterministicScenario("d", heights, 5 * UM)
        payload = _run_job(scen, None, frequency_hz=FREQ)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            batched = SWMSolver3D().solve_many(heights[None, :, :], 5 * UM,
                                               FREQ)
        assert payload["values"][0] == batched[0].enhancement

    def test_pipeline_montecarlo_stacking(self, stacking):
        from repro.engine import ResultCache

        # Fresh caches: the second run must *compute* in chunks of three
        # inside one engine block, not replay the first run's entry.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            a = StochasticLossModel(CORR_3D, CONFIG_3D).montecarlo(
                5 * GHZ, 8, seed=11, cache=ResultCache())
            with stacking(3):
                b = StochasticLossModel(CORR_3D, CONFIG_3D).montecarlo(
                    5 * GHZ, 8, seed=11, cache=ResultCache())
        np.testing.assert_array_equal(a.samples, b.samples)


class TestStackingOutsideContentHash:
    """The solver's byte budget is the one owner of stacking: no
    estimator, solver options or wire document carries a stacking or
    finite-check knob, and results keep the keys they had while those
    knobs existed, so caches written then are still hit."""

    def test_estimator_spec_has_no_stacking_field(self):
        names = [f.name for f in dataclasses.fields(EstimatorSpec)]
        assert names == ["kind", "order", "n_samples", "seed"]
        with pytest.raises(TypeError, match="batch_size"):
            EstimatorSpec(kind="montecarlo", n_samples=10, seed=3,
                          batch_size=16)

    @pytest.mark.parametrize("options", [SWMOptions, SWM2DOptions],
                             ids=["3d", "2d"])
    def test_solver_options_hold_assembly_only(self, options):
        assert [f.name for f in dataclasses.fields(options)] == ["assembly"]
        for knob in ("batch_size", "check_finite"):
            with pytest.raises(TypeError, match=knob):
                options(**{knob: 1})

    @pytest.mark.parametrize("job,key", [
        (Job(StochasticScenario("m", CORR_3D, CONFIG_3D), 5 * GHZ,
             EstimatorSpec(kind="sscm", order=1), 0),
         "3d95bfc8eed63cd70cd041d1592e602014184904c8c52c5049e5235ea62d73c4"),
        (Job(StochasticScenario("m", CORR_3D, CONFIG_3D,
                                options=SWMOptions()), 5 * GHZ,
             EstimatorSpec(kind="montecarlo", n_samples=10, seed=3), 0),
         "a34f796820b65a0bfa4a4d68a04d0c210aeeae8a6c878ab2f0f0415874e3bc3d"),
        (Job(ProfileScenario("p", CORR_2D, period_um=5.0, n=16,
                             options=SWM2DOptions()), 5 * GHZ,
             EstimatorSpec(kind="montecarlo", n_samples=9, seed=1), 0),
         "3b5e76b9755d29e79b338f28fd3d546f111cf1421b06e930ce0b1028e2bd8adc"),
    ], ids=["3d-sscm", "3d-mc", "2d-mc"])
    def test_job_keys_are_pinned(self, job, key):
        """The keys these jobs had while the estimator and both
        options still held ``batch_size`` and ``check_finite``. A change
        that means to re-key results (a kernel revision, say) updates
        them."""
        assert job.key == key

    def test_wire_round_trip_preserves_hash(self):
        job = Job(StochasticScenario("m", CORR_3D, CONFIG_3D), 5 * GHZ,
                  EstimatorSpec(kind="montecarlo", n_samples=10, seed=3), 0)
        assert set(to_wire(job)["estimator"]) == {
            "$type", "kind", "order", "n_samples", "seed"}
        back = loads(dumps(job))
        assert back.estimator == job.estimator
        assert back.key == job.key

    @pytest.mark.parametrize("scenario,knob", [
        (StochasticScenario("m", CORR_3D, CONFIG_3D, options=SWMOptions()),
         "batch_size"),
        (ProfileScenario("p", CORR_2D, period_um=5.0, n=16,
                         options=SWM2DOptions()), "check_finite"),
    ], ids=["3d", "2d"])
    def test_wire_options_refuse_removed_knobs(self, scenario, knob):
        """An options document that still carries a removed knob is a
        WireError (which the service answers with 400), not a knob
        dropped in silence."""
        doc = json.loads(dumps(scenario))
        doc["body"]["options"][knob] = 4
        with pytest.raises(WireError, match=knob):
            loads(json.dumps(doc))


_EACH_SOLVER = pytest.mark.parametrize("solve", [
    lambda: SWMSolver3D().solve_um(_random_heights(1, 4)[0], 5.0, 5 * GHZ),
    lambda: SWMSolver2D().solve_um(np.zeros(16), 5.0, 5 * GHZ)],
    ids=["3d", "2d"])


class TestMalformedOptions:
    """Assembly knobs no assembly can honor raise at construction, so
    wire decoding (which the service answers with 400) rejects them
    too; a non-finite assembly or solution raises in both solvers."""

    @pytest.mark.parametrize("bad", [
        {"near_quadrature": 0}, {"near_radius_cells": -1.0},
        {"n_images": -1}, {"n_modes": -1}, {"n_images": 0},
        {"n_modes": 0}, {"ewald_split": 0.0}, {"ewald_split": -0.5}])
    def test_3d_fields_rejected(self, bad):
        from repro.service import wire

        with pytest.raises(ConfigurationError):
            AssemblyOptions(**bad)
        doc = wire.to_wire(StochasticScenario("m", CORR_3D, CONFIG_3D,
                                              options=SWMOptions()))
        doc["options"]["assembly"].update(bad)
        with pytest.raises(ConfigurationError):
            wire.from_wire(doc)

    @pytest.mark.parametrize("bad", [
        {"near_quadrature": 0}, {"near_radius_cells": -0.5},
        {"m_max": 0}])
    def test_2d_fields_rejected(self, bad):
        from repro.service import wire

        with pytest.raises(ConfigurationError):
            Assembly2DOptions(**bad)
        doc = wire.to_wire(ProfileScenario("p", CORR_2D, period_um=5.0,
                                           n=16, options=SWM2DOptions()))
        doc["options"]["assembly"].update(bad)
        with pytest.raises(ConfigurationError):
            wire.from_wire(doc)

    def test_boundary_values_accepted(self):
        AssemblyOptions(near_radius_cells=0.0, near_quadrature=1,
                        n_images=1, n_modes=1)
        Assembly2DOptions(near_radius_cells=0.0, near_quadrature=1,
                          m_max=1)

    @_EACH_SOLVER
    def test_non_finite_solution_raises(self, monkeypatch, solve):
        def nan_solve(a, b):
            return np.full(b.shape, np.nan, dtype=np.complex128)

        monkeypatch.setattr(np.linalg, "solve", nan_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(SolverError,
                               match="solution contains non-finite"):
                solve()

    @_EACH_SOLVER
    def test_non_finite_assembly_raises(self, monkeypatch, solve):
        """One NaN written into the block system stops the solve before
        the factorization."""
        write = _PairPlan.write

        def poisoned(plan, media, blocks):
            write(plan, media, blocks)
            blocks[0].out[0, blocks[0].row, 0] = np.nan

        monkeypatch.setattr(_PairPlan, "write", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(SolverError, match="assembled SWM matrix "
                               "contains non-finite entries"):
                solve()
