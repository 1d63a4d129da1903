"""Tests of the sweep-execution engine (spec/executors/cache/results).

The two acceptance properties of the subsystem are pinned here:

- ``ParallelExecutor`` results are bit-identical to ``SerialExecutor``
  for the same ``SweepSpec``;
- a repeated sweep against a warm on-disk cache performs **zero** SWM
  solves (asserted by making the solver raise).
"""

import json
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

from repro.constants import GHZ, UM
from repro.core import (
    DeterministicLossModel,
    StochasticLossConfig,
    StochasticLossModel,
)
from repro.engine import (
    ENGINE_VERSION,
    DeterministicScenario,
    EstimatorSpec,
    ParallelExecutor,
    ProfileScenario,
    ResultCache,
    SerialExecutor,
    StochasticScenario,
    SweepSpec,
    content_hash,
    correlation_spec,
    engine_session,
    run_batch,
    run_sweep,
)
from repro.errors import ConfigurationError
from repro.stochastic.montecarlo import MonteCarloEstimator
from repro.surfaces import GaussianCorrelation, MaternCorrelation
from repro.swm.solver import SWMSolver3D

SMALL_CONFIG = StochasticLossConfig(points_per_side=8, max_modes=3)


def small_scenario(name="eta1", eta_um=1.0, **config_kwargs):
    cfg = SMALL_CONFIG if not config_kwargs else StochasticLossConfig(
        points_per_side=8, max_modes=3, **config_kwargs)
    return StochasticScenario(
        name, GaussianCorrelation(1 * UM, eta_um * UM), cfg)


def small_spec(frequencies=(2.0, 5.0), estimators=EstimatorSpec(order=1)):
    return SweepSpec(
        scenarios=[small_scenario("eta1", 1.0), small_scenario("eta2", 2.0)],
        frequencies_hz=np.asarray(frequencies) * GHZ,
        estimators=estimators)


class TestContentHash:
    def test_stable_across_equivalent_specs(self):
        a = small_scenario("x").key
        b = small_scenario("x").key
        assert a == b
        assert len(a) == 64

    def test_name_and_tags_do_not_affect_hash(self):
        assert small_scenario("a").key == small_scenario("b").key
        s1 = SweepSpec(small_scenario(), [5 * GHZ], tags={"scale": "quick"})
        s2 = SweepSpec(small_scenario(), [5 * GHZ], tags={"scale": "paper"})
        assert s1.key == s2.key

    def test_physics_inputs_change_hash(self):
        base = small_scenario()
        assert base.key != small_scenario(eta_um=2.0).key
        assert base.key != small_scenario(max_points_per_side=12).key
        base_job = SweepSpec(base, [5 * GHZ]).jobs()[0]
        other_freq = SweepSpec(base, [6 * GHZ]).jobs()[0]
        other_order = SweepSpec(base, [5 * GHZ],
                                EstimatorSpec(order=2)).jobs()[0]
        assert base_job.key != other_freq.key
        assert base_job.key != other_order.key

    def test_numpy_and_python_floats_hash_equal(self):
        assert content_hash({"f": 5.0}) == content_hash(
            {"f": np.float64(5.0)})

    def test_correlation_spec_extracts_parameters(self):
        spec = correlation_spec(MaternCorrelation(1 * UM, 2 * UM, nu=1.5))
        assert spec["type"] == "MaternCorrelation"
        assert spec["params"] == {"sigma": 1 * UM, "eta": 2 * UM, "nu": 1.5}

    def test_unhashable_object_raises(self):
        with pytest.raises(ConfigurationError):
            content_hash({"bad": object()})

    def test_correlation_array_parameter_hashes_by_content(self):
        class TabulatedCF(GaussianCorrelation):
            def __init__(self, weights):
                super().__init__(1 * UM, 1 * UM)
                self.weights = np.asarray(weights, dtype=np.float64)

        a = correlation_spec(TabulatedCF([1.0, 2.0]))
        b = correlation_spec(TabulatedCF([1.0, 3.0]))
        assert content_hash(a) != content_hash(b)

    def test_correlation_unhashable_attribute_raises(self):
        class BadCF(GaussianCorrelation):
            def __init__(self):
                super().__init__(1 * UM, 1 * UM)
                self.table = {"not": "hashed"}

        with pytest.raises(ConfigurationError, match="table"):
            correlation_spec(BadCF())

    def test_sweep_keys_equal_each_job_spec_hash(self):
        """``jobs()`` keys a scenario's jobs from one canonical pass;
        each key must still be the hash of the job's own spec, or every
        warm cache would go cold."""
        import repro.api

        specs = [repro.api.plan(name, scale="quick")
                 for name in repro.api.experiments()]
        heights = np.random.default_rng(3).normal(size=(8, 8)) * 1e-7
        specs.append(SweepSpec(
            [DeterministicScenario("d", heights, 5 * UM),
             ProfileScenario("p", GaussianCorrelation(1.0, 1.0),
                             period_um=20.0, n=12)],
            [1 * GHZ, 2.5 * GHZ],
            estimators=(EstimatorSpec(order=1),
                        EstimatorSpec(kind="montecarlo", n_samples=4,
                                      seed=None))))
        jobs = [job for spec in specs if spec is not None
                for job in spec.jobs()]
        kinds = {job.scenario.kind for job in jobs}
        assert kinds == {"stochastic", "deterministic", "profile"}
        for job in jobs:
            assert job.key == content_hash(job.to_spec()), job

    def test_only_plain_dicts_are_mappings(self):
        """Specs are plain dicts; any other mapping is refused rather
        than hashed by a different rule."""
        from types import MappingProxyType

        with pytest.raises(ConfigurationError, match="mappingproxy"):
            content_hash(MappingProxyType({"f": 5.0}))

    def test_deterministic_scenario_hashes_heights(self):
        flat = np.zeros((8, 8))
        bump = flat.copy()
        bump[4, 4] = 1e-7
        a = DeterministicScenario("s", flat, 5 * UM)
        b = DeterministicScenario("s", bump, 5 * UM)
        assert a.key != b.key


class TestKernelRevisionInContentHash:
    """Each solver's kernel revision keys every result of that solver, so
    a disk cache never mixes values from two kernels; the other
    dimension's keys and the wire format do not see it."""

    @staticmethod
    def _keys():
        from repro.swm.solver2d import SWM2DOptions

        det = DeterministicScenario("d", np.zeros((8, 8)), 5 * UM)
        prof = ProfileScenario("p", GaussianCorrelation(1.0, 1.0),
                               period_um=5.0, n=16, options=SWM2DOptions())
        return (content_hash(small_scenario("x").to_spec()),
                content_hash(det.to_spec()),
                content_hash(prof.to_spec()))

    def test_3d_keys_follow_the_revision_and_2d_keys_do_not(
            self, monkeypatch):
        from repro.swm import assembly

        stochastic, deterministic, profile = self._keys()
        monkeypatch.setattr(assembly, "KERNEL_REVISION",
                            assembly.KERNEL_REVISION + 1)
        bumped = self._keys()
        assert bumped[0] != stochastic
        assert bumped[1] != deterministic
        assert bumped[2] == profile

    def test_2d_keys_follow_their_revision_and_3d_keys_do_not(
            self, monkeypatch):
        from repro.swm import assembly2d

        stochastic, deterministic, profile = self._keys()
        monkeypatch.setattr(assembly2d, "KERNEL_REVISION_2D",
                            assembly2d.KERNEL_REVISION_2D + 1)
        bumped = self._keys()
        assert bumped[0] == stochastic
        assert bumped[1] == deterministic
        assert bumped[2] != profile

    def test_revision_reaches_the_solver_spec(self):
        from repro.swm.assembly import AssemblyOptions
        from repro.swm.assembly2d import Assembly2DOptions, KERNEL_REVISION_2D
        from repro.swm.fastkernel import KERNEL_REVISION
        from repro.swm.solver import SWMOptions
        from repro.swm.solver2d import SWM2DOptions

        spec = SWMOptions().to_spec()
        assert spec == {"assembly": AssemblyOptions().to_spec()}
        assert spec["assembly"]["kernel"] == KERNEL_REVISION
        spec2 = SWM2DOptions().to_spec()
        assert spec2 == {"assembly": Assembly2DOptions().to_spec()}
        assert spec2["assembly"]["kernel"] == KERNEL_REVISION_2D

    def test_exact_ewald_keys_its_own_revision(self, monkeypatch):
        """The tabulated spec keeps its form; exact Ewald
        (``use_tables=False``) carries its own revision, which a tables
        revision bump does not move."""
        from dataclasses import asdict

        from repro.swm import assembly
        from repro.swm.assembly import AssemblyOptions
        from repro.swm.fastkernel import KERNEL_REVISION

        fast = AssemblyOptions()
        assert fast.to_spec() == {**asdict(fast), "kernel": KERNEL_REVISION}
        exact = AssemblyOptions(use_tables=False)
        spec = exact.to_spec()
        assert spec != {**asdict(exact), "kernel": KERNEL_REVISION}
        monkeypatch.setattr(assembly, "KERNEL_REVISION", KERNEL_REVISION + 1)
        assert exact.to_spec() == spec
        # The bump did reach the tabulated spec.
        assert fast.to_spec() != {**asdict(fast), "kernel": KERNEL_REVISION}

    def test_wire_format_carries_no_revision(self):
        from repro.service import wire
        from repro.swm.solver import SWMOptions
        from repro.swm.solver2d import SWM2DOptions

        scen = StochasticScenario("x", GaussianCorrelation(1 * UM, 1 * UM),
                                  SMALL_CONFIG, options=SWMOptions())
        prof = ProfileScenario("p", GaussianCorrelation(1.0, 1.0),
                               period_um=5.0, n=16, options=SWM2DOptions())
        for obj in (scen, prof):
            doc = wire.to_wire(obj)
            assert "kernel" not in json.dumps(doc)
            decoded = wire.from_wire(json.loads(json.dumps(doc)))
            assert decoded.key == obj.key
        assert wire.to_wire(scen)["options"]["assembly"]["use_tables"] is True


class TestSweepSpec:
    def test_cartesian_product_order(self):
        spec = small_spec(frequencies=(2.0, 3.0, 4.0))
        jobs = spec.jobs()
        assert len(jobs) == 6
        assert [j.scenario.name for j in jobs] == ["eta1"] * 3 + ["eta2"] * 3
        assert [j.index for j in jobs] == list(range(6))

    def test_multiple_estimators_multiply(self):
        spec = SweepSpec(small_scenario(), [2 * GHZ, 5 * GHZ],
                         estimators=[EstimatorSpec(order=1),
                                     EstimatorSpec(order=2)])
        assert spec.n_jobs == 4

    def test_deterministic_scenario_ignores_estimators(self):
        spec = SweepSpec(
            DeterministicScenario("flat", np.zeros((8, 8)), 5 * UM),
            [2 * GHZ, 5 * GHZ],
            estimators=[EstimatorSpec(order=1), EstimatorSpec(order=2)])
        jobs = spec.jobs()
        assert len(jobs) == 2
        assert all(j.estimator is None for j in jobs)
        assert all(j.estimator_label == "solve" for j in jobs)

    def test_scalar_frequency_coerced(self):
        spec = SweepSpec(small_scenario(), 5 * GHZ)
        assert spec.frequencies_hz == (5 * GHZ,)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepSpec([], [5 * GHZ])
        with pytest.raises(ConfigurationError):
            SweepSpec([small_scenario("a"), small_scenario("a")], [5 * GHZ])
        with pytest.raises(ConfigurationError):
            SweepSpec(small_scenario(), [-1.0])
        with pytest.raises(ConfigurationError):
            EstimatorSpec(kind="bogus")
        with pytest.raises(ConfigurationError):
            EstimatorSpec(kind="montecarlo", n_samples=1)

    def test_unseeded_montecarlo_not_cacheable(self):
        assert not EstimatorSpec(kind="montecarlo", n_samples=4,
                                 seed=None).cacheable
        assert EstimatorSpec(kind="montecarlo", n_samples=4,
                             seed=0).cacheable
        assert EstimatorSpec(kind="sscm").cacheable

    def test_engine_imports_nothing_from_the_service(self):
        """The engine sits below the service: no ``repro.engine`` module
        imports ``repro.service``, at module level or lazily; transport
        encoding is :mod:`repro.service.wire`'s alone."""
        import ast
        import importlib.util
        from pathlib import Path

        import repro.engine

        root = Path(repro.engine.__file__).parent
        imported = set()
        for path in sorted(root.rglob("*.py")):
            package = ".".join(
                ("repro", "engine") + path.parent.relative_to(root).parts)
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Import):
                    imported.update((path.name, a.name) for a in node.names)
                elif isinstance(node, ast.ImportFrom):
                    name = importlib.util.resolve_name(
                        "." * node.level + (node.module or ""), package)
                    imported.add((path.name, name))
        # relative imports resolve to absolute names
        assert ("cache.py", "repro.engine.spec") in imported
        assert [(f, m) for f, m in sorted(imported)
                if m == "repro.service"
                or m.startswith("repro.service.")] == []


class TestExecutorEquivalence:
    """Acceptance: parallel results bit-identical to serial."""

    def test_parallel_matches_serial(self):
        spec = small_spec()
        serial = run_sweep(spec, executor=SerialExecutor(),
                           cache=ResultCache())
        parallel = run_sweep(spec, executor=ParallelExecutor(n_jobs=2),
                             cache=ResultCache())
        assert serial.cache_hits == 0 and parallel.cache_hits == 0
        for name in ("eta1", "eta2"):
            np.testing.assert_array_equal(serial.mean_curve(name),
                                          parallel.mean_curve(name))
        for ps, pp in zip(serial.points, parallel.points):
            np.testing.assert_array_equal(ps.values, pp.values)

    def test_parallel_spans_reach_the_profile_like_serial(self):
        """Spans recorded on worker threads land in the process
        aggregate: ``--profile`` counts the same phases either way."""
        from repro import telemetry

        was = telemetry.enabled()
        telemetry.enable()
        counts = []
        try:
            for executor in (SerialExecutor(), ParallelExecutor(2)):
                telemetry.reset_tracing()
                run_sweep(small_spec(), executor=executor,
                          cache=ResultCache())
                stats = telemetry.phase_stats()
                counts.append([stats[name]["count"]
                               for name in ("job", "assemble", "factor")])
        finally:
            telemetry.reset_tracing()
            (telemetry.enable if was else telemetry.disable)()
        # 6 solves a point, stacked by the solver's budget in chunks of
        # 4 and 2.
        assert counts[0] == counts[1] == [4, 8, 8]

    def test_progress_reaches_total_in_order(self):
        spec = small_spec()
        seen = []
        run_sweep(spec, executor=SerialExecutor(), cache=ResultCache(),
                  progress=lambda done, total: seen.append((done, total)))
        assert seen == [(i + 1, 4) for i in range(4)]

    def test_parallel_progress_counts_all_points(self):
        spec = small_spec()
        seen = []
        run_sweep(spec, executor=ParallelExecutor(n_jobs=2),
                  cache=ResultCache(),
                  progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (4, 4)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_single_job_falls_back_to_serial(self):
        spec = SweepSpec(small_scenario(), 5 * GHZ)
        res = run_sweep(spec, executor=ParallelExecutor(n_jobs=4),
                        cache=ResultCache())
        assert res.points[0].mean > 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(n_jobs=0)

    def test_worker_error_propagates(self):
        ex = ParallelExecutor(n_jobs=2)
        with pytest.raises(ZeroDivisionError):
            ex.run(_reciprocal, [1.0, 0.0, 2.0])

    def test_on_result_fires_with_item_indices(self):
        seen = {}
        ParallelExecutor(n_jobs=2).run(
            _reciprocal, [1.0, 2.0, 4.0, 5.0],
            on_result=lambda i, r: seen.setdefault(i, r))
        assert seen == {0: 1.0, 1: 0.5, 2: 0.25, 3: 0.2}

    def test_on_result_fires_before_a_later_failure(self):
        seen = []
        with pytest.raises(ZeroDivisionError):
            SerialExecutor().run(_reciprocal, [2.0, 0.0],
                                 on_result=lambda i, r: seen.append(i))
        assert seen == [0]

    def test_parallel_failure_still_commits_finished_chunks(self):
        """A failing item must not discard results that completed on
        other workers before/while it failed."""
        seen = {}
        with pytest.raises(ZeroDivisionError):
            ParallelExecutor(n_jobs=2).run(
                _slow_reciprocal, [0.0, 1.0, 2.0, 4.0],
                on_result=lambda i, r: seen.setdefault(i, r))
        # items 1-3 are sub-ms on the other worker while item 0 spends
        # 0.5 s before raising: their results must have been delivered.
        assert seen == {1: 1.0, 2: 0.5, 3: 0.25}

    def test_interrupt_cancels_queued_items(self):
        """Ctrl-C in the waiting thread cannot stop a running thread, so
        the executor must cancel every queued item before re-raising
        instead of running the rest of the batch."""
        ran = []

        def interrupt_first(x):
            ran.append(x)
            if x == 0:
                raise KeyboardInterrupt
            import time
            time.sleep(0.05)
            return x

        with pytest.raises(KeyboardInterrupt):
            ParallelExecutor(n_jobs=2).run(interrupt_first, range(40))
        assert len(ran) <= 4


def _reciprocal(x):
    return 1.0 / x


def _slow_reciprocal(x):
    if x == 0.0:
        import time
        time.sleep(0.5)
    return 1.0 / x


class TestResultCache:
    def payload(self, n=3):
        return {"mean": 1.5, "std": 0.1,
                "values": np.arange(n, dtype=np.float64),
                "n_evals": n, "seed": 7, "wall_time_s": 0.25, "pid": 1}

    def test_memory_round_trip_and_stats(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", self.payload())
        got = cache.get("k")
        np.testing.assert_array_equal(got["values"], np.arange(3.0))
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_lru_eviction(self):
        cache = ResultCache(max_memory_entries=2)
        for key in ("a", "b", "c"):
            cache.put(key, self.payload())
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        # touching "b" makes "c" the eviction victim
        cache.get("b")
        cache.put("d", self.payload())
        assert "c" not in cache and "b" in cache

    def test_disk_round_trip_exact(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        values = np.array([1.0 / 3.0, np.pi, 1e-300])
        payload = dict(self.payload(), values=values)
        cache.put("deadbeef", payload, metadata={"scenario": "s"})
        fresh = ResultCache(disk_dir=tmp_path)  # empty memory tier
        got = fresh.get("deadbeef")
        np.testing.assert_array_equal(got["values"], values)
        assert got["mean"] == payload["mean"]
        assert fresh.stats.disk_hits == 1
        record = json.loads((tmp_path / "deadbeef.json").read_text())
        assert record["metadata"]["scenario"] == "s"

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        cache.put("k", self.payload())
        (tmp_path / "k.json").write_text("{not json")
        fresh = ResultCache(disk_dir=tmp_path)
        assert fresh.get("k") is None

    def test_engine_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        cache.put("k", self.payload())
        record = json.loads((tmp_path / "k.json").read_text())
        record["engine_version"] = -1
        (tmp_path / "k.json").write_text(json.dumps(record))
        fresh = ResultCache(disk_dir=tmp_path)
        assert fresh.get("k") is None

    def test_zero_memory_entries_disables_memory_tier(self):
        cache = ResultCache(max_memory_entries=0)
        cache.put("k", self.payload())
        assert cache.get("k") is None


class TestCachedSweeps:
    """Acceptance: a warm on-disk cache performs zero SWM solves."""

    def test_warm_disk_cache_runs_zero_solves(self, tmp_path, monkeypatch):
        spec = small_spec()
        warm = run_sweep(spec, executor=SerialExecutor(),
                         cache=ResultCache(disk_dir=tmp_path))
        assert warm.cache_misses == 4 and warm.n_evals > 0

        def no_solves(self, *args, **kwargs):
            raise AssertionError("SWM solve performed on warm cache")

        monkeypatch.setattr(SWMSolver3D, "_solve_stack", no_solves)
        replay = run_sweep(spec, executor=SerialExecutor(),
                           cache=ResultCache(disk_dir=tmp_path))
        assert replay.cache_hits == 4
        assert replay.n_evals == 0
        for name in ("eta1", "eta2"):
            np.testing.assert_array_equal(replay.mean_curve(name),
                                          warm.mean_curve(name))

    def test_memory_cache_replay(self):
        spec = SweepSpec(small_scenario(), [2 * GHZ, 5 * GHZ])
        cache = ResultCache()
        first = run_sweep(spec, cache=cache)
        again = run_sweep(spec, cache=cache)
        assert first.cache_hits == 0
        assert again.cache_hits == 2
        np.testing.assert_array_equal(first.mean_curve("eta1"),
                                      again.mean_curve("eta1"))

    def test_progress_counts_cached_points(self):
        spec = SweepSpec(small_scenario(), [2 * GHZ, 5 * GHZ])
        cache = ResultCache()
        run_sweep(spec, cache=cache)
        seen = []
        run_sweep(spec, cache=cache,
                  progress=lambda done, total: seen.append((done, total)))
        assert seen == [(2, 2)]

    def test_interrupted_sweep_keeps_finished_points(self, tmp_path):
        """Each point commits as it finishes: a sweep that dies midway
        resumes from whatever completed."""
        from repro.errors import SolverError

        good = DeterministicScenario("good", np.zeros((8, 8)), 5 * UM)
        bad = DeterministicScenario("bad", np.full((8, 8), np.nan),
                                    5 * UM)
        spec = SweepSpec([good, bad], [2 * GHZ, 5 * GHZ])
        cache = ResultCache(disk_dir=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(SolverError):
                run_sweep(spec, executor=SerialExecutor(), cache=cache)
        # The two 'good' points finished before the failure and persist.
        assert cache.stats.stores == 2
        assert len(list(tmp_path.glob("*.npz"))) == 2
        good_only = SweepSpec(good, [2 * GHZ, 5 * GHZ])
        replay = run_sweep(good_only, executor=SerialExecutor(),
                           cache=ResultCache(disk_dir=tmp_path))
        assert replay.cache_hits == 2 and replay.n_evals == 0

    def test_cached_values_are_isolated_from_mutation(self):
        spec = SweepSpec(small_scenario(), 2 * GHZ)
        cache = ResultCache()
        first = run_sweep(spec, cache=cache)
        baseline = first.points[0].values.copy()
        with pytest.raises(ValueError):
            # Cached arrays are read-only: corruption fails loudly.
            run_sweep(spec, cache=cache).points[0].values[:] = 0.0
        again = run_sweep(spec, cache=cache)
        np.testing.assert_array_equal(again.points[0].values, baseline)

    def test_unseeded_montecarlo_never_cached(self):
        spec = SweepSpec(small_scenario(), 2 * GHZ,
                         EstimatorSpec(kind="montecarlo", n_samples=2,
                                       seed=None))
        cache = ResultCache()
        run_sweep(spec, cache=cache)
        res = run_sweep(spec, cache=cache)
        assert cache.stats.stores == 0
        assert res.cache_hits == 0


class TestProfileScenario:
    """2D (y-uniform) profile processes as first-class engine jobs."""

    def profile(self, name="prof", n=16):
        return ProfileScenario(name, GaussianCorrelation(1.0, 1.0),
                               period_um=5.0, n=n, normalize=True)

    def test_matches_direct_generator_solver_loop(self):
        """Engine values are bit-identical to the hand-rolled Fig. 6
        loop: seeded white noise -> ProfileGenerator -> SWMSolver2D."""
        from repro.materials import PAPER_SYSTEM
        from repro.surfaces import ProfileGenerator
        from repro.swm.solver2d import SWMSolver2D

        scenario = self.profile()
        spec = SweepSpec(scenario, [2 * GHZ, 5 * GHZ],
                         EstimatorSpec(kind="montecarlo", n_samples=4,
                                       seed=7))
        res = run_sweep(spec, executor=SerialExecutor(),
                        cache=ResultCache())

        gen = ProfileGenerator(GaussianCorrelation(1.0, 1.0), period=5.0,
                               n=16, normalize=True)
        solver = SWMSolver2D(PAPER_SYSTEM)
        for f in (2 * GHZ, 5 * GHZ):
            def model(xi, f=f):
                profile = gen.from_white_noise(xi)
                return solver.solve_um(profile, 5.0, f).enhancement
            direct = MonteCarloEstimator(model, 16).run(4, seed=7)
            point = res.point("prof", f)
            np.testing.assert_array_equal(point.values, direct.samples)
            assert point.seed == 7

    def test_hash_covers_profile_parameters(self):
        base = self.profile()
        assert base.key == self.profile().key
        assert base.key != self.profile(n=24).key
        other_period = ProfileScenario(
            "prof", GaussianCorrelation(1.0, 1.0), period_um=6.0, n=16)
        assert base.key != other_period.key
        from repro.swm.assembly2d import Assembly2DOptions
        from repro.swm.solver2d import SWM2DOptions

        other_modes = ProfileScenario(
            "prof", GaussianCorrelation(1.0, 1.0), period_um=5.0, n=16,
            options=SWM2DOptions(assembly=Assembly2DOptions(m_max=48)))
        assert base.key != other_modes.key

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProfileScenario("p", GaussianCorrelation(1.0, 1.0),
                            period_um=-1.0, n=16)
        with pytest.raises(ConfigurationError):
            ProfileScenario("p", GaussianCorrelation(1.0, 1.0),
                            period_um=5.0, n=2)

    def test_cache_replay(self):
        spec = SweepSpec(self.profile(), 2 * GHZ,
                         EstimatorSpec(kind="montecarlo", n_samples=4,
                                       seed=1))
        cache = ResultCache()
        first = run_sweep(spec, cache=cache)
        again = run_sweep(spec, cache=cache)
        assert first.cache_hits == 0 and again.cache_hits == 1
        np.testing.assert_array_equal(first.points[0].values,
                                      again.points[0].values)


class TestEstimatorMap:
    """Per-scenario estimators: heterogeneous figures as one spec."""

    def spec(self):
        return SweepSpec(
            [small_scenario("sscm-side"),
             ProfileScenario("mc-side", GaussianCorrelation(1.0, 1.0),
                             period_um=5.0, n=16)],
            [2 * GHZ],
            estimators=EstimatorSpec(order=1),
            estimator_map={"mc-side": EstimatorSpec(
                kind="montecarlo", n_samples=4, seed=0)})

    def test_jobs_use_mapped_estimators(self):
        by_scenario = {j.scenario.name: j.estimator_label
                       for j in self.spec().jobs()}
        assert by_scenario == {"sscm-side": "sscm(order=1)",
                               "mc-side": "montecarlo(n=4, seed=0)"}

    def test_unknown_scenario_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            SweepSpec(small_scenario("a"), [2 * GHZ],
                      estimator_map={"b": EstimatorSpec(order=2)})

    def test_map_changes_spec_hash_only_when_present(self):
        plain = SweepSpec(small_scenario("a"), [2 * GHZ])
        plain_again = SweepSpec(small_scenario("a"), [2 * GHZ],
                                estimator_map={})
        mapped = SweepSpec(small_scenario("a"), [2 * GHZ],
                           estimator_map={"a": EstimatorSpec(order=2)})
        assert plain.key == plain_again.key
        assert plain.key != mapped.key

    def test_runs_end_to_end(self):
        res = run_sweep(self.spec(), cache=ResultCache())
        assert res.point("sscm-side").estimator == "sscm(order=1)"
        assert res.point("mc-side").n_evals == 4


class TestRunBatch:
    """Merged multi-sweep execution with cross-sweep deduplication."""

    def test_shared_jobs_computed_once(self):
        shared = small_scenario("shared")
        a = SweepSpec(shared, [2 * GHZ, 5 * GHZ])
        b = SweepSpec(shared, [2 * GHZ])  # subset of a's jobs
        cache = ResultCache()
        out = run_batch({"a": a, "b": b}, executor=SerialExecutor(),
                        cache=cache)
        # b's single point was deduplicated against a's first job.
        assert cache.stats.stores == 2
        assert out["b"].points[0].cache_hit is False
        np.testing.assert_array_equal(
            out["a"].point("shared", 2 * GHZ).values,
            out["b"].point("shared", 2 * GHZ).values)

    def test_results_match_individual_sweeps(self):
        a = SweepSpec(small_scenario("x"), [2 * GHZ])
        b = SweepSpec(small_scenario("y", eta_um=2.0), [5 * GHZ])
        batch = run_batch({"a": a, "b": b}, cache=ResultCache())
        alone_a = run_sweep(a, cache=ResultCache())
        alone_b = run_sweep(b, cache=ResultCache())
        np.testing.assert_array_equal(batch["a"].points[0].values,
                                      alone_a.points[0].values)
        np.testing.assert_array_equal(batch["b"].points[0].values,
                                      alone_b.points[0].values)

    def test_progress_spans_batch_and_attributes_per_sweep(self):
        a = SweepSpec(small_scenario("x"), [2 * GHZ, 5 * GHZ])
        b = SweepSpec(small_scenario("y", eta_um=2.0), [2 * GHZ])
        seen, attributed = [], []
        run_batch({"a": a, "b": b}, cache=ResultCache(),
                  progress=lambda done, total: seen.append((done, total)),
                  batch_progress=lambda name, done, total:
                  attributed.append((name, done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]
        assert ("a", 2, 2) in attributed and ("b", 1, 1) in attributed

    def test_cached_points_attributed_upfront(self):
        spec = SweepSpec(small_scenario("x"), [2 * GHZ])
        cache = ResultCache()
        run_batch({"a": spec}, cache=cache)
        attributed = []
        run_batch({"a": spec}, cache=cache,
                  batch_progress=lambda name, done, total:
                  attributed.append((name, done, total)))
        assert attributed == [("a", 1, 1)]

    def test_empty_batch(self):
        assert run_batch({}, cache=ResultCache()) == {}

    def test_run_sweep_rejects_non_spec(self):
        with pytest.raises(ConfigurationError, match="SweepSpec"):
            run_sweep([small_scenario("a")])


class TestPipelineRouting:
    """The high-level pipeline API routes through the engine."""

    @pytest.fixture(scope="class")
    def model(self):
        return StochasticLossModel(GaussianCorrelation(1 * UM, 1 * UM),
                                   SMALL_CONFIG)

    @pytest.mark.parametrize("batch_size", [None, 3])
    def test_montecarlo_matches_direct_estimator(self, model, stacking,
                                                 batch_size):
        with stacking(batch_size, 1) if batch_size else nullcontext():
            routed = model.montecarlo(5 * GHZ, 8, seed=0,
                                      cache=ResultCache())
        direct = MonteCarloEstimator(
            model.enhancement_model(5 * GHZ), model.dimension,
            batch_model=model.enhancement_batch_model(5 * GHZ)).run(
                8, seed=0, batch_size=batch_size)
        np.testing.assert_array_equal(routed.samples, direct.samples)

    @pytest.mark.parametrize("batch_size", [None, 3])
    def test_profile_montecarlo_matches_direct_estimator(self, stacking,
                                                         batch_size):
        """The engine and the public estimator walk one xi stream."""
        from repro.surfaces import ProfileGenerator
        from repro.swm.solver2d import SWMSolver2D

        corr = GaussianCorrelation(1.0, 1.0)
        spec = SweepSpec(
            ProfileScenario("prof", corr, period_um=5.0, n=16),
            5 * GHZ, EstimatorSpec(kind="montecarlo", n_samples=7, seed=4))
        with stacking(batch_size, 1) if batch_size else nullcontext():
            routed = run_sweep(spec, cache=ResultCache()).point("prof",
                                                                5 * GHZ)

        gen = ProfileGenerator(corr, period=5.0, n=16, normalize=True)
        solver = SWMSolver2D()

        def model(xi):
            return solver.solve_um(gen.from_white_noise(xi), 5.0,
                                   5 * GHZ).enhancement

        def batch_model(xis):
            profiles = np.stack([gen.from_white_noise(xi) for xi in xis])
            return np.array([r.enhancement for r in solver.solve_many_um(
                profiles, 5.0, 5 * GHZ)])

        direct = MonteCarloEstimator(model, 16, batch_model=batch_model).run(
            7, seed=4, batch_size=batch_size)
        np.testing.assert_array_equal(routed.values, direct.samples)

    def test_sscm_matches_direct_and_replays_from_cache(self, model,
                                                        monkeypatch):
        cache = ResultCache()
        routed = model.sscm(5 * GHZ, order=1, cache=cache)
        direct = model.sscm_direct(5 * GHZ, order=1)
        np.testing.assert_array_equal(routed.node_values,
                                      direct.node_values)
        np.testing.assert_array_equal(routed.coefficients,
                                      direct.coefficients)
        assert routed.mean == direct.mean

        def no_solves(self, *args, **kwargs):
            raise AssertionError("SWM solve performed on warm cache")

        monkeypatch.setattr(SWMSolver3D, "_solve_stack", no_solves)
        replay = model.sscm(5 * GHZ, order=1, cache=cache)
        np.testing.assert_array_equal(replay.node_values,
                                      routed.node_values)

    def test_mean_enhancement_parallel_matches_serial(self, model):
        freqs = np.array([2.0, 5.0]) * GHZ
        serial = model.mean_enhancement(freqs, order=1, cache=ResultCache())
        parallel = model.mean_enhancement(freqs, order=1,
                                          executor=ParallelExecutor(2),
                                          cache=ResultCache())
        np.testing.assert_array_equal(serial, parallel)

    def test_deterministic_enhancement_routed(self):
        dm = DeterministicLossModel()
        cache = ResultCache()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            vals = dm.enhancement(np.zeros((8, 8)), 5 * UM,
                                  np.array([2.0, 5.0]) * GHZ, cache=cache)
        np.testing.assert_allclose(vals, 1.0, atol=0.03)
        assert cache.stats.stores == 2

    def test_engine_session_scopes_defaults(self, model):
        session_cache = ResultCache()
        with engine_session(cache=session_cache):
            model.mean_enhancement(np.array([2.0]) * GHZ, order=1)
        assert session_cache.stats.stores == 1

    def test_nested_session_inherits_outer_cache(self, model):
        outer_cache = ResultCache()
        with engine_session(cache=outer_cache):
            with engine_session(n_jobs=1):  # sets executor only
                model.mean_enhancement(np.array([5.0]) * GHZ, order=1)
        assert outer_cache.stats.stores == 1

    def test_numpy_tags_survive_disk_metadata(self, tmp_path):
        spec = SweepSpec(small_scenario(), 2 * GHZ,
                         tags={"n": np.int64(5), "arr": np.array([1.0])})
        res = run_sweep(spec, cache=ResultCache(disk_dir=tmp_path))
        assert res.cache_misses == 1
        record = json.loads(
            (tmp_path / f"{res.points[0].key}.json").read_text())
        assert record["metadata"]["tags"] == {"n": 5, "arr": [1.0]}

    def test_provenance_fields(self, model):
        res = run_sweep(SweepSpec(model.scenario("m"), 2 * GHZ),
                        cache=ResultCache())
        point = res.point("m", 2 * GHZ)
        assert point.estimator == "sscm(order=1)"
        assert point.seed is None
        assert point.n_evals == point.values.size > model.dimension
        assert point.wall_time_s > 0.0
        assert point.cache_hit is False
        assert point.pid is not None
        assert res.summary().endswith("s")

    def test_result_selectors(self, model):
        spec = SweepSpec([model.scenario("a"),
                          small_scenario("b", eta_um=2.0)],
                         [2 * GHZ, 5 * GHZ])
        res = run_sweep(spec, cache=ResultCache())
        with pytest.raises(ConfigurationError):
            res.mean_curve()  # ambiguous scenario
        with pytest.raises(ConfigurationError):
            res.curve("a", statistic="median")
        assert res.scenario_names == ["a", "b"]
        assert res.mean_curve("a").shape == (2,)


class TestSessionIsolation:
    """engine_session is context-local: concurrent threads cannot
    redirect each other's sweeps (the threaded-HTTP-service regression
    of PR 3)."""

    def test_threads_see_their_own_session(self):
        import threading

        from repro.engine.api import _resolve

        n = 4
        caches = [ResultCache() for _ in range(n)]
        barrier = threading.Barrier(n)
        seen: dict[int, ResultCache] = {}
        errors: list[BaseException] = []

        def worker(i: int) -> None:
            try:
                with engine_session(cache=caches[i]):
                    barrier.wait(timeout=10)  # all sessions active at once
                    _, cache = _resolve(None, None)
                    seen[i] = cache
                    barrier.wait(timeout=10)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        assert all(seen[i] is caches[i] for i in range(n))

    def test_thread_does_not_inherit_callers_session(self):
        import threading

        from repro.engine import default_cache
        from repro.engine.api import _resolve

        found = []

        def probe() -> None:
            _, cache = _resolve(None, None)
            found.append(cache)

        outer = ResultCache()
        with engine_session(cache=outer):
            t = threading.Thread(target=probe)
            t.start()
            t.join(10)
        # a fresh thread starts from the no-session default, not from
        # whatever session happened to be active on the spawning thread
        assert found[0] is default_cache()

    def test_nested_sessions_inherit_within_a_thread(self):
        from repro.engine.api import _resolve

        outer_cache = ResultCache()
        inner_executor = SerialExecutor()
        with engine_session(cache=outer_cache):
            with engine_session(executor=inner_executor):
                executor, cache = _resolve(None, None)
                assert executor is inner_executor
                assert cache is outer_cache
            _, cache = _resolve(None, None)
            assert cache is outer_cache


class TestDiskCacheGC:
    """max_disk_bytes LRU eviction and the purge/manifest helpers."""

    @staticmethod
    def _payload(i: int) -> dict:
        return {"mean": float(i), "std": 0.0,
                "values": np.full(64, float(i)), "n_evals": 1,
                "seed": None, "wall_time_s": 0.0, "pid": None}

    @staticmethod
    def _entry_bytes(tmp_path) -> int:
        probe = ResultCache(disk_dir=tmp_path / "probe")
        probe.put("k", {"mean": 0.0, "std": 0.0,
                        "values": np.full(64, 0.0), "n_evals": 1,
                        "seed": None, "wall_time_s": 0.0, "pid": None})
        return probe.disk_size_bytes()

    def test_lru_eviction_by_recency(self, tmp_path):
        import os

        entry = self._entry_bytes(tmp_path)
        cache = ResultCache(max_memory_entries=0,
                            disk_dir=tmp_path / "store",
                            max_disk_bytes=3 * entry + entry // 2)
        # mtime granularity can be coarse; pin each write to its own tick
        now = [1_000_000.0]

        def put(key, i):
            cache.put(key, self._payload(i))
            for p in cache._disk_paths(key):
                os.utime(p, times=(now[0], now[0]))
            now[0] += 10.0

        put("aa", 0)
        put("bb", 1)
        put("cc", 2)
        assert {e["key"] for e in cache.manifest()} == {"aa", "bb", "cc"}
        # touch "aa" (disk hit refreshes its LRU stamp)
        assert cache.get("aa") is not None
        for p in cache._disk_paths("aa"):
            os.utime(p, times=(now[0], now[0]))
        now[0] += 10.0
        # a fourth entry busts the budget: "bb" (oldest mtime) goes
        put("dd", 3)
        keys = {e["key"] for e in cache.manifest()}
        assert "bb" not in keys
        assert {"aa", "cc", "dd"} <= keys
        assert cache.stats.disk_evictions >= 1
        assert cache.disk_size_bytes() <= cache.max_disk_bytes

    def test_budget_validation(self, tmp_path):
        with pytest.raises(ConfigurationError, match="max_disk_bytes"):
            ResultCache(disk_dir=tmp_path, max_disk_bytes=0)

    def test_purge_by_age(self, tmp_path):
        import os
        import time as time_module

        cache = ResultCache(disk_dir=tmp_path / "store")
        cache.put("old1", self._payload(0))
        cache.put("old2", self._payload(1))
        cache.put("new", self._payload(2))
        stale = time_module.time() - 3600.0
        for key in ("old1", "old2"):
            for p in cache._disk_paths(key):
                os.utime(p, times=(stale, stale))
        assert cache.purge(older_than_s=600.0) == 2
        assert {e["key"] for e in cache.manifest()} == {"new"}
        assert cache.purge(older_than_s=600.0) == 0
        with pytest.raises(ConfigurationError):
            cache.purge(older_than_s=-1.0)

    def test_purge_memory_only_cache_is_noop(self):
        assert ResultCache().purge(older_than_s=0.0) == 0

    def test_manifest_carries_stored_metadata(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path / "store")
        payload = self._payload(7)
        cache.put("deadbeef", payload, metadata={"scenario": "m",
                                                 "tags": {"scale": "quick"}})
        fresh = ResultCache(disk_dir=tmp_path / "store")
        [entry] = fresh.manifest()
        assert entry["key"] == "deadbeef"
        assert entry["metadata"] == {"scenario": "m",
                                     "tags": {"scale": "quick"}}
        assert entry["engine_version"] == ENGINE_VERSION
        assert entry["created_unix"] is not None
        assert entry["bytes"] == fresh.disk_size_bytes()
        got = fresh.get("deadbeef")
        assert got["mean"] == 7.0
        np.testing.assert_array_equal(got["values"], payload["values"])
        assert fresh.get("feedface") is None

    def test_memory_only_cache_serves_hits_without_manifest(self):
        cache = ResultCache()
        cache.put("aa", self._payload(3))
        assert cache.get("aa")["mean"] == 3.0
        assert cache.manifest() == []

    def test_directory_layout_and_membership(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path / "s")
        cache.put("deadbeef", self._payload(0))
        # one file pair per entry, and no temp file left by the writes
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
            "deadbeef.json", "deadbeef.npz"]
        fresh = ResultCache(disk_dir=tmp_path / "s")  # empty memory tier
        assert "deadbeef" in fresh and "feedface" not in fresh

    @pytest.mark.parametrize("max_memory_entries", [0, 8],
                             ids=["disk-hit", "memory-hit"])
    def test_listing_is_least_recent_first_and_hits_touch(
            self, tmp_path, max_memory_entries):
        import os

        cache = ResultCache(max_memory_entries=max_memory_entries,
                            disk_dir=tmp_path / "s",
                            max_disk_bytes=1 << 30)
        for i, key in enumerate(["a", "b", "c"]):
            cache.put(key, self._payload(i))
            # Pin distinct mtimes (filesystem clocks are coarse).
            for p in cache._disk_paths(key):
                os.utime(p, (i, i))
        assert [e["key"] for e in cache.manifest()] == ["a", "b", "c"]
        assert cache.get("a") is not None
        assert [e["key"] for e in cache.manifest()] == ["b", "c", "a"]


class TestCacheSplit:
    """The hit/pending split the async service schedules from."""

    def test_split_matches_cache_state(self):
        spec = small_spec(frequencies=(2.0,))
        cache = ResultCache()
        from repro.engine import cache_split

        hits, pending = cache_split(spec, cache)
        assert hits == {} and len(pending) == spec.n_jobs
        run_sweep(spec, cache=cache)
        hits, pending = cache_split(spec, cache)
        assert pending == [] and sorted(hits) == list(range(spec.n_jobs))
        assert all(p["n_evals"] > 0 for p in hits.values())

    def test_uncacheable_jobs_always_pending(self):
        from repro.engine import cache_split

        spec = SweepSpec(small_scenario("m"), [2 * GHZ],
                         EstimatorSpec(kind="montecarlo", n_samples=4,
                                       seed=None))
        cache = ResultCache()
        run_sweep(spec, cache=cache)
        hits, pending = cache_split(spec, cache)
        assert hits == {} and len(pending) == 1
