"""The write-once block system and the engine's default stacking.

The solver writes each medium's ``D`` and ``S`` straight into its block
row of the coupled ``(B, 2N, 2N)`` system, in the row's form, and one
buffer serves every chunk of a call. The engine hands the solver
several of its budgeted chunks per call. Both are pure performance
moves, so everything here is asserted bit for bit:

- every chunk's system equals ``[[½I - D1, (β S1) s], [½I + D2, (-S2)
  s]]`` built from ``assemble_medium`` / ``assemble_medium_2d``, the
  sign of every zero included, through a shorter last chunk that
  reuses the first chunk's buffer;
- job payloads at the default stacking equal one-sample payloads;
- the engine's blocks are whole multiples of the budgeted chunk;
- the byte budget picks pinned chunk sizes.
"""

import warnings

import numpy as np
import pytest

from repro.constants import GHZ, UM
from repro.core import StochasticLossConfig
from repro.engine.runtime import clear_memo, execute_job
from repro.engine.spec import (
    EstimatorSpec,
    Job,
    ProfileScenario,
    StochasticScenario,
)
from repro.surfaces import GaussianCorrelation
from repro.swm.assembly import assemble_medium
from repro.swm.assembly2d import assemble_medium_2d
from repro.swm.geometry import build_mesh_2d, build_mesh_3d
from repro.swm.solver import SWMSolver3D, _SWMSolver
from repro.swm.solver2d import SWMSolver2D

L = 5.0
FREQS = [2 * GHZ, 5 * GHZ]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.fixture
def factored(monkeypatch):
    """Every system handed to the factorization, in call order, as
    ``(held system, copy at the call)``; the solve itself is skipped."""
    calls = []

    def capture(solver, a, rhs, n, nb):
        calls.append((a, a.copy()))
        return np.ones((nb, 2 * n), dtype=np.complex128)

    monkeypatch.setattr(_SWMSolver, "_factor_stack", capture)
    return calls


def _expected(solver, meshes, freqs, assemble):
    """Per frequency, per mesh: the block system from the one-mesh
    assembly's D and S, in the dense formula's arithmetic."""
    out = []
    for f in freqs:
        k1, k2 = solver._wavenumbers_um(f)
        beta, scale_v = solver.system.beta(f), abs(k2)
        rows = []
        for mesh in meshes:
            d1, s1 = assemble(mesh, 1, k1, f)
            d2, s2 = assemble(mesh, 2, k2, f)
            half = 0.5 * np.eye(mesh.size)
            rows.append(np.block([[half - d1, beta * s1 * scale_v],
                                  [half + d2, -s2 * scale_v]]))
        out.append(rows)
    return out


def _check_chunks(solver, meshes, chunk, assemble, calls):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        solver.solve_mesh_many_multi_k(meshes, FREQS)
    want = _expected(solver, meshes, FREQS, assemble)
    starts = list(range(0, len(meshes), chunk))
    assert len(calls) == len(starts) * len(FREQS)
    calls = iter(calls)
    held = []
    for lo in starts:
        for fi in range(len(FREQS)):
            a, got = next(calls)
            held.append(a)
            sub = want[fi][lo:lo + chunk]
            assert got.shape == (len(sub),) + sub[0].shape
            for i, ref in enumerate(sub):
                np.testing.assert_array_equal(_bits(got[i]), _bits(ref))
    # Later chunks, the shorter last one included, write into the first
    # one's buffer.
    assert chunk == 1 or len(meshes) % chunk
    assert np.shares_memory(held[0], held[-len(FREQS)])


class TestInPlaceSystem3D:
    @pytest.mark.parametrize("n,chunk,count", [
        (8, 1, 2), (8, 3, 7), (8, 7, 9), (20, 1, 2), (20, 3, 4)])
    def test_chunk_system_is_the_block_formula(self, factored, stacking, n,
                                               chunk, count):
        rng = np.random.default_rng(n + chunk)
        meshes = [build_mesh_3d(rng.normal(0.0, 0.4, (n, n)), L)
                  for _ in range(count)]
        meshes[-1] = build_mesh_3d(np.zeros((n, n)), L)  # zeros' signs
        solver = SWMSolver3D()
        opts = solver.options.assembly

        def assemble(mesh, which, k, f):
            return assemble_medium(mesh, k, opts,
                                   tables=solver._tables[(which, f, L, n)])

        with stacking(chunk):
            _check_chunks(solver, meshes, chunk, assemble, factored)


class TestInPlaceSystem2D:
    @pytest.mark.parametrize("n,chunk,count", [
        (64, 1, 2), (64, 3, 7), (64, 7, 9), (160, 1, 2), (160, 3, 4),
        (160, 7, 8)])
    def test_chunk_system_is_the_block_formula(self, factored, stacking, n,
                                               chunk, count):
        rng = np.random.default_rng(n + chunk)
        meshes = [build_mesh_2d(rng.normal(0.0, 0.4, n), L)
                  for _ in range(count)]
        meshes[-1] = build_mesh_2d(np.zeros(n), L)
        solver = SWMSolver2D()
        opts = solver.options.assembly

        def assemble(mesh, which, k, f):
            return assemble_medium_2d(mesh, k, opts,
                                      kernel=solver._tables[(which, f, L, n)])

        with stacking(chunk):
            _check_chunks(solver, meshes, chunk, assemble, factored)


# ----------------------------------------------------------------------
# The engine's default stacking
# ----------------------------------------------------------------------

CORR_3D = GaussianCorrelation(sigma=1 * UM, eta=1 * UM)
CONFIG_3D = StochasticLossConfig(points_per_side=8, max_modes=4)
CORR_2D = GaussianCorrelation(sigma=1.0, eta=1.0)  # profile scenarios: um


@pytest.fixture
def batches(monkeypatch):
    """The batch of every factorization call."""
    seen = []
    real = _SWMSolver._factor_stack

    def count(solver, a, rhs, n, nb):
        seen.append(nb)
        return real(solver, a, rhs, n, nb)

    monkeypatch.setattr(_SWMSolver, "_factor_stack", count)
    return seen


def _payload(scenario, estimator):
    clear_memo()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return execute_job(Job(scenario, 5 * GHZ, estimator, 0))


class TestDefaultStacking:
    @pytest.mark.parametrize("scenario,estimator", [
        (StochasticScenario("m", CORR_3D, CONFIG_3D),
         dict(kind="sscm", order=1)),
        (StochasticScenario("m", CORR_3D, CONFIG_3D),
         dict(kind="montecarlo", n_samples=11, seed=4)),
        (ProfileScenario("p", CORR_2D, period_um=5.0, n=64),
         dict(kind="sscm", order=1)),
        (ProfileScenario("p", CORR_2D, period_um=5.0, n=64),
         dict(kind="montecarlo", n_samples=11, seed=4)),
    ], ids=["3d-sscm", "3d-mc", "2d-sscm", "2d-mc"])
    def test_default_payload_equals_per_sample(self, batches, stacking,
                                               scenario, estimator):
        stacked = _payload(scenario, EstimatorSpec(**estimator))
        assert max(batches) > 1  # the default stacks samples
        del batches[:]
        with stacking(1, block_chunks=1):
            alone = _payload(scenario, EstimatorSpec(**estimator))
        assert set(batches) == {1}
        np.testing.assert_array_equal(_bits(stacked["values"]),
                                      _bits(alone["values"]))
        assert (stacked["mean"], stacked["std"], stacked["n_evals"]) == (
            alone["mean"], alone["std"], alone["n_evals"])

    @pytest.mark.parametrize("scenario", [
        StochasticScenario("m", CORR_3D, CONFIG_3D),
        ProfileScenario("p", CORR_2D, period_um=5.0, n=64),
    ], ids=["3d", "2d"])
    def test_engine_blocks_are_budget_chunks(self, batches, monkeypatch,
                                             scenario):
        """With 64 unknowns the budget stacks four samples per chunk and
        the engine hands the solver eight chunks per call: 36 samples
        run as a block of 32 and a block of 4, all in chunks of four."""
        blocks = []
        real = _SWMSolver.solve_mesh_many_multi_k

        def count(solver, meshes, frequencies_hz):
            blocks.append(len(meshes))
            return real(solver, meshes, frequencies_hz)

        monkeypatch.setattr(_SWMSolver, "solve_mesh_many_multi_k", count)
        _payload(scenario, EstimatorSpec(kind="montecarlo", n_samples=36,
                                         seed=2))
        assert blocks == [32, 4]
        assert batches == [4] * 9


class TestChunkBudget:
    """The sizes one byte budget picks: several samples at the 8 x 8
    benchmark grids and n = 64 profiles, one at the paper's grids."""

    @pytest.mark.parametrize("n,chunk", [(8, 4), (20, 1), (40, 1)])
    def test_3d(self, n, chunk):
        assert SWMSolver3D().chunk_size(n * n) == chunk

    @pytest.mark.parametrize("n,chunk", [(64, 4), (320, 1)])
    def test_2d(self, n, chunk):
        assert SWMSolver2D().chunk_size(n) == chunk
