"""Worker-side job execution.

:func:`execute_job_group` is the one job executor: it runs a list of
jobs sharing a scenario and estimator as one frequency stack, and
:func:`execute_job` is a group of one. Every executor runs one of the
two, in the calling thread (serial) or on worker threads (parallel).
They return plain payload dicts (scalars + one float array) so results
serialize to the cache and the service wire without custom reducers.
:func:`execute_group_isolated` wraps a group for callers that must
fail one job without failing its stackmates (the scheduler, the fleet
worker).

Models are memoized per *thread* keyed by the scenario's content hash:
a sweep with F frequencies per scenario pays the KL eigendecomposition
once per worker thread, not once per job. The memo stays thread-local
(the parallel executor and the fleet worker run jobs on thread
pools): a job group releases its solver's kernel tables when it
starts, so a shared solver would drop tables another thread's job is
still using and make it rebuild them, and the LRU ``OrderedDict`` has
no lock. Values would not change: a kernel value does not depend on
which table serves it. The memo is bounded (LRU) so long
multi-scenario sweeps cannot grow worker memory without limit.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict

import numpy as np

from .. import telemetry
from ..telemetry import record_spans, span
from .spec import (
    DeterministicScenario,
    Job,
    ProfileScenario,
    StochasticScenario,
)

#: Models/solvers kept alive per thread (LRU on scenario hash).
_MEMO_MAX = 8
_memo_local = threading.local()

#: Height range, in units of the profile model's sigma, that a profile
#: group's kernel tables cover from their first build (+-4 sigma). Fewer
#: than 1e-4 of 64-point Gaussian profiles with L = 5 eta span more;
#: such a sample regrows the tables, which changes no value.
PROFILE_TABLE_RANGE_SIGMAS = 8.0

_M_GROUP_FALLBACKS = telemetry.counter(
    "repro_engine_group_fallbacks_total",
    "Failed job groups re-run one job at a time to isolate the failure.")


def _thread_memo() -> OrderedDict:
    memo = getattr(_memo_local, "memo", None)
    if memo is None:
        memo = _memo_local.memo = OrderedDict()
    return memo


def _memoized(key: str, build):
    memo = _thread_memo()
    cached = memo.get(key)
    if cached is not None:
        memo.move_to_end(key)
        return cached
    obj = build()
    memo[key] = obj
    while len(memo) > _MEMO_MAX:
        memo.popitem(last=False)
    return obj


def seed_model(scenario: StochasticScenario, model: object) -> None:
    """Pre-register an already-built model for a scenario.

    Lets the pipeline hand its own :class:`StochasticLossModel` to
    same-thread (serial) execution instead of paying the KL
    eigendecomposition a second time. Other threads build their own,
    because the memo is thread-local (module docstring). Job values do
    not depend on the model's solver history: kernel tables of one
    configuration return the same values whichever of them serves a
    solve.
    """
    _memoized(scenario.key, lambda: model)


def _model_for(scenario: StochasticScenario):
    from ..core.pipeline import StochasticLossModel

    return _memoized(scenario.key, lambda: StochasticLossModel(
        scenario.correlation, scenario.config, scenario.system,
        scenario.options))


def _profile_components(scenario: ProfileScenario):
    """Memoized ``(generator, solver)`` pair for a 2D profile scenario.

    The generator's FFT amplitudes and the 2D solver (with its Kummer
    table cache) are shared by every job of the scenario on this
    thread.
    """
    from ..surfaces.generation import ProfileGenerator
    from ..swm.solver2d import SWMSolver2D

    def build():
        gen = ProfileGenerator(scenario.correlation,
                               period=scenario.period_um, n=scenario.n,
                               normalize=scenario.normalize)
        solver = SWMSolver2D(scenario.system, scenario.options)
        return gen, solver

    return _memoized(scenario.key, build)


def _solver_for(scenario: DeterministicScenario):
    from ..swm.solver import SWMSolver3D

    # Key on the system/options only: one solver (and its kernel-table
    # cache) serves every deterministic surface of that system.
    from .spec import content_hash, _system_spec
    from ..swm.solver import SWMOptions
    options = scenario.options or SWMOptions()
    key = "solver:" + content_hash({"system": _system_spec(scenario.system),
                                    "options": options.to_spec()})
    return _memoized(key, lambda: SWMSolver3D(scenario.system,
                                              scenario.options))


def execute_job(job: Job) -> dict:
    """Run one job and return its payload: a group of one.

    Payload schema (kept flat and serializable)::

        mean, std      : float summary statistics
        values         : float64 array (SSCM node values / MC samples /
                         the single deterministic enhancement)
        n_evals        : number of SWM solves performed
        seed           : RNG seed (None for deterministic/SSCM jobs)
        wall_time_s    : compute time in the executing process
        pid            : executing process id (provenance)
        spans          : telemetry span dicts recorded during the solve
                         (only when :mod:`repro.telemetry` is enabled in
                         the executing process)
    """
    return execute_job_group([job])[0]


def group_by_scenario(items: list, job_of=lambda item: item) -> list[list]:
    """Bucket ``items`` by ``(scenario hash, estimator)``, preserving
    first-seen order.

    ``job_of`` maps an item to its :class:`Job` (identity for plain job
    lists; claim batches pass an accessor). The grouping key is exactly
    :func:`execute_job_group`'s groupability condition, so every bucket
    is guaranteed to take the fused path — members differ only in
    ``frequency_hz``.
    """
    buckets: dict = {}
    ordered: list[list] = []
    for item in items:
        job = job_of(item)
        gkey = (job.scenario.key, job.estimator)
        bucket = buckets.get(gkey)
        if bucket is None:
            bucket = buckets[gkey] = []
            ordered.append(bucket)
        bucket.append(item)
    return ordered


def execute_job_group(jobs: list[Job]) -> list[dict]:
    """Run jobs sharing one scenario at different frequencies as a group.

    The one job executor (:func:`execute_job` is a group of one). Every
    job must carry the same scenario (equal content hash) and the same
    estimator spec, differing only in ``frequency_hz``. The group
    realizes each sample surface **once** and solves it as a frequency
    stack through ``solve_mesh_many_multi_k``, so the k-independent
    assembly plan is built once per mesh batch instead of once per
    frequency. Payloads are bit-identical to running each job alone —
    the estimators' point streams and block boundaries are the same,
    and kernel values do not depend on which tables serve them
    (tests/test_multifreq_stack.py asserts this) — and per-job content
    hashes, cache entries, and wire encoding are untouched. Jobs of
    different scenarios run one at a time, one payload per job in
    order. A failure raises, as in
    :func:`execute_job`; :func:`execute_group_isolated` is the caller
    that isolates it.

    The measured group wall time is split over the jobs in proportion to
    their :func:`repro.engine.cost.estimate_job_cost` weight, so the
    scheduler's :class:`~repro.telemetry.CostCalibrator` still receives
    one plausible ``(cost, wall)`` observation per job. Telemetry spans
    (when enabled) describe the shared solve and ride on the first
    payload only, under one ``job`` span (``job_group`` for a stack of
    two or more).
    """
    jobs = list(jobs)
    if not jobs:
        return []
    first = jobs[0]
    groupable = all(job.scenario.key == first.scenario.key
                    and job.estimator == first.estimator
                    for job in jobs[1:])
    if not groupable:
        return [execute_job(job) for job in jobs]
    start = time.perf_counter()
    with record_spans() as spans, span(
            "job" if len(jobs) == 1 else "job_group",
            scenario=first.scenario.name,
            frequency_hz=float(first.frequency_hz),
            estimator=first.estimator_label, key=first.key, jobs=len(jobs)):
        per_job = _run_job_group(jobs)
    wall = time.perf_counter() - start

    from .cost import estimate_job_cost
    weights = [estimate_job_cost(job) for job in jobs]
    total = float(sum(weights))
    pid = os.getpid()
    payloads = []
    for i, (mean, std, values, n_evals, seed) in enumerate(per_job):
        share = weights[i] / total if total > 0.0 else 1.0 / len(jobs)
        payload = {
            "mean": float(mean),
            "std": float(std),
            "values": values,
            "n_evals": int(n_evals),
            "seed": seed,
            "wall_time_s": wall * share,
            "pid": pid,
        }
        if spans and i == 0:
            payload["spans"] = spans
        payloads.append(payload)
    return payloads


def execute_group_isolated(jobs: list[Job]
                           ) -> list[tuple[dict | None, str | None]]:
    """Run one job group so that a bad job fails only itself.

    Returns ``(payload, None)`` or ``(None, error)`` per job, in order.
    A healthy group runs once through :func:`execute_job_group`. Only
    when the group raises and has two or more members does each member
    run alone, so its stackmates still complete; each such fallback
    counts in ``repro_engine_group_fallbacks_total``. A lone job that
    raises reports its own error without a retry.
    """
    jobs = list(jobs)
    try:
        return [(payload, None) for payload in execute_job_group(jobs)]
    except Exception as exc:  # noqa: BLE001 — reported per job
        if len(jobs) < 2:
            return [(None, _describe(exc))]
    _M_GROUP_FALLBACKS.inc()
    results: list[tuple[dict | None, str | None]] = []
    for job in jobs:
        try:
            results.append((execute_job(job), None))
        except Exception as exc:  # noqa: BLE001 — reported per job
            results.append((None, _describe(exc)))
    return results


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_job_group(jobs: list[Job]) -> list[tuple]:
    """One ``(mean, std, values, n_evals, seed)`` tuple per job."""
    scenario = jobs[0].scenario
    freqs = [float(job.frequency_hz) for job in jobs]
    est = jobs[0].estimator
    if isinstance(scenario, DeterministicScenario):
        from ..constants import METER_TO_UM
        from ..swm.geometry import build_mesh_3d

        solver = _solver_for(scenario)
        # Bounds memory, not values: the memoized solver would otherwise
        # keep every surface's tables alive; tables amortize within the
        # group.
        solver.reset_tables()
        # Mesh construction matches SWMSolver3D.solve exactly.
        heights_um = np.asarray(scenario.heights_m,
                                dtype=np.float64) * METER_TO_UM
        mesh = build_mesh_3d(heights_um,
                             float(scenario.period_m) * METER_TO_UM)
        stacks = solver.solve_mesh_many_multi_k([mesh], freqs)
        out = []
        for results in stacks:
            e = results[0].enhancement
            out.append((float(e), 0.0, np.array([e], dtype=np.float64),
                        1, None))
        return out
    if isinstance(scenario, ProfileScenario):
        from ..swm.geometry import build_mesh_2d

        gen, solver = _profile_components(scenario)
        # Bounds memory, not values: without the release, a memoized
        # solver holds the Kummer tables of every frequency it has
        # solved. The reserve sizes the group's tables for the surface
        # model, not for its first sample, so a group's build cost does
        # not depend on which samples its seed draws.
        solver.reset_tables(z_reserve=PROFILE_TABLE_RANGE_SIGMAS
                            * gen.correlation.sigma)
        period_um = float(scenario.period_um)

        def realize(xis: np.ndarray) -> list:
            # Matches solve_um / solve_many_um mesh construction.
            return [build_mesh_2d(np.asarray(gen.from_white_noise(xi),
                                             dtype=np.float64), period_um)
                    for xi in xis]

        return _estimate_group(est, int(scenario.n), realize, solver,
                               int(scenario.n), freqs)

    from ..swm.geometry import build_meshes_3d

    model = _model_for(scenario)
    # Bounds memory, not values: without the release, a memoized model
    # holds the tables of every frequency it has solved.
    model.solver.reset_tables()
    period_um = float(model.period_um)

    def realize(xis: np.ndarray) -> list:
        # Surfaces one at a time (a stacked KL realize is a gemm, not
        # the per-sample gemv), then all their slopes from one FFT.
        return build_meshes_3d(
            np.stack([np.asarray(model.surface_from_xi(xi),
                                 dtype=np.float64) for xi in xis]),
            period_um)

    return _estimate_group(est, int(model.dimension), realize, model.solver,
                           int(model.n) ** 2, freqs)


#: Solver chunks per engine block: a block's meshes are realized
#: together and solved in one call, whose buffers serve every chunk.
_BLOCK_CHUNKS = 8


def _estimate_group(est, dim: int, realize, solver, unknowns: int,
                    freqs: list[float]) -> list[tuple]:
    """Run one estimator over the frequency stack; one tuple per freq.

    Walks the estimator's own evaluation-point stream
    (:func:`~repro.stochastic.montecarlo.sample_blocks` or
    :func:`~repro.stochastic.sscm.node_blocks`) block by block: each
    block's meshes (``unknowns`` points each) are realized once, by one
    ``realize(xis)`` call, and solved at every frequency in one stacked
    call. A block is :data:`_BLOCK_CHUNKS` of the solver's budgeted
    chunks (:meth:`~repro.swm.solver.SWMSolver3D.chunk_size`), so the
    solver's byte budget alone decides how the points stack. Blocks and
    chunks only group the stream, so grouped values are bit-identical
    to the public estimators' runs.
    """
    from ..stochastic.montecarlo import MonteCarloResult, sample_blocks
    from ..stochastic.sparsegrid import smolyak_grid
    from ..stochastic.sscm import node_blocks, reproject_node_values

    block = _BLOCK_CHUNKS * solver.chunk_size(unknowns)
    if est.kind == "sscm":
        blocks = node_blocks(smolyak_grid(dim, est.order), block)
    else:
        blocks = sample_blocks(dim, int(est.n_samples), est.seed, block)
    columns = []
    for xis in blocks:
        stacks = solver.solve_mesh_many_multi_k(realize(xis), freqs)
        columns.append([[r.enhancement for r in results]
                        for results in stacks])
    values = np.concatenate(columns, axis=1)  # (F, S) enhancements
    out = []
    for row in values:
        if est.kind == "sscm":
            res = reproject_node_values(row, dim, est.order)
            out.append((res.mean, res.std,
                        np.asarray(res.node_values, dtype=np.float64),
                        res.n_samples, None))
        else:
            res = MonteCarloResult(samples=row, seed=est.seed)
            out.append((res.mean, res.std,
                        np.asarray(res.samples, dtype=np.float64),
                        res.n_samples, est.seed))
    return out


def clear_memo() -> None:
    """Drop the calling thread's memoized models (tests; long-lived
    servers between sweeps)."""
    _thread_memo().clear()
