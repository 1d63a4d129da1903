"""Parallel sweep-execution engine with content-addressed result caching.

The paper's methodology is "many deterministic SWM solves per statistics
point"; this subsystem is the architecture that scales it. A sweep is
declared once (:class:`SweepSpec`: scenarios x frequencies x
estimators), executed by any :class:`Executor`, and every point is keyed
by a content hash of its physics inputs so results replay for free from
the two-tier :class:`ResultCache`.

Quickstart::

    from repro.constants import GHZ, UM
    from repro.core import StochasticLossConfig
    from repro.engine import (EstimatorSpec, ParallelExecutor, ResultCache,
                              StochasticScenario, SweepSpec, run_sweep)
    from repro.surfaces import GaussianCorrelation

    spec = SweepSpec(
        scenarios=[StochasticScenario(
            "eta1um", GaussianCorrelation(1 * UM, 1 * UM),
            StochasticLossConfig(points_per_side=10, max_modes=6))],
        frequencies_hz=[2 * GHZ, 5 * GHZ],
        estimators=EstimatorSpec(kind="sscm", order=1))
    result = run_sweep(spec, executor=ParallelExecutor(n_jobs=4),
                       cache=ResultCache(disk_dir="./sweep-cache"))
    result.mean_curve("eta1um")

The high-level pipeline API (:mod:`repro.core`) routes through this
engine, so ``StochasticLossModel.sscm``/``.mean_enhancement`` and
friends accept ``executor=``/``cache=`` directly, and
:func:`engine_session` scopes a default policy for code (like the
experiment classes behind :mod:`repro.api`) that never mentions the
engine.

:func:`run_batch` generalizes :func:`run_sweep` to several named specs
executed as one merged job stream (cross-sweep deduplication by content
hash, per-sweep progress attribution) — the mechanism behind
``repro.api.run_many``. Heterogeneous figures use ``SweepSpec``'s
``estimator_map`` (per-scenario estimators) and
:class:`ProfileScenario` (2D y-uniform processes) alongside the 3D
stochastic and deterministic scenarios.
"""

from .api import (
    cache_split,
    default_cache,
    engine_session,
    run_batch,
    run_sweep,
)
from .cache import CacheStats, ResultCache
from .executors import Executor, ParallelExecutor, SerialExecutor
from .results import PointResult, SweepResult
from .runtime import clear_memo, execute_job, seed_model
from .spec import (
    ENGINE_VERSION,
    DeterministicScenario,
    EstimatorSpec,
    Job,
    ProfileScenario,
    StochasticScenario,
    SweepSpec,
    content_hash,
    correlation_spec,
)

__all__ = [
    "ENGINE_VERSION",
    "CacheStats",
    "DeterministicScenario",
    "EstimatorSpec",
    "Executor",
    "Job",
    "ParallelExecutor",
    "PointResult",
    "ProfileScenario",
    "ResultCache",
    "SerialExecutor",
    "StochasticScenario",
    "SweepResult",
    "SweepSpec",
    "cache_split",
    "clear_memo",
    "content_hash",
    "correlation_spec",
    "default_cache",
    "engine_session",
    "execute_job",
    "run_batch",
    "run_sweep",
    "seed_model",
]
