"""repro.api — one facade over the paper's experiments and the engine.

The single public entry point for reproducing the paper's evaluation::

    import repro.api

    repro.api.experiments()                  # registered names
    repro.api.plan("fig3", scale="quick")    # dry-run: the SweepSpec
    result = repro.api.run("fig3", scale="quick", jobs=4,
                           cache_dir="./sweep-cache")
    results = repro.api.run_many(["fig3", "fig5", "fig7"], jobs=8)

Every experiment is a declarative
:class:`~repro.experiments.base.Experiment`: ``plan(scale)`` describes
all of its solver-backed points as one
:class:`~repro.engine.SweepSpec`, ``reduce`` assembles the figure from
the executed sweep. :func:`run` executes one experiment's spec with a
single engine call, so parallelism spans the whole figure;
:func:`run_many` merges every planned spec into **one** job stream
(:func:`repro.engine.run_batch`), so parallelism — and cross-experiment
job deduplication — spans the entire figure set.

``jobs``/``cache_dir`` scope an :func:`repro.engine.engine_session`
around plan/execute/reduce, so explicit ``executor``/``cache`` objects
(or an enclosing session) remain usable and nested sweeps inside a
``reduce`` inherit the same policy.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .engine import ResultCache, engine_session, run_batch
from .engine.api import ProgressFn
from .engine.executors import Executor
from .engine.spec import SweepSpec
from .errors import ConfigurationError
from .experiments import registry
from .experiments.base import Experiment, ExperimentResult
from .experiments.presets import Scale, resolve_scale

__all__ = [
    "experiments",
    "get",
    "plan",
    "run",
    "run_many",
    "sweeps_for",
]


def experiments() -> list[str]:
    """Names of every registered experiment (sorted)."""
    return registry.names()


def get(name: str, **params) -> Experiment:
    """A fresh :class:`Experiment` instance for ``name``.

    ``params`` forwards to the experiment's constructor (e.g.
    ``get("fig3", sigma_um=2.0)``) for non-default physics variants.
    """
    return registry.create(name, **params)


def plan(name: str, scale: Scale | str | None = None) -> SweepSpec | None:
    """The experiment's declarative job plan, without executing it.

    Returns the single multi-scenario :class:`SweepSpec` covering every
    solver-backed point of the figure, or ``None`` for experiments that
    perform no SWM solves (fig2, table1). Useful for dry-run inspection:
    ``plan("fig3").n_jobs``, per-job content hashes, etc.
    """
    return get(name).plan(resolve_scale(scale))


def run(name: str, scale: Scale | str | None = None, *,
        jobs: int | None = None, cache_dir: str | None = None,
        executor: Executor | None = None, cache: ResultCache | None = None,
        progress: ProgressFn | None = None,
        experiment: Experiment | None = None) -> ExperimentResult:
    """Reproduce one figure/table: plan -> one engine sweep -> reduce.

    ``jobs > 1`` runs the figure's whole job stream (all scenarios x
    frequencies x estimators) on a thread pool; ``cache_dir`` adds a
    persistent result-cache tier so re-runs replay point by point.
    ``experiment`` substitutes a pre-built (e.g. non-default-parameter)
    instance; ``name`` is ignored for lookup then.
    """
    exp = experiment if experiment is not None else get(name)
    scale = resolve_scale(scale)
    with engine_session(n_jobs=jobs, cache_dir=cache_dir,
                        executor=executor, cache=cache):
        return exp.run(scale, progress=progress)


def run_many(names: Iterable[str] | None = None,
             scale: Scale | str | None = None, *,
             jobs: int | None = None, cache_dir: str | None = None,
             executor: Executor | None = None,
             cache: ResultCache | None = None,
             progress: ProgressFn | None = None,
             batch_progress: Callable[[str, int, int], None] | None = None,
             ) -> dict[str, ExperimentResult]:
    """Reproduce several experiments as **one merged job stream**.

    All planned specs execute in a single :func:`repro.engine.run_batch`
    call: the executor sees every pending point of every figure at once
    (parallelism spans the figure set), cacheable points shared between
    experiments are computed once, and cached points are served
    immediately. Results are keyed by experiment name, in the order
    given. ``batch_progress(name, done, total)`` attributes completed
    points to their experiment.
    """
    selected = list(names) if names is not None else experiments()
    if len(set(selected)) != len(selected):
        raise ConfigurationError(
            f"duplicate experiment names in {selected}"
        )
    scale = resolve_scale(scale)
    exps = {name: get(name) for name in selected}
    with engine_session(n_jobs=jobs, cache_dir=cache_dir,
                        executor=executor, cache=cache):
        specs = {name: exp.plan(scale) for name, exp in exps.items()}
        sweeps = run_batch(
            {name: spec for name, spec in specs.items() if spec is not None},
            progress=progress, batch_progress=batch_progress)
        return {name: exp.reduce(sweeps.get(name), scale)
                for name, exp in exps.items()}


def sweeps_for(names: Iterable[str] | None = None,
               scale: Scale | str | None = None,
               ) -> Mapping[str, SweepSpec]:
    """Planned specs for several experiments (dry-run over a set).

    Solve-free experiments are omitted, mirroring what
    :func:`run_many` would actually submit to the engine.
    """
    selected = list(names) if names is not None else experiments()
    scale = resolve_scale(scale)
    specs = {name: get(name).plan(scale) for name in selected}
    return {name: spec for name, spec in specs.items() if spec is not None}
