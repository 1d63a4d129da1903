"""Declarative job model for the sweep-execution engine.

A sweep is the paper's fundamental unit of work: "many deterministic SWM
solves per statistics point", repeated over a cartesian product of
scenarios (surface processes or explicit surfaces) x frequencies x
estimator settings. This module describes that product *declaratively*
so that

- any executor (serial, thread pool, the service's fleet workers) can
  run the same :class:`SweepSpec` and produce identical results;
- every :class:`Job` carries a **stable content hash** derived from the
  physics inputs (correlation parameters, pipeline configuration,
  material system, :class:`~repro.swm.solver.SWMOptions`, resolved grid
  geometry, frequency, estimator), which keys the result cache.

Hashes are computed over a canonical JSON form: floats are rendered via
``float.hex()`` (exact round trip, no repr ambiguity), dict keys are
sorted, and arrays are folded in as ``(shape, dtype, sha256(bytes))``.
Two specs hash equal iff they describe the same computation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence, Union

import numpy as np

from ..errors import ConfigurationError
from ..materials import PAPER_SYSTEM, TwoMediumSystem
from ..surfaces.correlation import CorrelationFunction
from ..swm.solver import SWMOptions
from ..swm.solver2d import SWM2DOptions

#: Bump to invalidate on-disk caches when job semantics change.
ENGINE_VERSION = 1


# ----------------------------------------------------------------------
# Content hashing
# ----------------------------------------------------------------------

def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` (plain dicts, lists, tuples, scalars, arrays) to a
    JSON-stable form with exact float encoding."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        digest = hashlib.sha256(a.tobytes()).hexdigest()
        return {"__ndarray__": [list(a.shape), a.dtype.str, digest]}
    if isinstance(obj, dict):
        return {str(k): _canonical(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    raise ConfigurationError(
        f"cannot canonicalize {type(obj).__name__} for content hashing"
    )


def content_hash(obj: Any) -> str:
    """Stable sha256 hex digest of a canonicalized spec object."""
    return _digest(_canonical(obj))


def _digest(canonical: Any) -> str:
    """sha256 hex digest of an already-canonical object's JSON."""
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def correlation_spec(correlation: CorrelationFunction) -> dict:
    """Hashable description of a correlation function.

    All shipped CFs keep their defining parameters as public attributes
    (``sigma``, ``eta``, ``eta1`` ...), so the generic extraction covers
    user subclasses that follow the same convention. Every public
    attribute must be hashable (scalar, string, or array): silently
    skipping one would let two physically different correlations share
    cache entries. Derived caches belong in underscore attributes.
    """
    params = {}
    for k, v in vars(correlation).items():
        if k.startswith("_"):
            continue
        if isinstance(v, (bool, int, float, str,
                          np.floating, np.integer, np.ndarray)):
            params[k] = v
        else:
            raise ConfigurationError(
                f"correlation {type(correlation).__name__} has public "
                f"attribute {k!r} of unhashable type "
                f"{type(v).__name__}; prefix derived state with '_' or "
                "use a scalar/array parameter"
            )
    if not params:
        raise ConfigurationError(
            f"correlation {type(correlation).__name__} exposes no public "
            "parameters to hash"
        )
    return {"type": type(correlation).__name__, "params": params}


def _system_spec(system: TwoMediumSystem) -> dict:
    return {
        "dielectric": {"eps_r": system.dielectric.eps_r,
                       "mu_r": system.dielectric.mu_r},
        "conductor": {"resistivity": system.conductor.resistivity,
                      "mu_r": system.conductor.mu_r},
    }


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorSpec:
    """Which statistics estimator a stochastic job runs.

    ``kind`` is ``"sscm"`` (sparse-grid collocation, the paper's method;
    uses ``order``) or ``"montecarlo"`` (uses ``n_samples`` and
    ``seed``). Deterministic scenarios ignore the estimator entirely.
    The solver's byte budget, not the estimator, decides how the worker
    stacks its evaluation points.
    """

    kind: str = "sscm"
    order: int = 1
    n_samples: int = 0
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.kind not in ("sscm", "montecarlo"):
            raise ConfigurationError(
                f"estimator kind must be 'sscm' or 'montecarlo', "
                f"got {self.kind!r}"
            )
        if self.kind == "sscm" and self.order < 1:
            raise ConfigurationError(f"order must be >= 1, got {self.order}")
        if self.kind == "montecarlo" and self.n_samples < 2:
            raise ConfigurationError(
                f"montecarlo needs n_samples >= 2, got {self.n_samples}"
            )

    @property
    def cacheable(self) -> bool:
        """Unseeded Monte-Carlo is non-reproducible; never cache it."""
        return self.kind != "montecarlo" or self.seed is not None

    @property
    def label(self) -> str:
        if self.kind == "sscm":
            return f"sscm(order={self.order})"
        return f"montecarlo(n={self.n_samples}, seed={self.seed})"

    def to_spec(self) -> dict:
        if self.kind == "sscm":
            return {"kind": "sscm", "order": self.order}
        return {"kind": "montecarlo", "n_samples": self.n_samples,
                "seed": self.seed}


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StochasticScenario:
    """One random-surface process run through the stochastic pipeline.

    Mirrors the constructor of
    :class:`~repro.core.pipeline.StochasticLossModel`; the engine builds
    (and memoizes) the model lazily in whichever process executes the
    job. ``config = None`` uses the pipeline defaults.
    """

    name: str
    correlation: CorrelationFunction
    config: Any = None  # StochasticLossConfig | None (kept lazy)
    system: TwoMediumSystem = PAPER_SYSTEM
    options: SWMOptions | None = None

    kind = "stochastic"

    def _resolved_config(self):
        if self.config is not None:
            return self.config
        from ..core.pipeline import StochasticLossConfig
        return StochasticLossConfig()

    def to_spec(self) -> dict:
        from dataclasses import asdict
        cfg = self._resolved_config()
        period_m, n = cfg.resolve(self.correlation)
        options = self.options or SWMOptions()
        return {
            "kind": self.kind,
            "correlation": correlation_spec(self.correlation),
            "config": asdict(cfg),
            "system": _system_spec(self.system),
            "options": options.to_spec(),
            "grid": {"period_m": period_m, "points_per_side": n},
        }

    @cached_property
    def key(self) -> str:
        return content_hash(self.to_spec())


@dataclass(frozen=True)
class DeterministicScenario:
    """One explicit surface (e.g. the Fig. 5 half-spheroid boss).

    A job for this scenario is a single SWM solve; estimator settings do
    not apply.
    """

    name: str
    heights_m: np.ndarray
    period_m: float
    system: TwoMediumSystem = PAPER_SYSTEM
    options: SWMOptions | None = None

    kind = "deterministic"

    def __post_init__(self) -> None:
        heights = np.asarray(self.heights_m, dtype=np.float64)
        if heights.ndim != 2:
            raise ConfigurationError(
                f"heights must be a 2D map, got shape {heights.shape}"
            )
        if self.period_m <= 0.0:
            raise ConfigurationError(
                f"period must be positive, got {self.period_m}"
            )
        object.__setattr__(self, "heights_m", heights)

    def to_spec(self) -> dict:
        options = self.options or SWMOptions()
        return {
            "kind": self.kind,
            "heights_m": self.heights_m,
            "period_m": float(self.period_m),
            "system": _system_spec(self.system),
            "options": options.to_spec(),
            "grid": {"shape": list(self.heights_m.shape)},
        }

    @cached_property
    def key(self) -> str:
        return content_hash(self.to_spec())


@dataclass(frozen=True)
class ProfileScenario:
    """One y-uniform (2D) random-profile process (the Fig. 6 baseline).

    The 2D SWM treats the surface as a ridged profile ``f(x)`` extruded
    along y; samples are synthesized with the CF's 1D spectrum by
    :class:`~repro.surfaces.generation.ProfileGenerator` and solved with
    :class:`~repro.swm.solver2d.SWMSolver2D`. By that generator's
    convention, ``correlation`` and ``period_um`` are in **micrometers**
    (unlike :class:`StochasticScenario`, which is SI). The stochastic
    dimension equals ``n`` (one white-noise normal per grid point), so
    Monte-Carlo is the natural estimator; SSCM works but its sparse
    grids grow with ``n``.
    """

    name: str
    correlation: CorrelationFunction
    period_um: float
    n: int
    normalize: bool = True
    system: TwoMediumSystem = PAPER_SYSTEM
    options: SWM2DOptions | None = None

    kind = "profile"

    def __post_init__(self) -> None:
        if self.period_um <= 0.0:
            raise ConfigurationError(
                f"period must be positive, got {self.period_um}"
            )
        if self.n < 4:
            raise ConfigurationError(f"n must be >= 4, got {self.n}")

    def to_spec(self) -> dict:
        options = self.options or SWM2DOptions()
        return {
            "kind": self.kind,
            "correlation": correlation_spec(self.correlation),
            "period_um": float(self.period_um),
            "n": int(self.n),
            "normalize": bool(self.normalize),
            "system": _system_spec(self.system),
            "options": options.to_spec(),
        }

    @cached_property
    def key(self) -> str:
        return content_hash(self.to_spec())


Scenario = Union[StochasticScenario, DeterministicScenario, ProfileScenario]


def _job_spec(scenario_spec: dict, frequency_hz: float,
              estimator: EstimatorSpec | None) -> dict:
    """What a job's content hash covers, around its scenario's spec."""
    est = (estimator.to_spec() if estimator is not None
           else {"kind": "solve"})
    return {
        "engine_version": ENGINE_VERSION,
        "scenario": scenario_spec,
        "frequency_hz": float(frequency_hz),
        "estimator": est,
    }


# ----------------------------------------------------------------------
# Jobs and sweeps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One point of the sweep: a scenario at one frequency under one
    estimator. The atomic unit of scheduling and caching."""

    scenario: Scenario
    frequency_hz: float
    estimator: EstimatorSpec | None
    index: int  # position in the sweep's job order (not hashed)

    def to_spec(self) -> dict:
        return _job_spec(self.scenario.to_spec(), self.frequency_hz,
                         self.estimator)

    @cached_property
    def key(self) -> str:
        """Content hash keying the result cache."""
        return content_hash(self.to_spec())

    @property
    def cacheable(self) -> bool:
        return self.estimator is None or self.estimator.cacheable

    @property
    def estimator_label(self) -> str:
        return self.estimator.label if self.estimator is not None else "solve"

    def cache_metadata(self, tags: Mapping[str, Any]) -> dict:
        """Human-readable provenance stored beside this job's cached
        payload (never part of its key)."""
        return {
            "scenario": self.scenario.name,
            "frequency_hz": float(self.frequency_hz),
            "estimator": self.estimator_label,
            "tags": dict(tags),
        }


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian product of scenarios x frequencies x estimators.

    ``estimator_map`` overrides the shared estimator tuple per scenario
    name, which is how one spec carries a heterogeneous figure (e.g.
    Fig. 6: SSCM on the 3D scenarios, Monte-Carlo on the 2D profile
    baselines) as a single job stream. Scenarios not named in the map
    use ``estimators``.

    ``tags`` is free-form provenance (e.g. ``{"scale": "quick"}``)
    recorded in results and cache metadata but **excluded** from content
    hashes, so annotating a sweep never invalidates warm caches.
    """

    scenarios: tuple[Scenario, ...]
    frequencies_hz: tuple[float, ...]
    estimators: tuple[EstimatorSpec, ...] = (EstimatorSpec(),)
    estimator_map: Mapping[str, tuple[EstimatorSpec, ...]] = field(
        default_factory=dict)
    tags: Mapping[str, Any] = field(default_factory=dict)

    def __init__(self, scenarios: Scenario | Sequence[Scenario],
                 frequencies_hz: float | Iterable[float],
                 estimators: EstimatorSpec | Sequence[EstimatorSpec] = (
                     EstimatorSpec(),),
                 estimator_map: Mapping[
                     str, EstimatorSpec | Sequence[EstimatorSpec]
                 ] | None = None,
                 tags: Mapping[str, Any] | None = None) -> None:
        if isinstance(scenarios, (StochasticScenario, DeterministicScenario,
                                  ProfileScenario)):
            scenarios = (scenarios,)
        scenarios = tuple(scenarios)
        if not scenarios:
            raise ConfigurationError("sweep needs at least one scenario")
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"scenario names must be unique, got {names}"
            )
        freqs = tuple(float(f) for f in
                      np.atleast_1d(np.asarray(frequencies_hz,
                                               dtype=np.float64)))
        if not freqs:
            raise ConfigurationError("sweep needs at least one frequency")
        if any(f <= 0.0 for f in freqs):
            raise ConfigurationError("frequencies must be positive")
        if isinstance(estimators, EstimatorSpec):
            estimators = (estimators,)
        estimators = tuple(estimators)
        if not estimators:
            raise ConfigurationError("sweep needs at least one estimator")
        resolved_map: dict[str, tuple[EstimatorSpec, ...]] = {}
        for scen_name, ests in dict(estimator_map or {}).items():
            if scen_name not in names:
                raise ConfigurationError(
                    f"estimator_map names unknown scenario {scen_name!r} "
                    f"(scenarios: {names})"
                )
            if isinstance(ests, EstimatorSpec):
                ests = (ests,)
            ests = tuple(ests)
            if not ests:
                raise ConfigurationError(
                    f"estimator_map entry for {scen_name!r} is empty"
                )
            resolved_map[scen_name] = ests
        object.__setattr__(self, "scenarios", scenarios)
        object.__setattr__(self, "frequencies_hz", freqs)
        object.__setattr__(self, "estimators", estimators)
        object.__setattr__(self, "estimator_map", resolved_map)
        object.__setattr__(self, "tags", dict(tags or {}))

    def estimators_for(self, scenario: Scenario) -> tuple[EstimatorSpec, ...]:
        """The estimator tuple a scenario actually runs under."""
        return self.estimator_map.get(scenario.name, self.estimators)

    def jobs(self) -> list[Job]:
        """Materialize the cartesian product, scenario-major.

        Each scenario's spec is built and canonicalized once, and every
        job of it is keyed from that: ``_canonical`` maps a dict's
        values one by one, so the key is ``content_hash(job.to_spec())``
        byte for byte. The canonical form is not kept, since a service
        holds the specs of its finished tickets.
        """
        out: list[Job] = []
        for scenario in self.scenarios:
            scenario_spec = _canonical(scenario.to_spec())
            estimators = ((None,) if scenario.kind == "deterministic"
                          else self.estimators_for(scenario))
            for est in estimators:
                for f in self.frequencies_hz:
                    job = Job(scenario, f, est, len(out))
                    canonical = _canonical(_job_spec({}, f, est))
                    canonical["scenario"] = scenario_spec
                    object.__setattr__(job, "key", _digest(canonical))
                    out.append(job)
        return out

    @property
    def n_jobs(self) -> int:
        return len(self.jobs())

    @cached_property
    def key(self) -> str:
        """Content hash of the whole sweep (tags excluded)."""
        payload = {
            "engine_version": ENGINE_VERSION,
            "scenarios": [s.to_spec() for s in self.scenarios],
            "frequencies_hz": list(self.frequencies_hz),
            "estimators": [e.to_spec() for e in self.estimators],
        }
        if self.estimator_map:
            # Included only when present so pre-existing spec hashes
            # (and any cache manifests keyed by them) stay valid.
            payload["estimator_map"] = {
                name: [e.to_spec() for e in ests]
                for name, ests in self.estimator_map.items()
            }
        return content_hash(payload)
