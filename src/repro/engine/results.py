"""Structured sweep results with per-point provenance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from .spec import Job


@dataclass(frozen=True)
class PointResult:
    """One executed (or cache-served) sweep point.

    ``values`` holds the raw evaluations behind the summary statistics:
    SSCM sparse-grid node values, Monte-Carlo samples, or the single
    deterministic enhancement. Provenance fields record how the number
    was obtained, not just what it is.
    """

    scenario: str
    frequency_hz: float
    estimator: str
    key: str
    mean: float
    std: float
    values: np.ndarray
    n_evals: int
    seed: int | None
    wall_time_s: float
    cache_hit: bool
    pid: int | None = None
    #: Telemetry span dicts recorded while this point executed (None
    #: unless :mod:`repro.telemetry` was enabled in the worker).
    spans: tuple | list | None = None

    @classmethod
    def from_payload(cls, job: Job, payload: Mapping[str, Any],
                     cache_hit: bool) -> PointResult:
        """The point of ``job`` from its executed or cache-served
        payload. :func:`~repro.engine.run_batch` and the service
        scheduler both build their points here, so a sweep run in
        process and one run by the service agree field for field."""
        return cls(
            scenario=job.scenario.name,
            frequency_hz=float(job.frequency_hz),
            estimator=job.estimator_label,
            key=job.key,
            mean=payload["mean"],
            std=payload["std"],
            values=payload["values"],
            n_evals=payload["n_evals"],
            seed=payload["seed"],
            wall_time_s=payload["wall_time_s"],
            cache_hit=cache_hit,
            pid=payload.get("pid"),
            spans=payload.get("spans"),
        )


@dataclass(frozen=True)
class SweepResult:
    """All points of one executed :class:`~repro.engine.spec.SweepSpec`.

    Points are stored in the spec's job order (scenario-major); the
    accessors below reshape them into the frequency curves the
    experiments plot.
    """

    frequencies_hz: tuple[float, ...]
    points: tuple[PointResult, ...]
    tags: Mapping[str, Any] = field(default_factory=dict)
    executor: str = "serial"
    wall_time_s: float = 0.0

    # ------------------------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def cache_hits(self) -> int:
        return sum(1 for p in self.points if p.cache_hit)

    @property
    def cache_misses(self) -> int:
        return self.n_points - self.cache_hits

    @property
    def n_evals(self) -> int:
        """Total SWM solves performed (cache hits contribute zero)."""
        return sum(p.n_evals for p in self.points if not p.cache_hit)

    @property
    def scenario_names(self) -> list[str]:
        seen: list[str] = []
        for p in self.points:
            if p.scenario not in seen:
                seen.append(p.scenario)
        return seen

    # ------------------------------------------------------------------

    def _select(self, scenario: str | None,
                estimator: str | None) -> list[PointResult]:
        pts = list(self.points)
        if scenario is not None:
            pts = [p for p in pts if p.scenario == scenario]
        elif len(self.scenario_names) > 1:
            raise ConfigurationError(
                f"sweep has scenarios {self.scenario_names}; "
                "pass scenario=..."
            )
        labels = {p.estimator for p in pts}
        if estimator is not None:
            pts = [p for p in pts if p.estimator == estimator]
        elif len(labels) > 1:
            raise ConfigurationError(
                f"sweep has estimators {sorted(labels)}; pass estimator=..."
            )
        if not pts:
            raise ConfigurationError(
                f"no points match scenario={scenario!r} "
                f"estimator={estimator!r}"
            )
        return pts

    def point(self, scenario: str | None = None,
              frequency_hz: float | None = None,
              estimator: str | None = None) -> PointResult:
        """The unique point matching the selectors."""
        pts = self._select(scenario, estimator)
        if frequency_hz is not None:
            pts = [p for p in pts if p.frequency_hz == float(frequency_hz)]
        if len(pts) != 1:
            raise ConfigurationError(
                f"selector matched {len(pts)} points, expected exactly 1"
            )
        return pts[0]

    def curve(self, scenario: str | None = None, statistic: str = "mean",
              estimator: str | None = None) -> np.ndarray:
        """A per-frequency curve (``statistic`` in ``mean``/``std``)
        aligned with :attr:`frequencies_hz`."""
        if statistic not in ("mean", "std"):
            raise ConfigurationError(
                f"statistic must be 'mean' or 'std', got {statistic!r}"
            )
        pts = self._select(scenario, estimator)
        by_freq = {p.frequency_hz: getattr(p, statistic) for p in pts}
        try:
            return np.array([by_freq[f] for f in self.frequencies_hz],
                            dtype=np.float64)
        except KeyError as exc:
            raise ConfigurationError(
                f"missing frequency {exc.args[0]} in sweep points"
            ) from exc

    def mean_curve(self, scenario: str | None = None,
                   estimator: str | None = None) -> np.ndarray:
        return self.curve(scenario, "mean", estimator)

    # ------------------------------------------------------------------

    def summary(self) -> str:
        """One-line execution summary (for runner/bench logs)."""
        return (f"{self.n_points} points "
                f"({self.cache_hits} cached, {self.cache_misses} computed, "
                f"{self.n_evals} solves) via {self.executor} "
                f"in {self.wall_time_s:.2f} s")
