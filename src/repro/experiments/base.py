"""Experiment abstraction: declarative plan/reduce over the sweep engine.

An :class:`Experiment` is one figure/table of the paper expressed as

- ``plan(scale) -> SweepSpec | None`` — every solver-backed point of the
  figure (all scenarios x frequencies x estimators) as **one**
  declarative spec, so the engine can run a whole figure (or, via
  :func:`repro.engine.run_batch`, the whole figure set) as a single
  parallel, content-addressed job stream. Experiments with no SWM
  solves (Fig. 2's statistics round trip, Table I's counts) return
  ``None``.
- ``reduce(sweep, scale) -> ExperimentResult`` — series assembly from
  the executed sweep plus the closed-form baselines and the qualitative
  checks encoding the figure's claims. Reduction is cheap and
  deterministic: it performs no solver calls, so a cached sweep replays
  the entire figure for free.

:class:`ExperimentResult` is the common output container; it renders as
a paper-style text table and serializes to JSON for machine-readable
artifacts.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..engine import ResultCache, SweepResult, SweepSpec
    from ..engine.api import ProgressFn
    from ..engine.executors import Executor
    from .presets import Scale


@dataclass
class ExperimentResult:
    """A reproduced table/figure: named series over a shared x-axis.

    ``series`` maps a legend label to a 1D array aligned with ``x``.
    ``checks`` collects named boolean shape assertions (the qualitative
    claims the paper's figure makes), so benches can both print the data
    and verify the story.
    """

    experiment: str
    description: str
    x_label: str
    x: np.ndarray
    series: dict[str, np.ndarray] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add_series(self, label: str, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.x.shape:
            raise ValueError(
                f"series {label!r} shape {values.shape} does not match "
                f"x shape {self.x.shape}"
            )
        self.series[label] = values

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = bool(passed)

    def all_checks_pass(self) -> bool:
        return all(self.checks.values()) if self.checks else True

    def failing_checks(self) -> list[str]:
        """Names of the checks that failed, in insertion order."""
        return [name for name, ok in self.checks.items() if not ok]

    def to_dict(self) -> dict:
        """JSON-ready dict of the full result (arrays become lists)."""
        return {
            "experiment": self.experiment,
            "description": self.description,
            "x_label": self.x_label,
            "x": np.asarray(self.x, dtype=np.float64).tolist(),
            "series": {label: np.asarray(values, dtype=np.float64).tolist()
                       for label, values in self.series.items()},
            "checks": dict(self.checks),
            "all_checks_pass": self.all_checks_pass(),
            "notes": list(self.notes),
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The result as a JSON document (machine-readable artifact)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def format_table(self, float_fmt: str = "{:8.4f}") -> str:
        """Render the series as a fixed-width text table (paper-style)."""
        labels = list(self.series)
        header = f"{self.x_label:>12} | " + " | ".join(
            f"{lab:>18}" for lab in labels)
        lines = [self.experiment, self.description, "-" * len(header), header,
                 "-" * len(header)]
        for i, xv in enumerate(self.x):
            row = f"{xv:12.4g} | " + " | ".join(
                f"{float_fmt.format(self.series[lab][i]):>18}"
                for lab in labels)
            lines.append(row)
        lines.append("-" * len(header))
        for name, ok in self.checks.items():
            lines.append(f"check {name}: {'PASS' if ok else 'FAIL'}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


class Experiment(ABC):
    """One paper figure/table as a declarative plan/reduce pair.

    Subclasses set ``name`` (the registry key, e.g. ``"fig3"``) and
    ``title`` (the paper label, e.g. ``"Fig. 3"``); constructor
    parameters capture the physics knobs the old module-level ``run``
    signatures exposed, so non-default variants stay expressible.
    """

    #: registry key (``repro.api.run(name)``)
    name: str = ""
    #: paper label for tables/logs
    title: str = ""

    @abstractmethod
    def plan(self, scale: Scale) -> SweepSpec | None:
        """Every solver-backed point of the figure as one spec.

        Returns ``None`` for experiments with no SWM solves.
        """

    @abstractmethod
    def reduce(self, sweep: SweepResult | None, scale: Scale
               ) -> ExperimentResult:
        """Assemble series/checks from an executed sweep (no solves)."""

    def run(self, scale: Scale | str | None = None,
            executor: Executor | None = None,
            cache: ResultCache | None = None,
            progress: ProgressFn | None = None) -> ExperimentResult:
        """plan -> run_sweep -> reduce under the active engine policy."""
        from ..engine import run_sweep
        from .presets import resolve_scale

        scale = resolve_scale(scale)
        spec = self.plan(scale)
        sweep = None
        if spec is not None:
            sweep = run_sweep(spec, executor=executor, cache=cache,
                              progress=progress)
        return self.reduce(sweep, scale)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
