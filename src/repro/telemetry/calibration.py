"""Online calibration of the plan-level cost model into wall seconds.

The scheduler orders work by :func:`repro.service.scheduler
.estimate_job_cost` — a *relative* ``evals x N^3`` figure with no
absolute scale. This module learns the scale: every committed job
contributes one ``(cost, wall_time_s)`` observation to its scenario
kind's running least-squares fit, and :meth:`CostCalibrator.predict`
turns the cost of a still-pending job into predicted seconds (the
``eta_s`` on ticket status responses).

Fits are kept **per scenario kind** (``stochastic`` / ``profile`` /
``deterministic``) because the kinds have different assembly/factor
mixes — one global slope would let a fleet of cheap 2D profile jobs
drag down the 3D predictions (and vice versa).

The accumulator is a standard five-sum linear regression, centered on
running means for numerical stability (raw costs reach ``1e9+``, so
naive ``sum(x^2)`` would lose precision). With one observation the fit
degrades to the through-origin ratio; with none, :meth:`predict`
returns ``None`` — an honest "no ETA yet", not a guess.

Cache-replayed payloads must never be observed: their ``wall_time_s``
is the *original* compute time, unrelated to this process's hardware or
current load (cache hits never reach the scheduler's commit funnel,
and it skips an upload tagged ``cached: true``).
"""

from __future__ import annotations

import threading

#: Relative weight of one 2D assembly (O(n^2) kernel-table work) in
#: units of n^3 LU flops — assembly dominates small 2D solves, so a
#: pure-LU cost form would undersell them badly at the profile sizes
#: the experiments use (n ~ 30..100).
_PROFILE_ASSEMBLY_WEIGHT = 200.0

#: The single ``job_kind``-keyed table of plan-level cost forms,
#: ``kind -> (evals, n_unknowns) -> relative cost``. Both layers that
#: reason about cost resolve through it — the scheduler's
#: :func:`repro.engine.cost.estimate_job_cost` (queue ordering, grouped
#: wall-time attribution) and this module's per-kind calibration fits —
#: so a new scenario kind cannot get a cost model in one layer but not
#: the other: adding its entry here is the one registration point, and
#: an unregistered kind fails loudly at estimate time instead of
#: silently sorting (and calibrating) as free.
#:
#: 3D kinds solve N x N systems: ``evals * N^3``. 2D profiles solve
#: ``2n x 2n`` systems (incident + scattered blocks), so their LU term
#: is ``(2n)^3 = 8 n^3``, plus the assembly term that dominates at
#: small n.
COST_MODELS: dict = {
    "deterministic": lambda evals, n: float(evals) * float(n) ** 3,
    "stochastic": lambda evals, n: float(evals) * float(n) ** 3,
    "profile": lambda evals, n: float(evals) * (
        8.0 * float(n) ** 3 + _PROFILE_ASSEMBLY_WEIGHT * float(n) ** 2),
}


class _Fit:
    """Running least squares of ``wall_s`` on ``cost`` (Welford-style)."""

    __slots__ = ("n", "mean_x", "mean_y", "sxx", "sxy")

    def __init__(self) -> None:
        self.n = 0
        self.mean_x = 0.0
        self.mean_y = 0.0
        self.sxx = 0.0  # sum (x - mean_x)^2
        self.sxy = 0.0  # sum (x - mean_x)(y - mean_y)

    def observe(self, x: float, y: float) -> None:
        self.n += 1
        dx = x - self.mean_x
        self.mean_x += dx / self.n
        self.mean_y += (y - self.mean_y) / self.n
        # dx uses the pre-update mean, the second factor the post-update
        # one — the textbook covariance update.
        self.sxx += dx * (x - self.mean_x)
        self.sxy += dx * (y - self.mean_y)

    def predict(self, x: float) -> float | None:
        if self.n == 0:
            return None
        if self.sxx <= 0.0:
            # One observation, or all costs identical: scale by ratio.
            if self.mean_x <= 0.0:
                return max(self.mean_y, 0.0)
            return max(self.mean_y / self.mean_x * x, 0.0)
        slope = self.sxy / self.sxx
        intercept = self.mean_y - slope * self.mean_x
        # A negative slope means the cost model is anti-correlated over
        # the observed window (tiny n, noisy timings); the mean is a
        # better estimate than an extrapolated negative time.
        if slope < 0.0:
            return max(self.mean_y, 0.0)
        return max(intercept + slope * x, 0.0)

    def snapshot(self) -> dict:
        slope = self.sxy / self.sxx if self.sxx > 0.0 else (
            self.mean_y / self.mean_x if self.mean_x > 0.0 else None)
        return {
            "n": self.n,
            "mean_cost": self.mean_x,
            "mean_wall_s": self.mean_y,
            "seconds_per_cost_unit": slope,
        }


class CostCalibrator:
    """Thread-safe per-kind ``cost -> seconds`` regression."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._fits: dict[str, _Fit] = {}

    def observe(self, kind: str, cost: float, wall_s: float) -> None:
        """Record one completed job's (estimated cost, measured wall)."""
        if cost < 0.0 or wall_s < 0.0:
            return
        with self._lock:
            fit = self._fits.get(kind)
            if fit is None:
                fit = self._fits[kind] = _Fit()
            fit.observe(float(cost), float(wall_s))

    def predict(self, kind: str, cost: float) -> float | None:
        """Predicted wall seconds for one job, or ``None`` if this kind
        has never been observed."""
        with self._lock:
            fit = self._fits.get(kind)
            return None if fit is None else fit.predict(float(cost))

    def predict_total(self, jobs: list[tuple[str, float]]
                      ) -> float | None:
        """Summed prediction over ``(kind, cost)`` pairs.

        ``None`` if *any* kind is unobserved — a partial sum would be a
        confidently wrong ETA, worse than none.
        """
        total = 0.0
        for kind, cost in jobs:
            predicted = self.predict(kind, cost)
            if predicted is None:
                return None
            total += predicted
        return total

    def observations(self, kind: str) -> int:
        with self._lock:
            fit = self._fits.get(kind)
            return 0 if fit is None else fit.n

    def snapshot(self) -> dict[str, dict]:
        """Per-kind fit summary (the ``/v1/metrics`` companion data)."""
        with self._lock:
            return {kind: fit.snapshot()
                    for kind, fit in self._fits.items()}
