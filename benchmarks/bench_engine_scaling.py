"""Engine scaling: serial vs parallel sweep execution, and cache-hit
replay latency.

The sweep is the Fig. 3-style workload (SSCM mean enhancement over a
frequency grid for several surface processes) — the unit of work every
figure of the paper repeats. Reported numbers:

- serial wall time (the pre-engine baseline execution model);
- parallel wall time + speedup at ``REPRO_BENCH_JOBS`` workers
  (default: half the cores, at least 2);
- warm-cache replay latency (zero SWM solves).
"""

import os
import time
import warnings

import numpy as np
import pytest

from repro.constants import GHZ, UM
from repro.core import StochasticLossConfig
from repro.engine import (
    EstimatorSpec,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    StochasticScenario,
    SweepSpec,
    run_sweep,
)
from repro.surfaces import GaussianCorrelation

N_JOBS = int(os.environ.get("REPRO_BENCH_JOBS",
                            max(2, (os.cpu_count() or 2) // 2)))


def _spec(n_freqs: int = 4) -> SweepSpec:
    scenarios = [
        StochasticScenario(
            f"eta{eta:g}um", GaussianCorrelation(1 * UM, eta * UM),
            StochasticLossConfig(points_per_side=12, max_modes=6))
        for eta in (1.0, 2.0)
    ]
    return SweepSpec(scenarios=scenarios,
                     frequencies_hz=np.linspace(1.0, 5.0, n_freqs) * GHZ,
                     estimators=EstimatorSpec(kind="sscm", order=1),
                     tags={"bench": "engine_scaling"})


def _timed(executor, cache) -> tuple[float, object]:
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_sweep(_spec(), executor=executor, cache=cache)
    return time.perf_counter() - start, result


def test_serial_vs_parallel_speedup():
    serial_s, serial_res = _timed(SerialExecutor(), ResultCache())
    assert serial_res.n_evals > 0

    def parallel():
        return _timed(ParallelExecutor(n_jobs=N_JOBS), ResultCache())

    parallel_s, parallel_res = parallel()
    print(f"\nserial:   {serial_s:7.2f} s  ({serial_res.summary()})")
    print(f"parallel: {parallel_s:7.2f} s  at n_jobs={N_JOBS}  "
          f"speedup x{serial_s / parallel_s:.2f}")
    for name in ("eta1um", "eta2um"):
        diff = np.abs(serial_res.mean_curve(name) -
                      parallel_res.mean_curve(name))
        assert np.max(diff) <= 1e-12


def test_cache_hit_replay_latency(tmp_path):
    cache = ResultCache(disk_dir=tmp_path)
    warm_s, warm_res = _timed(SerialExecutor(), cache)

    def replay():
        # Fresh memory tier: every hit comes off the on-disk store.
        return _timed(SerialExecutor(), ResultCache(disk_dir=tmp_path))

    replay_s, replay_res = replay()
    assert replay_res.cache_hits == replay_res.n_points
    assert replay_res.n_evals == 0
    print(f"\ncold sweep: {warm_s:7.3f} s  ({warm_res.summary()})")
    print(f"warm replay:{replay_s:8.4f} s  "
          f"(x{warm_s / max(replay_s, 1e-9):.0f} faster, zero solves)")
