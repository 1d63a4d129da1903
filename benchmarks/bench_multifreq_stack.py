"""Frequency-stacked job execution vs the per-frequency loop.

The workload is a fig3-style frequency sweep of one stochastic
scenario (Gaussian CF, sigma = eta = 1 um) with a Monte-Carlo
estimator: the same mesh batch solved at every sweep frequency — the
shape the engine's ``execute_job_group`` fuses. Measured both ways
through the same job specs:

- per-frequency: ``execute_job`` once per job — each frequency
  re-realizes the sample meshes and re-derives every k-independent
  assembly intermediate (the pre-fusion execution model);
- stacked: ``execute_job_group`` over the whole frequency stack — the
  meshes are realized once, the k-independent
  :class:`~repro.swm.plan.AssemblyPlan` is built once per estimator
  block, and only the k-dependent scaling + factorization runs per
  frequency.

Payloads must come back **bit-identical** per job (same xi stream,
same estimator chunking, same LAPACK); the benchmark asserts that
before it reports throughput. Reference numbers from the 1-core dev
container: ~1.5x at the quick grid with 6 frequencies, growing with
the frequency count as the plan amortizes further.

Run under pytest (``pytest benchmarks/bench_multifreq_stack.py``) or
directly (``python benchmarks/bench_multifreq_stack.py --output
out.json``) to write the JSON summary CI uploads with the experiment
artifacts.
"""

import argparse
import json
import os
import time
import warnings

import numpy as np

from repro.constants import GHZ, UM
from repro.core import StochasticLossConfig
from repro.engine import EstimatorSpec, StochasticScenario, SweepSpec
from repro.engine.runtime import clear_memo, execute_job, execute_job_group
from repro.surfaces import GaussianCorrelation

#: Quick-scale fig3 shape: a handful of sweep frequencies over one
#: scenario, >= 8 MC samples per frequency.
N_FREQS = int(os.environ.get("REPRO_BENCH_MULTIFREQ_FREQS", "6"))
N_SAMPLES = int(os.environ.get("REPRO_BENCH_MC_SAMPLES", "8"))
POINTS_PER_SIDE = int(os.environ.get("REPRO_BENCH_GRID", "8"))
SEED = 0
#: CI gate: shared-runner benchmarks are noisy, so the hard floor sits
#: well under the dev-container measurement.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MULTIFREQ_MIN_SPEEDUP",
                                   "1.2"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))


def _jobs():
    scenario = StochasticScenario(
        "fig3-mc", GaussianCorrelation(sigma=1 * UM, eta=1 * UM),
        StochasticLossConfig(points_per_side=POINTS_PER_SIDE,
                             max_modes=8))
    freqs = np.linspace(2.0, 12.0, N_FREQS) * GHZ
    est = EstimatorSpec(kind="montecarlo", n_samples=N_SAMPLES, seed=SEED)
    return SweepSpec(scenario, freqs, est).jobs()


def measure() -> dict:
    """Time both paths (best of REPEATS) and verify bit-identity."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        jobs = _jobs()
        execute_job(jobs[0])  # warm imports/allocators/model memo
        times: dict[str, float] = {}
        values: dict[str, list[np.ndarray]] = {}
        runners = {
            "per_frequency": lambda: [execute_job(j) for j in jobs],
            "stacked": lambda: execute_job_group(jobs),
        }
        for name, runner in runners.items():
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                payloads = runner()
                best = min(best, time.perf_counter() - start)
            times[name] = best
            values[name] = [p["values"] for p in payloads]
    bit_identical = all(
        np.array_equal(a, b)
        for a, b in zip(values["per_frequency"], values["stacked"]))
    speedup = times["per_frequency"] / times["stacked"]
    n_solves = len(jobs) * N_SAMPLES
    clear_memo()
    return {
        "workload": {
            "figure": "fig3-style multi-frequency MC sweep",
            "points_per_side": POINTS_PER_SIDE,
            "n_frequencies": len(jobs),
            "n_samples": N_SAMPLES,
            "seed": SEED,
        },
        "per_frequency_s": times["per_frequency"],
        "stacked_s": times["stacked"],
        "per_frequency_throughput": n_solves / times["per_frequency"],
        "stacked_throughput": n_solves / times["stacked"],
        "speedup": speedup,
        "bit_identical": bit_identical,
        "min_speedup_gate": MIN_SPEEDUP,
    }


def _report(summary: dict) -> None:
    print(f"per-frequency: {summary['per_frequency_s']:7.3f} s  "
          f"({summary['per_frequency_throughput']:.1f} solves/s)")
    print(f"stacked:       {summary['stacked_s']:7.3f} s  "
          f"({summary['stacked_throughput']:.1f} solves/s)  "
          f"speedup x{summary['speedup']:.2f}")
    print(f"bit-identical payloads: {summary['bit_identical']}")


def test_multifreq_stack_speedup():
    summary = measure()
    print()
    _report(summary)
    assert summary["bit_identical"], \
        "stacked payloads diverged from the per-frequency loop"
    assert summary["speedup"] >= MIN_SPEEDUP, \
        f"stacked speedup x{summary['speedup']:.2f} below x{MIN_SPEEDUP}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", help="write the JSON summary here")
    args = parser.parse_args()
    summary = measure()
    _report(summary)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
        print(f"summary written to {args.output}")
    if not summary["bit_identical"]:
        raise SystemExit("stacked payloads are not bit-identical")
    if summary["speedup"] < MIN_SPEEDUP:
        raise SystemExit(
            f"speedup x{summary['speedup']:.2f} below gate x{MIN_SPEEDUP}")


if __name__ == "__main__":
    main()
