"""Batched 2D profile solves: the batched MC hot path vs the per-sample
loop.

The workload is a quick-scale slice of the paper's Fig. 6 comparison —
the 2D (ridged-surface) Monte-Carlo curves that demonstrate 2D roughness
models underestimate loss: Gaussian CF, sigma = eta = 1 um, 96-point
profile on a 5 um period (fig6's quick-scale 2D grid), 16 samples at
5 GHz. Measured both ways through the same estimator:

- per-sample: ``MonteCarloEstimator.run(batch_size=None)`` — one 2D
  assemble + LU round trip per sample;
- batched: ``run(batch_size=S)`` through
  ``SWMSolver2D.solve_many_um`` — sample systems assembled with the
  sample axis vectorized on one ``AssemblyPlan2D``, both media's kernel
  read from their Kummer offset tables in one fused lookup
  (``AssemblyPlan2D.write``), stacked ``(B, 2n, 2n)`` and
  factored via batched ``np.linalg.solve``.

Both paths share one solver, so the per-sample loop reuses the tables
the first samples built (growing them when a taller sample arrives) and
the table build no longer dominates either side. Samples must come back
**bit-identical** (same seed stream, same tables' bits, same LAPACK);
the benchmark asserts that before it reports throughput. On a 2-vCPU
host with one BLAS thread the ratio measured 0.92-1.17x with the
per-pair Kummer mode loop and 0.97-1.06x with the tables, both sides
about 4.5x faster with the tables (per-sample 0.58-0.81 s -> 0.12-0.17
s). With the tables built as a mode-matrix product and the near-pair
Hankel terms from the fused small-argument series it measured
1.08-1.10x, against 0.96-1.01x just before them (per-sample 0.12-0.13
s -> 0.08-0.09 s).
The default wall-clock floor is 1.2 (CI keeps it); set
``REPRO_BENCH_2D_MIN_SPEEDUP=0`` to record timings without gating.

Run under pytest (``pytest benchmarks/bench_batched_2d.py``) or
directly (``python benchmarks/bench_batched_2d.py --output out.json``)
to write the JSON summary CI uploads with the experiment artifacts.
"""

import argparse
import json
import os
import time
import warnings

import numpy as np

from repro.constants import GHZ
from repro.stochastic.montecarlo import MonteCarloEstimator
from repro.surfaces import GaussianCorrelation, ProfileGenerator
from repro.swm.solver2d import SWMSolver2D

#: fig6 quick-scale 2D workload: n = max(96, 8 * n3) profile points,
#: n_samples = max(16, mc_samples // 2) seeded MC samples.
N_SAMPLES = int(os.environ.get("REPRO_BENCH_2D_SAMPLES", "16"))
N_POINTS = int(os.environ.get("REPRO_BENCH_2D_POINTS", "96"))
PERIOD_UM = 5.0
FREQUENCY_HZ = 5 * GHZ
SEED = 0
#: CI wall-clock floor. The ratios measured on a 2-vCPU host (module
#: docstring) sit below it; ROADMAP item 2 tracks the stale floor.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_2D_MIN_SPEEDUP", "1.2"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))


def _models():
    """Scalar and batched xi -> enhancement maps for the public
    :class:`MonteCarloEstimator`: white noise -> profile -> 2D solve."""
    gen = ProfileGenerator(GaussianCorrelation(sigma=1.0, eta=1.0),
                           period=PERIOD_UM, n=N_POINTS, normalize=True)
    solver = SWMSolver2D()

    def model(xi: np.ndarray) -> float:
        profile = gen.from_white_noise(xi)
        return solver.solve_um(profile, PERIOD_UM, FREQUENCY_HZ).enhancement

    def batch_model(xis: np.ndarray) -> np.ndarray:
        profiles = np.stack([gen.from_white_noise(xi) for xi in xis])
        results = solver.solve_many_um(profiles, PERIOD_UM, FREQUENCY_HZ)
        return np.array([r.enhancement for r in results], dtype=np.float64)

    return model, batch_model


def measure() -> dict:
    """Time both paths (best of REPEATS) and verify bit-identity."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model, batch_model = _models()
        est = MonteCarloEstimator(model, N_POINTS, batch_model=batch_model)
        est.run(min(4, N_SAMPLES), seed=SEED)  # warm imports/allocators
        times: dict[str, float] = {}
        samples: dict[str, np.ndarray] = {}
        for name, bs in (("per_sample", None), ("batched", N_SAMPLES)):
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                res = est.run(N_SAMPLES, seed=SEED, batch_size=bs)
                best = min(best, time.perf_counter() - start)
            times[name] = best
            samples[name] = res.samples
    bit_identical = bool(np.array_equal(samples["per_sample"],
                                        samples["batched"]))
    speedup = times["per_sample"] / times["batched"]
    return {
        "workload": {
            "figure": "fig6-style 2D MC batch",
            "profile_points": N_POINTS,
            "period_um": PERIOD_UM,
            "n_samples": N_SAMPLES,
            "frequency_ghz": FREQUENCY_HZ / GHZ,
            "seed": SEED,
        },
        "per_sample_s": times["per_sample"],
        "batched_s": times["batched"],
        "per_sample_throughput": N_SAMPLES / times["per_sample"],
        "batched_throughput": N_SAMPLES / times["batched"],
        "speedup": speedup,
        "bit_identical": bit_identical,
        "min_speedup_gate": MIN_SPEEDUP,
    }


def _report(summary: dict) -> None:
    print(f"per-sample: {summary['per_sample_s']:7.3f} s  "
          f"({summary['per_sample_throughput']:.1f} samples/s)")
    print(f"batched:    {summary['batched_s']:7.3f} s  "
          f"({summary['batched_throughput']:.1f} samples/s)  "
          f"speedup x{summary['speedup']:.2f}")
    print(f"bit-identical samples: {summary['bit_identical']}")


def test_batched_2d_speedup():
    summary = measure()
    print()
    _report(summary)
    assert summary["bit_identical"], \
        "batched 2D MC samples diverged from the per-sample loop"
    assert summary["speedup"] >= MIN_SPEEDUP, \
        f"batched 2D speedup x{summary['speedup']:.2f} below x{MIN_SPEEDUP}"


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
        raise SystemExit("batched 2D samples are not bit-identical")
    if summary["speedup"] < MIN_SPEEDUP:
        raise SystemExit(
            f"speedup x{summary['speedup']:.2f} below gate x{MIN_SPEEDUP}")


if __name__ == "__main__":
    main()
