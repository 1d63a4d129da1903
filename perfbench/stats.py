"""Order statistics and cost arithmetic shared by the harness and the worker.

Standard library only: the harness imports this module before it knows
whether the checkout holds a runnable program.
"""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with >= 10 of ``n`` samples
    beyond it, or ``None`` when even p75 has fewer (n < 40)."""
    for p in TAIL_PERCENTILES:
        # Round before flooring: 1000 * 1% must count as 10, not 9.99.
        if math.floor(round(n * (100.0 - p) / 100.0, 9)) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sequence")
    pos = (len(data) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return float(statistics.median(float(v) for v in values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    data = [float(v) for v in values]
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def within_rtol(value: float, reference: float, rtol: float) -> bool:
    """``|value - reference| <= rtol * |reference|`` (absolute ``rtol``
    when the reference is exactly zero)."""
    scale = abs(reference) if reference != 0.0 else 1.0
    return abs(float(value) - float(reference)) <= rtol * scale


# ----------------------------------------------------------------------
# Solver cost arithmetic
# ----------------------------------------------------------------------

def kernel_entries(batch: int, freqs: int, n: int) -> int:
    """Green's-function matrix entries one ``assemble`` call fills:
    ``batch`` samples x ``freqs`` frequencies x an N x N block x 2
    media."""
    return int(batch) * int(freqs) * int(n) * int(n) * 2


def factor_flops(batch: int, n: int) -> float:
    """Real flops of ``batch`` complex LU solves of the 2N x 2N system:
    getrf's (8/3) m^3 plus getrs' 8 m^2 for one right-hand side."""
    m = 2 * int(n)
    return int(batch) * ((8.0 / 3.0) * m ** 3 + 8.0 * m ** 2)
