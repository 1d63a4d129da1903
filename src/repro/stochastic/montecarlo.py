"""Monte-Carlo estimation of the stochastic loss factor (the baseline
SSCM is compared against in Fig. 7 / Table I).

Generic over the model: any callable mapping a standard-normal vector
``xi`` (length M) to a scalar. Seeded, batched, with running confidence
intervals and the empirical CDF the paper plots.

Vectorized-model protocol: a second callable mapping an ``(S, M)`` block
of standard-normal vectors to ``(S,)`` values (e.g. a batched SWM solve,
:meth:`repro.core.StochasticLossModel.enhancement_batch_model`) can be
attached as ``batch_model``; ``run(..., batch_size=...)`` then evaluates
samples in stacked blocks. The xi stream is drawn block-wise from the
same bit stream the per-sample loop consumes (``standard_normal((S, M))``
fills row-major), so a correct batch model makes batched runs
bit-identical to per-sample runs. :func:`sample_blocks` is that stream;
the sweep engine walks it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..errors import StochasticError

#: Vectorized model: an (S, M) block of standard normals -> (S,) values.
BatchModel = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MonteCarloResult:
    """Ensemble summary of a Monte-Carlo run.

    Requires at least two samples: ``std``/``stderr`` (and hence the
    confidence interval) use ``ddof=1`` and are undefined — silent NaNs —
    for a single sample, so construction validates instead.
    """

    samples: np.ndarray
    seed: int | None

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 2:
            raise StochasticError(
                "MonteCarloResult needs a 1D array of >= 2 samples "
                f"(std/stderr are undefined below that), got shape "
                f"{samples.shape}"
            )
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        return float(np.std(self.samples, ddof=1))

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        return self.std / np.sqrt(self.n_samples)

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI for the mean (default 95%)."""
        half = z * self.stderr
        return (self.mean - half, self.mean + half)

    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Empirical CDF ``(x, F(x))`` — the paper's Fig. 7 curves."""
        x = np.sort(self.samples)
        f = (np.arange(1, x.size + 1)) / x.size
        return x, f

    def quantile(self, q: float) -> float:
        """Empirical quantile of the loss factor."""
        if not (0.0 <= q <= 1.0):
            raise StochasticError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(self.samples, q))


class _RunningMoments:
    """Welford running mean/variance (O(1) per sample, numerically stable).

    Replaces the full-array ``np.mean``/``np.std`` recomputation the
    adaptive loop used to do after every batch (O(n^2) over a run).
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def push(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)

    def push_block(self, values: np.ndarray) -> None:
        for x in values:
            self.push(float(x))

    @property
    def stderr(self) -> float:
        """Standard error of the mean (ddof=1); NaN below two samples."""
        if self.count < 2:
            return math.nan
        return math.sqrt(self._m2 / (self.count - 1)) / math.sqrt(self.count)


def sample_blocks(dimension: int, n_samples: int, seed: int | None,
                  batch_size: int | None = None) -> Iterator[np.ndarray]:
    """The Monte-Carlo evaluation points: the seeded xi stream in blocks.

    Yields ``(take, dimension)`` blocks of ``batch_size`` rows (the last
    one shorter), or of one row when ``batch_size`` is None, drawn from
    one ``default_rng(seed)``. ``standard_normal((take, M))`` fills
    row-major, so the block shape never changes the draws: row ``s`` is
    the ``s``-th xi of every run with this seed. :class:`MonteCarloEstimator`
    and the sweep engine both walk this one stream.
    """
    rng = np.random.default_rng(seed)
    step = 1 if batch_size is None else batch_size
    done = 0
    while done < n_samples:
        take = min(step, n_samples - done)
        yield rng.standard_normal((take, dimension))
        done += take


def evaluate_block(model: Callable[[np.ndarray], float],
                   batch_model: BatchModel | None,
                   points: np.ndarray) -> np.ndarray:
    """Model values at the rows of an ``(S, M)`` block of points.

    One stacked ``batch_model`` call when one is given, else one
    ``model`` call per row; the estimators evaluate every block here.
    """
    if batch_model is None:
        return np.array([float(model(x)) for x in points], dtype=np.float64)
    values = np.asarray(batch_model(points), dtype=np.float64)
    if values.shape != (len(points),):
        raise StochasticError(
            f"batch model returned shape {values.shape} for a "
            f"{points.shape} input; expected ({len(points)},)"
        )
    return values


class MonteCarloEstimator:
    """Plain Monte-Carlo over a ``xi -> scalar`` model.

    Parameters
    ----------
    model:
        Callable mapping a length-``dimension`` standard normal vector to
        a float (e.g. KL realize -> SWM solve -> Pr/Ps).
    dimension:
        Number of independent standard normals.
    batch_model:
        Optional vectorized model mapping an ``(S, M)`` block to ``(S,)``
        values; enables the ``batch_size`` fast path of :meth:`run` and
        block evaluation in :meth:`run_until`.
    """

    def __init__(self, model: Callable[[np.ndarray], float],
                 dimension: int,
                 batch_model: BatchModel | None = None) -> None:
        if dimension < 1:
            raise StochasticError(f"dimension must be >= 1, got {dimension}")
        self.model = model
        self.dimension = int(dimension)
        self.batch_model = batch_model

    def run(self, n_samples: int, seed: int | None = None,
            progress: Callable[[int, int], None] | None = None,
            batch_size: int | None = None) -> MonteCarloResult:
        """Draw ``n_samples`` evaluations of the model.

        ``batch_size`` evaluates samples in stacked blocks through
        ``batch_model`` (ignored when no batch model was provided);
        results are bit-identical to the per-sample loop for a batch
        model consistent with ``model``. ``progress`` counts samples in
        both modes.
        """
        if n_samples < 2:
            raise StochasticError(f"need >= 2 samples, got {n_samples}")
        if batch_size is not None and batch_size < 1:
            raise StochasticError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        # Batched only with both a batch size and a batch model; a
        # per-sample run is a run in blocks of one.
        if self.batch_model is None:
            batch_size = None
        batch_model = self.batch_model if batch_size is not None else None
        values = np.empty(n_samples, dtype=np.float64)
        done = 0
        for xi in sample_blocks(self.dimension, n_samples, seed, batch_size):
            values[done:done + len(xi)] = evaluate_block(
                self.model, batch_model, xi)
            done += len(xi)
            if progress is not None:
                progress(done, n_samples)
        return MonteCarloResult(samples=values, seed=seed)

    def run_until(self, rel_stderr: float, batch: int = 32,
                  max_samples: int = 10000, seed: int | None = None
                  ) -> MonteCarloResult:
        """Sample in batches until the relative standard error target.

        This is the "5000 samples for 1% convergence" cost the paper
        quotes for MC; the adaptive loop lets tests bound runtimes.
        The final batch is clamped so the run never exceeds
        ``max_samples``, and convergence is tracked with running
        (Welford) moments — O(n) over the whole run. When a
        ``batch_model`` is attached, each batch is evaluated as one
        stacked block (same xi stream, bit-identical samples).
        """
        if rel_stderr <= 0.0:
            raise StochasticError(
                f"rel_stderr must be positive, got {rel_stderr}"
            )
        if batch < 1:
            raise StochasticError(f"batch must be >= 1, got {batch}")
        if max_samples < 2:
            raise StochasticError(
                f"max_samples must be >= 2, got {max_samples}"
            )
        values = np.empty(max_samples, dtype=np.float64)
        moments = _RunningMoments()
        count = 0
        for xi in sample_blocks(self.dimension, max_samples, seed, batch):
            block = evaluate_block(self.model, self.batch_model, xi)
            values[count:count + len(block)] = block
            moments.push_block(block)
            count += len(block)
            if count >= 2:
                mean, stderr = moments.mean, moments.stderr
                if mean != 0.0 and stderr / abs(mean) < rel_stderr:
                    break
        return MonteCarloResult(samples=values[:count].copy(), seed=seed)
