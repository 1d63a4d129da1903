"""Spectral Stochastic Collocation Method (SSCM) — Section III-D.

Pipeline (exactly the paper's): KL-reduce the correlated surface heights
to M independent standard normals -> evaluate the deterministic solver at
the Smolyak sparse-grid nodes -> project onto the order-p Homogeneous
(Hermite) Chaos basis -> read statistics off the cheap surrogate.

The surrogate makes the CDF of Fig. 7 nearly free: 10^5 surrogate
evaluations instead of 10^5 boundary-element solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..errors import StochasticError
from .hermite import chaos_basis_matrix, total_degree_indices
from .montecarlo import evaluate_block
from .sparsegrid import SparseGrid, smolyak_grid


@dataclass(frozen=True)
class SSCMResult:
    """Chaos surrogate of the stochastic loss factor."""

    order: int
    indices: list
    coefficients: np.ndarray
    grid: SparseGrid
    node_values: np.ndarray

    @property
    def n_samples(self) -> int:
        """Number of deterministic solves used (the Table I column)."""
        return self.grid.n_points

    @property
    def mean(self) -> float:
        """Chaos mean = coefficient of the constant basis function."""
        return float(self.coefficients[0])

    @property
    def variance(self) -> float:
        """Chaos variance = sum of squared non-constant coefficients."""
        return float(np.sum(self.coefficients[1:] ** 2))

    @property
    def std(self) -> float:
        return float(np.sqrt(max(self.variance, 0.0)))

    def evaluate(self, xi: np.ndarray) -> np.ndarray:
        """Evaluate the surrogate at (S, M) standard-normal points."""
        psi = chaos_basis_matrix(self.indices, np.atleast_2d(xi))
        return psi @ self.coefficients

    def sample_surrogate(self, n_samples: int = 100000,
                         seed: int | None = 0) -> np.ndarray:
        """Cheap Monte-Carlo on the surrogate (for CDFs/quantiles)."""
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal((n_samples, self.grid.dimension))
        return self.evaluate(xi)

    def cdf(self, n_samples: int = 100000, seed: int | None = 0
            ) -> tuple[np.ndarray, np.ndarray]:
        """Surrogate CDF ``(x, F(x))`` — Fig. 7's SSCM curves."""
        vals = np.sort(self.sample_surrogate(n_samples, seed))
        f = np.arange(1, vals.size + 1) / vals.size
        return vals, f


def node_blocks(grid: SparseGrid, batch_size: int | None = None
                ) -> Iterator[np.ndarray]:
    """The SSCM evaluation points: the Smolyak nodes in order, in blocks.

    Yields ``(take, M)`` views of ``grid.nodes`` of ``batch_size`` rows
    (the last one shorter), or of one row when ``batch_size`` is None.
    :class:`SSCMEstimator` and the sweep engine both walk this stream.
    """
    step = 1 if batch_size is None else batch_size
    for lo in range(0, grid.n_points, step):
        yield grid.nodes[lo:lo + step]


class SSCMEstimator:
    """Order-p SSCM over a ``xi -> scalar`` model.

    Parameters
    ----------
    model:
        Deterministic map from the length-M standard-normal vector to the
        quantity of interest (for the paper: KL surface -> SWM -> Pr/Ps).
    dimension:
        Stochastic dimension M (retained KL modes).
    order:
        Chaos order p; the sparse-grid level equals p (level p integrates
        total degree ``2p + 1``, enough for the order-p projection).
    batch_model:
        Optional vectorized model mapping an ``(S, M)`` block of points
        to ``(S,)`` values (e.g. a batched SWM solve); enables the
        ``batch_size`` fast path of :meth:`run`, which evaluates the
        sparse-grid nodes in stacked blocks.
    """

    def __init__(self, model: Callable[[np.ndarray], float], dimension: int,
                 order: int = 2,
                 batch_model: Callable[[np.ndarray], np.ndarray] | None = None
                 ) -> None:
        if dimension < 1:
            raise StochasticError(f"dimension must be >= 1, got {dimension}")
        if order < 1:
            raise StochasticError(f"order must be >= 1, got {order}")
        self.model = model
        self.dimension = int(dimension)
        self.order = int(order)
        self.batch_model = batch_model

    def run(self, progress: Callable[[int, int], None] | None = None,
            batch_size: int | None = None) -> SSCMResult:
        """Evaluate the model at the sparse-grid nodes and project.

        ``batch_size`` evaluates nodes in stacked blocks through
        ``batch_model`` (ignored when no batch model was provided); a
        batch model consistent with ``model`` gives bit-identical node
        values. ``progress`` counts evaluated nodes in both modes.
        """
        if batch_size is not None and batch_size < 1:
            raise StochasticError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        # Batched only with both a batch size and a batch model; a
        # per-node run is a run in blocks of one.
        if self.batch_model is None:
            batch_size = None
        batch_model = self.batch_model if batch_size is not None else None
        grid = smolyak_grid(self.dimension, self.order)
        values = np.empty(grid.n_points, dtype=np.float64)
        done = 0
        for nodes in node_blocks(grid, batch_size):
            values[done:done + len(nodes)] = evaluate_block(
                self.model, batch_model, nodes)
            done += len(nodes)
            if progress is not None:
                progress(done, grid.n_points)
        return self.project(grid, values)

    def project(self, grid: SparseGrid, values: np.ndarray) -> SSCMResult:
        """Project precomputed node values onto the chaos basis."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (grid.n_points,):
            raise StochasticError(
                f"values shape {values.shape} does not match grid size "
                f"{grid.n_points}"
            )
        indices = total_degree_indices(self.dimension, self.order)
        psi = chaos_basis_matrix(indices, grid.nodes)
        coeffs = psi.T @ (grid.weights * values)
        return SSCMResult(order=self.order, indices=indices,
                          coefficients=coeffs, grid=grid,
                          node_values=values)


def reproject_node_values(values: np.ndarray, dimension: int,
                          order: int) -> SSCMResult:
    """Rebuild an :class:`SSCMResult` from stored sparse-grid values.

    The projection is pure linear algebra over ``values`` — no model
    evaluation happens — so a surrogate rebuilt from cached node values
    (e.g. a sweep-engine payload) is bit-identical to the one the
    original run produced.
    """
    grid = smolyak_grid(dimension, order)
    estimator = SSCMEstimator(_never_evaluated, dimension, order=order)
    return estimator.project(grid, np.asarray(values, dtype=np.float64))


def _never_evaluated(xi: np.ndarray) -> float:
    raise StochasticError(
        "reprojection must not evaluate the model; the node values are "
        "already known"
    )
