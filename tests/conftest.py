"""Shared fixtures."""

from contextlib import contextmanager

import pytest

from repro.engine import runtime
from repro.swm.solver import _SWMSolver


@pytest.fixture
def stacking():
    """Force how samples stack, inside a ``with`` block.

    ``with stacking(chunk):`` makes both solvers stack ``chunk`` samples
    per solve, whatever their byte budget picks; ``block_chunks`` also
    sets how many chunks the engine hands the solver per call, for tests
    that need block boundaries (``stacking(3, block_chunks=1)`` walks a
    job's points three at a time). Stacking never changes a value, so
    tests use it to reach chunk and block edges the budget would not.
    """
    @contextmanager
    def force(chunk: int, block_chunks: int | None = None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_SWMSolver, "chunk_size", lambda self, n: chunk)
            if block_chunks is not None:
                patch.setattr(runtime, "_BLOCK_CHUNKS", block_chunks)
            yield

    return force
