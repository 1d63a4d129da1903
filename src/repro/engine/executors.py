"""Pluggable sweep executors.

Both executors implement the same contract::

    run(fn, items, on_result=None) -> list  # item order

``on_result(index, result)`` fires per finished item **as results
arrive** — that is what lets the engine commit each point to the cache
immediately, so an interrupted sweep keeps everything that finished. The
parallel executor runs one item per task on a
:class:`~concurrent.futures.ThreadPoolExecutor`: numpy and LAPACK
release the interpreter lock in the phases that dominate a solve, each
thread keeps its own model memo (see :mod:`repro.engine.runtime`), and
spans recorded in a worker thread land in the process aggregate like
any other. Because every job is independent and internally
deterministic, serial and parallel execution produce bit-identical
results.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ThreadPoolExecutor,
    wait,
)
from typing import Any, Callable, Sequence

from ..errors import ConfigurationError

ResultFn = Callable[[int, Any], None]


class Executor(ABC):
    """Strategy for evaluating a batch of independent jobs."""

    name: str = "abstract"

    @abstractmethod
    def run(self, fn: Callable[[Any], Any], items: Sequence[Any],
            on_result: ResultFn | None = None) -> list:
        """Apply ``fn`` to every item, preserving input order."""


class SerialExecutor(Executor):
    """In-process, one job at a time — the reference execution order."""

    name = "serial"

    def run(self, fn: Callable[[Any], Any], items: Sequence[Any],
            on_result: ResultFn | None = None) -> list:
        out = []
        for i, item in enumerate(items):
            result = fn(item)
            out.append(result)
            if on_result is not None:
                on_result(i, result)
        return out

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Thread-pool execution, one item per task.

    Parameters
    ----------
    n_jobs:
        Worker thread count; ``None`` uses ``os.cpu_count()``.
    """

    name = "parallel"

    def __init__(self, n_jobs: int | None = None) -> None:
        if n_jobs is None:
            n_jobs = os.cpu_count() or 1
        if n_jobs < 1:
            raise ConfigurationError(f"n_jobs must be >= 1, got {n_jobs}")
        self.n_jobs = int(n_jobs)

    def run(self, fn: Callable[[Any], Any], items: Sequence[Any],
            on_result: ResultFn | None = None) -> list:
        total = len(items)
        if self.n_jobs == 1 or total <= 1:
            return SerialExecutor().run(fn, items, on_result=on_result)

        results: list = [None] * total
        error: Exception | None = None
        with ThreadPoolExecutor(max_workers=min(self.n_jobs, total),
                                thread_name_prefix="repro-job") as pool:
            future_index = {pool.submit(fn, item): i
                            for i, item in enumerate(items)}
            pending = set(future_index)
            try:
                while pending:
                    finished, pending = wait(pending,
                                             return_when=FIRST_COMPLETED)
                    for future in finished:
                        i = future_index[future]
                        try:
                            results[i] = future.result()
                        except CancelledError:
                            continue
                        except Exception as exc:  # noqa: BLE001 — first failure wins, re-raised after drain
                            # First failure wins; cancel what hasn't
                            # started but keep draining running items so
                            # their results still reach on_result (the
                            # engine commits them to the cache before we
                            # re-raise).
                            if error is None:
                                error = exc
                                for f in pending:
                                    f.cancel()
                            continue
                        if on_result is not None:
                            on_result(i, results[i])
            except BaseException:  # noqa: BLE001 — cancels the queue, then re-raises
                # Ctrl-C (or a failing on_result) in the waiting thread:
                # threads cannot be interrupted, so drop every queued
                # item; the pool's exit waits only for running ones.
                for f in pending:
                    f.cancel()
                raise
        if error is not None:
            raise error
        return results

    def __repr__(self) -> str:
        return f"ParallelExecutor(n_jobs={self.n_jobs})"
