"""Invariant linter for the repro codebase.

A stdlib-``ast`` static-analysis subsystem that mechanizes the
load-bearing invariants this repo has historically broken and then
fixed by hand:

- **RPR001 lock-discipline** — ``*_locked`` methods must be called with
  the owning lock held (lexical ``with self._lock:``) and must never
  re-acquire it (the scheduler's convention since PR 3).
- **RPR002 complex-inplace** — no in-place multiplies (or elidable
  scalar-times-temporary multiplies) on complex ndarrays in kernel
  modules; numpy's in-place complex multiply can round a final ulp
  differently from the out-of-place one (the PR 5 ``freespace.py``
  parity bug).
- **RPR003 hash-purity** — every dataclass field on ``*Options`` /
  ``*Spec`` classes is either consumed by ``to_spec`` (and therefore
  content-hashed) or listed in the class's documented ``HASH_EXCLUDED``
  set (the ``check_finite`` cache-split bug PR 5 fixed).
- **RPR004 wire-compat** — wire dataclasses and decoders keep to the
  documented per-tag field contract: fields newer than a message's
  introduction version need defaults and ``.get``-style decoding, so
  a document that omits them still decodes.
- **RPR005 warn-stacklevel** — ``warnings.warn`` calls must pass an
  explicit ``stacklevel`` (the attribution bug PR 4 fixed in both
  solvers).
- **RPR006 monotonic-duration** — durations must come from
  ``time.monotonic()`` / ``time.perf_counter()`` pairs, never from
  differences of ``time.time()`` wall-clock reads.
- **RPR007 broad-except** — ``except Exception`` needs an explicit
  justification comment (``# noqa: BLE001 — reason``).

Run it as ``python -m repro.analysis [paths]`` or
``repro-experiments lint``; configure via ``[tool.repro.analysis]`` in
``pyproject.toml``; suppress a finding in place with
``# repro: ignore[RPRnnn] reason``.
"""

from __future__ import annotations

from .config import AnalysisConfig, load_config
from .core import (
    Finding,
    ModuleContext,
    Rule,
    all_rules,
    analyze_paths,
    analyze_source,
    get_rule,
    register_rule,
)
from . import rules as _rules  # noqa: F401 — registers the shipped rules

__all__ = [
    "AnalysisConfig",
    "Finding",
    "ModuleContext",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "get_rule",
    "load_config",
    "register_rule",
]
