"""Global telemetry switch.

Telemetry is **off** by default: every :func:`repro.telemetry.span` and
metric mutation must cost no more than a flag check on the solver hot
paths when nobody is looking. Long-lived entry points that want
visibility (the sweep service, ``repro-experiments --profile``) flip it
on explicitly; the ``REPRO_TELEMETRY`` environment variable enables it
for anything else. The flag is process-wide, so the engine's worker
threads record spans whenever the thread that started them does.
"""

from __future__ import annotations

import os

_ENABLED: bool = os.environ.get("REPRO_TELEMETRY", "") not in ("", "0")


def enabled() -> bool:
    """True iff spans and metrics are being recorded."""
    return _ENABLED


def enable() -> None:
    """Turn telemetry on (spans recorded, metrics mutated)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn telemetry off (spans and metric updates become no-ops)."""
    global _ENABLED
    _ENABLED = False
