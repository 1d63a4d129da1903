"""Recorded reference outputs and the comparator that gates every run.

``references.json`` holds, per workload and input variant, every sweep
point's identity (scenario, frequency, estimator), its mean and its raw
values (SSCM node values or Monte-Carlo samples). A point whose mean or
any value lies more than :data:`RTOL` relative off its reference is a
failed point. Bit-identity to the reference is reported separately and
never gates.
"""

from __future__ import annotations

import json
from pathlib import Path

import stats

#: Relative accuracy bound on every mean and value.
RTOL = 1e-6

PATH = Path(__file__).resolve().parent / "references.json"


def load() -> dict:
    if not PATH.exists():
        return {}
    return json.loads(PATH.read_text())["workloads"]


def save(workloads: dict, note: str) -> None:
    doc = {"format": 1, "rtol": RTOL, "note": note, "workloads": workloads}
    PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def points_of(sweep) -> list[dict]:
    """A sweep's points as plain JSON-ready records, in job order."""
    return [{"scenario": p.scenario,
             "frequency_hz": float(p.frequency_hz),
             "estimator": p.estimator,
             "n_evals": int(p.n_evals),
             "mean": float(p.mean),
             "values": [float(v) for v in p.values]}
            for p in sweep.points]


def compare(points: list[dict], reference: list[dict],
            rtol: float = RTOL) -> tuple[list[str], bool]:
    """Check ``points`` against ``reference``.

    Returns ``(problems, bit_identical)``: one message per point that
    is missing, mislabeled, or off by more than ``rtol`` (empty when the
    run passes), and whether every number matched exactly.
    """
    problems: list[str] = []
    identical = len(points) == len(reference)
    if len(points) != len(reference):
        problems.append(f"{len(points)} points, reference has "
                        f"{len(reference)}")
    for got, ref in zip(points, reference):
        label = (f"{ref['scenario']}@{ref['frequency_hz'] / 1e9:g}GHz"
                 f"/{ref['estimator']}")
        if (got["scenario"], got["frequency_hz"], got["estimator"]) != \
                (ref["scenario"], ref["frequency_hz"], ref["estimator"]):
            problems.append(f"{label}: point identity differs")
            identical = False
            continue
        pairs = [(got["mean"], ref["mean"])]
        if len(got["values"]) != len(ref["values"]):
            problems.append(f"{label}: {len(got['values'])} values, "
                            f"reference has {len(ref['values'])}")
            identical = False
        else:
            pairs += list(zip(got["values"], ref["values"]))
        if any(a != b for a, b in pairs):
            identical = False
        worst = max(abs(a - b) / (abs(b) or 1.0) for a, b in pairs)
        if not all(stats.within_rtol(a, b, rtol) for a, b in pairs):
            problems.append(f"{label}: {worst:.2e} relative off reference")
    return problems, identical
