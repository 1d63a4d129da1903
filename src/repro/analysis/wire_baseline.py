"""The documented wire-compatibility contract (consumed by RPR004).

One entry per wire document tag (the ``$type`` values registered in
``repro.service.wire._DECODERS``), recording

- ``since`` — the wire version that introduced the tag (provenance;
  not enforced),
- ``required`` — fields every compatible peer includes for this tag.
  Decoders may hard-read these (``doc["f"]`` / ``_expect``), and the
  matching dataclass fields may omit defaults.
- ``optional`` — fields added after the tag's introduction (or that
  a sender may omit). Decoders must ``.get`` them and dataclass
  fields must carry defaults, or a document without them stops
  decoding.

Growing the format is a two-step edit the analyzer enforces: add the
field with a default and a ``.get``-side decode, then record it here
under ``optional`` (promoting it to ``required`` only when every
sender includes it and a bump of ``WIRE_VERSION`` rejects the
documents that lack it). A decoder for a tag missing from this table
— or a table entry whose tag has lost its decoder — is itself a
finding, so the contract and the code cannot drift apart silently.
"""

from __future__ import annotations

#: tag -> {"since": int, "required": tuple, "optional": tuple}
WIRE_BASELINE: dict[str, dict] = {
    "ndarray": {
        "since": 1,
        "required": ("dtype", "shape", "data"),
        "optional": (),
    },
    "correlation": {
        "since": 1,
        "required": ("class", "params"),
        "optional": (),
    },
    "EstimatorSpec": {
        "since": 1,
        "required": ("kind", "order", "n_samples", "seed"),
        "optional": (),
    },
    "TwoMediumSystem": {
        "since": 1,
        "required": ("dielectric", "conductor"),
        "optional": (),
    },
    # Options/config documents decode via _strip -> constructor, so no
    # field is hard-read; constructor defaults absorb old documents.
    "SWMOptions": {"since": 1, "required": (), "optional": ()},
    "SWM2DOptions": {"since": 1, "required": (), "optional": ()},
    "StochasticLossConfig": {"since": 1, "required": (), "optional": ()},
    "StochasticScenario": {
        "since": 1,
        "required": ("name", "correlation", "system"),
        "optional": ("config", "options"),
    },
    "DeterministicScenario": {
        "since": 1,
        "required": ("name", "heights_m", "period_m", "system"),
        "optional": ("options",),
    },
    "ProfileScenario": {
        "since": 1,
        "required": ("name", "correlation", "period_um", "n", "system"),
        "optional": ("normalize", "options"),
    },
    "SweepSpec": {
        "since": 1,
        "required": ("scenarios", "frequencies_hz", "estimators"),
        "optional": ("estimator_map", "tags"),
    },
    "Job": {
        "since": 1,
        "required": ("scenario", "frequency_hz", "estimator", "index"),
        "optional": (),
    },
    "PointResult": {
        "since": 1,
        "required": ("scenario", "frequency_hz", "estimator", "key",
                     "mean", "std", "values", "n_evals", "seed",
                     "wall_time_s", "cache_hit"),
        # pid landed with process pools, spans with wire v2 telemetry.
        "optional": ("pid", "spans"),
    },
    "SweepResult": {
        "since": 1,
        "required": ("frequencies_hz", "points"),
        "optional": ("tags", "executor", "wall_time_s"),
    },
    "WorkerClaim": {
        "since": 3,
        "required": ("slot", "token", "key", "lease_s", "job"),
        "optional": (),
    },
    "WorkerResult": {
        "since": 3,
        "required": ("slot", "token", "worker", "key"),
        "optional": ("payload", "error", "meta"),
    },
    "WorkerTelemetry": {
        "since": 4,
        "required": ("worker", "time_unix"),
        "optional": ("seq", "metrics", "logs", "stats"),
    },
}
