"""Versioned JSON wire format for engine objects.

The engine's content hashes (:func:`repro.engine.content_hash`) pin a
computation to its physics inputs; this module makes the *objects*
carrying those inputs cross process and machine boundaries. Every
encodable object becomes a tagged JSON document (``{"$type": ...}``)
and decodes back to an equal object — in particular

- a :class:`~repro.engine.SweepSpec` (or :class:`~repro.engine.Job`)
  survives ``to_wire -> json -> from_wire`` with an **identical content
  hash** (floats round-trip exactly through JSON's shortest-repr
  encoding; numpy arrays are encoded explicitly as dtype + shape +
  base64 of the raw bytes, so they come back bit-for-bit);
- a :class:`~repro.engine.SweepResult` round-trips with bit-identical
  ``values`` arrays, which is what lets a remote client assert equality
  against an in-process run.

Documents are wrapped in a versioned envelope::

    {"format": "repro-wire", "wire_version": 5, "engine_version": 1,
     "body": {...}}

:func:`loads` rejects an envelope whose ``wire_version`` is not
:data:`WIRE_VERSION` (``engine_version`` travels for provenance/cache
compatibility checks but does not gate decoding — hashes embed it
anyway). Version 2 added the optional telemetry ``spans`` on
:class:`PointResult`; version 3 added the worker-fleet messages
(:class:`WorkerClaim`, :class:`WorkerResult` — job leases and result
uploads for pull workers); version 4 added :class:`WorkerTelemetry`
(federated metric snapshots + log records riding worker heartbeats);
version 5 dropped the stacking and finite-check knobs of the estimator
and solver options documents. Only version 5 is accepted.

Correlation functions are encoded by class name + public parameters
(the same extraction :func:`repro.engine.correlation_spec` hashes) and
rebuilt via ``cls(**params)``; user-defined CF subclasses whose
constructor mirrors its public attributes can join the format through
:func:`register_correlation`.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

import numpy as np

from ..errors import ReproError
from ..materials import Conductor, Dielectric, TwoMediumSystem
from ..surfaces.correlation import (
    CorrelationFunction,
    ExponentialCorrelation,
    ExtractedCorrelation,
    GaussianCorrelation,
    MaternCorrelation,
)
from ..swm.assembly import AssemblyOptions
from ..swm.assembly2d import Assembly2DOptions
from ..swm.solver import SWMOptions
from ..swm.solver2d import SWM2DOptions
from ..engine.results import PointResult, SweepResult
from ..engine.spec import (
    ENGINE_VERSION,
    DeterministicScenario,
    EstimatorSpec,
    Job,
    ProfileScenario,
    StochasticScenario,
    SweepSpec,
)

#: Bump when the wire encoding itself changes incompatibly.
#: v2: PointResult grew the optional telemetry ``spans`` field.
#: v3: worker-fleet messages (WorkerClaim / WorkerResult).
#: v4: WorkerTelemetry (heartbeat-federated metrics + logs).
#: v5: EstimatorSpec and the solver options lost their stacking knobs.
WIRE_VERSION = 5

#: Envelope format marker.
WIRE_FORMAT = "repro-wire"

_TAG = "$type"


class WireError(ReproError):
    """A document could not be encoded to / decoded from the wire."""


# ----------------------------------------------------------------------
# Worker-fleet messages (wire v3)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WorkerClaim:
    """One leased computation handed to a pull worker.

    ``slot`` + ``token`` identify the lease (the token changes on every
    re-lease, which is what lets the scheduler drop stale commits after
    a reclaim); ``key`` is the job's content hash, echoed back on upload
    for hash verification; ``lease_s`` is how long the worker may hold
    the lease between heartbeats.
    """

    slot: str
    token: str
    key: str
    lease_s: float
    job: Job


@dataclass(frozen=True)
class WorkerResult:
    """A worker's result upload for one leased computation.

    Exactly one of ``payload`` (the :func:`repro.engine.execute_job`
    payload dict, array decoded) or ``error`` (the job's captured
    failure message) is set.
    """

    slot: str
    token: str
    worker: str
    key: str
    payload: dict | None = None
    error: str | None = None
    #: Worker-local telemetry spans already ride inside ``payload``.
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class WorkerTelemetry:
    """A worker's federated telemetry snapshot (wire v4).

    Rides as the optional ``telemetry`` field of heartbeat bodies.
    ``metrics`` is the worker's full *cumulative*
    ``MetricsRegistry.snapshot()`` (replacement on the server is the
    idempotent merge); ``logs`` are structured records whose per-buffer
    ``seq`` lets the server drop re-delivered lines; ``seq`` is the
    highest log seq included, so a worker can resume shipping from the
    right place after a failed heartbeat; ``stats`` is small free-form
    worker state (inflight, concurrency, jobs done/failed).
    """

    worker: str
    time_unix: float
    seq: int = 0
    metrics: dict = field(default_factory=dict)
    logs: tuple = ()
    stats: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Correlation-function registry
# ----------------------------------------------------------------------

_CORRELATIONS: dict[str, type[CorrelationFunction]] = {}


def register_correlation(cls: type[CorrelationFunction]
                         ) -> type[CorrelationFunction]:
    """Register a CF class for wire decoding (usable as a decorator).

    The class is encoded as its public attributes (see
    :func:`repro.engine.correlation_spec`) and rebuilt via
    ``cls(**params)``, so every public attribute must be accepted as a
    constructor keyword of the same name.
    """
    if not isinstance(cls, type) or not issubclass(cls, CorrelationFunction):
        raise WireError(
            f"register_correlation expects a CorrelationFunction "
            f"subclass, got {cls!r}"
        )
    _CORRELATIONS[cls.__name__] = cls
    return cls


for _cls in (GaussianCorrelation, ExponentialCorrelation,
             ExtractedCorrelation, MaternCorrelation):
    register_correlation(_cls)


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

def _encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a)
    return {
        _TAG: "ndarray",
        "dtype": a.dtype.str,
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _encode_scalarish(v: Any) -> Any:
    """Hashable CF/tag parameter values -> JSON values."""
    if isinstance(v, np.ndarray):
        return _encode_array(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.bool_):
        return bool(v)
    return v


def _encode_correlation(cf: CorrelationFunction) -> dict:
    name = type(cf).__name__
    if name not in _CORRELATIONS:
        raise WireError(
            f"correlation class {name!r} is not wire-registered; call "
            "repro.service.wire.register_correlation(cls) first"
        )
    params = {}
    for k, v in vars(cf).items():
        if k.startswith("_"):
            continue
        params[k] = _encode_scalarish(v)
    return {_TAG: "correlation", "class": name, "params": params}


def _encode_system(system: TwoMediumSystem) -> dict:
    return {_TAG: "TwoMediumSystem", **asdict(system)}


def _encode_options(options: SWMOptions | None) -> dict | None:
    return None if options is None else {_TAG: "SWMOptions",
                                         **asdict(options)}


def _encode_options2d(options: SWM2DOptions | None) -> dict | None:
    return None if options is None else {_TAG: "SWM2DOptions",
                                         **asdict(options)}


def _encode_config(config: Any) -> dict | None:
    from ..core.pipeline import StochasticLossConfig
    if config is None:
        return None
    if not isinstance(config, StochasticLossConfig):
        raise WireError(
            f"cannot encode scenario config of type "
            f"{type(config).__name__} (expected StochasticLossConfig)"
        )
    return {_TAG: "StochasticLossConfig", **asdict(config)}


def _encode_estimator(est: EstimatorSpec | None) -> dict | None:
    if est is None:
        return None
    return {_TAG: "EstimatorSpec", "kind": est.kind, "order": est.order,
            "n_samples": est.n_samples, "seed": est.seed}


def _encode_tags(tags: Mapping[str, Any]) -> dict:
    # Tags are free-form provenance excluded from content hashes; they
    # only need to survive JSON, not reconstruct arbitrary objects.
    try:
        return json.loads(json.dumps(dict(tags),
                                     default=_encode_scalarish))
    except (TypeError, ValueError) as exc:
        raise WireError(f"sweep tags are not JSON-encodable: {exc}") from exc


def to_wire(obj: Any) -> dict:
    """Encode a supported engine object as a tagged JSON-ready dict."""
    if isinstance(obj, SweepSpec):
        return {
            _TAG: "SweepSpec",
            "scenarios": [to_wire(s) for s in obj.scenarios],
            "frequencies_hz": list(obj.frequencies_hz),
            "estimators": [_encode_estimator(e) for e in obj.estimators],
            "estimator_map": {
                name: [_encode_estimator(e) for e in ests]
                for name, ests in obj.estimator_map.items()
            },
            "tags": _encode_tags(obj.tags),
        }
    if isinstance(obj, Job):
        return {
            _TAG: "Job",
            "scenario": to_wire(obj.scenario),
            "frequency_hz": float(obj.frequency_hz),
            "estimator": _encode_estimator(obj.estimator),
            "index": int(obj.index),
        }
    if isinstance(obj, StochasticScenario):
        return {
            _TAG: "StochasticScenario",
            "name": obj.name,
            "correlation": _encode_correlation(obj.correlation),
            "config": _encode_config(obj.config),
            "system": _encode_system(obj.system),
            "options": _encode_options(obj.options),
        }
    if isinstance(obj, DeterministicScenario):
        return {
            _TAG: "DeterministicScenario",
            "name": obj.name,
            "heights_m": _encode_array(obj.heights_m),
            "period_m": float(obj.period_m),
            "system": _encode_system(obj.system),
            "options": _encode_options(obj.options),
        }
    if isinstance(obj, ProfileScenario):
        return {
            _TAG: "ProfileScenario",
            "name": obj.name,
            "correlation": _encode_correlation(obj.correlation),
            "period_um": float(obj.period_um),
            "n": int(obj.n),
            "normalize": bool(obj.normalize),
            "system": _encode_system(obj.system),
            "options": _encode_options2d(obj.options),
        }
    if isinstance(obj, EstimatorSpec):
        return _encode_estimator(obj)
    if isinstance(obj, SweepResult):
        return {
            _TAG: "SweepResult",
            "frequencies_hz": list(obj.frequencies_hz),
            "points": [to_wire(p) for p in obj.points],
            "tags": _encode_tags(obj.tags),
            "executor": obj.executor,
            "wall_time_s": float(obj.wall_time_s),
        }
    if isinstance(obj, PointResult):
        return {
            _TAG: "PointResult",
            "scenario": obj.scenario,
            "frequency_hz": float(obj.frequency_hz),
            "estimator": obj.estimator,
            "key": obj.key,
            "mean": float(obj.mean),
            "std": float(obj.std),
            "values": _encode_array(obj.values),
            "n_evals": int(obj.n_evals),
            "seed": None if obj.seed is None else int(obj.seed),
            "wall_time_s": float(obj.wall_time_s),
            "cache_hit": bool(obj.cache_hit),
            "pid": None if obj.pid is None else int(obj.pid),
            "spans": (None if obj.spans is None
                      else [dict(s) for s in obj.spans]),
        }
    if isinstance(obj, WorkerClaim):
        return {
            _TAG: "WorkerClaim",
            "slot": obj.slot,
            "token": obj.token,
            "key": obj.key,
            "lease_s": float(obj.lease_s),
            "job": to_wire(obj.job),
        }
    if isinstance(obj, WorkerResult):
        if (obj.payload is None) == (obj.error is None):
            raise WireError(
                "WorkerResult needs exactly one of payload or error"
            )
        return {
            _TAG: "WorkerResult",
            "slot": obj.slot,
            "token": obj.token,
            "worker": obj.worker,
            "key": obj.key,
            "payload": (None if obj.payload is None
                        else encode_payload(obj.payload)),
            "error": obj.error,
            "meta": dict(obj.meta),
        }
    if isinstance(obj, WorkerTelemetry):
        return {
            _TAG: "WorkerTelemetry",
            "worker": obj.worker,
            "time_unix": float(obj.time_unix),
            "seq": int(obj.seq),
            "metrics": _encode_tags(obj.metrics),
            "logs": [_encode_tags(r) for r in obj.logs],
            "stats": _encode_tags(obj.stats),
        }
    if isinstance(obj, np.ndarray):
        return _encode_array(obj)
    raise WireError(
        f"no wire encoding for objects of type {type(obj).__name__}"
    )


def encode_payload(payload: Mapping[str, Any]) -> dict:
    """Encode a worker payload dict (the :func:`execute_job` schema)."""
    out = dict(payload)
    out["values"] = _encode_array(np.asarray(payload["values"]))
    return out


def decode_payload(doc: Mapping[str, Any]) -> dict:
    """Inverse of :func:`encode_payload`; ``values`` comes back
    read-only, like a cache hit."""
    out = dict(doc)
    values = _decode(doc["values"])
    if not isinstance(values, np.ndarray):
        raise WireError("payload 'values' is not an ndarray document")
    out["values"] = values
    return out


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

def _expect(doc: Mapping, *fields: str) -> list:
    try:
        return [doc[f] for f in fields]
    except KeyError as exc:
        raise WireError(
            f"wire document of type {doc.get(_TAG)!r} is missing "
            f"field {exc.args[0]!r}"
        ) from None


def _decode_array(doc: Mapping) -> np.ndarray:
    dtype, shape, data = _expect(doc, "dtype", "shape", "data")
    try:
        raw = base64.b64decode(data, validate=True)
        a = np.frombuffer(raw, dtype=np.dtype(dtype)).reshape(shape)
    except (ValueError, TypeError) as exc:
        raise WireError(f"corrupt ndarray document: {exc}") from exc
    a = a.copy()  # writable, owned memory
    a.flags.writeable = False
    return a


def _decode_correlation(doc: Mapping) -> CorrelationFunction:
    name, params = _expect(doc, "class", "params")
    cls = _CORRELATIONS.get(name)
    if cls is None:
        raise WireError(
            f"unknown correlation class {name!r} (registered: "
            f"{sorted(_CORRELATIONS)})"
        )
    return _rebuild(name, cls, {k: _decode(v) for k, v in params.items()})


def _rebuild(tag: str, cls: type, fields: Any) -> Any:
    """``cls(**fields)``; an unknown, missing or mistyped field is a
    :class:`WireError` naming ``tag`` and the field, not a TypeError."""
    try:
        return cls(**fields)
    except TypeError as exc:
        raise WireError(f"cannot rebuild {tag} from the wire: {exc}") from exc


def _strip(doc: Mapping) -> dict:
    return {k: _decode(v) for k, v in doc.items() if k != _TAG}


def _decode_estimator(doc: Mapping | None) -> EstimatorSpec | None:
    if doc is None:
        return None
    kind, order, n_samples, seed = _expect(doc, "kind", "order",
                                           "n_samples", "seed")
    return EstimatorSpec(kind=kind, order=order, n_samples=n_samples,
                         seed=seed)


def _decode(doc: Any) -> Any:
    if isinstance(doc, Mapping):
        tag = doc.get(_TAG)
        if tag is None:
            return {k: _decode(v) for k, v in doc.items()}
        decoder = _DECODERS.get(tag)
        if decoder is None:
            raise WireError(f"unknown wire document type {tag!r}")
        return decoder(doc)
    if isinstance(doc, list):
        return [_decode(v) for v in doc]
    return doc


def _decode_spec(doc: Mapping) -> SweepSpec:
    scenarios, freqs, estimators = _expect(
        doc, "scenarios", "frequencies_hz", "estimators")
    return SweepSpec(
        scenarios=[_decode(s) for s in scenarios],
        frequencies_hz=freqs,
        estimators=[_decode_estimator(e) for e in estimators],
        estimator_map={
            name: tuple(_decode_estimator(e) for e in ests)
            for name, ests in doc.get("estimator_map", {}).items()
        },
        tags=doc.get("tags", {}),
    )


def _decode_job(doc: Mapping) -> Job:
    scenario, freq, est, index = _expect(
        doc, "scenario", "frequency_hz", "estimator", "index")
    return Job(scenario=_decode(scenario), frequency_hz=float(freq),
               estimator=_decode_estimator(est), index=int(index))


def _decode_system(doc: Mapping) -> TwoMediumSystem:
    dielectric, conductor = _expect(doc, "dielectric", "conductor")
    return TwoMediumSystem(
        dielectric=_rebuild("Dielectric", Dielectric, dielectric),
        conductor=_rebuild("Conductor", Conductor, conductor))


def _decode_swm_options(doc: Mapping) -> SWMOptions:
    fields = _strip(doc)
    fields["assembly"] = _rebuild("AssemblyOptions", AssemblyOptions,
                                  fields.get("assembly", {}))
    return _rebuild("SWMOptions", SWMOptions, fields)


def _decode_swm2d_options(doc: Mapping) -> SWM2DOptions:
    fields = _strip(doc)
    fields["assembly"] = _rebuild("Assembly2DOptions", Assembly2DOptions,
                                  fields.get("assembly", {}))
    return _rebuild("SWM2DOptions", SWM2DOptions, fields)


def _decode_config(doc: Mapping):
    from ..core.pipeline import StochasticLossConfig
    return _rebuild("StochasticLossConfig", StochasticLossConfig,
                    _strip(doc))


def _decode_stochastic(doc: Mapping) -> StochasticScenario:
    name, correlation = _expect(doc, "name", "correlation")
    return StochasticScenario(
        name=name,
        correlation=_decode(correlation),
        config=_decode(doc.get("config")),
        system=_decode(doc["system"]),
        options=_decode(doc.get("options")),
    )


def _decode_deterministic(doc: Mapping) -> DeterministicScenario:
    name, heights, period = _expect(doc, "name", "heights_m", "period_m")
    return DeterministicScenario(
        name=name,
        heights_m=_decode(heights),
        period_m=float(period),
        system=_decode(doc["system"]),
        options=_decode(doc.get("options")),
    )


def _decode_profile(doc: Mapping) -> ProfileScenario:
    name, correlation, period, n = _expect(
        doc, "name", "correlation", "period_um", "n")
    return ProfileScenario(
        name=name,
        correlation=_decode(correlation),
        period_um=float(period),
        n=int(n),
        normalize=bool(doc.get("normalize", True)),
        system=_decode(doc["system"]),
        options=_decode(doc.get("options")),
    )


def _decode_worker_claim(doc: Mapping) -> WorkerClaim:
    slot, token, key, lease_s, job = _expect(
        doc, "slot", "token", "key", "lease_s", "job")
    job = _decode(job)
    if not isinstance(job, Job):
        raise WireError("WorkerClaim 'job' is not a wire Job document")
    return WorkerClaim(slot=str(slot), token=str(token), key=str(key),
                       lease_s=float(lease_s), job=job)


def _decode_worker_result(doc: Mapping) -> WorkerResult:
    slot, token, worker, key = _expect(
        doc, "slot", "token", "worker", "key")
    payload = doc.get("payload")
    error = doc.get("error")
    if (payload is None) == (error is None):
        raise WireError(
            "WorkerResult needs exactly one of payload or error"
        )
    return WorkerResult(
        slot=str(slot), token=str(token), worker=str(worker),
        key=str(key),
        payload=None if payload is None else decode_payload(payload),
        error=None if error is None else str(error),
        meta=dict(doc.get("meta") or {}),
    )


def _decode_worker_telemetry(doc: Mapping) -> WorkerTelemetry:
    worker, time_unix = _expect(doc, "worker", "time_unix")
    return WorkerTelemetry(
        worker=str(worker),
        time_unix=float(time_unix),
        seq=int(doc.get("seq", 0)),
        metrics=dict(doc.get("metrics") or {}),
        logs=tuple(dict(r) for r in doc.get("logs") or ()),
        stats=dict(doc.get("stats") or {}),
    )


def _decode_point(doc: Mapping) -> PointResult:
    return _rebuild("PointResult", PointResult, _strip(doc))


def _decode_sweep_result(doc: Mapping) -> SweepResult:
    freqs, points = _expect(doc, "frequencies_hz", "points")
    return SweepResult(
        frequencies_hz=tuple(float(f) for f in freqs),
        points=tuple(_decode(p) for p in points),
        tags=doc.get("tags", {}),
        executor=doc.get("executor", "remote"),
        wall_time_s=float(doc.get("wall_time_s", 0.0)),
    )


_DECODERS = {
    "ndarray": _decode_array,
    "correlation": _decode_correlation,
    "EstimatorSpec": _decode_estimator,
    "TwoMediumSystem": _decode_system,
    "SWMOptions": _decode_swm_options,
    "SWM2DOptions": _decode_swm2d_options,
    "StochasticLossConfig": _decode_config,
    "StochasticScenario": _decode_stochastic,
    "DeterministicScenario": _decode_deterministic,
    "ProfileScenario": _decode_profile,
    "SweepSpec": _decode_spec,
    "Job": _decode_job,
    "PointResult": _decode_point,
    "SweepResult": _decode_sweep_result,
    "WorkerClaim": _decode_worker_claim,
    "WorkerResult": _decode_worker_result,
    "WorkerTelemetry": _decode_worker_telemetry,
}


# ----------------------------------------------------------------------
# Envelope
# ----------------------------------------------------------------------

def envelope(body: Any) -> dict:
    """Wrap an encoded body in the versioned wire envelope."""
    return {"format": WIRE_FORMAT, "wire_version": WIRE_VERSION,
            "engine_version": ENGINE_VERSION, "body": body}


def open_envelope(doc: Mapping) -> Any:
    """Validate an envelope and return its (still encoded) body."""
    if not isinstance(doc, Mapping) or doc.get("format") != WIRE_FORMAT:
        raise WireError(
            "not a repro wire document (missing "
            f"'format': {WIRE_FORMAT!r} marker)"
        )
    version = doc.get("wire_version")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire_version {version!r} "
            f"(this build speaks {WIRE_VERSION})"
        )
    if "body" not in doc:
        raise WireError("wire envelope has no 'body'")
    return doc["body"]


def _json_default(obj: Any) -> Any:
    """json.dumps fallback for encoded bodies: numpy scalars (legal in
    dataclass fields like ``StochasticLossConfig(max_modes=np.int64(6))``
    and hash-equivalent to their Python counterparts) degrade to plain
    JSON numbers; anything else is a wire error, not a TypeError."""
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _encode_array(obj)
    raise WireError(
        f"cannot JSON-encode {type(obj).__name__} for the wire"
    )


def dumps(obj: Any, indent: int | None = None) -> str:
    """Serialize an engine object to a wire JSON string (with
    envelope)."""
    return json.dumps(envelope(to_wire(obj)), indent=indent,
                      default=_json_default)


def loads(text: str | bytes) -> Any:
    """Parse a wire JSON string back into engine object(s)."""
    try:
        doc = json.loads(text)
    except (ValueError, TypeError) as exc:
        raise WireError(f"wire document is not valid JSON: {exc}") from exc
    body = open_envelope(doc)
    return from_wire(body)


def from_wire(body: Any) -> Any:
    """Decode a tagged document (or list of them) to engine object(s)."""
    if isinstance(body, list):
        return [_decode(b) for b in body]
    return _decode(body)
