"""The service wire API: typed, versioned request/response dataclasses.

This module is the single source of truth for everything that crosses
the allocation-service boundary — the newline-delimited-JSON socket,
the optional HTTP adapter, the :class:`~repro.service.client.ServiceClient`,
the in-process :class:`~repro.service.engine.AllocationService`, and the
CLI's ``repro fleet`` / ``repro hetero`` argument parsing all build and
validate requests through the same dataclasses, replacing the ad-hoc
kwarg plumbing that used to live between ``cli.py``, the experiments,
and the schemes.

Wire format
-----------
One JSON object per line.  Requests::

    {"schema_version": 1, "op": "allocate", "payload": {...}}

Replies::

    {"schema_version": 1, "ok": true,  "op": "allocate", "result": {...}}
    {"schema_version": 1, "ok": false, "op": "allocate",
     "error": {"code": "overloaded", "message": "...", "retryable": true}}

Payloads are the dataclasses below, carried by one strict codec
(:func:`to_wire` / :func:`from_wire`) compiled from their field
annotations once per class, at import for every op's types.  Decoding
checks JSON types and never coerces: ``bool`` takes only true/false,
``int`` only an integer (not a bool), ``float`` any number but a bool,
tuples only arrays, and anything else is a ``bad-request`` naming
``Class.field``.  Objects are built through ``cls(**kw)``, so each
``__post_init__`` stays the one semantic validator (registries, ranges).

Versioning is strict and fail-loud: a request whose ``schema_version``
is not :data:`SCHEMA_VERSION` is rejected with a typed
``unknown-version`` error, and every payload is validated against the
exact field set of its dataclass — unknown fields are rejected with
``unknown-field`` rather than silently dropped, so schema drift between
client and server can never produce quietly-wrong allocations.  The
evolution policy lives in ``docs/API.md``: adding or changing wire
fields bumps :data:`SCHEMA_VERSION`, and servers keep answering the
previous version's requests for one deprecation release.

Errors are data too: :class:`ServiceError` carries a stable ``code``, a
human message, and a ``retryable`` flag (the 429-style contract —
``overloaded``/``draining`` are safe to retry, ``bad-request``/
``unknown-*`` are not), and round-trips through
:meth:`ServiceError.to_wire` / :meth:`ServiceError.from_wire`.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from types import UnionType
from typing import NoReturn, Union, get_args, get_origin, get_type_hints

from repro.errors import ReproError

__all__ = [
    "SCHEMA_VERSION",
    "ServiceError",
    "FleetSpec",
    "FleetHandle",
    "AllocationRequest",
    "BudgetAllocation",
    "AllocationResult",
    "SweepRequest",
    "SweepRun",
    "SweepResult",
    "JobAdmitRequest",
    "JobDepartRequest",
    "BudgetUpdateRequest",
    "JobStateResult",
    "SchemeInfo",
    "SchemesResult",
    "TelemetryRequest",
    "TelemetrySample",
    "Ack",
    "REQUEST_TYPES",
    "RESULT_TYPES",
    "to_wire",
    "from_wire",
    "encode_request",
    "decode_request",
    "encode_reply",
    "decode_reply",
]

#: The wire schema this build speaks.  Strictly enforced on both sides;
#: see the module docstring and docs/API.md for the evolution policy.
SCHEMA_VERSION = 1

#: Error code -> HTTP status for the optional HTTP adapter.
ERROR_HTTP_STATUS = {
    "bad-request": 400,
    "unknown-version": 400,
    "unknown-field": 400,
    "unknown-op": 404,
    "unknown-fleet": 404,
    "unknown-scheme": 400,
    "unknown-app": 400,
    "duplicate": 409,
    "overloaded": 429,
    "draining": 503,
    # Schema v1 keeps the code; sweeps run in the daemon's process, so
    # no server of this build sends it.
    "worker-crashed": 503,
    "timeout": 504,
    "internal": 500,
}


class ServiceError(ReproError):
    """A typed, wire-serialisable service failure.

    ``code`` is a stable machine-readable identifier (see
    :data:`ERROR_HTTP_STATUS` for the full set), ``retryable`` tells the
    client whether the same request may succeed later (backpressure and
    crashed-worker errors) or never will (validation errors).
    """

    def __init__(self, code: str, message: str, *, retryable: bool = False):
        self.code = str(code)
        self.retryable = bool(retryable)
        super().__init__(message)

    @property
    def message(self) -> str:
        return str(self.args[0]) if self.args else ""

    def to_wire(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "retryable": self.retryable,
        }

    @classmethod
    def from_wire(cls, obj: dict) -> "ServiceError":
        if not isinstance(obj, dict):
            return cls("internal", f"malformed error payload: {obj!r}")
        return cls(
            str(obj.get("code", "internal")),
            str(obj.get("message", "")),
            retryable=bool(obj.get("retryable", False)),
        )


# -- the wire codec (rules in the module docstring) ---------------------------------

#: scalar annotation -> what its decoder accepts.
_SCALARS = {
    str: "a string", bool: "true or false", int: "an integer", float: "a number"
}

_JSON_NAMES = {
    type(None): "null", bool: "boolean", int: "integer", float: "number",
    str: "string", list: "array", dict: "object",
}

#: dataclass -> its compiled (encode, decode) pair; see :func:`_codec`.
_CODECS: dict[type, tuple] = {}


def _reject(where: str, expected: str, value) -> NoReturn:
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    raise ServiceError("bad-request", f"{where} must be {expected}, got {got}")


def _scalar(tp: type, where: str):
    expected = _SCALARS[tp]

    def decode(v):
        if type(v) is tp:
            return v
        if tp is float and type(v) is int:
            try:
                return float(v)
            except OverflowError:
                _reject(where, "a number in float range", v)
        _reject(where, expected, v)

    return decode


def _field_codec(tp, where: str) -> tuple:
    """(encode, decode) for one field annotation.  ``encode`` is None
    where the value is already JSON data."""
    if tp in _SCALARS:
        return None, _scalar(tp, where)
    if is_dataclass(tp):
        return _codec(tp)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType) and len(args) == 2 and type(None) in args:
        inner = args[1] if args[0] is type(None) else args[0]
        enc, dec = _field_codec(inner, where)
        return (
            None if enc is None else (lambda v: None if v is None else enc(v)),
            lambda v: None if v is None else dec(v),
        )
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        enc, dec = _field_codec(args[0], f"{where}[]")

        def decode(v):
            if type(v) is not list:
                _reject(where, "an array", v)
            return tuple([dec(x) for x in v])

        return (list if enc is None else lambda t: [enc(x) for x in t]), decode
    if origin is tuple and args and all(a in _SCALARS for a in args):
        decs = tuple(_scalar(a, f"{where}[{i}]") for i, a in enumerate(args))

        def decode(v):
            if type(v) is not list or len(v) != len(decs):
                _reject(where, f"an array of {len(decs)} items", v)
            return tuple([d(x) for d, x in zip(decs, v)])

        return list, decode
    raise TypeError(f"{where}: unsupported wire annotation {tp!r}")


def _codec(cls: type) -> tuple:
    """``cls``'s (encode, decode) pair, compiled from its annotations on
    first use.  Decode rejects a non-object payload and a missing
    required field (``bad-request``) and an unknown field
    (``unknown-field``)."""
    if cls in _CODECS:
        return _CODECS[cls]
    name, hints, fs = cls.__name__, get_type_hints(cls), fields(cls)
    names = tuple(f.name for f in fs)
    codecs = {f.name: _field_codec(hints[f.name], f"{name}.{f.name}") for f in fs}
    nested = tuple((n, enc) for n, (enc, _) in codecs.items() if enc is not None)
    decoders = {n: dec for n, (_, dec) in codecs.items()}
    known = frozenset(names)
    required = tuple(
        f.name for f in fs if f.default is MISSING and f.default_factory is MISSING
    )

    def encode(value) -> dict:
        out = {n: getattr(value, n) for n in names}
        for n, enc in nested:
            out[n] = enc(out[n])
        return out

    def decode(obj):
        if not isinstance(obj, dict):
            raise ServiceError(
                "bad-request",
                f"{name} payload must be an object, got {type(obj).__name__}",
            )
        if not known.issuperset(obj):
            raise ServiceError(
                "unknown-field",
                f"{name} does not accept field(s) "
                f"{', '.join(sorted(set(obj) - known))} "
                f"at schema_version {SCHEMA_VERSION}",
            )
        for n in required:
            if n not in obj:
                raise ServiceError(
                    "bad-request", f"{name} is missing required field {n!r}"
                )
        return cls(**{k: decoders[k](v) for k, v in obj.items()})

    _CODECS[cls] = encode, decode
    return encode, decode


def to_wire(value) -> dict:
    """A payload dataclass as JSON-ready data (tuples become arrays)."""
    return _codec(type(value))[0](value)


def from_wire(cls: type, obj):
    """Strictly decode the JSON payload ``obj`` into a ``cls``; any
    mismatch is a typed :class:`ServiceError`."""
    return _codec(cls)[1](obj)


# -- semantic validation helpers ---------------------------------------------------

def _floats(value, name: str) -> tuple[float, ...]:
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        raise ServiceError("bad-request", f"{name} must be a list of numbers")
    try:
        out = tuple(float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ServiceError("bad-request", f"{name} must be a list of numbers: {exc}")
    # NaN and ±inf have no JSON encoding: the reply could not go on the wire.
    _require(all(map(math.isfinite, out)), f"{name} must be finite")
    return out


def _strs(value, name: str) -> tuple[str, ...]:
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        raise ServiceError("bad-request", f"{name} must be a list of strings")
    return tuple(str(v) for v in value)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ServiceError("bad-request", message)


def _validated_scheme(name: str) -> str:
    """Normalise and validate a scheme name against the live registry.

    This is the one scheme-dispatch point of the whole service surface:
    names resolve through :func:`repro.core.schemes.get_scheme` (so
    schemes registered at runtime with ``register_scheme`` are service-
    visible immediately), never through string ``if``/``elif`` chains.
    """
    from repro.core.schemes import get_scheme

    try:
        return get_scheme(str(name)).name
    except ReproError as exc:
        raise ServiceError("unknown-scheme", str(exc))


def _validated_app(name: str) -> str:
    from repro.apps.registry import get_app

    try:
        return get_app(str(name)).name
    except ReproError as exc:
        raise ServiceError("unknown-app", str(exc))


# -- fleets --------------------------------------------------------------------

@dataclass(frozen=True)
class FleetSpec:
    """How to build (and address) a hosted fleet.

    Homogeneous fleets name a known system (``system``/``n_modules``/
    ``seed`` — the same triple a :class:`~repro.exec.cache.RunKey`
    carries, so sweeps over the fleet are cache-compatible with direct
    engine use).  Heterogeneous fleets list ``device_counts`` as
    ``(device_type_name, count)`` pairs, mirroring
    :func:`repro.cluster.build_hetero_system`.
    """

    system: str = "ha8k"
    n_modules: int = 0
    seed: int = 2015
    fleet_id: str = ""
    device_counts: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "system", str(self.system))
        object.__setattr__(self, "fleet_id", str(self.fleet_id))
        object.__setattr__(self, "seed", int(self.seed))
        counts = tuple(
            (str(name), int(count)) for name, count in self.device_counts
        )
        object.__setattr__(self, "device_counts", counts)
        n = int(self.n_modules)
        if counts:
            _require(
                all(c > 0 for _, c in counts),
                "device_counts entries must be positive",
            )
            total = sum(c for _, c in counts)
            _require(
                n in (0, total),
                f"n_modules={n} disagrees with device_counts total {total}",
            )
            n = total
        _require(n > 0, "a fleet needs n_modules > 0 or device_counts")
        object.__setattr__(self, "n_modules", n)

    @property
    def is_hetero(self) -> bool:
        return bool(self.device_counts)

    @classmethod
    def parse(cls, text: str, *, fleet_id: str = "") -> "FleetSpec":
        """Parse the CLI shorthand ``system:n_modules[:seed]``."""
        parts = str(text).split(":")
        _require(
            2 <= len(parts) <= 3,
            f"fleet spec {text!r} is not system:n_modules[:seed]",
        )
        try:
            n = int(parts[1])
            seed = int(parts[2]) if len(parts) == 3 else 2015
        except ValueError:
            raise ServiceError(
                "bad-request", f"fleet spec {text!r} has non-integer fields"
            )
        return cls(system=parts[0], n_modules=n, seed=seed, fleet_id=fleet_id)


@dataclass(frozen=True)
class FleetHandle:
    """A hosted fleet, as the service addresses it.

    ``shm_name`` is always the empty string.  The service exports no
    shared-memory block; the field stays so the v1 wire format is
    unchanged.
    """

    fleet_id: str
    system: str
    n_modules: int
    seed: int
    shm_name: str = ""


# -- allocation (the fast path) ------------------------------------------------

@dataclass(frozen=True)
class AllocationRequest:
    """Plan one scheme's α allocations for many budgets on a hosted fleet.

    The service answers from its cached power-model table — no
    simulation, no fleet-sized temporaries — so this is the hot query
    of the load generator.  Build requests with :meth:`build`, which is
    the shared normalisation/validation path for the CLI, the wire, and
    in-process callers.
    """

    fleet_id: str
    app: str = "bt"
    scheme: str = "vafsor"
    budgets_w: tuple[float, ...] = ()
    test_module: int = 0
    noisy: bool = True
    fs_guardband_frac: float = 0.02

    def __post_init__(self):
        object.__setattr__(self, "fleet_id", str(self.fleet_id))
        object.__setattr__(self, "budgets_w", _floats(self.budgets_w, "budgets_w"))
        _require(bool(self.budgets_w), "budgets_w must not be empty")
        _require(self.fs_guardband_frac >= 0.0, "fs_guardband_frac must be >= 0")
        object.__setattr__(self, "app", _validated_app(self.app))
        object.__setattr__(self, "scheme", _validated_scheme(self.scheme))

    @classmethod
    def build(
        cls,
        *,
        fleet_id: str,
        app: str = "bt",
        scheme: str = "vafsor",
        budgets_w,
        test_module: int = 0,
        noisy: bool = True,
        fs_guardband_frac: float = 0.02,
    ) -> "AllocationRequest":
        """The one request builder (CLI flags and wire payloads both
        land here): coerces budgets, validates app and scheme names
        against their registries, raises :class:`ServiceError` on any
        mismatch."""
        return cls(
            fleet_id=fleet_id,
            app=app,
            scheme=scheme,
            budgets_w=budgets_w,
            test_module=int(test_module),
            noisy=bool(noisy),
            fs_guardband_frac=float(fs_guardband_frac),
        )


@dataclass(frozen=True)
class BudgetAllocation:
    """One budget's solved α point (scalars only — per-module arrays
    stay server-side; ``total_allocated_w`` is the Eq (5) aggregate
    ``α·span + floor``)."""

    budget_w: float
    feasible: bool
    alpha: float = 0.0
    raw_alpha: float = 0.0
    constrained: bool = False
    freq_ghz: float = 0.0
    total_allocated_w: float = 0.0
    floor_w: float = 0.0


@dataclass(frozen=True)
class AllocationResult:
    """The service's answer to an :class:`AllocationRequest` — one
    :class:`BudgetAllocation` per requested budget, in request order."""

    fleet_id: str
    app: str
    scheme: str
    n_modules: int
    allocations: tuple[BudgetAllocation, ...]


# -- sweeps (full engine-backed runs) -------------------------------------------

@dataclass(frozen=True)
class SweepRequest:
    """Run the apps × schemes × budgets cross product as cached engine
    runs (full simulation, digest-addressed).  Results are bit-identical
    to :meth:`repro.exec.ExperimentEngine.submit_sweep` over the
    same :class:`~repro.exec.cache.RunKey` set — the service *is* that
    call."""

    fleet_id: str
    apps: tuple[str, ...] = ("bt",)
    schemes: tuple[str, ...] = ("vafsor",)
    budgets_w: tuple[float, ...] = ()
    n_iters: int | None = None
    noisy: bool = True
    fs_guardband_frac: float = 0.02
    test_module: int = 0

    def __post_init__(self):
        object.__setattr__(self, "fleet_id", str(self.fleet_id))
        object.__setattr__(self, "budgets_w", _floats(self.budgets_w, "budgets_w"))
        _require(bool(self.budgets_w), "budgets_w must not be empty")
        _require(self.fs_guardband_frac >= 0.0, "fs_guardband_frac must be >= 0")
        apps = tuple(_validated_app(a) for a in _strs(self.apps, "apps"))
        schemes = tuple(
            _validated_scheme(s) for s in _strs(self.schemes, "schemes")
        )
        _require(bool(apps), "apps must not be empty")
        _require(bool(schemes), "schemes must not be empty")
        object.__setattr__(self, "apps", apps)
        object.__setattr__(self, "schemes", schemes)
        if self.n_iters is not None:
            object.__setattr__(self, "n_iters", int(self.n_iters))


@dataclass(frozen=True)
class SweepRun:
    """One run of a sweep: its cache digest plus the headline scalars.

    ``digest`` is the :meth:`RunKey.digest` content address — equal
    digests mean equal requests, and the digest-proof test in
    ``tests/service`` pins the payloads bit-identical to direct engine
    sweeps."""

    app: str
    scheme: str
    budget_w: float
    digest: str
    feasible: bool
    makespan_s: float = 0.0
    total_power_w: float = 0.0
    within_budget: bool = False
    vf: float = 0.0
    vt: float = 0.0


@dataclass(frozen=True)
class SweepResult:
    fleet_id: str
    runs: tuple[SweepRun, ...]


# -- job membership ------------------------------------------------------------

@dataclass(frozen=True)
class JobAdmitRequest:
    """Admit a job of ``n_modules`` onto a hosted fleet.  The service
    re-solves the fleet's global α over the new active membership."""

    fleet_id: str
    job_id: str
    n_modules: int

    def __post_init__(self):
        object.__setattr__(self, "fleet_id", str(self.fleet_id))
        object.__setattr__(self, "job_id", str(self.job_id))
        object.__setattr__(self, "n_modules", int(self.n_modules))
        _require(self.n_modules > 0, "a job needs n_modules > 0")
        _require(bool(self.job_id), "a job needs a job_id")


@dataclass(frozen=True)
class JobDepartRequest:
    fleet_id: str
    job_id: str

    def __post_init__(self):
        object.__setattr__(self, "fleet_id", str(self.fleet_id))
        object.__setattr__(self, "job_id", str(self.job_id))


@dataclass(frozen=True)
class BudgetUpdateRequest:
    """Change a hosted fleet's global power budget (W); the active jobs'
    shared α is re-solved against the new bound."""

    fleet_id: str
    budget_w: float
    app: str = "bt"
    scheme: str = "vafsor"

    def __post_init__(self):
        object.__setattr__(self, "fleet_id", str(self.fleet_id))
        object.__setattr__(self, "budget_w", float(self.budget_w))
        _require(
            math.isfinite(self.budget_w) and self.budget_w > 0.0,
            "budget_w must be finite and positive",
        )
        object.__setattr__(self, "app", _validated_app(self.app))
        object.__setattr__(self, "scheme", _validated_scheme(self.scheme))


@dataclass(frozen=True)
class JobStateResult:
    """The fleet's membership state after an admit/depart/budget change:
    the freshly re-solved shared α over the active modules."""

    fleet_id: str
    jobs: tuple[str, ...]
    active_modules: int
    budget_w: float
    feasible: bool
    alpha: float = 0.0
    freq_ghz: float = 0.0
    floor_w: float = 0.0


# -- schemes, telemetry, acks ----------------------------------------------------

@dataclass(frozen=True)
class SchemeInfo:
    """One registry entry, as ``repro schemes`` renders it."""

    name: str
    label: str
    pmt_kind: str
    actuation: str
    variation_aware: bool
    app_dependent: bool


@dataclass(frozen=True)
class SchemesResult:
    schemes: tuple[SchemeInfo, ...]


@dataclass(frozen=True)
class TelemetryRequest:
    """Stream ``samples`` service-telemetry snapshots, ``interval_s``
    apart, as consecutive reply lines on the same connection."""

    samples: int = 1
    interval_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "interval_s", float(self.interval_s))
        _require(1 <= self.samples <= 10_000, "samples must be in [1, 10000]")
        _require(
            0.0 <= self.interval_s < math.inf, "interval_s must be finite and >= 0"
        )


@dataclass(frozen=True)
class TelemetrySample:
    """One point-in-time service snapshot: daemon counters plus (when
    the server runs with telemetry enabled) the library's own counters
    via :func:`repro.telemetry.snapshot`."""

    uptime_s: float
    inflight: int
    fleets: int
    jobs: int
    served: tuple[tuple[str, int], ...] = ()
    rejected: tuple[tuple[str, int], ...] = ()
    counters: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class Ack:
    """Generic success reply for ops with nothing to report."""

    message: str = "ok"


# -- the op table and envelope ----------------------------------------------------

#: op name -> request payload type.  The daemon and the client share this
#: table; an op absent here is rejected with ``unknown-op``.
REQUEST_TYPES: dict[str, type] = {
    "ping": Ack,
    "open-fleet": FleetSpec,
    "close-fleet": FleetHandle,
    "allocate": AllocationRequest,
    "sweep": SweepRequest,
    "admit": JobAdmitRequest,
    "depart": JobDepartRequest,
    "set-budget": BudgetUpdateRequest,
    "schemes": Ack,
    "telemetry": TelemetryRequest,
    "drain": Ack,
}

#: op name -> result payload type (for typed client-side decoding).
RESULT_TYPES: dict[str, type] = {
    "ping": Ack,
    "open-fleet": FleetHandle,
    "close-fleet": Ack,
    "allocate": AllocationResult,
    "sweep": SweepResult,
    "admit": JobStateResult,
    "depart": JobStateResult,
    "set-budget": JobStateResult,
    "schemes": SchemesResult,
    "telemetry": TelemetrySample,
    "drain": Ack,
}

# Compile every op's codec now: an unsupported annotation fails the import.
for _cls in (*REQUEST_TYPES.values(), *RESULT_TYPES.values()):
    _codec(_cls)
del _cls


def encode_request(op: str, payload) -> bytes:
    """One request as a newline-terminated JSON line."""
    body = {"schema_version": SCHEMA_VERSION, "op": op, "payload": to_wire(payload)}
    return (json.dumps(body, separators=(",", ":")) + "\n").encode()


def decode_request(line: bytes | str) -> tuple[str, object]:
    """Parse and strictly validate one request line -> (op, typed payload).

    Raises :class:`ServiceError` (never a bare ``json`` or ``KeyError``
    exception) so the daemon can always answer with a typed reply.
    """
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ServiceError("bad-request", f"request is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ServiceError("bad-request", "request must be a JSON object")
    extra = sorted(set(obj) - {"schema_version", "op", "payload"})
    if extra:
        raise ServiceError(
            "unknown-field", f"unexpected envelope field(s): {', '.join(extra)}"
        )
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ServiceError(
            "unknown-version",
            f"schema_version {version!r} is not supported; this server "
            f"speaks version {SCHEMA_VERSION} (see docs/API.md for the "
            "deprecation policy)",
        )
    op = obj.get("op")
    req_cls = REQUEST_TYPES.get(op)
    if req_cls is None:
        known = ", ".join(sorted(REQUEST_TYPES))
        raise ServiceError("unknown-op", f"unknown op {op!r}; known ops: {known}")
    return op, from_wire(req_cls, obj.get("payload", {}))


def encode_reply(op: str, result=None, error: ServiceError | None = None) -> bytes:
    """One reply as a newline-terminated JSON line."""
    body: dict = {"schema_version": SCHEMA_VERSION, "op": op, "ok": error is None}
    if error is None:
        body["result"] = to_wire(result) if result is not None else None
    else:
        body["error"] = error.to_wire()
    return (json.dumps(body, separators=(",", ":")) + "\n").encode()


def decode_reply(line: bytes | str):
    """Parse one reply line into its typed result.

    Raises the embedded :class:`ServiceError` for ``ok: false`` replies,
    so client code handles wire errors and local errors identically.
    """
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ServiceError("internal", f"reply is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ServiceError("internal", "reply must be a JSON object")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ServiceError(
            "unknown-version",
            f"reply schema_version {version!r} does not match {SCHEMA_VERSION}",
        )
    if not obj.get("ok", False):
        raise ServiceError.from_wire(obj.get("error", {}))
    result_cls = RESULT_TYPES.get(obj.get("op"))
    if result_cls is None:
        raise ServiceError("internal", f"reply for unknown op {obj.get('op')!r}")
    return from_wire(result_cls, obj.get("result") or {})
