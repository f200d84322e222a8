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
``overloaded``/``draining``/``worker-crashed`` are safe to retry,
``bad-request``/``unknown-*`` are not), and round-trips through
:meth:`ServiceError.to_wire` / :meth:`ServiceError.from_wire`.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

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


# -- strict (de)serialisation helpers ------------------------------------------

def _check_fields(cls, obj: object) -> dict:
    """Validate a wire payload against ``cls``'s exact field set.

    Unknown keys are rejected (``unknown-field``), keys for fields
    without defaults must be present (``bad-request``).  Returns the
    payload dict for the caller to coerce field-by-field.
    """
    if not isinstance(obj, dict):
        raise ServiceError(
            "bad-request",
            f"{cls.__name__} payload must be an object, got {type(obj).__name__}",
        )
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ServiceError(
            "unknown-field",
            f"{cls.__name__} does not accept field(s) {', '.join(unknown)} "
            f"at schema_version {SCHEMA_VERSION}",
        )
    for f in fields(cls):
        if (
            f.name not in obj
            and f.default is MISSING
            and f.default_factory is MISSING
        ):
            raise ServiceError(
                "bad-request", f"{cls.__name__} is missing required field {f.name!r}"
            )
    return obj


def _wire_value(value):
    """A dataclass field value as plain JSON-encodable data."""
    if isinstance(value, tuple):
        return [_wire_value(v) for v in value]
    if hasattr(value, "to_wire"):
        return value.to_wire()
    return value


def _to_wire(dc) -> dict:
    """Generic dataclass -> wire dict (tuples become lists, nested
    dataclasses recurse through their own ``to_wire``)."""
    return {f.name: _wire_value(getattr(dc, f.name)) for f in fields(dc)}


def _floats(value, name: str) -> tuple[float, ...]:
    try:
        out = tuple(float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ServiceError("bad-request", f"{name} must be a list of numbers: {exc}")
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

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "FleetSpec":
        obj = _check_fields(cls, obj)
        counts = obj.get("device_counts", ())
        try:
            counts = tuple((str(n), int(c)) for n, c in counts)
        except (TypeError, ValueError):
            raise ServiceError(
                "bad-request", "device_counts must be [name, count] pairs"
            )
        return cls(
            system=obj.get("system", "ha8k"),
            n_modules=int(obj.get("n_modules", 0)),
            seed=int(obj.get("seed", 2015)),
            fleet_id=obj.get("fleet_id", ""),
            device_counts=counts,
        )


@dataclass(frozen=True)
class FleetHandle:
    """A hosted fleet, as the service addresses it.

    ``shm_name`` names the POSIX shared-memory block holding the
    fleet's variation arrays (empty when the service was configured not
    to export) — the same block :func:`repro.exec.shared.attach_fleet`
    maps, so an engine worker on the same machine can attach the hot
    fleet zero-copy.
    """

    fleet_id: str
    system: str
    n_modules: int
    seed: int
    shm_name: str = ""

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "FleetHandle":
        obj = _check_fields(cls, obj)
        return cls(
            fleet_id=str(obj["fleet_id"]),
            system=str(obj["system"]),
            n_modules=int(obj["n_modules"]),
            seed=int(obj["seed"]),
            shm_name=str(obj.get("shm_name", "")),
        )


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
            budgets_w=tuple(budgets_w),
            test_module=int(test_module),
            noisy=bool(noisy),
            fs_guardband_frac=float(fs_guardband_frac),
        )

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "AllocationRequest":
        obj = _check_fields(cls, obj)
        return cls.build(
            fleet_id=obj["fleet_id"],
            app=obj.get("app", "bt"),
            scheme=obj.get("scheme", "vafsor"),
            budgets_w=_floats(obj.get("budgets_w", ()), "budgets_w"),
            test_module=obj.get("test_module", 0),
            noisy=obj.get("noisy", True),
            fs_guardband_frac=obj.get("fs_guardband_frac", 0.02),
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

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "BudgetAllocation":
        obj = _check_fields(cls, obj)
        return cls(
            budget_w=float(obj["budget_w"]),
            feasible=bool(obj["feasible"]),
            alpha=float(obj.get("alpha", 0.0)),
            raw_alpha=float(obj.get("raw_alpha", 0.0)),
            constrained=bool(obj.get("constrained", False)),
            freq_ghz=float(obj.get("freq_ghz", 0.0)),
            total_allocated_w=float(obj.get("total_allocated_w", 0.0)),
            floor_w=float(obj.get("floor_w", 0.0)),
        )


@dataclass(frozen=True)
class AllocationResult:
    """The service's answer to an :class:`AllocationRequest` — one
    :class:`BudgetAllocation` per requested budget, in request order."""

    fleet_id: str
    app: str
    scheme: str
    n_modules: int
    allocations: tuple[BudgetAllocation, ...]

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "AllocationResult":
        obj = _check_fields(cls, obj)
        return cls(
            fleet_id=str(obj["fleet_id"]),
            app=str(obj["app"]),
            scheme=str(obj["scheme"]),
            n_modules=int(obj["n_modules"]),
            allocations=tuple(
                BudgetAllocation.from_wire(a) for a in obj["allocations"]
            ),
        )


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

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "SweepRequest":
        obj = _check_fields(cls, obj)
        return cls(
            fleet_id=obj["fleet_id"],
            apps=tuple(_strs(obj.get("apps", ["bt"]), "apps")),
            schemes=tuple(_strs(obj.get("schemes", ["vafsor"]), "schemes")),
            budgets_w=_floats(obj.get("budgets_w", ()), "budgets_w"),
            n_iters=obj.get("n_iters"),
            noisy=bool(obj.get("noisy", True)),
            fs_guardband_frac=float(obj.get("fs_guardband_frac", 0.02)),
            test_module=int(obj.get("test_module", 0)),
        )


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

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "SweepRun":
        obj = _check_fields(cls, obj)
        return cls(
            app=str(obj["app"]),
            scheme=str(obj["scheme"]),
            budget_w=float(obj["budget_w"]),
            digest=str(obj["digest"]),
            feasible=bool(obj["feasible"]),
            makespan_s=float(obj.get("makespan_s", 0.0)),
            total_power_w=float(obj.get("total_power_w", 0.0)),
            within_budget=bool(obj.get("within_budget", False)),
            vf=float(obj.get("vf", 0.0)),
            vt=float(obj.get("vt", 0.0)),
        )


@dataclass(frozen=True)
class SweepResult:
    fleet_id: str
    runs: tuple[SweepRun, ...]

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "SweepResult":
        obj = _check_fields(cls, obj)
        return cls(
            fleet_id=str(obj["fleet_id"]),
            runs=tuple(SweepRun.from_wire(r) for r in obj["runs"]),
        )


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

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "JobAdmitRequest":
        obj = _check_fields(cls, obj)
        return cls(
            fleet_id=obj["fleet_id"],
            job_id=obj["job_id"],
            n_modules=obj["n_modules"],
        )


@dataclass(frozen=True)
class JobDepartRequest:
    fleet_id: str
    job_id: str

    def __post_init__(self):
        object.__setattr__(self, "fleet_id", str(self.fleet_id))
        object.__setattr__(self, "job_id", str(self.job_id))

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "JobDepartRequest":
        obj = _check_fields(cls, obj)
        return cls(fleet_id=obj["fleet_id"], job_id=obj["job_id"])


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

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "BudgetUpdateRequest":
        obj = _check_fields(cls, obj)
        return cls(
            fleet_id=obj["fleet_id"],
            budget_w=obj["budget_w"],
            app=obj.get("app", "bt"),
            scheme=obj.get("scheme", "vafsor"),
        )


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

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "JobStateResult":
        obj = _check_fields(cls, obj)
        return cls(
            fleet_id=str(obj["fleet_id"]),
            jobs=tuple(str(j) for j in obj["jobs"]),
            active_modules=int(obj["active_modules"]),
            budget_w=float(obj["budget_w"]),
            feasible=bool(obj["feasible"]),
            alpha=float(obj.get("alpha", 0.0)),
            freq_ghz=float(obj.get("freq_ghz", 0.0)),
            floor_w=float(obj.get("floor_w", 0.0)),
        )


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

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "SchemeInfo":
        obj = _check_fields(cls, obj)
        return cls(
            name=str(obj["name"]),
            label=str(obj["label"]),
            pmt_kind=str(obj["pmt_kind"]),
            actuation=str(obj["actuation"]),
            variation_aware=bool(obj["variation_aware"]),
            app_dependent=bool(obj["app_dependent"]),
        )


@dataclass(frozen=True)
class SchemesResult:
    schemes: tuple[SchemeInfo, ...]

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "SchemesResult":
        obj = _check_fields(cls, obj)
        return cls(
            schemes=tuple(SchemeInfo.from_wire(s) for s in obj["schemes"])
        )


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
        _require(self.interval_s >= 0.0, "interval_s must be >= 0")

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "TelemetryRequest":
        obj = _check_fields(cls, obj)
        return cls(
            samples=obj.get("samples", 1),
            interval_s=obj.get("interval_s", 0.0),
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

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "TelemetrySample":
        obj = _check_fields(cls, obj)

        def pairs(name, cast):
            try:
                return tuple((str(k), cast(v)) for k, v in obj.get(name, ()))
            except (TypeError, ValueError):
                raise ServiceError("bad-request", f"{name} must be [key, value] pairs")

        return cls(
            uptime_s=float(obj["uptime_s"]),
            inflight=int(obj["inflight"]),
            fleets=int(obj["fleets"]),
            jobs=int(obj["jobs"]),
            served=pairs("served", int),
            rejected=pairs("rejected", int),
            counters=pairs("counters", float),
        )


@dataclass(frozen=True)
class Ack:
    """Generic success reply for ops with nothing to report."""

    message: str = "ok"

    def to_wire(self) -> dict:
        return _to_wire(self)

    @classmethod
    def from_wire(cls, obj: dict) -> "Ack":
        obj = _check_fields(cls, obj)
        return cls(message=str(obj.get("message", "ok")))


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


def encode_request(op: str, payload) -> bytes:
    """One request as a newline-terminated JSON line."""
    return (
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "op": op,
                "payload": payload.to_wire(),
            },
            separators=(",", ":"),
        )
        + "\n"
    ).encode()


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
    return op, req_cls.from_wire(obj.get("payload", {}))


def encode_reply(op: str, result=None, error: ServiceError | None = None) -> bytes:
    """One reply as a newline-terminated JSON line."""
    body: dict = {"schema_version": SCHEMA_VERSION, "op": op, "ok": error is None}
    if error is None:
        body["result"] = result.to_wire() if result is not None else None
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
    return result_cls.from_wire(obj.get("result") or {})
