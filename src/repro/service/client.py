"""The typed synchronous client for the allocation service.

:class:`ServiceClient` speaks the NDJSON protocol of
:mod:`repro.service.api` over a unix socket (string address) or TCP
(``(host, port)`` tuple), one persistent connection per client.  Every
method sends one typed request and returns the typed result; every
failure — wire errors the server replied with, timeouts, a dropped
connection — surfaces as a :class:`~repro.service.api.ServiceError`
whose ``retryable`` flag tells the caller whether backing off and
retrying can help (``overloaded``/``draining``/``timeout``/
``connection-lost``) or the request itself is wrong.

The client is thread-safe (one request/reply exchange at a time under a
lock) and a context manager::

    with ServiceClient(address) as client:
        fleet = client.open_fleet(FleetSpec(system="ha8k", n_modules=10_000))
        result = client.allocate(
            AllocationRequest.build(
                fleet_id=fleet.fleet_id, scheme="vafsor", budgets_w=[800e3]
            )
        )
"""

from __future__ import annotations

import socket
import threading

from repro.service.api import (
    Ack,
    AllocationRequest,
    AllocationResult,
    BudgetUpdateRequest,
    FleetHandle,
    FleetSpec,
    JobAdmitRequest,
    JobDepartRequest,
    JobStateResult,
    SchemesResult,
    ServiceError,
    SweepRequest,
    SweepResult,
    TelemetryRequest,
    TelemetrySample,
    decode_reply,
    encode_request,
)

__all__ = ["ServiceClient"]


class ServiceClient:
    """One connection to a running allocation service (see module doc).

    Parameters
    ----------
    address:
        A unix-socket path (``str``) or a ``(host, port)`` tuple.
    timeout:
        Socket timeout per reply, seconds.  Expired waits raise a
        retryable ``timeout`` :class:`ServiceError`; the connection is
        then considered poisoned and reconnects on the next call.
    """

    def __init__(self, address: str | tuple[str, int], timeout: float = 30.0):
        self.address = address
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._file = None

    # -- connection management ---------------------------------------------------

    def _connect(self) -> None:
        if isinstance(self.address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(
                self.address
                if isinstance(self.address, str)
                else tuple(self.address)
            )
        except OSError as exc:
            sock.close()
            raise ServiceError(
                "connection-lost",
                f"cannot connect to {self.address!r}: {exc}",
                retryable=True,
            )
        self._sock = sock
        self._file = sock.makefile("rb")

    def _reset(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._file = None

    def close(self) -> None:
        """Drop the connection (the server keeps running)."""
        with self._lock:
            self._reset()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the request/reply exchange -------------------------------------------------

    def _call(self, op: str, payload):
        with self._lock:
            if self._sock is None:
                self._connect()
            try:
                self._sock.sendall(encode_request(op, payload))
                line = self._file.readline()
            except socket.timeout:
                self._reset()
                raise ServiceError(
                    "timeout",
                    f"no reply to {op!r} within {self.timeout}s",
                    retryable=True,
                )
            except OSError as exc:
                self._reset()
                raise ServiceError(
                    "connection-lost",
                    f"connection dropped during {op!r}: {exc}",
                    retryable=True,
                )
            if not line:
                self._reset()
                raise ServiceError(
                    "connection-lost",
                    f"server closed the connection during {op!r} "
                    "(draining or crashed)",
                    retryable=True,
                )
            return decode_reply(line)

    def _read_stream_line(self, op: str):
        try:
            line = self._file.readline()
        except socket.timeout:
            self._reset()
            raise ServiceError(
                "timeout",
                f"no {op} stream line within {self.timeout}s",
                retryable=True,
            )
        if not line:
            self._reset()
            raise ServiceError(
                "connection-lost", f"{op} stream ended early", retryable=True
            )
        return decode_reply(line)

    # -- typed operations --------------------------------------------------------

    def ping(self) -> Ack:
        return self._call("ping", Ack())

    def open_fleet(self, spec: FleetSpec) -> FleetHandle:
        """Build and host a fleet; returns its service handle."""
        return self._call("open-fleet", spec)

    def close_fleet(self, fleet: FleetHandle | str) -> Ack:
        if isinstance(fleet, str):
            fleet = FleetHandle(
                fleet_id=fleet, system="", n_modules=1, seed=0
            )
        return self._call("close-fleet", fleet)

    def allocate(self, request: AllocationRequest) -> AllocationResult:
        """The fast path: solved α points for every budget."""
        return self._call("allocate", request)

    def sweep(self, request: SweepRequest) -> SweepResult:
        """Full engine-backed simulation sweep (digest-addressed)."""
        return self._call("sweep", request)

    def admit(self, request: JobAdmitRequest) -> JobStateResult:
        return self._call("admit", request)

    def depart(self, request: JobDepartRequest) -> JobStateResult:
        return self._call("depart", request)

    def set_budget(self, request: BudgetUpdateRequest) -> JobStateResult:
        return self._call("set-budget", request)

    def schemes(self) -> SchemesResult:
        """The server's live scheme registry."""
        return self._call("schemes", Ack())

    def telemetry(
        self, samples: int = 1, interval_s: float = 0.0
    ) -> list[TelemetrySample]:
        """Stream ``samples`` telemetry snapshots (blocking)."""
        req = TelemetryRequest(samples=samples, interval_s=interval_s)
        with self._lock:
            if self._sock is None:
                self._connect()
            try:
                self._sock.sendall(encode_request("telemetry", req))
            except OSError as exc:
                self._reset()
                raise ServiceError(
                    "connection-lost",
                    f"connection dropped sending telemetry: {exc}",
                    retryable=True,
                )
            return [self._read_stream_line("telemetry") for _ in range(samples)]

    def drain(self) -> Ack:
        """Ask the server to drain and shut down gracefully."""
        return self._call("drain", Ack())
