"""The daemon over real sockets: backpressure, drain, HTTP, telemetry.

These tests run the full stack — :class:`BackgroundServer` on a worker
thread, :class:`ServiceClient` over a unix socket — and pin the
operational contracts of the acceptance criteria: overload produces
*typed retryable rejects* (never queue collapse), shutdown is a drain
that closes every hosted fleet and exports nothing to ``/dev/shm``, and
the HTTP adapter maps error codes onto real HTTP statuses.
"""

import http.client
import json
import os
import socket
import threading
import time

import pytest

import repro.telemetry as telemetry
from repro.service.api import (
    SCHEMA_VERSION,
    AllocationRequest,
    FleetSpec,
    JobAdmitRequest,
    JobDepartRequest,
    ServiceError,
)
from repro.service.client import ServiceClient
from repro.service.daemon import BackgroundServer
from repro.service.loadgen import run_load

N = 64


@pytest.fixture()
def server():
    with BackgroundServer() as srv:
        yield srv


@pytest.fixture()
def fleet(server):
    return server.service.open_fleet(
        FleetSpec(system="ha8k", n_modules=N, seed=3, fleet_id="f0")
    )


class TestRequestReply:
    def test_ping_and_allocate_over_socket(self, server, fleet):
        with ServiceClient(server.address) as client:
            assert client.ping().message == "ok"
            result = client.allocate(
                AllocationRequest.build(
                    fleet_id="f0", scheme="vafsor", budgets_w=[80.0 * N]
                )
            )
            assert result.n_modules == N
            assert result.allocations[0].feasible

    def test_open_fleet_over_socket_exports_shm(self, server, psm_segments):
        """An opened fleet exports no shared-memory block: its handle's
        ``shm_name`` is empty and no ``psm_*`` segment appears."""
        before = psm_segments()
        with ServiceClient(server.address) as client:
            handle = client.open_fleet(
                FleetSpec(system="ha8k", n_modules=N, seed=3, fleet_id="w")
            )
            assert handle.shm_name == ""
            assert psm_segments() == before
            client.close_fleet(handle)
        assert psm_segments() == before

    def test_wire_error_is_typed(self, server):
        with ServiceClient(server.address) as client:
            with pytest.raises(ServiceError) as exc:
                client.allocate(
                    AllocationRequest.build(fleet_id="ghost", budgets_w=[1e4])
                )
            assert exc.value.code == "unknown-fleet"
            assert not exc.value.retryable

    def test_malformed_line_gets_typed_reply(self, server):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(server.address)
            s.sendall(b"this is not json\n")
            reply = json.loads(s.makefile("rb").readline())
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-request"

    def test_unknown_version_rejected_on_the_wire(self, server):
        line = (
            json.dumps(
                {"schema_version": 999, "op": "ping", "payload": {}}
            ).encode()
            + b"\n"
        )
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(server.address)
            s.sendall(line)
            reply = json.loads(s.makefile("rb").readline())
        assert reply["ok"] is False
        assert reply["error"]["code"] == "unknown-version"
        assert reply["schema_version"] == SCHEMA_VERSION


#: Payloads whose values have the wrong JSON type: each must get a typed
#: bad-request reply and leave the connection usable.
MALFORMED = [
    ("admit", {"fleet_id": "f0", "job_id": "j1", "n_modules": "abc"}),
    ("telemetry", {"samples": None}),
]


def _line(op, payload):
    body = {"schema_version": SCHEMA_VERSION, "op": op, "payload": payload}
    return json.dumps(body).encode() + b"\n"


class TestMalformedValues:
    @pytest.mark.parametrize("op, payload", MALFORMED, ids=[m[0] for m in MALFORMED])
    def test_typed_reply_then_ping_on_same_connection(
        self, server, op, payload, caplog
    ):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(10)
            s.connect(server.address)
            replies = s.makefile("rb")
            s.sendall(_line(op, payload))
            reply = json.loads(replies.readline())
            assert reply["ok"] is False
            assert reply["error"]["code"] == "bad-request"
            s.sendall(_line("ping", {}))
            reply = json.loads(replies.readline())
        assert reply["ok"] is True and reply["op"] == "ping"
        assert "Unhandled exception" not in caplog.text


class TestBackpressure:
    def test_overload_is_fast_typed_reject(self, fleet, monkeypatch):
        """With max_pending=1 and a deliberately slow handler, a second
        concurrent request must bounce immediately with a retryable
        `overloaded` error — not queue behind the first."""
        monkeypatch.setenv("REPRO_SERVICE_TEST_DELAY_MS", "500")
        with BackgroundServer(max_pending=1) as slow:
            first_ok = []

            def _slow_ping():
                with ServiceClient(slow.address) as c:
                    first_ok.append(c.ping().message)

            t = threading.Thread(target=_slow_ping)
            t.start()
            time.sleep(0.15)  # let the first request enter the handler
            t0 = time.monotonic()
            with ServiceClient(slow.address) as client:
                with pytest.raises(ServiceError) as exc:
                    client.ping()
            reject_latency = time.monotonic() - t0
            t.join(timeout=10)

            assert exc.value.code == "overloaded"
            assert exc.value.retryable
            # The reject must not have waited out the 500 ms handler.
            assert reject_latency < 0.4
            assert first_ok == ["ok"]  # the slow request still completed

    def test_loadgen_round_trips(self, server, fleet):
        report = run_load(
            server.address,
            fleet_id="f0",
            duration_s=0.4,
            concurrency=2,
            budgets_w=(80.0 * N,),
        )
        assert report.n_ok > 0
        assert report.n_error == 0
        assert report.qps > 0

    def test_loadgen_default_concurrency_is_affinity_derived(self):
        from repro.service.loadgen import _default_concurrency
        from repro.util.topology import effective_cpu_count

        expected = max(1, min(4, 2 * effective_cpu_count()))
        assert _default_concurrency() == expected


class TestDrain:
    def test_drain_destroys_fleets_and_socket(self, psm_segments):
        before = psm_segments()
        server = BackgroundServer()
        server.start()
        addr = server.address
        handle = server.service.open_fleet(
            FleetSpec(system="ha8k", n_modules=N, seed=3, fleet_id="d0")
        )
        assert handle.shm_name == ""
        with ServiceClient(addr) as client:
            assert client.drain().message == "draining"
        server.drain()
        assert server.service.n_fleets == 0
        assert psm_segments() == before
        assert not os.path.exists(addr)
        # A fresh connection can only fail typed-and-retryable.
        with pytest.raises(ServiceError) as exc:
            ServiceClient(addr).ping()
        assert exc.value.code == "connection-lost"
        assert exc.value.retryable

    def test_drain_is_idempotent(self, server):
        server.drain()
        server.drain()


class TestTelemetryStream:
    def test_streams_n_samples_with_counters(self, server, fleet):
        with ServiceClient(server.address) as client:
            client.ping()
            client.allocate(
                AllocationRequest.build(fleet_id="f0", budgets_w=[80.0 * N])
            )
            samples = client.telemetry(samples=3, interval_s=0.01)
        assert len(samples) == 3
        last = samples[-1]
        assert last.fleets == 1
        assert last.uptime_s > 0
        served = dict(last.served)
        assert served.get("ping", 0) >= 1
        assert served.get("allocate", 0) >= 1


    def test_membership_path_counters_reach_the_stream(self, server, fleet):
        """With telemetry on, the telemetry op reports which membership
        path each re-solve took."""
        telemetry.enable()
        try:
            with ServiceClient(server.address) as client:
                for job_id in "abc":
                    client.admit(JobAdmitRequest("f0", job_id, 16))
                client.depart(JobDepartRequest("f0", "b"))
                (sample,) = client.telemetry(samples=1, interval_s=0.01)
        finally:
            telemetry.disable()
        counters = dict(sample.counters)
        assert counters["service.membership_slice"] == 3
        assert counters["service.membership_gather"] == 1


class TestHttpAdapter:
    def post(self, port, path, body):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request(
                "POST",
                path,
                body=json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def test_post_maps_codes_to_statuses(self, monkeypatch):
        with BackgroundServer(http_port=0) as server:
            port = server.daemon.http_port
            server.service.open_fleet(
                FleetSpec(system="ha8k", n_modules=N, seed=3, fleet_id="h0")
            )

            status, reply = self.post(
                port, "/v1/ping", {"schema_version": SCHEMA_VERSION, "payload": {}}
            )
            assert status == 200 and reply["ok"]

            status, reply = self.post(
                port,
                "/v1/allocate",
                {
                    "schema_version": SCHEMA_VERSION,
                    "payload": {"fleet_id": "h0", "budgets_w": [80.0 * N]},
                },
            )
            assert status == 200
            assert reply["result"]["allocations"][0]["feasible"]

            # unknown fleet -> 404
            status, reply = self.post(
                port,
                "/v1/allocate",
                {
                    "schema_version": SCHEMA_VERSION,
                    "payload": {"fleet_id": "ghost", "budgets_w": [1.0]},
                },
            )
            assert status == 404
            assert reply["error"]["code"] == "unknown-fleet"

            # wrong version -> 400
            status, reply = self.post(
                port, "/v1/ping", {"schema_version": 999, "payload": {}}
            )
            assert status == 400
            assert reply["error"]["code"] == "unknown-version"

            # unknown op -> 404
            status, reply = self.post(
                port, "/v1/explode", {"schema_version": SCHEMA_VERSION, "payload": {}}
            )
            assert status == 404
            assert reply["error"]["code"] == "unknown-op"

    @pytest.mark.parametrize("op, payload", MALFORMED, ids=[m[0] for m in MALFORMED])
    def test_malformed_value_is_400(self, op, payload, caplog):
        with BackgroundServer(http_port=0) as server:
            status, reply = self.post(
                server.daemon.http_port,
                f"/v1/{op}",
                {"schema_version": SCHEMA_VERSION, "payload": payload},
            )
        assert status == 400
        assert reply["error"]["code"] == "bad-request"
        assert "Unhandled exception" not in caplog.text
