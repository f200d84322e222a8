"""The wire schema: typed round-trips, strict versioning, typed rejects.

Everything that crosses the service boundary goes through
``repro.service.api`` — these tests pin the two properties the module
exists for: (a) every request/response dataclass survives a wire
round-trip unchanged, and (b) anything the schema does not recognise
(wrong ``schema_version``, unknown op, unknown payload field) is
rejected with a *typed* :class:`ServiceError`, never silently dropped
or re-raised as a bare ``KeyError``.
"""

import json
from dataclasses import dataclass, fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.api import (
    SCHEMA_VERSION,
    Ack,
    AllocationRequest,
    AllocationResult,
    BudgetAllocation,
    BudgetUpdateRequest,
    FleetHandle,
    FleetSpec,
    JobAdmitRequest,
    JobDepartRequest,
    JobStateResult,
    REQUEST_TYPES,
    RESULT_TYPES,
    SchemeInfo,
    SchemesResult,
    ServiceError,
    SweepRequest,
    SweepResult,
    SweepRun,
    TelemetryRequest,
    TelemetrySample,
    decode_reply,
    decode_request,
    encode_reply,
    encode_request,
    from_wire,
    to_wire,
)


def roundtrip(value):
    """to_wire -> JSON -> from_wire, as the socket would carry it."""
    wire = json.loads(json.dumps(to_wire(value)))
    return from_wire(type(value), wire)


SAMPLES = [
    Ack(message="hello"),
    FleetSpec(system="ha8k", n_modules=128, seed=7, fleet_id="f0"),
    FleetSpec(
        system="mixed",
        device_counts=(("cpu-a", 8), ("gpu-b", 8)),
        fleet_id="hx",
    ),
    FleetHandle(
        fleet_id="f0", system="ha8k", n_modules=128, seed=7, shm_name="psm_x"
    ),
    AllocationRequest(
        fleet_id="f0", app="bt", scheme="vafsor", budgets_w=(1e4, 2e4)
    ),
    BudgetAllocation(
        budget_w=1e4,
        feasible=True,
        alpha=0.5,
        raw_alpha=0.5,
        constrained=True,
        freq_ghz=2.2,
        total_allocated_w=9e3,
        floor_w=5e3,
    ),
    AllocationResult(
        fleet_id="f0",
        app="bt",
        scheme="vafsor",
        n_modules=128,
        allocations=(BudgetAllocation(budget_w=1e4, feasible=False),),
    ),
    SweepRequest(
        fleet_id="f0",
        apps=("bt", "sp"),
        schemes=("naive", "vafsor"),
        budgets_w=(1e4,),
        n_iters=5,
        noisy=False,
    ),
    SweepResult(
        fleet_id="f0",
        runs=(
            SweepRun(
                app="bt",
                scheme="naive",
                budget_w=1e4,
                digest="abc123",
                feasible=True,
                makespan_s=1.5,
                total_power_w=9.9e3,
                within_budget=True,
                vf=1.1,
                vt=1.2,
            ),
        ),
    ),
    JobAdmitRequest(fleet_id="f0", job_id="j1", n_modules=16),
    JobDepartRequest(fleet_id="f0", job_id="j1"),
    BudgetUpdateRequest(fleet_id="f0", budget_w=5e4, app="bt", scheme="naive"),
    JobStateResult(
        fleet_id="f0",
        jobs=("j1", "j2"),
        active_modules=48,
        budget_w=5e4,
        feasible=True,
        alpha=0.7,
        freq_ghz=2.4,
        floor_w=2e4,
    ),
    SchemesResult(
        schemes=(
            SchemeInfo(
                name="naive",
                label="Naive",
                pmt_kind="naive",
                actuation="pc",
                variation_aware=False,
                app_dependent=False,
            ),
        )
    ),
    TelemetryRequest(samples=3, interval_s=0.5),
    TelemetrySample(
        uptime_s=1.0,
        inflight=2,
        fleets=1,
        jobs=3,
        served=(("allocate", 10),),
        rejected=(("sweep", 1),),
        counters=(("service.allocate", 10.0),),
    ),
]


class TestRoundTrips:
    @pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
    def test_wire_roundtrip_is_identity(self, value):
        assert roundtrip(value) == value

    def test_every_op_has_request_and_result_types(self):
        assert set(REQUEST_TYPES) == set(RESULT_TYPES)

    def test_request_envelope_roundtrip(self):
        req = JobAdmitRequest(fleet_id="f0", job_id="j1", n_modules=4)
        op, decoded = decode_request(encode_request("admit", req))
        assert op == "admit"
        assert decoded == req

    def test_reply_envelope_roundtrip(self):
        sample = JobStateResult(
            fleet_id="f0",
            jobs=(),
            active_modules=0,
            budget_w=1e3,
            feasible=True,
        )
        assert decode_reply(encode_reply("admit", sample)) == sample

    def test_error_reply_raises_typed(self):
        err = ServiceError("overloaded", "busy", retryable=True)
        with pytest.raises(ServiceError) as exc:
            decode_reply(encode_reply("allocate", error=err))
        assert exc.value.code == "overloaded"
        assert exc.value.retryable
        assert exc.value.message == "busy"


#: The schema-version-1 encodings of every ``SAMPLES`` entry, in order:
#: its compact payload JSON, its request line under every op that takes
#: its type, and its reply line under every op that answers with it.
#: Recorded with the per-class codecs the generic codec replaced, so
#: these pin the wire bytes across codec rewrites.
WIRE_V1 = json.loads((Path(__file__).parent / "data" / "wire_v1.json").read_text())


class TestGoldenWire:
    def test_fixtures_cover_every_sample(self):
        assert [g["type"] for g in WIRE_V1] == [type(v).__name__ for v in SAMPLES]

    @pytest.mark.parametrize(
        "value, golden", zip(SAMPLES, WIRE_V1), ids=lambda v: type(v).__name__
    )
    def test_encoding_is_byte_identical(self, value, golden):
        assert json.dumps(to_wire(value), separators=(",", ":")) == golden["payload"]
        for op, line in golden["requests"].items():
            assert encode_request(op, value) == line.encode()
        for op, line in golden["replies"].items():
            assert encode_reply(op, value) == line.encode()

    @pytest.mark.parametrize(
        "value, golden", zip(SAMPLES, WIRE_V1), ids=lambda v: type(v).__name__
    )
    def test_decoding_returns_the_sample(self, value, golden):
        assert from_wire(type(value), json.loads(golden["payload"])) == value
        for op, line in golden["requests"].items():
            assert decode_request(line) == (op, value)
        for line in golden["replies"].values():
            assert decode_reply(line) == value


class TestStrictValidation:
    def envelope(self, **overrides):
        body = {
            "schema_version": SCHEMA_VERSION,
            "op": "ping",
            "payload": {},
        }
        body.update(overrides)
        return json.dumps(body)

    def test_unknown_version_rejected(self):
        with pytest.raises(ServiceError) as exc:
            decode_request(self.envelope(schema_version=SCHEMA_VERSION + 1))
        assert exc.value.code == "unknown-version"
        assert not exc.value.retryable

    def test_missing_version_rejected(self):
        line = json.dumps({"op": "ping", "payload": {}})
        with pytest.raises(ServiceError) as exc:
            decode_request(line)
        assert exc.value.code == "unknown-version"

    def test_unknown_op_rejected(self):
        with pytest.raises(ServiceError) as exc:
            decode_request(self.envelope(op="self-destruct"))
        assert exc.value.code == "unknown-op"

    def test_unknown_envelope_field_rejected(self):
        with pytest.raises(ServiceError) as exc:
            decode_request(self.envelope(debug=True))
        assert exc.value.code == "unknown-field"

    def test_unknown_payload_field_rejected(self):
        line = self.envelope(
            op="admit",
            payload={
                "fleet_id": "f0",
                "job_id": "j1",
                "n_modules": 4,
                "priority": 9,  # not in the v1 schema
            },
        )
        with pytest.raises(ServiceError) as exc:
            decode_request(line)
        assert exc.value.code == "unknown-field"
        assert "priority" in exc.value.message

    @pytest.mark.parametrize("op", ["allocate", "sweep"])
    def test_overflowing_budget_literal_rejected(self, op):
        # json.loads reads 1e999 as inf; a non-finite budget must be a
        # bad request, never a reply carrying NaN or Infinity.
        line = (
            f'{{"schema_version":{SCHEMA_VERSION},"op":"{op}",'
            '"payload":{"fleet_id":"f0","budgets_w":[1e4,1e999]}}'
        )
        with pytest.raises(ServiceError) as exc:
            decode_request(line)
        assert exc.value.code == "bad-request"
        assert "budgets_w must be finite" in exc.value.message

    def test_missing_required_field_rejected(self):
        line = self.envelope(op="admit", payload={"fleet_id": "f0"})
        with pytest.raises(ServiceError) as exc:
            decode_request(line)
        assert exc.value.code == "bad-request"

    @pytest.mark.parametrize(
        "op, payload, where",
        [
            ("allocate", {"fleet_id": "f0", "budgets_w": [1e4], "noisy": "false"},
             "AllocationRequest.noisy"),
            ("admit", {"fleet_id": "f0", "job_id": "j1", "n_modules": 3.7},
             "JobAdmitRequest.n_modules"),
            ("admit", {"fleet_id": "f0", "job_id": "j1", "n_modules": True},
             "JobAdmitRequest.n_modules"),
            ("admit", {"fleet_id": "f0", "job_id": "j1", "n_modules": "abc"},
             "JobAdmitRequest.n_modules"),
            ("set-budget", {"fleet_id": "f0", "budget_w": None},
             "BudgetUpdateRequest.budget_w"),
            ("set-budget", {"fleet_id": "f0", "budget_w": True},
             "BudgetUpdateRequest.budget_w"),
            ("telemetry", {"samples": None}, "TelemetryRequest.samples"),
            ("allocate", {"fleet_id": "f0", "budgets_w": "12"},
             "AllocationRequest.budgets_w"),
            ("allocate", {"fleet_id": "f0", "budgets_w": [1e4, "2e4"]},
             "AllocationRequest.budgets_w"),
            ("sweep", {"fleet_id": "f0", "budgets_w": [1e4], "apps": "bt"},
             "SweepRequest.apps"),
            ("open-fleet", {"device_counts": [["cpu-a", "8"]]},
             "FleetSpec.device_counts"),
            ("open-fleet", {"device_counts": [["cpu-a", 8, 1]]},
             "FleetSpec.device_counts"),
            ("ping", {"message": 7}, "Ack.message"),
        ],
    )
    def test_out_of_type_value_rejected(self, op, payload, where):
        with pytest.raises(ServiceError) as exc:
            decode_request(self.envelope(op=op, payload=payload))
        assert exc.value.code == "bad-request"
        assert where in exc.value.message

    def test_float_field_takes_an_integer_as_float(self):
        line = self.envelope(op="set-budget", payload={"fleet_id": "f0", "budget_w": 5})
        _, req = decode_request(line)
        assert req.budget_w == 5.0 and type(req.budget_w) is float

    def test_optional_field_takes_null(self):
        line = self.envelope(
            op="sweep", payload={"fleet_id": "f0", "budgets_w": [1e4], "n_iters": None}
        )
        assert decode_request(line)[1].n_iters is None

    def test_unsupported_annotation_fails_to_compile(self):
        @dataclass(frozen=True)
        class Untyped:
            table: dict

        with pytest.raises(TypeError, match="Untyped.table"):
            to_wire(Untyped(table={}))

    def test_garbage_line_rejected(self):
        with pytest.raises(ServiceError) as exc:
            decode_request(b"not json at all\n")
        assert exc.value.code == "bad-request"

    def test_non_object_rejected(self):
        with pytest.raises(ServiceError) as exc:
            decode_request(b"[1, 2, 3]\n")
        assert exc.value.code == "bad-request"


class TestBuilder:
    """AllocationRequest.build is the one validation path shared by the
    CLI, the wire, and the experiments."""

    def test_normalises_names_via_registries(self):
        req = AllocationRequest.build(
            fleet_id="f0", app="BT", scheme="VaFsOr", budgets_w=[1e4]
        )
        assert req.app == "bt"
        assert req.scheme == "vafsor"
        assert req.budgets_w == (1e4,)

    def test_unknown_scheme_is_typed(self):
        with pytest.raises(ServiceError) as exc:
            AllocationRequest.build(
                fleet_id="f0", scheme="does-not-exist", budgets_w=[1e4]
            )
        assert exc.value.code == "unknown-scheme"
        assert not exc.value.retryable

    def test_unknown_app_is_typed(self):
        with pytest.raises(ServiceError) as exc:
            AllocationRequest.build(
                fleet_id="f0", app="does-not-exist", budgets_w=[1e4]
            )
        assert exc.value.code == "unknown-app"

    def test_empty_budgets_rejected(self):
        with pytest.raises(ServiceError) as exc:
            AllocationRequest.build(fleet_id="f0", budgets_w=[])
        assert exc.value.code == "bad-request"

    def test_non_numeric_budgets_rejected(self):
        with pytest.raises(ServiceError) as exc:
            AllocationRequest.build(fleet_id="f0", budgets_w=["cheap"])
        assert exc.value.code == "bad-request"

    def test_bare_string_budgets_rejected(self):
        with pytest.raises(ServiceError) as exc:
            AllocationRequest.build(fleet_id="f0", budgets_w="12")
        assert exc.value.code == "bad-request"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_budgets_rejected(self, bad):
        with pytest.raises(ServiceError) as exc:
            AllocationRequest.build(fleet_id="f0", budgets_w=[1e4, bad])
        assert exc.value.code == "bad-request"
        with pytest.raises(ServiceError) as exc:
            SweepRequest(fleet_id="f0", budgets_w=(bad,))
        assert exc.value.code == "bad-request"

    def test_non_positive_budgets_stay_valid(self):
        # Finite budgets <= 0 are answered as typed infeasible points.
        req = AllocationRequest.build(fleet_id="f0", budgets_w=[0.0, -1.0])
        assert req.budgets_w == (0.0, -1.0)

    def test_sweep_rejects_negative_guardband(self):
        with pytest.raises(ServiceError) as exc:
            SweepRequest(fleet_id="f0", budgets_w=(1e4,), fs_guardband_frac=-0.1)
        assert exc.value.code == "bad-request"

    def test_sweep_validates_every_name(self):
        with pytest.raises(ServiceError) as exc:
            SweepRequest(
                fleet_id="f0", schemes=("naive", "nope"), budgets_w=(1e4,)
            )
        assert exc.value.code == "unknown-scheme"


class TestFleetSpec:
    def test_parse_shorthand(self):
        spec = FleetSpec.parse("ha8k:1920")
        assert (spec.system, spec.n_modules, spec.seed) == ("ha8k", 1920, 2015)
        spec = FleetSpec.parse("ha8k:64:7", fleet_id="f9")
        assert (spec.n_modules, spec.seed, spec.fleet_id) == (64, 7, "f9")

    @pytest.mark.parametrize("text", ["ha8k", "ha8k:x", "a:1:2:3", ":"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ServiceError) as exc:
            FleetSpec.parse(text)
        assert exc.value.code == "bad-request"

    def test_device_counts_drive_n_modules(self):
        spec = FleetSpec(device_counts=(("cpu-a", 8), ("gpu-b", 24)))
        assert spec.n_modules == 32
        assert spec.is_hetero

    def test_disagreeing_totals_rejected(self):
        with pytest.raises(ServiceError):
            FleetSpec(n_modules=10, device_counts=(("cpu-a", 8),))

    def test_empty_fleet_rejected(self):
        with pytest.raises(ServiceError):
            FleetSpec(system="ha8k")


class TestTelemetryRequest:
    def test_sample_bounds(self):
        with pytest.raises(ServiceError):
            TelemetryRequest(samples=0)
        with pytest.raises(ServiceError):
            TelemetryRequest(samples=10_001)
        with pytest.raises(ServiceError):
            TelemetryRequest(interval_s=-1.0)
        with pytest.raises(ServiceError):
            TelemetryRequest(interval_s=float("inf"))


class TestServiceError:
    def test_wire_roundtrip(self):
        err = ServiceError("draining", "going down", retryable=True)
        back = ServiceError.from_wire(json.loads(json.dumps(err.to_wire())))
        assert (back.code, back.message, back.retryable) == (
            "draining",
            "going down",
            True,
        )

    def test_is_a_repro_error(self):
        from repro.errors import ReproError

        assert isinstance(ServiceError("internal", "x"), ReproError)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["bt", "vafsor", "ha8k", "f0", "cpu-a"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)


class TestDecodeFuzz:
    """Arbitrary JSON under a request type's own field names decodes or
    fails typed: the daemon can always answer with a reply."""

    @pytest.mark.parametrize("op", sorted(REQUEST_TYPES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_decode_request_raises_only_service_error(self, op, data):
        names = [f.name for f in fields(REQUEST_TYPES[op])]
        payload = data.draw(st.dictionaries(st.sampled_from(names), JSON_VALUES))
        body = {"schema_version": SCHEMA_VERSION, "op": op, "payload": payload}
        line = json.dumps(body)
        try:
            decode_request(line)
        except ServiceError:
            pass
