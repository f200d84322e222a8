"""Telemetry must observe, never perturb.

The acceptance contract for the telemetry subsystem: executing the same
:class:`RunKey` with telemetry enabled and disabled produces
bit-identical results — spans, metrics, timelines and run-array capture
are pure observation.  Verified differentially across schemes, both
simulator routes (the vectorised fast path and the event-driven
fallback), and the managed engine path that scopes telemetry by run key.
"""

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.exec import RunKey, execute_key
from repro.experiments.common import DEFAULT_SEED

N_MODULES = 48
N_ITERS = 4

KEYS = [
    # Fast-path route (noisy=False is implied by scheme runs here being
    # deterministic BSP codes) across actuation kinds + uncapped.
    RunKey(system="ha8k", n_modules=N_MODULES, seed=DEFAULT_SEED,
           app="bt", scheme="naive", budget_w=60.0 * N_MODULES, n_iters=N_ITERS),
    RunKey(system="ha8k", n_modules=N_MODULES, seed=DEFAULT_SEED,
           app="bt", scheme="vafsor", budget_w=60.0 * N_MODULES, n_iters=N_ITERS),
    RunKey(system="ha8k", n_modules=N_MODULES, seed=DEFAULT_SEED,
           app="mhd", scheme="vapcor", budget_w=80.0 * N_MODULES, n_iters=N_ITERS),
    RunKey(system="ha8k", n_modules=N_MODULES, seed=DEFAULT_SEED,
           app="bt", scheme=None, budget_w=None, n_iters=N_ITERS),
]


def _flatten(result) -> list[np.ndarray]:
    arrays = [
        result.effective_freq_ghz,
        result.cpu_power_w,
        result.dram_power_w,
        result.cap_met,
        result.trace.total_s,
        result.trace.compute_s,
        result.trace.wait_s,
        result.trace.comm_s,
    ]
    if result.solution is not None:
        arrays += [
            result.solution.pmodule_w,
            result.solution.pcpu_w,
            np.array([result.solution.alpha, result.solution.freq_ghz]),
        ]
    return arrays


@pytest.fixture(autouse=True)
def _telemetry_off_before_and_after():
    telemetry.disable()
    yield
    telemetry.disable()


class TestTelemetryIsPureObservation:
    @pytest.mark.parametrize("key", KEYS, ids=lambda k: f"{k.app}-{k.scheme}")
    def test_engine_results_bit_identical_with_telemetry(self, key):
        baseline = execute_key(key)

        telemetry.enable()
        traced = execute_key(key)
        collector = telemetry.disable()

        for got, want in zip(_flatten(traced), _flatten(baseline)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

        # ...and telemetry actually observed the run, scoped to its key.
        assert collector.n_spans > 0
        digest12 = key.digest()[:12]
        assert digest12 in collector.runs()
        assert all(s.run == digest12 for s in collector.spans)
        assert collector.run_labels[digest12] == key.describe()

    def test_budgeted_run_records_expected_shape(self):
        from repro.exec import ExperimentEngine

        key = KEYS[1]  # vafsor: fs actuation through the fast path
        telemetry.enable()
        ExperimentEngine().run(key)
        c = telemetry.disable()

        names = {s.name for s in c.spans}
        assert {"engine.execute", "run.budgeted_batched", "run.plan",
                "run.actuate", "run.simulate_batched",
                "scheme.allocate_batched", "scheme.build_pmt",
                "solve_alpha_batched", "sim.run_fast_batched"} <= names
        assert c.metrics.counter("run.budgeted_batched").value == 1
        assert c.metrics.counter("sim.route.fast_batched").value == 1
        assert c.metrics.counter("engine.exec").value == 1
        # One fast-path timeline, and the runner's per-module capture.
        assert [t.kind for t in c.timelines] == ["fastpath"]
        run_rec = c.run_arrays[0]
        assert run_rec.name == "run"
        assert run_rec.arrays["module_power_w"].shape == (N_MODULES,)
        assert run_rec.arrays["effective_freq_ghz"].shape == (N_MODULES,)

    def test_event_driven_route_identical_and_observed(self):
        # A pipeline-comm app is the one kind that must run on the
        # event-driven machine; telemetry must be inert there too.
        from repro.apps.base import AppModel, CommSpec, PowerSignature
        from repro.simmpi.fastpath import simulate_app

        app = AppModel(
            name="pipe",
            signature=PowerSignature(0.5, 0.5),
            cpu_bound_fraction=1.0,
            iter_seconds_fmax=0.5,
            default_iters=10,
            comm=CommSpec(kind="pipeline"),
        )
        rates = np.full(6, 2.0)
        rates[0] = 1.0

        baseline = simulate_app(app, rates, 2.0, n_iters=10)
        telemetry.enable()
        traced = simulate_app(app, rates, 2.0, n_iters=10)
        c = telemetry.disable()

        for field in ("total_s", "compute_s", "wait_s", "comm_s"):
            assert np.array_equal(getattr(traced, field), getattr(baseline, field))
        assert c.metrics.counter("sim.route.event").value == 1
        assert [t.kind for t in c.timelines] == ["eventsim"]
        assert c.timelines[0].n_events > 0
