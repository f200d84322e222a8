"""Tests for the event-driven program builders."""

import numpy as np
import pytest

from repro.apps.programs import (
    allreduce_program,
    halo_exchange_program,
    master_worker_program,
    pipeline_program,
)
from repro.simmpi.topology import Torus, torus_neighbors
from repro.errors import ConfigurationError
from repro.simmpi.eventsim import EventDrivenMachine
from repro.simmpi.machine import BatchedBspMachine


def machine(rates):
    return EventDrivenMachine(
        np.asarray(rates, dtype=float), latency_s=0.0, bandwidth_gbps=1e12
    )


class TestHaloExchange:
    def test_matches_bsp_on_torus(self):
        rng = np.random.default_rng(3)
        rates = rng.uniform(1.0, 2.5, 27)
        nb = torus_neighbors((3, 3, 3))
        prog = halo_exchange_program(nb, ghz_seconds=2.0, n_iters=12)
        t_ev = machine(rates).run(prog)

        bsp = BatchedBspMachine(
            rates[None], latency_s=0.0, bandwidth_gbps=1e12
        )
        for _ in range(12):
            bsp.advance_local(2.0 / rates)
            bsp.sendrecv(Torus((3, 3, 3)))
        t_bsp = bsp.traces()[0]
        assert np.allclose(t_ev.total_s, t_bsp.total_s)
        assert np.allclose(t_ev.wait_s, t_bsp.wait_s)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            halo_exchange_program(np.zeros(4, dtype=int), ghz_seconds=1.0, n_iters=1)
        with pytest.raises(ConfigurationError):
            halo_exchange_program(torus_neighbors((4,)), ghz_seconds=1.0, n_iters=0)


class TestAllreduceProgram:
    def test_synchronises(self):
        rates = np.array([1.0, 2.0, 4.0])
        prog = allreduce_program(ghz_seconds=4.0, n_iters=3)
        t = machine(rates).run(prog)
        assert t.total_s.max() == pytest.approx(t.total_s.min())
        assert t.wait_s[0] == pytest.approx(0.0)  # slowest never waits


class TestPipeline:
    def test_fill_and_drain(self):
        # 3 equal stages at rate 1, 5 items of 1 GHz-second each:
        # last stage finishes at (n_stages + n_items - 1) * stage_time.
        prog = pipeline_program(3, ghz_seconds_per_stage=1.0, n_items=5)
        t = machine(np.ones(3)).run(prog)
        assert t.total_s[-1] == pytest.approx(3 + 5 - 1)

    def test_slow_stage_bottlenecks(self):
        rates = np.array([1.0, 0.5, 1.0])  # middle stage half speed
        prog = pipeline_program(3, ghz_seconds_per_stage=1.0, n_items=6)
        t = machine(rates).run(prog)
        # Steady-state throughput is set by the 2 s middle stage.
        assert t.total_s[-1] == pytest.approx(1.0 + 6 * 2.0 + 1.0, rel=0.15)
        # Downstream of the bottleneck accumulates wait.
        assert t.wait_s[2] > t.wait_s[1]

    def test_not_expressible_as_bsp(self):
        # Rank 0 does all its work before rank 2 starts anything —
        # fundamentally different from a superstep structure.
        prog = pipeline_program(2, ghz_seconds_per_stage=1.0, n_items=1)
        t = machine(np.ones(2)).run(prog)
        assert t.total_s[1] == pytest.approx(2.0)
        assert t.wait_s[1] == pytest.approx(1.0)


class TestMasterWorker:
    def test_all_tasks_processed(self):
        prog = master_worker_program(4, task_ghz_seconds=1.0, n_tasks=9)
        t = machine(np.ones(4)).run(prog)
        # 3 workers x 3 tasks each, 1 s per task.
        assert t.compute_s[1:].sum() == pytest.approx(9.0)
        assert t.total_s[0] >= 3.0

    def test_fast_worker_finishes_sooner(self):
        rates = np.array([1.0, 2.0, 1.0])
        prog = master_worker_program(3, task_ghz_seconds=1.0, n_tasks=8)
        t = machine(rates).run(prog)
        assert t.compute_s[1] < t.compute_s[2]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            master_worker_program(1, task_ghz_seconds=1.0, n_tasks=3)
        with pytest.raises(ConfigurationError):
            master_worker_program(3, task_ghz_seconds=1.0, n_tasks=0)
