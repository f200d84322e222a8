"""Property-based tests: random BSP-shaped programs on both simulators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simmpi.topology import Torus, torus_neighbors
from repro.simmpi.eventsim import (
    Allreduce,
    Barrier,
    Compute,
    Elapse,
    EventDrivenMachine,
    Recv,
    Send,
)
from repro.simmpi.machine import BatchedBspMachine

# A random bulk-synchronous schedule: per-superstep (work, comm-kind).
superstep = st.tuples(
    st.floats(min_value=0.1, max_value=5.0),
    st.sampled_from(["none", "barrier", "allreduce", "halo"]),
)
schedule_st = st.lists(superstep, min_size=1, max_size=8)
rates_st = st.lists(
    st.floats(min_value=0.5, max_value=3.0), min_size=2, max_size=10
)


def run_bsp(rates, schedule):
    r = np.asarray(rates, dtype=float)
    m = BatchedBspMachine(r[None], latency_s=0.0, bandwidth_gbps=1e12)
    nb = Torus((len(rates),))
    for work, kind in schedule:
        m.advance_local(work / r)
        if kind == "barrier":
            m.barrier()
        elif kind == "allreduce":
            m.allreduce(0.0)
        elif kind == "halo":
            m.sendrecv(nb, 0.0)
    return m.traces()[0]


def run_event(rates, schedule):
    nb = torus_neighbors((len(rates),))
    machine = EventDrivenMachine(
        np.asarray(rates), latency_s=0.0, bandwidth_gbps=1e12
    )

    def program(rank):
        for it, (work, kind) in enumerate(schedule):
            yield Compute(work)
            if kind == "barrier":
                yield Barrier()
            elif kind == "allreduce":
                yield Allreduce(0.0)
            elif kind == "halo":
                left, right = nb[rank]
                yield Send(int(left), tag=it)
                yield Send(int(right), tag=it)
                yield Recv(int(left), tag=it)
                yield Recv(int(right), tag=it)

    return machine.run(program)


class TestSimulatorEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(rates=rates_st, schedule=schedule_st)
    def test_bsp_and_event_sim_agree(self, rates, schedule):
        t_bsp = run_bsp(rates, schedule)
        t_ev = run_event(rates, schedule)
        assert np.allclose(t_ev.total_s, t_bsp.total_s, rtol=1e-9)
        assert np.allclose(t_ev.wait_s, t_bsp.wait_s, rtol=1e-9, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(rates=rates_st, schedule=schedule_st)
    def test_invariants(self, rates, schedule):
        t = run_event(rates, schedule)
        # Conservation: total = compute + wait (+ zero comm here).
        assert np.allclose(t.total_s, t.compute_s + t.wait_s + t.comm_s)
        # Nobody time-travels.
        assert np.all(t.wait_s >= -1e-12)
        # Someone never waits at each global sync... at least one rank
        # has strictly minimal wait overall.
        assert t.wait_s.min() <= t.wait_s.mean()

    @settings(max_examples=20, deadline=None)
    @given(
        rates=rates_st,
        work=st.floats(min_value=0.1, max_value=5.0),
        fixed=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_elapse_shifts_everyone_equally(self, rates, work, fixed):
        def prog_with(rank):
            yield Compute(work)
            yield Elapse(fixed)
            yield Barrier()

        def prog_without(rank):
            yield Compute(work)
            yield Barrier()

        m1 = EventDrivenMachine(np.asarray(rates), latency_s=0.0, bandwidth_gbps=1e12)
        m2 = EventDrivenMachine(np.asarray(rates), latency_s=0.0, bandwidth_gbps=1e12)
        a = m1.run(prog_with)
        b = m2.run(prog_without)
        assert np.allclose(a.total_s, b.total_s + fixed)
