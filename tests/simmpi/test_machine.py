"""Tests for the BSP machine, driven as a single run (one config row)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.topology import ring_neighbors, torus_neighbors
from repro.errors import SimulationError
from repro.simmpi.machine import BatchedBspMachine


def machine(rates, **kw):
    kw.setdefault("latency_s", 0.0)
    kw.setdefault("bandwidth_gbps", 1e9)  # effectively free transfers
    return BatchedBspMachine(np.asarray(rates, dtype=float)[None], **kw)


def compute(m, work):
    """A compute phase: per-rank work divided by the rank rates."""
    m.advance_local(np.divide(work, m.rates))


def clock(m):
    return m.clock_s[0]


def trace(m):
    return m.traces()[0]


class TestCompute:
    def test_time_is_work_over_rate(self):
        m = machine([1.0, 2.0])
        compute(m, 4.0)
        assert np.allclose(clock(m), [4.0, 2.0])

    def test_per_rank_work(self):
        m = machine([1.0, 1.0])
        compute(m, np.array([1.0, 3.0]))
        assert np.allclose(clock(m), [1.0, 3.0])

    def test_elapse_rate_independent(self):
        m = machine([1.0, 2.0])
        m.advance_local(5.0)
        assert np.allclose(clock(m), [5.0, 5.0])

    def test_negative_rejected(self):
        m = machine([1.0])
        with pytest.raises(SimulationError):
            compute(m, -1.0)
        with pytest.raises(SimulationError):
            m.advance_local(-1.0)


class TestValidation:
    def test_bad_rates(self):
        with pytest.raises(SimulationError):
            BatchedBspMachine(np.empty((1, 0)))
        with pytest.raises(SimulationError):
            BatchedBspMachine(np.array([[1.0, 0.0]]))
        with pytest.raises(SimulationError):
            BatchedBspMachine(np.array([[1.0, np.nan]]))
        with pytest.raises(SimulationError):
            BatchedBspMachine(np.array([1.0, 2.0]))  # one run is one row
        with pytest.raises(SimulationError):
            BatchedBspMachine(np.array([[[1.0]]]))

    def test_bad_network(self):
        with pytest.raises(SimulationError):
            BatchedBspMachine(np.ones((1, 2)), latency_s=-1.0)
        with pytest.raises(SimulationError):
            BatchedBspMachine(np.ones((1, 2)), bandwidth_gbps=0.0)


class TestBarrier:
    def test_everyone_reaches_max(self):
        m = machine([1.0, 2.0, 4.0])
        compute(m, 4.0)  # clocks 4, 2, 1
        m.barrier()
        assert np.allclose(clock(m), 4.0)

    def test_wait_charged_to_fast_ranks(self):
        m = machine([1.0, 2.0])
        compute(m, 4.0)
        m.barrier()
        t = trace(m)
        assert t.wait_s[0] == pytest.approx(0.0)  # slowest waits nothing
        assert t.wait_s[1] == pytest.approx(2.0)


class TestAllreduce:
    def test_adds_tree_cost(self):
        # 2 ranks: 1 hop each way -> 2*(latency + bytes/bw).
        m = BatchedBspMachine(np.ones((1, 2)), latency_s=1.0, bandwidth_gbps=8e-9)
        compute(m, 1.0)
        m.allreduce(message_bytes=8.0)  # 2*(1 s latency + 1 s transfer)
        assert np.allclose(clock(m), 5.0)
        assert np.allclose(trace(m).comm_s, 4.0)

    def test_cost_grows_logarithmically_with_ranks(self):
        def cost(n):
            m = BatchedBspMachine(
                np.ones((1, n)), latency_s=1.0, bandwidth_gbps=1e9
            )
            m.allreduce(message_bytes=0.0)
            return clock(m)[0]

        assert cost(2) == pytest.approx(2.0)
        assert cost(16) == pytest.approx(8.0)
        assert cost(17) == pytest.approx(10.0)


class TestSendrecv:
    def test_neighbor_sync_local(self):
        # Ring of 4: rank 2 is slow; only 1 and 3 wait after one exchange.
        m = machine([1.0, 1.0, 0.5, 1.0])
        compute(m, 1.0)  # clocks 1,1,2,1
        m.sendrecv(ring_neighbors(4))
        assert np.allclose(clock(m), [1.0, 2.0, 2.0, 2.0])

    def test_delay_propagates_one_hop_per_superstep(self):
        n = 8
        rates = np.ones(n)
        rates[4] = 0.5
        m = machine(rates)
        nb = ring_neighbors(n)
        compute(m, 1.0)
        m.sendrecv(nb)
        # After one superstep the delay reached ranks 3 and 5 only
        # (sendrecv waits for the neighbour's *entry* into the exchange).
        assert clock(m)[3] == pytest.approx(2.0)
        assert clock(m)[0] == pytest.approx(1.0)
        compute(m, 1.0)
        m.sendrecv(nb)
        # Two supersteps: rank 2 now sees rank 3's delayed entry (t=3);
        # rank 3 is pulled to rank 4's entry (t=4); rank 0 still unaffected.
        assert clock(m)[3] == pytest.approx(4.0)
        assert clock(m)[2] == pytest.approx(3.0)
        assert clock(m)[0] == pytest.approx(2.0)

    def test_steady_state_tracks_slowest(self):
        # After enough supersteps every rank advances at the slowest pace.
        n = 16
        rates = np.ones(n)
        rates[7] = 0.5
        m = machine(rates)
        nb = ring_neighbors(n)
        for _ in range(300):
            compute(m, 1.0)
            m.sendrecv(nb)
        t = trace(m)
        # In steady state every rank advances at the slowest pace, offset
        # by its hop distance; long runs homogenise completion time.
        assert t.vt < 1.02  # (paper Fig 2(iii): MHD Vt ~ 1.0)
        assert t.wait_s[7] == pytest.approx(0.0)
        assert t.wait_s.max() > 100.0  # fast ranks accumulated wait

    def test_torus_neighbors_accepted(self):
        m = machine(np.ones(8))
        compute(m, 1.0)
        m.sendrecv(torus_neighbors((2, 2, 2)))
        assert np.allclose(clock(m), 1.0)

    def test_shape_validation(self):
        m = machine(np.ones(4))
        with pytest.raises(SimulationError):
            m.sendrecv(np.zeros((3, 2), dtype=int))
        with pytest.raises(SimulationError):
            m.sendrecv(np.full((4, 2), 9))


class TestObserver:
    def test_sees_every_sync_of_the_row(self):
        seen = []

        class Recorder:
            def on_sync(self, op, clock_s, wait_s):
                seen.append((op, clock_s.copy(), wait_s.copy()))

        m = machine([1.0, 2.0, 4.0, 1.0])
        m.observer = Recorder()
        compute(m, 4.0)
        m.barrier()
        m.allreduce(8.0)
        m.sendrecv(ring_neighbors(4))
        assert [op for op, _, _ in seen] == ["barrier", "allreduce", "sendrecv"]
        op, clk, wait = seen[0]
        assert clk.shape == wait.shape == (4,)
        assert np.allclose(clk, 4.0)
        assert np.allclose(wait, [0.0, 2.0, 3.0, 0.0])


class TestTrace:
    def test_components_sum(self):
        m = BatchedBspMachine(
            np.array([[1.0, 2.0]]), latency_s=0.5, bandwidth_gbps=1e9
        )
        compute(m, 2.0)
        m.barrier()
        m.allreduce(8.0)
        t = trace(m)
        assert np.allclose(t.total_s, t.compute_s + t.wait_s + t.comm_s)

    def test_makespan(self):
        m = machine([1.0, 4.0])
        compute(m, 4.0)
        assert trace(m).makespan_s == pytest.approx(4.0)

    def test_wait_vt_floor(self):
        m = machine([1.0, 2.0])
        compute(m, 2.0)
        m.barrier()
        t = trace(m)
        assert t.wait_vt(floor_s=1e-3) == pytest.approx(1.0 / 1e-3)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.5, max_value=4.0), min_size=2, max_size=16),
        st.integers(min_value=1, max_value=10),
    )
    def test_invariants(self, rates, iters):
        m = machine(rates)
        nb = ring_neighbors(len(rates))
        for _ in range(iters):
            compute(m, 1.0)
            m.sendrecv(nb)
        t = trace(m)
        assert np.all(t.wait_s >= -1e-12)
        assert np.all(t.total_s >= t.compute_s - 1e-12)
        assert t.vt >= 1.0
