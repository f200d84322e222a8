"""Tests for the event-driven MPI simulator, including BSP cross-validation."""

import numpy as np
import pytest

from repro.cluster.topology import ring_neighbors
from repro.errors import SimulationError
from repro.simmpi.eventsim import (
    Allreduce,
    Barrier,
    Compute,
    EventDrivenMachine,
    Recv,
    Send,
)
from repro.simmpi.machine import BatchedBspMachine


def machine(rates, **kw):
    kw.setdefault("latency_s", 0.0)
    kw.setdefault("bandwidth_gbps", 1e9)
    return EventDrivenMachine(np.asarray(rates, dtype=float), **kw)


class TestBasics:
    def test_compute_only(self):
        m = machine([1.0, 2.0])

        def prog(rank):
            yield Compute(4.0)

        t = m.run(prog)
        assert np.allclose(t.total_s, [4.0, 2.0])
        assert np.allclose(t.compute_s, t.total_s)

    def test_rate_validation(self):
        with pytest.raises(SimulationError):
            EventDrivenMachine(np.array([]))
        with pytest.raises(SimulationError):
            EventDrivenMachine(np.array([0.0]))

    def test_negative_compute(self):
        m = machine([1.0])

        def prog(rank):
            yield Compute(-1.0)

        with pytest.raises(SimulationError):
            m.run(prog)


class TestPointToPoint:
    def test_recv_waits_for_send(self):
        m = machine([1.0, 1.0])

        def prog(rank):
            if rank == 0:
                yield Compute(5.0)
                yield Send(1)
            else:
                yield Recv(0)

        t = m.run(prog)
        assert t.total_s[1] == pytest.approx(5.0)
        assert t.wait_s[1] == pytest.approx(5.0)
        assert t.wait_s[0] == pytest.approx(0.0)

    def test_send_before_recv_no_wait(self):
        m = machine([1.0, 1.0])

        def prog(rank):
            if rank == 0:
                yield Send(1)
            else:
                yield Compute(3.0)
                yield Recv(0)

        t = m.run(prog)
        assert t.wait_s[1] == pytest.approx(0.0)
        assert t.total_s[1] == pytest.approx(3.0)

    def test_transfer_cost_charged(self):
        m = machine([1.0, 1.0], latency_s=1.0, bandwidth_gbps=8e-9)

        def prog(rank):
            if rank == 0:
                yield Send(1, message_bytes=8.0)  # 1 s latency + 1 s transfer
            else:
                yield Recv(0)

        t = m.run(prog)
        assert t.total_s[0] == pytest.approx(2.0)
        assert t.total_s[1] == pytest.approx(2.0)

    def test_fifo_matching_per_tag(self):
        m = machine([1.0, 1.0])
        log = []

        def prog(rank):
            if rank == 0:
                yield Compute(1.0)
                yield Send(1, tag=7)
                yield Compute(1.0)
                yield Send(1, tag=7)
            else:
                yield Recv(0, tag=7)
                log.append("first")
                yield Recv(0, tag=7)
                log.append("second")

        t = m.run(prog)
        assert log == ["first", "second"]
        assert t.total_s[1] == pytest.approx(2.0)

    def test_tags_do_not_cross_match(self):
        m = machine([1.0, 1.0])

        def prog(rank):
            if rank == 0:
                yield Send(1, tag=1)
                yield Compute(10.0)
                yield Send(1, tag=2)
            else:
                yield Recv(0, tag=2)  # must wait for the late tag-2 send

        t = m.run(prog)
        assert t.total_s[1] == pytest.approx(10.0)

    def test_invalid_peer(self):
        m = machine([1.0])

        def prog(rank):
            yield Send(5)

        with pytest.raises(SimulationError):
            m.run(prog)


class TestDeadlock:
    def test_recv_without_send(self):
        m = machine([1.0, 1.0])

        def prog(rank):
            if rank == 1:
                yield Recv(0)

        with pytest.raises(SimulationError, match="deadlock"):
            m.run(prog)

    def test_mutual_recv(self):
        m = machine([1.0, 1.0])

        def prog(rank):
            yield Recv(1 - rank)
            yield Send(1 - rank)

        with pytest.raises(SimulationError, match="deadlock"):
            m.run(prog)

    def test_missed_barrier(self):
        m = machine([1.0, 1.0])

        def prog(rank):
            if rank == 0:
                yield Barrier()

        with pytest.raises(SimulationError, match="deadlock"):
            m.run(prog)


class TestCollectives:
    def test_barrier_synchronises(self):
        m = machine([1.0, 2.0, 4.0])

        def prog(rank):
            yield Compute(4.0)
            yield Barrier()
            yield Compute(4.0)

        t = m.run(prog)
        # After the barrier at t=4, each rank adds its own compute time.
        assert np.allclose(t.total_s, 4.0 + 4.0 / np.array([1.0, 2.0, 4.0]))

    def test_allreduce_tree_cost_matches_bsp(self):
        rates = np.ones(8)
        ev = machine(rates, latency_s=1e-3, bandwidth_gbps=1.0)
        bsp = BatchedBspMachine(
            rates[None], latency_s=1e-3, bandwidth_gbps=1.0
        )

        def prog(rank):
            yield Compute(1.0)
            yield Allreduce(message_bytes=1e6)

        bsp.advance_local(1.0 / rates)
        bsp.allreduce(message_bytes=1e6)
        t = ev.run(prog)
        assert np.allclose(t.total_s, bsp.traces()[0].total_s)

    def test_repeated_barriers(self):
        m = machine([1.0, 2.0])

        def prog(rank):
            for _ in range(5):
                yield Compute(2.0)
                yield Barrier()

        t = m.run(prog)
        assert np.allclose(t.total_s, 10.0)  # slowest rank dominates
        assert t.wait_s[1] == pytest.approx(5.0)


class TestCrossValidationAgainstBsp:
    """The same halo-exchange program on both machines must agree."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ring_halo_exchange(self, seed):
        rng = np.random.default_rng(seed)
        n, iters = 12, 15
        rates = rng.uniform(1.0, 2.5, n)
        nb = ring_neighbors(n)

        # BSP path (zero transfer cost isolates the synchronisation).
        bsp = BatchedBspMachine(
            rates[None], latency_s=0.0, bandwidth_gbps=1e12
        )
        for _ in range(iters):
            bsp.advance_local(3.0 / rates)
            bsp.sendrecv(nb)
        t_bsp = bsp.traces()[0]

        # Event-driven path: explicit eager sends then receives.
        ev = machine(rates)

        def prog(rank):
            left, right = nb[rank]
            for it in range(iters):
                yield Compute(3.0)
                yield Send(int(left), tag=it)
                yield Send(int(right), tag=it)
                yield Recv(int(left), tag=it)
                yield Recv(int(right), tag=it)

        t_ev = ev.run(prog)
        # Same synchronisation structure: identical clocks.
        assert np.allclose(t_ev.total_s, t_bsp.total_s, rtol=1e-9)
        assert np.allclose(t_ev.wait_s, t_bsp.wait_s, rtol=1e-9)

    def test_no_sync_paths_agree(self):
        rates = np.array([1.0, 1.7, 2.3])
        bsp = BatchedBspMachine(
            rates[None], latency_s=0.0, bandwidth_gbps=1e12
        )
        for _ in range(4):
            bsp.advance_local(2.0 / rates)
        ev = machine(rates)

        def prog(rank):
            for _ in range(4):
                yield Compute(2.0)

        assert np.allclose(ev.run(prog).total_s, bsp.traces()[0].total_s)
