"""Event-driven MPI program simulator (the general-purpose path).

:class:`~repro.simmpi.machine.BatchedBspMachine` is the vectorised
fast path for bulk-synchronous codes — every rank executes the same
superstep structure, so per-superstep array operations suffice.  This module is
the general path: each rank runs its *own* program (a generator yielding
operations), with genuine point-to-point message matching, blocking
receives, and deadlock detection.  It exists for three reasons:

1. applications that are not bulk-synchronous (pipelines,
   master/worker) can still be simulated;
2. it cross-validates the BSP machine — the equivalence tests run the
   same halo-exchange program on both and compare timings;
3. it documents the timing semantics precisely (eager sends, rendezvous
   on receive).

Timing model
------------
* ``Compute(ghz_seconds)`` — advances the rank by work/rate.
* ``Send(dst, tag, bytes)`` — eager: the message is available to the
  receiver at ``t_send + latency + bytes/bw``; the sender continues
  immediately (buffered).
* ``Recv(src, tag)`` — blocks until the matching message (FIFO per
  (src, dst, tag)) is available; wait time is charged to the receiver.
* ``Barrier()`` / ``Allreduce(bytes)`` — global synchronisation at the
  latest arrival (allreduce adds a log₂-tree cost, matching the BSP
  machine).

Programs are generator functions ``prog(rank) -> Iterator[Op]``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.simmpi.tracing import RankTrace

__all__ = [
    "Compute",
    "Elapse",
    "Send",
    "Recv",
    "Barrier",
    "Allreduce",
    "EventDrivenMachine",
]


@dataclass(frozen=True)
class Compute:
    """Local work in GHz·seconds (time = work / rank rate)."""

    ghz_seconds: float


@dataclass(frozen=True)
class Elapse:
    """Frequency-insensitive local time (memory stalls, I/O)."""

    seconds: float


@dataclass(frozen=True)
class Send:
    """Eager point-to-point send."""

    dst: int
    tag: int = 0
    message_bytes: float = 0.0


@dataclass(frozen=True)
class Recv:
    """Blocking receive of the matching (src, tag) message."""

    src: int
    tag: int = 0


@dataclass(frozen=True)
class Barrier:
    """Global synchronisation."""


@dataclass(frozen=True)
class Allreduce:
    """Global reduction (barrier + log-tree transfer cost)."""

    message_bytes: float = 8.0


_Op = Compute | Elapse | Send | Recv | Barrier | Allreduce


class _RankState:
    __slots__ = ("it", "clock", "compute", "wait", "comm", "blocked_on", "done")

    def __init__(self, it: Iterator[_Op]):
        self.it = it
        self.clock = 0.0
        self.compute = 0.0
        self.wait = 0.0
        self.comm = 0.0
        self.blocked_on: Recv | str | None = None
        self.done = False


class EventDrivenMachine:
    """Runs one generator program per rank with message matching.

    ``rates`` is one per-rank vector; ``latency_s`` and
    ``bandwidth_gbps`` mirror :class:`~repro.simmpi.BatchedBspMachine`.
    """

    def __init__(
        self,
        rates: np.ndarray,
        *,
        latency_s: float = 5e-6,
        bandwidth_gbps: float = 5.0,
    ):
        r = np.asarray(rates, dtype=float)
        if r.ndim != 1 or r.size == 0 or np.any(r <= 0) or np.any(~np.isfinite(r)):
            raise SimulationError("rates must be a non-empty, positive 1-D array")
        self.rates = r
        self.latency_s = float(latency_s)
        self.bandwidth_gbps = float(bandwidth_gbps)
        #: Optional sync observer (duck-typed: ``on_sync(op, clock_s,
        #: wait_s)``), notified at each global collective release —
        #: the event-driven counterpart of the BSP machine's observer.
        self.observer = None

    @property
    def n_ranks(self) -> int:
        """Number of ranks simulated."""
        return int(self.rates.size)

    def _transfer(self, message_bytes: float) -> float:
        return self.latency_s + message_bytes / (self.bandwidth_gbps * 1e9)

    def run(self, program: Callable[[int], Iterator[_Op]]) -> RankTrace:
        """Execute ``program(rank)`` on every rank to completion.

        Raises :class:`SimulationError` on deadlock (some rank blocks on
        a receive whose send never happens, or a barrier some rank never
        reaches).
        """
        n = self.n_ranks
        ranks = [_RankState(iter(program(r))) for r in range(n)]
        # (src, dst, tag) -> deque of availability times.
        mailbox: dict[tuple[int, int, int], deque[float]] = defaultdict(deque)
        # Receivers blocked per key (FIFO, matching MPI ordering).
        waiting_recv: dict[tuple[int, int, int], deque[int]] = defaultdict(deque)
        barrier_waiting: list[int] = []
        barrier_kind: list[_Op] = []
        runnable: list[int] = list(range(n))

        def advance(idx: int) -> None:
            """Run rank ``idx`` until it blocks or finishes."""
            st = ranks[idx]
            while True:
                try:
                    op = next(st.it)
                except StopIteration:
                    st.done = True
                    return
                if isinstance(op, Compute):
                    if op.ghz_seconds < 0:
                        raise SimulationError("compute work must be non-negative")
                    dt = op.ghz_seconds / self.rates[idx]
                    st.clock += dt
                    st.compute += dt
                elif isinstance(op, Elapse):
                    if op.seconds < 0:
                        raise SimulationError("elapsed time must be non-negative")
                    st.clock += op.seconds
                    st.compute += op.seconds
                elif isinstance(op, Send):
                    if not (0 <= op.dst < n):
                        raise SimulationError(f"send to invalid rank {op.dst}")
                    cost = self._transfer(op.message_bytes)
                    avail = st.clock + cost
                    st.comm += cost
                    st.clock += cost
                    key = (idx, op.dst, op.tag)
                    if waiting_recv[key]:
                        rcv = waiting_recv[key].popleft()
                        self._complete_recv(ranks[rcv], avail)
                        runnable.append(rcv)
                    else:
                        mailbox[key].append(avail)
                elif isinstance(op, Recv):
                    if not (0 <= op.src < n):
                        raise SimulationError(f"recv from invalid rank {op.src}")
                    key = (op.src, idx, op.tag)
                    if mailbox[key]:
                        avail = mailbox[key].popleft()
                        self._complete_recv(st, avail)
                    else:
                        st.blocked_on = op
                        waiting_recv[key].append(idx)
                        return
                elif isinstance(op, (Barrier, Allreduce)):
                    st.blocked_on = "barrier"
                    barrier_waiting.append(idx)
                    barrier_kind.append(op)
                    if len(barrier_waiting) == n:
                        release = max(ranks[i].clock for i in barrier_waiting)
                        cost = self._collective_cost(barrier_kind)
                        obs = self.observer
                        if obs is not None:
                            wait_s = np.zeros(n)
                            for i in barrier_waiting:
                                wait_s[i] = release - ranks[i].clock
                        for i in barrier_waiting:
                            r = ranks[i]
                            r.wait += release - r.clock
                            r.comm += cost
                            r.clock = release + cost
                            r.blocked_on = None
                            if i != idx:
                                runnable.append(i)
                        if obs is not None:
                            kind = (
                                "allreduce"
                                if any(isinstance(o, Allreduce) for o in barrier_kind)
                                else "barrier"
                            )
                            obs.on_sync(kind, np.full(n, release + cost), wait_s)
                        barrier_waiting.clear()
                        barrier_kind.clear()
                        continue  # this rank proceeds past the barrier
                    return
                else:  # pragma: no cover - defensive
                    raise SimulationError(f"unknown operation {op!r}")

        while runnable:
            idx = runnable.pop()
            st = ranks[idx]
            if st.done:
                continue
            st.blocked_on = None
            advance(idx)

        stuck = [i for i, st in enumerate(ranks) if not st.done]
        if stuck:
            details = {i: ranks[i].blocked_on for i in stuck}
            raise SimulationError(f"deadlock: ranks {details} never completed")

        trace = RankTrace(
            total_s=np.array([st.clock for st in ranks]),
            compute_s=np.array([st.compute for st in ranks]),
            wait_s=np.array([st.wait for st in ranks]),
            comm_s=np.array([st.comm for st in ranks]),
        )
        obs = self.observer
        if obs is not None:
            # Terminal snapshot, so programs with no collectives (pure
            # point-to-point pipelines) still produce a timeline event.
            obs.on_sync("finish", trace.total_s, trace.wait_s)
        return trace

    def _complete_recv(self, st: _RankState, avail: float) -> None:
        wait = max(0.0, avail - st.clock)
        st.wait += wait
        st.clock = max(st.clock, avail)
        st.blocked_on = None

    def _collective_cost(self, ops: list[_Op]) -> float:
        if all(isinstance(o, Barrier) for o in ops):
            return 0.0
        message_bytes = max(
            (o.message_bytes for o in ops if isinstance(o, Allreduce)), default=8.0
        )
        hops = max(1, int(np.ceil(np.log2(max(self.n_ranks, 2)))))
        return 2 * (hops * self.latency_s + message_bytes / (self.bandwidth_gbps * 1e9))
