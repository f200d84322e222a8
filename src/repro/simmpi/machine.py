"""The vectorised bulk-synchronous machine.

:class:`BatchedBspMachine` maintains one virtual clock per MPI rank for
each of a stack of independent configurations (rows).  Local operations
advance each clock by that rank's own precomputed local time (work
divided by the rank's work rate, plus frequency-insensitive time);
communication operations synchronise clocks (globally or with
topological neighbours) and charge the idle gap to the rank's MPI wait
time.  This is exact for bulk-synchronous codes — which every benchmark
in the paper is — and costs O(configs × ranks) per superstep, so
1,920-rank × hundreds-of-iterations runs are milliseconds.  A single
run is a one-row machine.

Semantics of a halo exchange (``sendrecv``): rank *r* may leave the
exchange of superstep *k* once it **and all its neighbours** have
reached it.  Iterating supersteps propagates a slow module's delay
outward one hop per iteration — the wavefront behaviour that makes a
synchronised code's completion time track the globally slowest module
even though each rank only talks to its neighbours.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.simmpi.tracing import RankTrace

__all__ = ["BatchedBspMachine"]


class BatchedBspMachine:
    """Per-rank virtual clocks for a stack of independent configurations.

    State arrays have shape ``(n_configs, n_ranks)``.  Every operation is
    row-independent — config rows never interact — and elementwise (or,
    for the maxima, exact operand selection), so row *c*'s results are
    exactly those of a one-row machine built from ``rates[c]``.  Sweeps
    exploit this: one batched pass over all budgets replaces
    ``n_configs`` Python-level fleet traversals.

    Parameters
    ----------
    rates:
        ``(n_configs, n_ranks)`` work rates in GHz-equivalents (effective
        frequency × performance bin factor of the module hosting the
        rank).  The machine only checks them; callers divide work by
        them and pass the result to :meth:`advance_local`.
    latency_s:
        Base cost of one communication operation (software + network
        latency), paid by every participant.
    bandwidth_gbps:
        Link bandwidth used to convert message bytes into transfer time.
    """

    def __init__(
        self,
        rates: np.ndarray,
        *,
        latency_s: float = 5e-6,
        bandwidth_gbps: float = 5.0,
    ):
        r = np.asarray(rates, dtype=float)
        if r.ndim != 2 or r.size == 0:
            raise SimulationError(
                "rates must be a non-empty (n_configs, n_ranks) array"
            )
        if np.any(~np.isfinite(r)) or np.any(r <= 0):
            raise SimulationError("rates must be finite and positive")
        if latency_s < 0 or bandwidth_gbps <= 0:
            raise SimulationError("latency must be >= 0 and bandwidth > 0")
        self.rates = r
        self.latency_s = float(latency_s)
        self.bandwidth_gbps = float(bandwidth_gbps)
        shape = r.shape
        self.clock_s = np.zeros(shape)
        self._compute_s = np.zeros(shape)
        self._wait_s = np.zeros(shape)
        self._comm_s = np.zeros(shape)
        # Preallocated scratch reused across supersteps.  At fleet scale
        # (100k+ ranks) per-op temporaries exceed the allocator's mmap
        # threshold, so allocating them per superstep costs a
        # mmap/munmap + page-fault cycle each — reuse keeps the arrays
        # resident.  ``a += b`` and ``np.op(..., out=...)`` perform the
        # same IEEE-754 operations as their allocating forms.
        self._dt_scratch = np.empty(shape)
        self._ready_scratch = np.empty(shape)
        self._wait_scratch = np.empty(shape)
        self._take_scratch = np.empty(shape)
        self._rowmax_scratch = np.empty((shape[0], 1))
        #: Optional sync observer of row 0 (duck-typed: ``on_sync(op,
        #: clock_s, wait_s)``), e.g. a telemetry PhaseTimeline.  Only
        #: meaningful on a one-row machine, where row 0 is the run;
        #: ``None`` keeps the sync path free of any telemetry cost.
        self.observer = None

    @property
    def n_configs(self) -> int:
        """Number of stacked configurations (rows)."""
        return int(self.rates.shape[0])

    @property
    def n_ranks(self) -> int:
        """Number of ranks per configuration (columns)."""
        return int(self.rates.shape[1])

    @classmethod
    def _from_state(
        cls,
        rates: np.ndarray,
        latency_s: float,
        bandwidth_gbps: float,
        clock_s: np.ndarray,
        compute_s: np.ndarray,
        wait_s: np.ndarray,
        comm_s: np.ndarray,
    ) -> "BatchedBspMachine":
        m = cls(rates, latency_s=latency_s, bandwidth_gbps=bandwidth_gbps)
        np.copyto(m.clock_s, clock_s)
        np.copyto(m._compute_s, compute_s)
        np.copyto(m._wait_s, wait_s)
        np.copyto(m._comm_s, comm_s)
        return m

    def extract_rows(self, keep: np.ndarray) -> "BatchedBspMachine":
        """A new machine holding only the selected config rows (copies;
        the fast path uses this to drop fast-forwarded configs from the
        active set mid-loop)."""
        return self._from_state(
            self.rates[keep],
            self.latency_s,
            self.bandwidth_gbps,
            self.clock_s[keep],
            self._compute_s[keep],
            self._wait_s[keep],
            self._comm_s[keep],
        )

    def write_rows(
        self,
        rows: np.ndarray,
        sub: "BatchedBspMachine",
        sub_rows: np.ndarray | None = None,
    ) -> None:
        """Copy a sub-machine's state (or a row subset of it) back into
        the given parent rows."""
        sel = slice(None) if sub_rows is None else sub_rows
        self.clock_s[rows] = sub.clock_s[sel]
        self._compute_s[rows] = sub._compute_s[sel]
        self._wait_s[rows] = sub._wait_s[sel]
        self._comm_s[rows] = sub._comm_s[sel]

    # -- operations ------------------------------------------------------------

    def advance_local(self, dt_seconds: np.ndarray) -> None:
        """Advance every config's ranks by precomputed local time.

        ``dt_seconds`` is the per-rank local time of one or more
        communication-free phases, already divided by the rank rates
        (broadcast against ``(n_configs, n_ranks)``).  Accounted as
        compute time.
        """
        dt = np.broadcast_to(
            np.asarray(dt_seconds, dtype=float), self.rates.shape
        )
        if np.any(dt < 0):
            raise SimulationError("local time must be non-negative")
        self.clock_s += dt
        self._compute_s += dt

    def _row_ready(self) -> np.ndarray:
        """Per-row clock maximum broadcast across ranks (barrier target)."""
        np.max(self.clock_s, axis=1, keepdims=True, out=self._rowmax_scratch)
        np.copyto(self._ready_scratch, self._rowmax_scratch)
        return self._ready_scratch

    def barrier(self) -> None:
        """Per-config global synchronisation: everyone waits for the
        slowest rank of its row."""
        self._sync_to(self._row_ready(), 0.0, "barrier")

    def allreduce(self, message_bytes: float = 8.0) -> None:
        """Per-config synchronising reduction: barrier semantics plus
        tree cost.

        Cost model: a reduce-then-broadcast binary tree — ⌈log₂ P⌉
        latency hops each way plus two payload traversals.
        """
        hops = max(1, int(np.ceil(np.log2(max(self.n_ranks, 2)))))
        cost = 2 * (
            hops * self.latency_s + message_bytes / (self.bandwidth_gbps * 1e9)
        )
        self._sync_to(self._row_ready(), cost, "allreduce")

    def sendrecv(self, neighbors: np.ndarray, message_bytes: float = 0.0) -> None:
        """Per-config halo exchange on a shared neighbour table.

        ``neighbors`` has shape ``(n_ranks, k)``; entry ``[r, j]`` is the
        j-th partner of rank r.  The exchange completes for rank r when r
        and all partners have entered it.  ``message_bytes`` is the halo
        size *per neighbour*; each rank pays one latency plus k
        transfers.
        """
        nb = np.asarray(neighbors)
        if nb.ndim != 2 or nb.shape[0] != self.n_ranks:
            raise SimulationError(
                f"neighbors must have shape (n_ranks, k); got {nb.shape}"
            )
        if nb.size and (nb.min() < 0 or nb.max() >= self.n_ranks):
            raise SimulationError("neighbor indices out of range")
        # Partner-at-a-time gathers into (C, R) scratch instead of one
        # (C, R, k) fancy-indexed temporary: max is exact and selects an
        # operand, so the accumulation order cannot change the result.
        ready = self._ready_scratch
        np.take(self.clock_s, nb[:, 0], axis=1, out=ready)
        for j in range(1, nb.shape[1]):
            np.take(self.clock_s, nb[:, j], axis=1, out=self._take_scratch)
            np.maximum(ready, self._take_scratch, out=ready)
        np.maximum(self.clock_s, ready, out=ready)
        cost = self.latency_s + message_bytes * nb.shape[1] / (
            self.bandwidth_gbps * 1e9
        )
        self._sync_to(self._ready_scratch, cost, "sendrecv")

    def _sync_to(
        self, ready_s: np.ndarray, transfer_cost_s: float, op: str
    ) -> None:
        wait = np.subtract(ready_s, self.clock_s, out=self._wait_scratch)
        self._wait_s += wait
        self._comm_s += transfer_cost_s
        np.add(ready_s, transfer_cost_s, out=self.clock_s)
        if self.observer is not None:
            self.observer.on_sync(op, self.clock_s[0], wait[0])

    # -- fast-path state access --------------------------------------------------

    def state_into(
        self, out: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ) -> None:
        """Snapshot the accumulators into preallocated buffers (the
        loop detector's per-iteration path, allocation-free)."""
        np.copyto(out[0], self.clock_s)
        np.copyto(out[1], self._compute_s)
        np.copyto(out[2], self._wait_s)
        np.copyto(out[3], self._comm_s)

    def delta_into(
        self,
        earlier: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        out: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """Per-element increments since ``earlier``, written into ``out``."""
        np.subtract(self.clock_s, earlier[0], out=out[0])
        np.subtract(self._compute_s, earlier[1], out=out[1])
        np.subtract(self._wait_s, earlier[2], out=out[2])
        np.subtract(self._comm_s, earlier[3], out=out[3])

    def fast_forward_rows(
        self,
        rows: np.ndarray,
        delta: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        repeats: int,
    ) -> None:
        """Apply ``repeats`` per-iteration increments to selected rows
        (``delta`` arrays are machine-shaped; only ``rows`` are read).

        Per element this is one ``a + repeats * d`` multiply-add.
        """
        if repeats <= 0:
            return
        d_clock, d_compute, d_wait, d_comm = delta
        rows = np.asarray(rows)
        if rows.dtype == bool and rows.all():
            # Whole batch retires at once (the common case for uniform
            # sweeps): same multiply-add, without the masked copies.
            self.clock_s += np.multiply(d_clock, repeats, out=self._dt_scratch)
            self._compute_s += np.multiply(
                d_compute, repeats, out=self._dt_scratch
            )
            self._wait_s += np.multiply(d_wait, repeats, out=self._dt_scratch)
            self._comm_s += np.multiply(d_comm, repeats, out=self._dt_scratch)
            return
        self.clock_s[rows] += repeats * d_clock[rows]
        self._compute_s[rows] += repeats * d_compute[rows]
        self._wait_s[rows] += repeats * d_wait[rows]
        self._comm_s[rows] += repeats * d_comm[rows]

    # -- column-tiled twins (the sharded fast path) ------------------------------
    #
    # Each method below is the restriction of a full-width operation to
    # the column range [a, b).  Every update is elementwise (or, for the
    # maxima, exact operand selection), so applying a full-width op is
    # bit-identical to applying its twin on each tile of any column
    # partition — the invariant the sharded executor in
    # :mod:`repro.simmpi.fastpath` is built on.  Tiles never overlap, so
    # concurrent twin calls on disjoint ranges are race-free.

    def advance_cols(self, a: int, b: int, dt: np.ndarray) -> None:
        """:meth:`advance_local` on columns ``[a, b)``.

        ``dt`` is the caller's cached ``(n_configs, b - a)`` local-time
        tile, validated non-negative when the cache was built.
        """
        self.clock_s[:, a:b] += dt
        self._compute_s[:, a:b] += dt

    def rowmax_cols(self, a: int, b: int, out: np.ndarray) -> None:
        """Per-row clock maximum over columns ``[a, b)`` — one tile's
        contribution to the barrier/allreduce ready value.  Max is exact
        operand selection, so the max of these partials equals the
        full-row max bit for bit."""
        np.max(self.clock_s[:, a:b], axis=1, out=out)

    def gather_ready_cols(
        self,
        a: int,
        b: int,
        nb: np.ndarray,
        out: np.ndarray,
        scratch: tuple[np.ndarray, np.ndarray],
    ) -> None:
        """:meth:`sendrecv`'s ready-value gather for columns ``[a, b)``.

        Reads the *whole* clock plane (neighbours live in other tiles),
        writes only ``out`` — callers must not mutate clocks anywhere
        while a gather pass is in flight.  Partner-at-a-time maxima in
        the same order as the full-width gather.
        """
        g, h = scratch
        np.take(self.clock_s, nb[a:b, 0], axis=1, out=g)
        for j in range(1, nb.shape[1]):
            np.take(self.clock_s, nb[a:b, j], axis=1, out=h)
            np.maximum(g, h, out=g)
        np.maximum(self.clock_s[:, a:b], g, out=out)

    def sync_cols(
        self,
        a: int,
        b: int,
        ready_s: np.ndarray,
        transfer_cost_s: float,
        wait_scratch: np.ndarray,
    ) -> None:
        """:meth:`_sync_to` on columns ``[a, b)``.  ``ready_s`` is either
        the ``(n_configs, 1)`` row-ready vector (barrier/allreduce) or
        the tile's slice of a full gathered ready plane (sendrecv)."""
        cl = self.clock_s[:, a:b]
        np.subtract(ready_s, cl, out=wait_scratch)
        self._wait_s[:, a:b] += wait_scratch
        self._comm_s[:, a:b] += transfer_cost_s
        np.add(ready_s, transfer_cost_s, out=cl)

    def snapshot_cols(
        self, a: int, b: int, out: tuple[np.ndarray, ...]
    ) -> None:
        """:meth:`state_into` on columns ``[a, b)`` of machine-shaped
        buffers."""
        np.copyto(out[0][:, a:b], self.clock_s[:, a:b])
        np.copyto(out[1][:, a:b], self._compute_s[:, a:b])
        np.copyto(out[2][:, a:b], self._wait_s[:, a:b])
        np.copyto(out[3][:, a:b], self._comm_s[:, a:b])

    def delta_cols(
        self,
        a: int,
        b: int,
        earlier: tuple[np.ndarray, ...],
        out: tuple[np.ndarray, ...],
    ) -> None:
        """:meth:`delta_into` on columns ``[a, b)``."""
        np.subtract(self.clock_s[:, a:b], earlier[0][:, a:b], out=out[0][:, a:b])
        np.subtract(
            self._compute_s[:, a:b], earlier[1][:, a:b], out=out[1][:, a:b]
        )
        np.subtract(self._wait_s[:, a:b], earlier[2][:, a:b], out=out[2][:, a:b])
        np.subtract(self._comm_s[:, a:b], earlier[3][:, a:b], out=out[3][:, a:b])

    def fast_forward_rows_cols(
        self,
        a: int,
        b: int,
        rows: np.ndarray,
        delta: tuple[np.ndarray, ...],
        repeats: int,
        scratch: np.ndarray,
        whole: bool,
    ) -> None:
        """:meth:`fast_forward_rows` on columns ``[a, b)``; ``whole``
        precomputes ``rows.all()`` once for all tiles, ``scratch`` is a
        tile-shaped multiply buffer."""
        if repeats <= 0:
            return
        arrays = (self.clock_s, self._compute_s, self._wait_s, self._comm_s)
        if whole:
            for arr, d in zip(arrays, delta):
                arr[:, a:b] += np.multiply(d[:, a:b], repeats, out=scratch)
            return
        for arr, d in zip(arrays, delta):
            arr[rows, a:b] += repeats * d[rows, a:b]

    # -- results ---------------------------------------------------------------

    def traces(self) -> list[RankTrace]:
        """One :class:`RankTrace` per configuration row (copies)."""
        return [
            RankTrace(
                total_s=self.clock_s[c].copy(),
                compute_s=self._compute_s[c].copy(),
                wait_s=self._wait_s[c].copy(),
                comm_s=self._comm_s[c].copy(),
            )
            for c in range(self.n_configs)
        ]
