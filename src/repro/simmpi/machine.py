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
exchange of superstep *k* once it **and all its neighbours** on the
exchange's :class:`~repro.simmpi.topology.Torus` have reached it.
Iterating supersteps propagates a slow module's delay outward one hop
per iteration — the wavefront behaviour that makes a
synchronised code's completion time track the globally slowest module
even though each rank only talks to its neighbours.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.errors import SimulationError
from repro.simmpi.topology import Torus
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
        # Scratch of the full-width operations, reused across supersteps
        # (the tiled executor brings its own per-tile scratch).  At
        # fleet scale (100k+ ranks) per-op temporaries exceed the
        # allocator's mmap threshold, so allocating them per superstep
        # costs a mmap/munmap + page-fault cycle each — reuse keeps the
        # arrays resident.  ``a += b`` and ``np.op(..., out=...)``
        # perform the same IEEE-754 operations as their allocating forms.
        self._ready_scratch = np.empty(shape)
        self._wait_scratch = np.empty(shape)
        self._rowmax_scratch = np.empty((shape[0], 1))
        #: Optional sync observer of row 0 (duck-typed: ``on_sync(op,
        #: clock_s, wait_s)``), e.g. a telemetry PhaseTimeline, fired by
        #: every :meth:`sync_cols` over the full width.  Only meaningful
        #: on a one-row machine, where row 0 is the run; ``None`` keeps
        #: the sync path free of any telemetry cost.
        self.observer = None

    @property
    def n_configs(self) -> int:
        """Number of stacked configurations (rows)."""
        return int(self.clock_s.shape[0])

    @property
    def n_ranks(self) -> int:
        """Number of ranks per configuration (columns)."""
        return int(self.clock_s.shape[1])

    @property
    def accumulators(self) -> tuple[np.ndarray, ...]:
        """The four per-rank state arrays, in snapshot order: clock,
        compute, wait and comm seconds (live views, not copies)."""
        return (self.clock_s, self._compute_s, self._wait_s, self._comm_s)

    def head(self, k: int) -> "BatchedBspMachine":
        """A machine over the first ``k`` config rows whose state and
        scratch are views of this one's, so its operations write
        through.  It carries no rates or observer: after
        :meth:`reorder_rows` its rows need not be ``rates[:k]``."""
        m = copy.copy(self)
        for name in (
            "clock_s", "_compute_s", "_wait_s", "_comm_s",
            "_ready_scratch", "_wait_scratch", "_rowmax_scratch",
        ):
            setattr(m, name, getattr(self, name)[:k])
        m.rates = m.observer = None
        return m

    def reorder_rows(self, src: np.ndarray, scratch: np.ndarray) -> None:
        """Permute the config rows of the state planes in place — row
        ``i`` takes row ``src[i]``'s state — through ``scratch``, a dead
        buffer of at least ``n_configs`` rows, so nothing plane-sized is
        allocated.  Rows before the first moved one stay put."""
        moved = np.flatnonzero(src != np.arange(src.size))
        if moved.size:
            f = int(moved[0])
            buf = scratch[: src.size - f]
            for arr in self.accumulators:
                # Indices are in range, so "clip" only skips the output
                # buffering of the default mode.
                np.take(arr[f:], src[f:] - f, axis=0, out=buf, mode="clip")
                np.copyto(arr[f:], buf)

    # -- operations ------------------------------------------------------------

    def advance_local(self, dt_seconds: np.ndarray) -> None:
        """Advance every config's ranks by precomputed local time.

        ``dt_seconds`` is the per-rank local time of one or more
        communication-free phases, already divided by the rank rates
        (broadcast against ``(n_configs, n_ranks)``).  Accounted as
        compute time.
        """
        dt = np.broadcast_to(
            np.asarray(dt_seconds, dtype=float), self.clock_s.shape
        )
        if np.any(dt < 0):
            raise SimulationError("local time must be non-negative")
        self.advance_cols(0, self.n_ranks, dt)

    def barrier(self) -> None:
        """Per-config global synchronisation: everyone waits for the
        slowest rank of its row."""
        self.rowmax_cols(0, self.n_ranks, self._rowmax_scratch[:, 0])
        self.sync_cols(
            0, self.n_ranks, self._rowmax_scratch, 0.0, self._wait_scratch,
            "barrier",
        )

    def allreduce(self, message_bytes: float = 8.0) -> None:
        """Per-config synchronising reduction: barrier semantics plus
        :meth:`allreduce_cost`."""
        self.rowmax_cols(0, self.n_ranks, self._rowmax_scratch[:, 0])
        self.sync_cols(
            0, self.n_ranks, self._rowmax_scratch,
            self.allreduce_cost(message_bytes), self._wait_scratch,
            "allreduce",
        )

    def sendrecv(self, torus: Torus, message_bytes: float = 0.0) -> None:
        """Per-config halo exchange on a periodic rank torus.

        The exchange completes for rank r when r and all its partners on
        ``torus`` (a :class:`~repro.simmpi.topology.Torus` over
        :attr:`n_ranks`) have entered it.  ``message_bytes`` is the halo
        size *per neighbour*; see :meth:`sendrecv_cost`.
        """
        if not isinstance(torus, Torus) or torus.n_ranks != self.n_ranks:
            raise SimulationError(
                f"sendrecv needs a Torus over {self.n_ranks} ranks; "
                f"got {torus!r}"
            )
        ready = self._ready_scratch
        self.gather_ready_cols(0, self.n_ranks, torus, ready)
        self.sync_cols(
            0, self.n_ranks, ready, self.sendrecv_cost(torus, message_bytes),
            self._wait_scratch, "sendrecv",
        )

    # -- communication costs -----------------------------------------------------

    def allreduce_cost(self, message_bytes: float) -> float:
        """Transfer cost of one allreduce: a reduce-then-broadcast binary
        tree — ⌈log₂ P⌉ latency hops each way plus two payload
        traversals."""
        hops = max(1, int(np.ceil(np.log2(max(self.n_ranks, 2)))))
        return 2 * (
            hops * self.latency_s + message_bytes / (self.bandwidth_gbps * 1e9)
        )

    def sendrecv_cost(self, torus: Torus, message_bytes: float) -> float:
        """Transfer cost of one halo exchange: one latency plus one
        ``message_bytes`` transfer per partner, counting self and
        duplicate partners (:attr:`Torus.degree
        <repro.simmpi.topology.Torus.degree>`)."""
        return self.latency_s + message_bytes * torus.degree / (
            self.bandwidth_gbps * 1e9
        )

    # -- column operations ---------------------------------------------------------
    #
    # Each method below acts on the column range [a, b) only.  Every
    # update is elementwise (or, for the maxima, exact operand
    # selection), so applying one over [0, n_ranks) is bit-identical to
    # applying it on each tile of any column partition — the invariant
    # the tiled executor in :mod:`repro.simmpi.fastpath` is built on,
    # and the reason the full-width operations above are just these ops
    # over one whole-width tile.  Tiles never overlap, so concurrent
    # calls on disjoint ranges are race-free.

    def advance_cols(self, a: int, b: int, dt: np.ndarray) -> None:
        """Advance columns ``[a, b)`` by local time ``dt`` (accounted as
        compute time).

        ``dt`` broadcasts against the ``(n_configs, b - a)`` tile; the
        caller has checked it non-negative.
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
        self, a: int, b: int, torus: Torus, out: np.ndarray
    ) -> None:
        """A halo exchange's ready value for columns ``[a, b)``: each
        rank's clock maxed with its partners' on ``torus``.

        Reads the *whole* clock plane (partners live in other tiles),
        writes only ``out`` — callers must not mutate clocks anywhere
        while a gather pass is in flight.  The partners' clocks are
        shifted slices of the plane (:meth:`Torus.partner_max
        <repro.simmpi.topology.Torus.partner_max>`), maxed straight into
        ``out``: max is exact and selects an operand, so neither the
        slicing nor the accumulation order can change the result.
        """
        np.copyto(out, self.clock_s[:, a:b])
        torus.partner_max(self.clock_s, a, b, out)

    def sync_cols(
        self,
        a: int,
        b: int,
        ready_s: np.ndarray,
        transfer_cost_s: float,
        wait_scratch: np.ndarray,
        op: str,
    ) -> None:
        """Finish synchronisation ``op`` on columns ``[a, b)``: charge
        the gap to ``ready_s`` as wait, the transfer cost as
        communication, and move the clocks to ``ready_s + cost``.

        ``ready_s`` is either the ``(n_configs, 1)`` row-ready vector
        (barrier/allreduce) or the tile's slice of a full gathered ready
        plane (sendrecv).  A tile spanning the full width reports row 0
        to the :attr:`observer`.
        """
        cl = self.clock_s[:, a:b]
        wait = np.subtract(ready_s, cl, out=wait_scratch)
        self._wait_s[:, a:b] += wait
        self._comm_s[:, a:b] += transfer_cost_s
        np.add(ready_s, transfer_cost_s, out=cl)
        if self.observer is not None and a == 0 and b == self.n_ranks:
            self.observer.on_sync(op, self.clock_s[0], wait[0])

    def snapshot_cols(
        self, a: int, b: int, out: tuple[np.ndarray, ...]
    ) -> None:
        """Copy the four :attr:`accumulators`' columns ``[a, b)`` into
        machine-shaped buffers (the loop detector's snapshot)."""
        for arr, o in zip(self.accumulators, out):
            np.copyto(o[:, a:b], arr[:, a:b])

    def fast_forward_rows_cols(
        self,
        a: int,
        b: int,
        rows: np.ndarray,
        since: tuple[np.ndarray, ...],
        repeats: int,
        scratch: np.ndarray,
    ) -> None:
        """Repeat the selected ``rows``' latest increment ``repeats``
        more times on columns ``[a, b)``.

        The increment is each accumulator's change since the ``since``
        snapshot (machine-shaped buffers from :meth:`snapshot_cols`),
        computed into the tile-shaped ``scratch``; per element this is
        one ``a + repeats * d`` multiply-add, masked to ``rows`` without
        a temporary."""
        if repeats <= 0:
            return
        mask = rows[:, None]
        for arr, s in zip(self.accumulators, since):
            tile = arr[:, a:b]
            d = np.subtract(tile, s[:, a:b], out=scratch)
            d *= repeats
            np.add(tile, d, out=tile, where=mask)

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
