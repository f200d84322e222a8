"""Fleet-scale vectorised fast path for bulk-synchronous programs.

The event-driven machine (:mod:`repro.simmpi.eventsim`) advances one
Python-level operation per rank per step — exact and fully general, but
O(ranks × ops) interpreter work caps it at a few thousand ranks.  Every
benchmark in the paper, however, is bulk-synchronous: all ranks execute
the *same* operation sequence, so one whole-fleet array operation per
superstep suffices.  This module provides that fast path:

* a tiny vector-op IR (:class:`VCompute`, :class:`VElapse`,
  :class:`VBarrier`, :class:`VAllreduce`, :class:`VSendrecv`,
  :class:`VLoop`) wrapped in a :class:`BspProgram`;
* :func:`run_fast_batched` — executes a program for a stack of rate
  configurations on a :class:`~repro.simmpi.machine.BatchedBspMachine`
  with two whole-fleet shortcuts: communication-free op runs are fused
  into a single vectorised advance, and iterated supersteps are
  *fast-forwarded* per config once their per-iteration state increments
  become stationary (after a barrier/allreduce all clocks coincide, so
  iteration k+1 repeats iteration k exactly; a halo exchange reaches the
  same steady state once the slowest module's wavefront has propagated
  around the torus).  :func:`run_fast` is the one-row case, and
  :func:`run_fast_sharded` the same execution tiled over columns;
* :func:`run_event` / :func:`to_event_program` — lowers the same program
  to per-rank generators on the :class:`EventDrivenMachine`, the
  independent reference the differential suite
  (``tests/simmpi/test_fastpath_differential.py``) checks against;
* :func:`simulate_app` — the dispatch :mod:`repro.core.runner` uses:
  BSP-expressible applications (``comm.kind`` of ``"none"``,
  ``"neighbor"`` or ``"allreduce"``) take the vectorised path, anything
  else (the ``"pipeline"`` kind) falls back to the event-driven machine.

Equivalence contract
--------------------
For any :class:`BspProgram`, :func:`run_fast` and :func:`run_event`
agree on every :class:`RankTrace` field to ≤ 1e-9 relative error,
with one caveat: the event lowering of :class:`VSendrecv` models the
exchange as eager point-to-point messages, which charges transfer costs
per message instead of once per superstep — the two paths are exactly
equivalent only when the exchange's transfer cost is zero (zero latency
and zero payload, pure synchronisation).  Barrier and allreduce costs
use the same closed form on both machines and match at any cost.

Fast-forward accuracy: extrapolating a stationary increment replaces
``m`` float additions by one multiply-add, perturbing results by
O(m·ε) ≈ 1e-13 relative — far inside the 1e-9 contract and the 1e-6
golden-pin tolerance.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import repro.telemetry as telemetry
from repro.errors import ConfigurationError, SimulationError
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
from repro.simmpi.sharding import ShardPlan, ShardSpec, plan_shards
from repro.simmpi.tracing import RankTrace

__all__ = [
    "VCompute",
    "VElapse",
    "VBarrier",
    "VAllreduce",
    "VSendrecv",
    "VLoop",
    "BspProgram",
    "run_fast",
    "run_fast_batched",
    "run_fast_sharded",
    "run_event",
    "to_event_program",
    "is_bsp_expressible",
    "bsp_app_program",
    "event_app_program",
    "simulate_app",
    "simulate_app_batched",
    "BSP_COMM_KINDS",
]

#: Communication kinds the vectorised fast path can express.
BSP_COMM_KINDS = ("none", "neighbor", "allreduce")

#: Only fast-forward a loop when at least this many iterations remain —
#: below that, plain iteration is cheaper than the delta bookkeeping.
_MIN_FF_REMAINING = 3

#: Consecutive identical per-iteration increments required before the
#: loop is declared stationary.  One uniform-shift observation is
#: already sufficient mathematically (see :func:`_exec_loop_batched`); the
#: second is a guard against accumulated rounding noise.
_FF_STABLE_ITERS = 2


@dataclass(frozen=True)
class VCompute:
    """Whole-fleet compute phase: per-rank work in GHz·seconds
    (scalar = perfectly balanced)."""

    ghz_seconds: float | np.ndarray


@dataclass(frozen=True)
class VElapse:
    """Whole-fleet frequency-insensitive time (memory stalls, I/O)."""

    seconds: float | np.ndarray


@dataclass(frozen=True)
class VBarrier:
    """Global synchronisation."""


@dataclass(frozen=True)
class VAllreduce:
    """Synchronising reduction (barrier + log₂-tree transfer cost)."""

    message_bytes: float = 8.0


@dataclass(frozen=True, eq=False)
class VSendrecv:
    """Halo exchange on an explicit ``(n_ranks, k)`` neighbour table."""

    neighbors: np.ndarray
    message_bytes: float = 0.0


@dataclass(frozen=True, eq=False)
class VLoop:
    """``iters`` repetitions of a superstep body."""

    body: tuple
    iters: int


_VOp = VCompute | VElapse | VBarrier | VAllreduce | VSendrecv | VLoop
_LOCAL_OPS = (VCompute, VElapse)
_SYNC_OPS = (VBarrier, VAllreduce, VSendrecv)


@dataclass(frozen=True, eq=False)
class BspProgram:
    """A rank-uniform (SPMD) program over the vector-op IR.

    Every rank executes the same operation sequence; per-rank
    variability enters only through array-valued op payloads and the
    machine's rank rates.  That uniformity is what makes the program
    executable as whole-fleet array operations *and* trivially
    deadlock-free when lowered to the event-driven machine.
    """

    n_ranks: int
    ops: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.n_ranks <= 0:
            raise ConfigurationError("n_ranks must be positive")
        object.__setattr__(self, "ops", tuple(self.ops))
        self._validate(self.ops)

    def _validate(self, ops: Sequence[_VOp]) -> None:
        for op in ops:
            if isinstance(op, _LOCAL_OPS):
                val = op.ghz_seconds if isinstance(op, VCompute) else op.seconds
                arr = np.asarray(val, dtype=float)
                if arr.ndim not in (0, 1) or (
                    arr.ndim == 1 and arr.shape != (self.n_ranks,)
                ):
                    raise ConfigurationError(
                        f"op payload must be scalar or shape ({self.n_ranks},); "
                        f"got {arr.shape}"
                    )
                if np.any(arr < 0) or np.any(~np.isfinite(arr)):
                    raise ConfigurationError(
                        "op payloads must be finite and non-negative"
                    )
            elif isinstance(op, VSendrecv):
                nb = np.asarray(op.neighbors)
                if nb.ndim != 2 or nb.shape[0] != self.n_ranks:
                    raise ConfigurationError(
                        f"neighbors must have shape (n_ranks, k); got {nb.shape}"
                    )
                if nb.size and (nb.min() < 0 or nb.max() >= self.n_ranks):
                    raise ConfigurationError("neighbor indices out of range")
            elif isinstance(op, VLoop):
                if op.iters <= 0:
                    raise ConfigurationError("loop iterations must be positive")
                self._validate(op.body)
            elif isinstance(op, (VBarrier, VAllreduce)):
                pass
            else:
                raise ConfigurationError(f"unknown fast-path op {op!r}")


# -- the vectorised executor ---------------------------------------------------


def _has_sync(ops: Sequence[_VOp]) -> bool:
    return any(
        isinstance(op, _SYNC_OPS)
        or (isinstance(op, VLoop) and _has_sync(op.body))
        for op in ops
    )


def run_fast(
    program: BspProgram,
    rates: np.ndarray,
    *,
    latency_s: float = 5e-6,
    bandwidth_gbps: float = 5.0,
) -> RankTrace:
    """Execute a :class:`BspProgram` for one rate vector: a one-row
    :func:`run_fast_batched`."""
    r = np.asarray(rates, dtype=float)
    if r.shape != (program.n_ranks,):
        raise ConfigurationError(
            f"rates shape {r.shape} != program ranks ({program.n_ranks},)"
        )
    return run_fast_batched(
        program, r[None], latency_s=latency_s, bandwidth_gbps=bandwidth_gbps
    )[0]


# -- the config-batched executor -----------------------------------------------


def _local_dt_batched(ops: Sequence[_VOp], rates: np.ndarray) -> np.ndarray:
    """Combined per-rank seconds of a communication-free op sequence,
    for every config row at once."""
    n = rates.shape[1]
    dt = np.zeros(rates.shape)
    for op in ops:
        if isinstance(op, VCompute):
            dt += np.broadcast_to(
                np.asarray(op.ghz_seconds, dtype=float), (n,)
            ) / rates
        elif isinstance(op, VElapse):
            dt += np.broadcast_to(np.asarray(op.seconds, dtype=float), (n,))
        elif isinstance(op, VLoop):
            dt += op.iters * _local_dt_batched(op.body, rates)
        else:  # pragma: no cover - guarded by _has_sync
            raise SimulationError(f"{op!r} is not a local op")
    return dt


def _exec_ops_batched(machine: BatchedBspMachine, ops: Sequence[_VOp]) -> None:
    """Execute an op sequence, fusing each maximal communication-free
    run into one fleet-wide advance (fusion boundaries depend only on
    op types, so every config row fuses identically)."""
    i, n_ops = 0, len(ops)
    while i < n_ops:
        op = ops[i]
        # Fuse a maximal run of sync-free ops into one fleet-wide advance.
        if isinstance(op, _LOCAL_OPS) or (
            isinstance(op, VLoop) and not _has_sync(op.body)
        ):
            j = i
            while j < n_ops and (
                isinstance(ops[j], _LOCAL_OPS)
                or (isinstance(ops[j], VLoop) and not _has_sync(ops[j].body))
            ):
                j += 1
            machine.advance_local(_local_dt_batched(ops[i:j], machine.rates))
            i = j
            continue
        if isinstance(op, VBarrier):
            machine.barrier()
        elif isinstance(op, VAllreduce):
            machine.allreduce(op.message_bytes)
        elif isinstance(op, VSendrecv):
            machine.sendrecv(np.asarray(op.neighbors), op.message_bytes)
        elif isinstance(op, VLoop):
            _exec_loop_batched(machine, op)
        else:  # pragma: no cover - programs are validated on construction
            raise SimulationError(f"unknown fast-path op {op!r}")
        i += 1


def _rows_close(delta: tuple, prev: tuple, scratch: tuple) -> np.ndarray:
    """True where a row's four per-iteration increments all match the
    previous iteration's (``np.allclose`` at rtol 1e-12, atol 1e-15).

    Evaluates ``np.isclose``'s finite-operand predicate
    ``|d - p| <= atol + rtol * |p|`` directly into the two caller-owned
    scratch arrays — same decision, none of ``isclose``'s
    machine-sized temporaries (sim deltas are always finite).
    """
    diff, tol = scratch[0], scratch[1]
    ok = np.ones(delta[0].shape[0], dtype=bool)
    for d, p in zip(delta, prev):
        np.subtract(d, p, out=diff)
        np.abs(diff, out=diff)
        np.abs(p, out=tol)
        tol *= 1e-12
        tol += 1e-15
        ok &= (diff <= tol).all(axis=1)
    return ok


def _rows_uniform(clock_delta: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """True where one iteration advanced every rank of a row by the
    same clock increment, to rounding noise (same allocation-free
    ``isclose`` predicate as :func:`_rows_close`; the reference column's
    tolerance is a ``(rows, 1)`` broadcast)."""
    ref = clock_delta[:, :1]
    np.subtract(clock_delta, ref, out=scratch)
    np.abs(scratch, out=scratch)
    tol = 1e-12 * np.abs(ref)
    tol += 1e-15
    return (scratch <= tol).all(axis=1)


def _record_fast_forward(n_rows: int, remaining: int) -> None:
    """Count ``n_rows`` configs retiring together with ``remaining``
    iterations skipped each: one histogram sample per row, so the
    ``sim.ff_saved_iters`` total is the iterations saved."""
    telemetry.count("sim.fast_forward", n_rows)
    for _ in range(n_rows):
        telemetry.observe("sim.ff_saved_iters", remaining)


def _exec_loop_batched(machine: BatchedBspMachine, loop: VLoop) -> None:
    """Run a synchronising loop for all configs, fast-forwarding each
    config's steady state *independently*.

    Every body op commutes with adding a constant to all clocks: compute
    and elapse add fixed per-rank amounts, and barrier / allreduce /
    halo-exchange are max-plus operations, so shifting a row's whole
    clock vector by ``c`` shifts their result by ``c``.  Hence a
    *uniform* per-iteration clock increment is a proof of stationarity —
    the next iteration is the previous one translated in time, forever.
    A stable but **non-uniform** increment proves nothing: in a
    halo-exchange ring the slowest module's delay wavefront moves one hop
    per superstep, and ranks it has not yet reached advance at their own
    (transient) pace for up to the graph diameter before snapping to the
    global rate.  A row is therefore fast-forwarded only on a uniform,
    repeated increment, and keeps iterating otherwise.  A
    barrier/allreduce body equalises all clocks each iteration, so its
    increment is uniform from the second pass; a halo-exchange body gets
    there once the wavefront has covered the graph (at most the torus
    diameter, usually far fewer iterations because near-slowest modules
    are dense at fleet scale).

    The timing invariant that makes a row's result independent of the
    batch it runs in: a config must be fast-forwarded at exactly the
    iteration it would be alone, because ``c + k·d`` and
    ``(c + d) + (k−1)·d`` differ in the last ulp.  The per-row
    ``(prev, stable)`` detector state therefore survives the active-set
    shrink — retired configs leave the batch, the rest carry their
    streak across the extraction.  Every machine op is row-independent,
    so executing the surviving subset alone reproduces exactly what the
    full batch would have computed for those rows.
    """
    remaining = loop.iters
    parent = machine
    sub = machine
    rows = np.arange(machine.n_configs)
    shape = (machine.n_configs, machine.n_ranks)
    before = tuple(np.empty(shape) for _ in range(4))
    delta = tuple(np.empty(shape) for _ in range(4))
    prev = tuple(np.empty(shape) for _ in range(4))
    have_prev = False
    stable = np.zeros(machine.n_configs, dtype=np.int64)
    while remaining > 0:
        sub.state_into(before)
        _exec_ops_batched(sub, loop.body)
        remaining -= 1
        if remaining < _MIN_FF_REMAINING:
            continue
        sub.delta_into(before, delta)
        if have_prev:
            # `before` is dead until the next state_into: reuse it as the
            # detector's scratch space.
            ok = _rows_close(delta, prev, before) & _rows_uniform(
                delta[0], before[2]
            )
            stable = np.where(ok, stable + 1, 0)
        else:
            stable[:] = 0
        retire = stable >= _FF_STABLE_ITERS
        if np.any(retire):
            sub.fast_forward_rows(retire, delta, remaining)
            _record_fast_forward(int(retire.sum()), remaining)
            if sub is not parent:
                parent.write_rows(rows[retire], sub, retire)
            keep = ~retire
            rows = rows[keep]
            if rows.size == 0:
                return
            sub = sub.extract_rows(keep)
            shape = (rows.size, sub.n_ranks)
            prev = tuple(d[keep] for d in delta)
            before = tuple(np.empty(shape) for _ in range(4))
            delta = tuple(np.empty(shape) for _ in range(4))
            stable = stable[keep]
            have_prev = True
        else:
            prev, delta = delta, prev
            have_prev = True
    if sub is not parent:
        parent.write_rows(rows, sub)


# -- the sharded executor ------------------------------------------------------
#
# Tiling strategy: the unsharded loop body makes one full-plane pass per
# numpy op (~30 per superstep with the detector), so beyond cache size
# every op streams from DRAM.  The sharded executor reorganises each
# superstep into 2-3 fused *tile passes* — per tile: [finish previous
# sync; snapshot; advance locals; partial row-max], [halo gathers], and
# [finish sync; delta; detector verdicts] — so each tile's ~20 arrays
# are touched many times while cache-hot and streamed from DRAM only
# once per pass.  Per-segment local dt is computed once per loop entry
# (it is loop-invariant) instead of once per iteration.
#
# Bit-identity (ARCHITECTURE.md invariant 8): every tiled update applies
# the same elementwise IEEE-754 ops as its full-width original on the
# same operands; the only cross-column couplings — the barrier row max,
# the halo gathers, and the detector's row reductions — are exact
# operand selections / AND-reductions, which commute with any column
# partition.  Cross-row coupling does not exist, so row blocks are
# trivially exact.


def _shard_segments(
    ops: Sequence[_VOp],
) -> list[tuple[tuple, _VOp | None]]:
    """Split an op sequence at its synchronisation points.

    Returns ``(locals, sync)`` pairs where ``locals`` is a maximal
    sync-free run — exactly the runs :func:`_exec_ops_batched` fuses,
    since the boundaries depend only on op types — and ``sync`` is the
    following barrier / allreduce / sendrecv / sync-bearing loop, or
    ``None`` for a trailing local run.
    """
    segs: list[tuple[tuple, _VOp | None]] = []
    run: list[_VOp] = []
    for op in ops:
        if isinstance(op, _LOCAL_OPS) or (
            isinstance(op, VLoop) and not _has_sync(op.body)
        ):
            run.append(op)
        else:
            segs.append((tuple(run), op))
            run = []
    if run:
        segs.append((tuple(run), None))
    return segs


def _local_dt_tile(
    ops: Sequence[_VOp], rates: np.ndarray, a: int, b: int
) -> np.ndarray:
    """:func:`_local_dt_batched` restricted to columns ``[a, b)`` —
    elementwise identical to slicing the full result, since every term
    is per-element."""
    sub = rates[:, a:b]
    w = b - a
    dt = np.zeros(sub.shape)
    for op in ops:
        if isinstance(op, VCompute):
            pay = np.asarray(op.ghz_seconds, dtype=float)
            dt += np.broadcast_to(pay if pay.ndim == 0 else pay[a:b], (w,)) / sub
        elif isinstance(op, VElapse):
            pay = np.asarray(op.seconds, dtype=float)
            dt += np.broadcast_to(pay if pay.ndim == 0 else pay[a:b], (w,))
        elif isinstance(op, VLoop):
            dt += op.iters * _local_dt_tile(op.body, rates, a, b)
        else:  # pragma: no cover - guarded by _has_sync
            raise SimulationError(f"{op!r} is not a local op")
    return dt


class _ShardedExec:
    """Execution state of one row block on a column-tiled plan.

    Owns the machine, the tile boundaries, the full-width gathered-ready
    plane, the per-tile partial buffers, and the (shared) thread pool.
    Per-tile scratch makes every tile pass race-free: concurrent visits
    write only their own column range and their own scratch.  ``busy_s``
    accumulates per-tile busy seconds across the whole run (shared
    through :meth:`shrink` so retirement does not reset the telemetry).
    """

    __slots__ = (
        "machine", "bounds", "pool", "busy_s",
        "ready", "partials", "wait_scr", "diff_scr", "tol_scr", "gather_scr",
    )

    def __init__(
        self,
        machine: BatchedBspMachine,
        bounds: tuple[tuple[int, int], ...],
        pool: ThreadPoolExecutor | None,
        busy_s: list[float],
    ):
        self.machine = machine
        self.bounds = bounds
        self.pool = pool
        self.busy_s = busy_s
        c = machine.n_configs
        self.ready = np.empty(machine.rates.shape)
        self.partials = np.empty((c, len(bounds)))
        self.wait_scr = [np.empty((c, b - a)) for a, b in bounds]
        self.diff_scr = [np.empty((c, b - a)) for a, b in bounds]
        self.tol_scr = [np.empty((c, b - a)) for a, b in bounds]
        self.gather_scr: list[tuple[np.ndarray, np.ndarray] | None]
        self.gather_scr = [None] * len(bounds)

    def shrink(self, keep: np.ndarray) -> "_ShardedExec":
        """A new exec over the kept config rows, same column tiling."""
        return _ShardedExec(
            self.machine.extract_rows(keep), self.bounds, self.pool, self.busy_s
        )

    def gather_pair(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Tile *t*'s halo-gather scratch, allocated on first exchange."""
        pair = self.gather_scr[t]
        if pair is None:
            a, b = self.bounds[t]
            c = self.machine.n_configs
            pair = (np.empty((c, b - a)), np.empty((c, b - a)))
            self.gather_scr[t] = pair
        return pair

    def apply_sync(self, pend: tuple, t: int, a: int, b: int) -> None:
        """Apply a pending sync's phase 2 to tile *t* (wait/comm/clock)."""
        kind, ready, cost = pend
        self.machine.sync_cols(
            a, b, ready if kind == "row" else ready[:, a:b], cost,
            self.wait_scr[t],
        )

    def foreach(self, visit) -> None:
        """Run ``visit(t, a, b)`` over every tile — on the pool when one
        is attached, else inline.  Returns only once all tiles are done,
        so consecutive passes are separated by a full barrier; worker
        exceptions propagate."""
        bounds = self.bounds
        busy = self.busy_s

        def run(t: int) -> None:
            a, b = bounds[t]
            t0 = perf_counter()
            visit(t, a, b)
            busy[t] += perf_counter() - t0

        if self.pool is None:
            for t in range(len(bounds)):
                run(t)
        else:
            list(self.pool.map(run, range(len(bounds))))


def _dt_tiles(ex: _ShardedExec, ops: tuple) -> list[np.ndarray] | None:
    """Per-tile local-time caches for one sync-free run (``None`` when
    the run is empty).  Loop-invariant, so loops build these once per
    entry; :meth:`BatchedBspMachine.advance_local`'s non-negativity
    guard is hoisted here."""
    if not ops:
        return None
    tiles = []
    for a, b in ex.bounds:
        dt = _local_dt_tile(ops, ex.machine.rates, a, b)
        if np.any(dt < 0):
            raise SimulationError("local time must be non-negative")
        tiles.append(dt)
    return tiles


def _fused_pass(
    ex: _ShardedExec,
    *,
    pend: tuple | None = None,
    snap: tuple | None = None,
    dt: list[np.ndarray] | None = None,
    partial: bool = False,
) -> None:
    """One tiled pass: finish a pending sync, snapshot, advance local
    time, and/or compute barrier partial row-maxima — fused so each
    tile's arrays are touched together while cache-hot."""
    m = ex.machine

    def visit(t: int, a: int, b: int) -> None:
        if pend is not None:
            ex.apply_sync(pend, t, a, b)
        if snap is not None:
            m.snapshot_cols(a, b, snap)
        if dt is not None:
            m.advance_cols(a, b, dt[t])
        if partial:
            m.rowmax_cols(a, b, ex.partials[:, t])

    ex.foreach(visit)


def _barrier_pend(ex: _ShardedExec, op: _VOp) -> tuple:
    """Reduce the tiles' partial row maxima (max of maxes is the exact
    full-row max) and price the collective; a ``partial`` pass must have
    just filled ``ex.partials``."""
    m = ex.machine
    ready_row = np.max(ex.partials, axis=1)[:, None]
    if isinstance(op, VAllreduce):
        hops = max(1, int(np.ceil(np.log2(max(m.n_ranks, 2)))))
        cost = 2 * (
            hops * m.latency_s + op.message_bytes / (m.bandwidth_gbps * 1e9)
        )
    else:
        cost = 0.0
    return ("row", ready_row, cost)


def _sendrecv_phase1(ex: _ShardedExec, op: VSendrecv) -> tuple:
    """The halo exchange's gather pass: fill ``ex.ready`` tile by tile.

    Gathers read *other* tiles' clocks, so this runs as its own pass —
    :meth:`_ShardedExec.foreach`'s completion barrier guarantees every
    tile's local advance finished before any gather starts, and no
    clock is written until the pass completes.
    """
    m = ex.machine
    nb = np.asarray(op.neighbors)
    if nb.ndim != 2 or nb.shape[0] != m.n_ranks:
        raise SimulationError(
            f"neighbors must have shape (n_ranks, k); got {nb.shape}"
        )
    if nb.size and (nb.min() < 0 or nb.max() >= m.n_ranks):
        raise SimulationError("neighbor indices out of range")

    def visit(t: int, a: int, b: int) -> None:
        m.gather_ready_cols(a, b, nb, ex.ready[:, a:b], ex.gather_pair(t))

    ex.foreach(visit)
    cost = m.latency_s + op.message_bytes * nb.shape[1] / (
        m.bandwidth_gbps * 1e9
    )
    return ("full", ex.ready, cost)


def _ref_delta(
    ex: _ShardedExec,
    pend: tuple | None,
    tail_dt: list[np.ndarray] | None,
    before: tuple,
) -> tuple[np.ndarray, np.ndarray]:
    """The detector's reference column — column 0's clock delta for this
    iteration, computed ahead of the closing pass so worker tiles never
    read another tile's in-flight delta.  Replays the exact IEEE-754 ops
    the closing pass performs on column 0 (``ready + cost``, ``+ dt``,
    ``- before``), so the result is bitwise equal to ``delta[0][:, :1]``.
    Returns ``(ref, tolerance)`` as :func:`_rows_uniform` computes them.
    """
    if pend is not None:
        _kind, ready, cost = pend
        post = ready[:, 0] + cost
    else:
        post = ex.machine.clock_s[:, 0].copy()
    if tail_dt is not None:
        post = post + tail_dt[0][:, 0]
    ref = (post - before[0][:, 0])[:, None]
    rtol = 1e-12 * np.abs(ref)
    rtol += 1e-15
    return ref, rtol


def _closing_pass(
    ex: _ShardedExec,
    pend: tuple | None,
    tail_dt: list[np.ndarray] | None,
    before: tuple,
    delta: tuple,
    prev: tuple,
    ref: np.ndarray | None,
    rtol: np.ndarray | None,
    ok_parts: np.ndarray,
    uni_parts: np.ndarray,
) -> None:
    """End-of-iteration pass: finish the superstep (pending sync +
    trailing locals), write the per-tile delta, and — when ``ref`` is
    given — evaluate the steady-state detector's per-tile verdicts with
    the same predicate as :func:`_rows_close` / :func:`_rows_uniform`
    (a row's full-width ``.all`` is the AND of its tile ``.all``\\ s)."""
    m = ex.machine

    def visit(t: int, a: int, b: int) -> None:
        if pend is not None:
            ex.apply_sync(pend, t, a, b)
        if tail_dt is not None:
            m.advance_cols(a, b, tail_dt[t])
        m.delta_cols(a, b, before, delta)
        if ref is None:
            return
        diff, tol = ex.diff_scr[t], ex.tol_scr[t]
        ok = None
        for d, p in zip(delta, prev):
            np.subtract(d[:, a:b], p[:, a:b], out=diff)
            np.abs(diff, out=diff)
            np.abs(p[:, a:b], out=tol)
            tol *= 1e-12
            tol += 1e-15
            good = (diff <= tol).all(axis=1)
            ok = good if ok is None else ok & good
        ok_parts[:, t] = ok
        np.subtract(delta[0][:, a:b], ref, out=diff)
        np.abs(diff, out=diff)
        uni_parts[:, t] = (diff <= rtol).all(axis=1)

    ex.foreach(visit)


def _exec_loop_sharded(ex: _ShardedExec, loop: VLoop) -> None:
    """The sharded twin of :func:`_exec_loop_batched`.

    Identical control flow — the same per-row ``(prev, stable)``
    detector state machine, retiring each config at exactly the
    iteration the unsharded executor would, with the same active-set
    extraction — but the per-iteration work is reorganised into the
    fused tile passes described at the top of this section, and each
    segment's local dt is cached across iterations (it is
    loop-invariant; the cache is row-sliced on extraction).
    """
    segs = _shard_segments(loop.body)
    tail_ops: tuple = ()
    if segs and segs[-1][1] is None:
        tail_ops = segs.pop()[0]
    remaining = loop.iters
    parent = ex.machine
    rows = np.arange(parent.n_configs)
    n_tiles = len(ex.bounds)
    shape = parent.rates.shape
    seg_dt = [_dt_tiles(ex, locs) for locs, _ in segs]
    tail_dt = _dt_tiles(ex, tail_ops)
    before = tuple(np.empty(shape) for _ in range(4))
    delta = tuple(np.empty(shape) for _ in range(4))
    prev = tuple(np.empty(shape) for _ in range(4))
    ok_parts = np.empty((shape[0], n_tiles), dtype=bool)
    uni_parts = np.empty((shape[0], n_tiles), dtype=bool)
    have_prev = False
    stable = np.zeros(shape[0], dtype=np.int64)
    while remaining > 0:
        # Mirrors _exec_loop_batched's post-decrement `remaining <
        # _MIN_FF_REMAINING: continue`: iterations that skip the
        # detector also skip the snapshot and delta.
        detect = remaining - 1 >= _MIN_FF_REMAINING
        pend: tuple | None = None
        snap = before if detect else None
        for si, (locs, sync) in enumerate(segs):
            dts = seg_dt[si]
            if isinstance(sync, (VBarrier, VAllreduce)):
                _fused_pass(ex, pend=pend, snap=snap, dt=dts, partial=True)
                pend = _barrier_pend(ex, sync)
            else:
                if pend is not None or snap is not None or dts is not None:
                    _fused_pass(ex, pend=pend, snap=snap, dt=dts)
                if isinstance(sync, VSendrecv):
                    pend = _sendrecv_phase1(ex, sync)
                else:  # a sync-bearing nested loop
                    pend = None
                    _exec_loop_sharded(ex, sync)
            snap = None
        remaining -= 1
        if not detect:
            if pend is not None or tail_dt is not None:
                _fused_pass(ex, pend=pend, dt=tail_dt)
            continue
        if have_prev:
            ref, rtol = _ref_delta(ex, pend, tail_dt, before)
        else:
            ref = rtol = None
        _closing_pass(
            ex, pend, tail_dt, before, delta, prev, ref, rtol,
            ok_parts, uni_parts,
        )
        if have_prev:
            ok = ok_parts.all(axis=1)
            ok &= uni_parts.all(axis=1)
            stable = np.where(ok, stable + 1, 0)
        else:
            stable[:] = 0
        retire = stable >= _FF_STABLE_ITERS
        if np.any(retire):
            m = ex.machine
            whole = bool(retire.all())
            repeats = remaining

            def ff_visit(t: int, a: int, b: int) -> None:
                m.fast_forward_rows_cols(
                    a, b, retire, delta, repeats, ex.diff_scr[t], whole
                )

            ex.foreach(ff_visit)
            _record_fast_forward(int(retire.sum()), remaining)
            if ex.machine is not parent:
                parent.write_rows(rows[retire], ex.machine, retire)
            keep = ~retire
            rows = rows[keep]
            if rows.size == 0:
                return
            ex = ex.shrink(keep)
            shape = ex.machine.rates.shape
            prev = tuple(d[keep] for d in delta)
            before = tuple(np.empty(shape) for _ in range(4))
            delta = tuple(np.empty(shape) for _ in range(4))
            ok_parts = np.empty((shape[0], n_tiles), dtype=bool)
            uni_parts = np.empty((shape[0], n_tiles), dtype=bool)
            stable = stable[keep]
            seg_dt = [
                None if c is None else [dt[keep] for dt in c] for c in seg_dt
            ]
            tail_dt = (
                None if tail_dt is None else [dt[keep] for dt in tail_dt]
            )
            have_prev = True
        else:
            prev, delta = delta, prev
            have_prev = True
    if ex.machine is not parent:
        parent.write_rows(rows, ex.machine)


def _exec_ops_sharded(ex: _ShardedExec, ops: Sequence[_VOp]) -> None:
    """Top-level sharded op walk (fusion boundaries identical to
    :func:`_exec_ops_batched`).  Top-level sequences are a handful of
    ops, so only loop bodies get the cross-segment pass fusion."""
    for locs, sync in _shard_segments(ops):
        dts = _dt_tiles(ex, locs)
        if isinstance(sync, (VBarrier, VAllreduce)):
            _fused_pass(ex, dt=dts, partial=True)
            _fused_pass(ex, pend=_barrier_pend(ex, sync))
        elif isinstance(sync, VSendrecv):
            if dts is not None:
                _fused_pass(ex, dt=dts)
            _fused_pass(ex, pend=_sendrecv_phase1(ex, sync))
        elif isinstance(sync, VLoop):
            if dts is not None:
                _fused_pass(ex, dt=dts)
            _exec_loop_sharded(ex, sync)
        elif dts is not None:
            _fused_pass(ex, dt=dts)


def _resolve_shard_plan(shard, shape: tuple[int, int]) -> ShardPlan | None:
    """Normalise :func:`run_fast_batched`'s ``shard`` argument
    (``None`` stays ``None``: the unsharded path)."""
    if shard is None:
        return None
    if isinstance(shard, ShardPlan):
        if (shard.n_configs, shard.n_ranks) != shape:
            raise ConfigurationError(
                f"plan is for a {(shard.n_configs, shard.n_ranks)} plane; "
                f"rates have shape {shape}"
            )
        return shard
    if isinstance(shard, str):
        if shard != "auto":
            raise ConfigurationError(
                f"shard must be None, 'auto', a ShardSpec, or a ShardPlan; "
                f"got {shard!r}"
            )
        shard = ShardSpec()
    if isinstance(shard, ShardSpec):
        return shard.plan(shape[0], shape[1])
    raise ConfigurationError(
        f"shard must be None, 'auto', a ShardSpec, or a ShardPlan; "
        f"got {shard!r}"
    )


def run_fast_sharded(
    program: BspProgram,
    rates: np.ndarray,
    *,
    latency_s: float = 5e-6,
    bandwidth_gbps: float = 5.0,
    plan: ShardPlan | None = None,
) -> list[RankTrace]:
    """Execute :func:`run_fast_batched`'s contract on a tiled plan.

    Row blocks run sequentially through the column-tiled executor (or
    plain :func:`_exec_ops_batched` when the plan has a single column
    tile); column tiles within a pass run on a thread pool when the plan
    asks for more than one worker.  Results are bit-identical to the
    unsharded path — ARCHITECTURE.md invariant 8.  ``plan=None``
    auto-tunes via :func:`~repro.simmpi.sharding.plan_shards`.
    """
    r = np.asarray(rates, dtype=float)
    if r.ndim != 2 or r.shape[1] != program.n_ranks:
        raise ConfigurationError(
            f"rates shape {r.shape} != (n_configs, {program.n_ranks})"
        )
    if plan is None:
        plan = plan_shards(r.shape[0], r.shape[1])
    elif (plan.n_configs, plan.n_ranks) != r.shape:
        raise ConfigurationError(
            f"plan is for a {(plan.n_configs, plan.n_ranks)} plane; "
            f"rates have shape {r.shape}"
        )
    tiles = plan.col_tiles()
    busy = [0.0] * len(tiles)
    pool: ThreadPoolExecutor | None = None
    traces: list[RankTrace] = []
    t0 = perf_counter()
    with telemetry.span(
        "sim.run_fast_sharded",
        configs=int(r.shape[0]),
        ranks=program.n_ranks,
        row_blocks=plan.n_row_blocks,
        col_shards=plan.n_col_shards,
        workers=plan.n_workers,
    ):
        try:
            if plan.n_workers > 1 and plan.n_col_shards > 1:
                pool = ThreadPoolExecutor(
                    max_workers=plan.n_workers,
                    thread_name_prefix="repro-shard",
                )
            for r0, r1 in plan.row_blocks():
                machine = BatchedBspMachine(
                    r[r0:r1], latency_s=latency_s, bandwidth_gbps=bandwidth_gbps
                )
                if plan.n_col_shards == 1:
                    _exec_ops_batched(machine, program.ops)
                else:
                    _exec_ops_sharded(
                        _ShardedExec(machine, tiles, pool, busy), program.ops
                    )
                traces.extend(machine.traces())
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
        if telemetry.enabled():
            wall = perf_counter() - t0
            for t, (a, b) in enumerate(tiles):
                telemetry.observe("sim.shard_ranks", b - a)
                telemetry.record_span(
                    "sim.shard", busy[t], tile=t, cols=f"{a}:{b}"
                )
            if wall > 0.0:
                telemetry.observe(
                    "sim.shard_occupancy",
                    min(1.0, sum(busy) / (wall * plan.n_workers)),
                )
    return traces


def run_fast_batched(
    program: BspProgram,
    rates: np.ndarray,
    *,
    latency_s: float = 5e-6,
    bandwidth_gbps: float = 5.0,
    shard: ShardPlan | ShardSpec | str | None = None,
) -> list[RankTrace]:
    """Execute one :class:`BspProgram` for many rate configurations at
    once on the 2-D vectorised path.

    ``rates`` has shape ``(n_configs, n_ranks)``; the result is one
    :class:`RankTrace` per config, bit-identical to ``n_configs``
    separate :func:`run_fast` calls at the corresponding rate rows.
    With telemetry on, an unsharded one-row call (a single run) records
    a ``"fastpath"`` phase timeline.

    ``shard`` selects the execution layout — never the results:
    ``None`` runs the whole plane unsharded, ``"auto"`` (or a
    :class:`~repro.simmpi.sharding.ShardSpec`) tiles it to the
    working-set budget via :func:`~repro.simmpi.sharding.plan_shards`,
    and an explicit :class:`~repro.simmpi.sharding.ShardPlan` is used
    as given.  Plans that degenerate to one whole-plane tile fall
    through to the unsharded executor.
    """
    r = np.asarray(rates, dtype=float)
    if r.ndim != 2 or r.shape[1] != program.n_ranks:
        raise ConfigurationError(
            f"rates shape {r.shape} != (n_configs, {program.n_ranks})"
        )
    plan = _resolve_shard_plan(shard, r.shape)
    if plan is not None and not plan.is_unsharded:
        return run_fast_sharded(
            program, r,
            latency_s=latency_s, bandwidth_gbps=bandwidth_gbps, plan=plan,
        )
    machine = BatchedBspMachine(
        r, latency_s=latency_s, bandwidth_gbps=bandwidth_gbps
    )
    if r.shape[0] == 1:
        # A one-row batch is a single run: record its phase timeline.
        machine.observer = telemetry.timeline("fastpath")
    with telemetry.span(
        "sim.run_fast_batched", configs=int(r.shape[0]), ranks=program.n_ranks
    ):
        _exec_ops_batched(machine, program.ops)
    return machine.traces()


# -- lowering to the event-driven machine --------------------------------------


def _send_targets(op: VSendrecv, n_ranks: int) -> list[list[int]]:
    """``targets[r]`` = ranks whose neighbour table lists ``r``.

    The BSP exchange has rank *r* wait on its listed neighbours, so the
    event lowering must have each of those neighbours *send* to r —
    for an asymmetric table the send set is the transpose of the
    receive set.  (Torus/ring tables are symmetric; the general form
    keeps the lowering faithful for arbitrary tables.)
    """
    targets: list[list[int]] = [[] for _ in range(n_ranks)]
    nb = np.asarray(op.neighbors)
    for r in range(n_ranks):
        for p in nb[r]:
            targets[int(p)].append(r)
    return targets


def to_event_program(program: BspProgram) -> Callable[[int], Iterator]:
    """Lower a :class:`BspProgram` to per-rank event-machine generators.

    The result runs on :class:`EventDrivenMachine` — the differential
    reference.  Sends are emitted before receives within each exchange,
    so lowered programs can never deadlock.
    """
    n = program.n_ranks
    send_tables: dict[int, list[list[int]]] = {}

    def lower(ops: Sequence[_VOp], rank: int) -> Iterator:
        for op in ops:
            if isinstance(op, VCompute):
                work = np.broadcast_to(
                    np.asarray(op.ghz_seconds, dtype=float), (n,)
                )
                yield Compute(float(work[rank]))
            elif isinstance(op, VElapse):
                secs = np.broadcast_to(np.asarray(op.seconds, dtype=float), (n,))
                yield Elapse(float(secs[rank]))
            elif isinstance(op, VBarrier):
                yield Barrier()
            elif isinstance(op, VAllreduce):
                yield Allreduce(op.message_bytes)
            elif isinstance(op, VSendrecv):
                table = send_tables.setdefault(id(op), _send_targets(op, n))
                for dst in table[rank]:
                    yield Send(dst, message_bytes=op.message_bytes)
                for src in np.asarray(op.neighbors)[rank]:
                    yield Recv(int(src))
            elif isinstance(op, VLoop):
                for _ in range(op.iters):
                    yield from lower(op.body, rank)
            else:  # pragma: no cover - programs are validated on construction
                raise SimulationError(f"unknown fast-path op {op!r}")

    def prog(rank: int) -> Iterator:
        yield from lower(program.ops, rank)

    return prog


def run_event(
    program: BspProgram,
    rates: np.ndarray,
    *,
    latency_s: float = 5e-6,
    bandwidth_gbps: float = 5.0,
) -> RankTrace:
    """Execute a :class:`BspProgram` on the event-driven reference path."""
    machine = EventDrivenMachine(
        np.asarray(rates, dtype=float),
        latency_s=latency_s,
        bandwidth_gbps=bandwidth_gbps,
    )
    return machine.run(to_event_program(program))


# -- application dispatch ------------------------------------------------------


def is_bsp_expressible(app) -> bool:
    """Whether an app's communication pattern fits the fast path.

    True for the rank-uniform kinds (``"none"``, ``"neighbor"``,
    ``"allreduce"``); False for anything needing genuine point-to-point
    matching (``"pipeline"``), which must run event-driven.
    """
    return app.comm.kind in BSP_COMM_KINDS


def _app_work(app, n_ranks: int, fmax_ghz: float, work_imbalance):
    """Per-rank (cpu GHz·seconds, fixed seconds) of one app iteration."""
    if work_imbalance is None:
        scaled = np.ones(n_ranks)
    else:
        scaled = np.asarray(work_imbalance, dtype=float)
        if scaled.shape != (n_ranks,):
            raise ConfigurationError("work_imbalance must have one entry per rank")
    kappa = app.cpu_bound_fraction
    base = app.iter_seconds_fmax
    return kappa * base * fmax_ghz * scaled, (1.0 - kappa) * base * scaled


def bsp_app_program(
    app,
    n_ranks: int,
    fmax_ghz: float,
    n_iters: int,
    work_imbalance: np.ndarray | None = None,
) -> BspProgram:
    """An :class:`~repro.apps.base.AppModel`'s iteration structure as a
    :class:`BspProgram` (BSP-expressible comm kinds only)."""
    if not is_bsp_expressible(app):
        raise ConfigurationError(
            f"comm kind {app.comm.kind!r} is not BSP-expressible"
        )
    if n_iters <= 0:
        raise ConfigurationError("n_iters must be positive")
    cpu_work, fixed = _app_work(app, n_ranks, fmax_ghz, work_imbalance)
    body: list[_VOp] = [VCompute(cpu_work)]
    if app.cpu_bound_fraction < 1.0:
        body.append(VElapse(fixed))
    if app.comm.kind == "neighbor":
        body.append(VSendrecv(app.neighbor_table(n_ranks), app.comm.message_bytes))
    elif app.comm.kind == "allreduce":
        body.append(VAllreduce(max(app.comm.message_bytes, 8.0)))
    ops: list[_VOp] = [VLoop(tuple(body), int(n_iters))]
    if app.comm.final_allreduce:
        ops.append(VAllreduce(8.0))
    return BspProgram(n_ranks, tuple(ops))


def event_app_program(
    app,
    n_ranks: int,
    fmax_ghz: float,
    n_iters: int,
    work_imbalance: np.ndarray | None = None,
) -> Callable[[int], Iterator]:
    """Per-rank event-machine program for any comm kind.

    This is the explicit fallback: the ``"pipeline"`` kind (rank r
    receives from r−1 and feeds r+1 each iteration — a software
    pipeline, not bulk-synchronous) only exists here.
    """
    if n_iters <= 0:
        raise ConfigurationError("n_iters must be positive")
    cpu_work, fixed = _app_work(app, n_ranks, fmax_ghz, work_imbalance)
    kappa = app.cpu_bound_fraction
    comm = app.comm
    neighbors = app.neighbor_table(n_ranks) if comm.kind == "neighbor" else None

    def prog(rank: int) -> Iterator:
        for _ in range(n_iters):
            yield Compute(float(cpu_work[rank]))
            if kappa < 1.0:
                yield Elapse(float(fixed[rank]))
            if comm.kind == "pipeline":
                if rank + 1 < n_ranks:
                    yield Send(rank + 1, message_bytes=comm.message_bytes)
                if rank > 0:
                    yield Recv(rank - 1)
            elif comm.kind == "neighbor":
                for p in neighbors[rank]:
                    yield Send(int(p), message_bytes=comm.message_bytes)
                for p in neighbors[rank]:
                    yield Recv(int(p))
            elif comm.kind == "allreduce":
                yield Allreduce(max(comm.message_bytes, 8.0))
        if comm.final_allreduce:
            yield Allreduce(8.0)

    return prog


def simulate_app(
    app,
    rates_ghz: np.ndarray,
    fmax_ghz: float,
    *,
    n_iters: int | None = None,
    latency_s: float = 5e-6,
    bandwidth_gbps: float = 5.0,
    work_imbalance: np.ndarray | None = None,
) -> RankTrace:
    """Simulate an application, automatically picking the fastest exact path.

    BSP-expressible communication runs as whole-fleet array operations
    (:func:`run_fast`, a one-row batch); anything else falls back to the
    event-driven machine.  :mod:`repro.core.runner` uses it for uncapped
    reference runs and :func:`simulate_app_batched` for budgeted ones.
    """
    rates = np.asarray(rates_ghz, dtype=float)
    iters = int(app.default_iters if n_iters is None else n_iters)
    if iters <= 0:
        raise ConfigurationError("n_iters must be positive")
    n_ranks = int(rates.shape[0]) if rates.ndim == 1 else 0
    if is_bsp_expressible(app):
        telemetry.count("sim.route.fast")
        program = bsp_app_program(app, n_ranks or 1, fmax_ghz, iters, work_imbalance)
        return run_fast(
            program, rates, latency_s=latency_s, bandwidth_gbps=bandwidth_gbps
        )
    telemetry.count("sim.route.event")
    machine = EventDrivenMachine(
        rates, latency_s=latency_s, bandwidth_gbps=bandwidth_gbps
    )
    machine.observer = telemetry.timeline("eventsim")
    with telemetry.span(
        "sim.run_event", ranks=machine.n_ranks, comm=app.comm.kind
    ):
        return machine.run(
            event_app_program(app, machine.n_ranks, fmax_ghz, iters, work_imbalance)
        )


def simulate_app_batched(
    app,
    rates_ghz: np.ndarray,
    fmax_ghz: float,
    *,
    n_iters: int | None = None,
    latency_s: float = 5e-6,
    bandwidth_gbps: float = 5.0,
    work_imbalance: np.ndarray | None = None,
    shard: ShardPlan | ShardSpec | str | None = None,
) -> list[RankTrace]:
    """Simulate one application under many rate configurations at once.

    ``rates_ghz`` has shape ``(n_configs, n_ranks)``.  BSP-expressible
    apps run as a single 2-D pass (:func:`run_fast_batched`); the
    program is built once — :func:`bsp_app_program` is deterministic in
    its arguments, so the shared program equals what each per-config
    :func:`simulate_app` call would build.  Non-BSP comm (``"pipeline"``)
    has genuinely per-rank control flow and falls back to per-config
    dispatch, which is the sequential path verbatim.

    ``shard`` is forwarded to :func:`run_fast_batched` (execution
    layout only — results are bit-identical either way); the per-config
    fallback ignores it, as the event-driven machine has nothing to tile.
    """
    rates = np.asarray(rates_ghz, dtype=float)
    if rates.ndim != 2:
        raise ConfigurationError(
            f"rates must have shape (n_configs, n_ranks); got {rates.shape}"
        )
    iters = int(app.default_iters if n_iters is None else n_iters)
    if iters <= 0:
        raise ConfigurationError("n_iters must be positive")
    if is_bsp_expressible(app):
        telemetry.count("sim.route.fast_batched")
        program = bsp_app_program(
            app, int(rates.shape[1]), fmax_ghz, iters, work_imbalance
        )
        return run_fast_batched(
            program, rates,
            latency_s=latency_s, bandwidth_gbps=bandwidth_gbps, shard=shard,
        )
    return [
        simulate_app(
            app,
            rates[c],
            fmax_ghz,
            n_iters=iters,
            latency_s=latency_s,
            bandwidth_gbps=bandwidth_gbps,
            work_imbalance=work_imbalance,
        )
        for c in range(rates.shape[0])
    ]
