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
  around the torus).  :func:`run_fast` is the one-row case.  Every call
  runs on :func:`run_fast_sharded`, the one loop executor, over a
  :class:`~repro.simmpi.sharding.ShardPlan` of column tiles — a single
  whole-plane tile unless the caller asks for tiling;
* :func:`run_event` / :func:`to_event_program` — lowers the same program
  to per-rank generators on the :class:`EventDrivenMachine`, the
  independent reference the differential suite
  (``tests/simmpi/test_fastpath_differential.py``) checks against;
* :func:`simulate_app_batched` — the dispatch :mod:`repro.core.runner`
  uses for every run: BSP-expressible applications (``comm.kind`` of
  ``"none"``, ``"neighbor"`` or ``"allreduce"``) take the vectorised
  path, anything else (the ``"pipeline"`` kind) falls back to the
  event-driven machine.  :func:`simulate_app` is its one-row case.

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

import copy
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
from repro.simmpi.topology import Torus, torus_neighbors
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
#: below that, plain iteration is cheaper than the detector's bookkeeping.
_MIN_FF_REMAINING = 3

#: Consecutive identical per-iteration increments required before the
#: loop is declared stationary.  One uniform-shift observation is
#: already sufficient mathematically (see :func:`_exec_loop_sharded`); the
#: second is a guard against accumulated rounding noise.
_FF_STABLE_ITERS = 2

#: Column stride of the detector's uniformity probe: every 64th rank of
#: a tile is tested before the whole tile (see :func:`_detect_pass`).
_UNIFORM_PROBE_STRIDE = 64


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


@dataclass(frozen=True)
class VSendrecv:
    """Halo exchange on a periodic rank
    :class:`~repro.simmpi.topology.Torus`."""

    torus: Torus
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
            elif isinstance(op, VLoop):
                n = op.iters
                if (
                    isinstance(n, bool)
                    or not isinstance(n, (int, np.integer))
                    or n <= 0
                ):
                    raise ConfigurationError(
                        f"loop iterations must be a positive integer; got {n!r}"
                    )
                self._validate(op.body)
            elif isinstance(op, VBarrier):
                pass
            elif isinstance(op, (VAllreduce, VSendrecv)):
                if not (np.isfinite(op.message_bytes) and op.message_bytes >= 0):
                    raise ConfigurationError(
                        "message_bytes must be finite and non-negative; "
                        f"got {op.message_bytes!r}"
                    )
                if isinstance(op, VSendrecv) and (
                    not isinstance(op.torus, Torus)
                    or op.torus.n_ranks != self.n_ranks
                ):
                    raise ConfigurationError(
                        f"sendrecv needs a Torus over {self.n_ranks} ranks; "
                        f"got {op.torus!r}"
                    )
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


# -- the tiled executor --------------------------------------------------------
#
# One executor runs every BSP program, on a ShardPlan: row blocks of
# configs, each cut into column tiles.  Each superstep is organised
# into 2-3 fused *tile passes* — per tile: [finish previous sync;
# snapshot; advance locals; partial row-max], [halo gathers], and
# [finish sync; detector verdicts] — so each tile's ~20 arrays are
# touched many times while cache-hot and, on a plane larger than the
# cache, streamed from DRAM only once per pass.  Per-segment local
# dt is computed once per loop entry (it is loop-invariant) instead of
# once per iteration.  A plane under the working-set budget, and every
# ``shard=None`` run, is a one-tile plan: the same passes over the
# whole width.
#
# Bit-identity (ARCHITECTURE.md invariant 8): every update is an
# elementwise IEEE-754 op on the same operands under any tiling; the
# only cross-column couplings — the barrier row max, the halo gathers,
# and the detector's row reductions — are exact operand selections /
# AND-reductions, which commute with any column partition.  Cross-row
# coupling does not exist, so row blocks are trivially exact.


def _shard_segments(
    ops: Sequence[_VOp],
) -> list[tuple[tuple, _VOp | None]]:
    """Split an op sequence at its synchronisation points.

    Returns ``(locals, sync)`` pairs where ``locals`` is a maximal
    sync-free run — fused into one local advance; the boundaries depend
    only on op types, so every config row fuses identically — and
    ``sync`` is the following barrier / allreduce / sendrecv /
    sync-bearing loop, or ``None`` for a trailing local run.
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
    ops: Sequence[_VOp], sub: np.ndarray, a: int, b: int
) -> np.ndarray:
    """Combined per-rank seconds of a communication-free op sequence on
    columns ``[a, b)``, whose rates are ``sub``, for every config row at
    once — elementwise identical to slicing a full-width result, since
    every term is per-element."""
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
            dt += op.iters * _local_dt_tile(op.body, sub, a, b)
        else:  # pragma: no cover - guarded by _has_sync
            raise SimulationError(f"{op!r} is not a local op")
    return dt


class _ShardedExec:
    """Execution state of one row block on a column-tiled plan.

    Owns the machine, the tile boundaries, the full-width gathered-ready
    plane, the per-tile partial buffers, and the (shared) thread pool.
    Per-tile scratch makes every tile pass race-free: concurrent visits
    write only their own column range and their own scratch.  ``busy_s``
    accumulates per-tile busy seconds across the whole run.  Machine
    row *i* runs at ``rates[rows[i]]`` (``rows=None``: the identity);
    the caller's ``rates`` are never reordered.
    """

    __slots__ = (
        "machine", "rates", "rows", "bounds", "pool", "busy_s",
        "ready", "partials", "wait_scr", "diff_scr", "tol_scr",
    )

    def __init__(
        self,
        machine: BatchedBspMachine,
        bounds: tuple[tuple[int, int], ...],
        pool: ThreadPoolExecutor | None,
        busy_s: list[float],
    ):
        self.machine = machine
        self.rates = machine.rates
        self.rows: np.ndarray | None = None
        self.bounds = bounds
        self.pool = pool
        self.busy_s = busy_s
        c = machine.n_configs
        self.ready = np.empty(machine.clock_s.shape)
        self.partials = np.empty((c, len(bounds)))
        self.wait_scr = [np.empty((c, b - a)) for a, b in bounds]
        self.diff_scr = [np.empty((c, b - a)) for a, b in bounds]
        self.tol_scr = [np.empty((c, b - a)) for a, b in bounds]

    def head(self, k: int, rows: np.ndarray) -> "_ShardedExec":
        """An exec over the machine's first ``k`` rows, whose rates are
        ``rates[rows]``: views of this exec's machine, ready plane and
        scratch (no copies), with the same column tiling."""
        ex = copy.copy(self)
        ex.machine, ex.rows = self.machine.head(k), rows
        ex.ready, ex.partials = self.ready[:k], self.partials[:k]
        for name in ("wait_scr", "diff_scr", "tol_scr"):
            setattr(ex, name, [s[:k] for s in getattr(self, name)])
        return ex

    def apply_sync(self, pend: tuple, t: int, a: int, b: int) -> None:
        """Apply a pending sync's phase 2 to tile *t* (wait/comm/clock).

        ``pend`` is ``(op, ready, cost)``: a sendrecv's ``ready`` is the
        full gathered plane, a barrier/allreduce's the ``(configs, 1)``
        row maxima."""
        op, ready, cost = pend
        self.machine.sync_cols(
            a, b, ready[:, a:b] if op == "sendrecv" else ready, cost,
            self.wait_scr[t], op,
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
    entry; the non-negativity guard of
    :meth:`BatchedBspMachine.advance_local` is applied here, once."""
    if not ops:
        return None
    tiles = []
    for a, b in ex.bounds:
        rows = slice(None) if ex.rows is None else ex.rows
        dt = _local_dt_tile(ops, ex.rates[rows, a:b], a, b)
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
    ready_row = np.max(ex.partials, axis=1)[:, None]
    if isinstance(op, VAllreduce):
        cost = ex.machine.allreduce_cost(op.message_bytes)
        return ("allreduce", ready_row, cost)
    return ("barrier", ready_row, 0.0)


def _sendrecv_phase1(ex: _ShardedExec, op: VSendrecv) -> tuple:
    """The halo exchange's gather pass: fill ``ex.ready`` tile by tile.

    Gathers read *other* tiles' clocks, so this runs as its own pass —
    :meth:`_ShardedExec.foreach`'s completion barrier guarantees every
    tile's local advance finished before any gather starts, and no
    clock is written until the pass completes.
    """
    m = ex.machine

    def visit(t: int, a: int, b: int) -> None:
        m.gather_ready_cols(a, b, op.torus, ex.ready[:, a:b])

    ex.foreach(visit)
    return ("sendrecv", ex.ready, m.sendrecv_cost(op.torus, op.message_bytes))


def _ref_delta(
    ex: _ShardedExec,
    pend: tuple | None,
    tail_dt: list[np.ndarray] | None,
    snap: tuple,
) -> tuple[np.ndarray, np.ndarray]:
    """The detector's reference column — column 0's clock delta for this
    iteration, computed ahead of the closing pass so worker tiles never
    read another tile's in-flight clocks.  Replays the exact IEEE-754
    ops the closing pass performs on column 0 (``ready + cost``,
    ``+ dt``, ``- snap``), so the result is bitwise equal to the clock
    delta the closing pass computes there.  Returns ``(ref, tolerance)``
    for the uniformity test.
    """
    if pend is not None:
        _op, ready, cost = pend
        post = ready[:, 0] + cost
    else:
        post = ex.machine.clock_s[:, 0].copy()
    if tail_dt is not None:
        post = post + tail_dt[0][:, 0]
    ref = (post - snap[0][:, 0])[:, None]
    rtol = 1e-12 * np.abs(ref)
    rtol += 1e-15
    return ref, rtol


def _detect_pass(
    ex: _ShardedExec,
    pend: tuple | None,
    tail_dt: list[np.ndarray] | None,
    snap: tuple,
    older: tuple,
    ref: np.ndarray,
    rtol: np.ndarray,
    parts: np.ndarray,
    closed: np.ndarray,
) -> None:
    """End-of-iteration pass with the steady-state detector: finish the
    superstep (pending sync + trailing locals), then write each tile's
    per-row verdicts into ``parts[:, t]``.

    A row's verdict is *uniform* — every rank's clock increment since
    ``snap`` matches the reference column's — AND *close* — its four
    increments all match the previous iteration's, ``snap - older``.
    Both use ``np.isclose``'s finite-operand predicate
    ``|d - p| <= 1e-15 + 1e-12 * |p|`` evaluated into per-tile scratch
    (sim deltas are always finite), and a row's full-width ``.all`` is
    the AND of its tile ``.all``\\ s.  Uniformity is tested first, on
    a strided probe of the tile and then on the whole tile: a tile
    where no row is uniform has an all-False verdict whatever the close
    test would say, so it skips that test (``closed[t]`` records which
    tiles ran it).  The probe runs the same per-element ops as the full
    test, so it only ever rejects a tile the full test would reject.
    The increments are recomputed from the snapshots instead of stored
    — ``snap`` is bitwise the state the previous iteration ended in, so
    ``snap - older`` is that iteration's increment, bit for bit."""
    m = ex.machine

    def visit(t: int, a: int, b: int) -> None:
        if pend is not None:
            ex.apply_sync(pend, t, a, b)
        if tail_dt is not None:
            m.advance_cols(a, b, tail_dt[t])
        # One sampled rank per row off the reference increment already
        # makes the tile's verdicts all False.
        probe = slice(a, b, _UNIFORM_PROBE_STRIDE)
        d = m.clock_s[:, probe] - snap[0][:, probe]
        d -= ref
        if not (np.abs(d) <= rtol).all(axis=1).any():
            parts[:, t] = closed[t] = False
            return
        diff, tol = ex.diff_scr[t], ex.tol_scr[t]
        np.subtract(m.clock_s[:, a:b], snap[0][:, a:b], out=diff)
        diff -= ref
        np.abs(diff, out=diff)
        verdict = (diff <= rtol).all(axis=1)
        closed[t] = uniform = bool(verdict.any())
        if uniform:
            for arr, s, o in zip(m.accumulators, snap, older):
                np.subtract(arr[:, a:b], s[:, a:b], out=diff)
                np.subtract(s[:, a:b], o[:, a:b], out=tol)
                diff -= tol
                np.abs(diff, out=diff)
                np.abs(tol, out=tol)
                tol *= 1e-12
                tol += 1e-15
                verdict &= (diff <= tol).all(axis=1)
        parts[:, t] = verdict

    ex.foreach(visit)
    telemetry.count("sim.detect_tiles", len(ex.bounds))
    telemetry.count("sim.detect_close_tiles", int(closed.sum()))


def _record_fast_forward(n_rows: int, remaining: int) -> None:
    """Count ``n_rows`` configs retiring together with ``remaining``
    iterations skipped each: one histogram sample per row, so the
    ``sim.ff_saved_iters`` total is the iterations saved."""
    telemetry.count("sim.fast_forward", n_rows)
    for _ in range(n_rows):
        telemetry.observe("sim.ff_saved_iters", remaining)


class _LoopState:
    """A loop's per-row state, which :func:`_retire` compacts: snapshots
    taken at the start of this iteration (``snap``) and the previous
    one (``older``), detector verdicts and streaks, and the per-tile
    local-time caches of each segment (the trailing local run last)."""

    __slots__ = (
        "snap", "older", "spare", "parts", "closed", "stable", "dts", "order",
    )

    def __init__(self, ex: _ShardedExec, runs: list[tuple]):
        shape = ex.machine.clock_s.shape
        self.snap = tuple(np.empty(shape) for _ in range(4))
        self.older = tuple(np.empty(shape) for _ in range(4))
        #: Full height and dead once the loop ends: the scratch that
        #: restores the entry row order.
        self.spare = self.snap[0]
        self.parts = np.empty((shape[0], len(ex.bounds)), dtype=bool)
        self.closed = np.empty(len(ex.bounds), dtype=bool)
        self.stable = np.zeros(shape[0], dtype=np.int64)
        self.dts = [_dt_tiles(ex, ops) for ops in runs]
        #: The entry row each machine row holds.
        self.order = np.arange(shape[0])


def _retire(
    ex: _ShardedExec, st: _LoopState, retire: np.ndarray, remaining: int
) -> _ShardedExec | None:
    """Fast-forward the ``retire`` rows over the ``remaining`` iterations
    and drop them from the active set in place; returns the exec over
    the kept rows, or ``None`` when every row retired.

    A stable partition moves the machine's kept rows to the front and
    the retired rows, final state and all, behind them.  The snapshots
    and local-time caches are compacted in ascending row order, and the
    loop carries on with ``[:k]`` views of them, the machine, the ready
    plane and the tile scratch.  Every move goes through dead scratch
    (``older`` until the next rotation, the diff scratch until the next
    pass), so nothing plane-sized is allocated."""
    m, snap = ex.machine, st.snap

    def ff_visit(t: int, a: int, b: int) -> None:
        m.fast_forward_rows_cols(a, b, retire, snap, remaining, ex.diff_scr[t])

    ex.foreach(ff_visit)
    _record_fast_forward(int(retire.sum()), remaining)
    if retire.all():
        return None
    kept = np.flatnonzero(~retire)
    k = kept.size
    src = np.concatenate([kept, np.flatnonzero(retire)])
    m.reorder_rows(src, st.older[0])
    st.order[: src.size] = st.order[src]
    # Indices are in range, so "clip" only skips the output buffering of
    # the default mode.
    for s, o in zip(snap, st.older):
        np.take(s, kept, axis=0, out=o[:k], mode="clip")
    st.snap, st.older = tuple(o[:k] for o in st.older), tuple(s[:k] for s in snap)
    for tiles in filter(None, st.dts):
        for t, dt in enumerate(tiles):
            np.take(dt, kept, axis=0, out=ex.diff_scr[t][:k], mode="clip")
            np.copyto(dt[:k], ex.diff_scr[t][:k])
    st.dts = [None if c is None else [dt[:k] for dt in c] for c in st.dts]
    st.parts, st.stable = st.parts[:k], st.stable[kept]
    return ex.head(k, kept if ex.rows is None else ex.rows[kept])


def _exec_loop_sharded(ex: _ShardedExec, loop: VLoop) -> None:
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
    ``(snapshot, stable)`` detector state therefore survives the
    active-set shrink (:func:`_retire`).  Every machine op is
    row-independent, so executing the surviving subset alone reproduces
    exactly what the full batch would have computed for those rows.
    The detector's verdicts are per-tile ``.all`` reductions AND-ed
    across tiles, so they are the same under any column tiling.  A
    shrink reorders the machine's rows, so the loop restores the entry
    order before it returns.

    The per-iteration work runs as the fused tile passes described at
    the top of this section, and each segment's local dt is cached
    across iterations (it is loop-invariant).
    """
    segs = _shard_segments(loop.body)
    tail_ops: tuple = ()
    if segs and segs[-1][1] is None:
        tail_ops = segs.pop()[0]
    remaining = loop.iters
    entry = ex.machine
    st = _LoopState(ex, [locs for locs, _ in segs] + [tail_ops])
    have_prev = False
    while remaining > 0:
        # Only an iteration followed by at least _MIN_FF_REMAINING more
        # runs the detector; the others skip its snapshot.
        detect = remaining - 1 >= _MIN_FF_REMAINING
        pend: tuple | None = None
        if detect:
            st.older, st.snap = st.snap, st.older
        first_snap = st.snap if detect else None
        for (locs, sync), dts in zip(segs, st.dts):
            if isinstance(sync, (VBarrier, VAllreduce)):
                _fused_pass(ex, pend=pend, snap=first_snap, dt=dts, partial=True)
                pend = _barrier_pend(ex, sync)
            else:
                if pend is not None or first_snap is not None or dts is not None:
                    _fused_pass(ex, pend=pend, snap=first_snap, dt=dts)
                if isinstance(sync, VSendrecv):
                    pend = _sendrecv_phase1(ex, sync)
                else:  # a sync-bearing nested loop
                    pend = None
                    _exec_loop_sharded(ex, sync)
            first_snap = None
        remaining -= 1
        tail_dt = st.dts[-1]
        if not (detect and have_prev):
            if pend is not None or tail_dt is not None:
                _fused_pass(ex, pend=pend, dt=tail_dt)
            have_prev = detect
            continue
        ref, rtol = _ref_delta(ex, pend, tail_dt, st.snap)
        _detect_pass(
            ex, pend, tail_dt, st.snap, st.older, ref, rtol, st.parts, st.closed
        )
        st.stable = np.where(st.parts.all(axis=1), st.stable + 1, 0)
        retire = st.stable >= _FF_STABLE_ITERS
        if np.any(retire):
            ex = _retire(ex, st, retire, remaining)
            if ex is None:
                break
    entry.reorder_rows(np.argsort(st.order), st.spare)


def _exec_ops_sharded(ex: _ShardedExec, ops: Sequence[_VOp]) -> None:
    """Top-level op walk: each maximal sync-free run is one fused local
    advance.  Top-level sequences are a handful of ops, so only loop
    bodies get the cross-segment pass fusion."""
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


def _check_rates(program: BspProgram, rates: np.ndarray) -> np.ndarray:
    r = np.asarray(rates, dtype=float)
    if r.ndim != 2 or r.shape[1] != program.n_ranks:
        raise ConfigurationError(
            f"rates shape {r.shape} != (n_configs, {program.n_ranks})"
        )
    return r


def _resolve_shard_plan(shard, shape: tuple[int, int]) -> ShardPlan:
    """Normalise :func:`run_fast_batched`'s ``shard`` argument to a plan
    (``None`` is the whole plane as one tile on one worker)."""
    if shard is None:
        return plan_shards(
            shape[0], shape[1], shard_ranks=shape[1], shard_workers=1
        )
    if isinstance(shard, ShardPlan):
        return shard
    if isinstance(shard, str) and shard == "auto":
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
    """Execute :func:`run_fast_batched`'s contract on a tiled plan — the
    one loop executor every BSP run goes through.

    Row blocks run sequentially; column tiles within a pass run on a
    thread pool when the plan has more than one tile and asks for more
    than one worker.  Results are bit-identical under every plan —
    ARCHITECTURE.md invariant 8.  ``plan=None`` auto-tunes via
    :func:`~repro.simmpi.sharding.plan_shards`.  With telemetry on, a
    one-row run on a one-tile plan (a single run) records a
    ``"fastpath"`` phase timeline.
    """
    r = _check_rates(program, rates)
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
                if r.shape[0] == 1 and plan.n_col_shards == 1:
                    machine.observer = telemetry.timeline("fastpath")
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

    ``shard`` selects the execution layout — never the results:
    ``None`` runs the whole plane as one tile, ``"auto"`` (or a
    :class:`~repro.simmpi.sharding.ShardSpec`) tiles it to the
    working-set budget via :func:`~repro.simmpi.sharding.plan_shards`,
    and an explicit :class:`~repro.simmpi.sharding.ShardPlan` is used
    as given.  Every layout runs on :func:`run_fast_sharded`.
    """
    r = _check_rates(program, rates)
    plan = _resolve_shard_plan(shard, r.shape)
    with telemetry.span(
        "sim.run_fast_batched", configs=int(r.shape[0]), ranks=program.n_ranks
    ):
        return run_fast_sharded(
            program, r,
            latency_s=latency_s, bandwidth_gbps=bandwidth_gbps, plan=plan,
        )


# -- lowering to the event-driven machine --------------------------------------


def to_event_program(program: BspProgram) -> Callable[[int], Iterator]:
    """Lower a :class:`BspProgram` to per-rank event-machine generators.

    The result runs on :class:`EventDrivenMachine` — the differential
    reference.  Its halo exchanges send and receive along the explicit
    index table of :func:`~repro.simmpi.topology.torus_neighbors`, an
    implementation independent of the fast path's shifted slices.
    Sends are emitted before receives within each exchange, so lowered
    programs can never deadlock.
    """
    n = program.n_ranks
    tables: dict[Torus, np.ndarray] = {}

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
                if op.torus not in tables:
                    tables[op.torus] = torus_neighbors(op.torus.shape)
                # A torus table is symmetric: r's partners are the
                # ranks that list r, so r sends to the ranks it hears.
                for p in tables[op.torus][rank]:
                    yield Send(int(p), message_bytes=op.message_bytes)
                for p in tables[op.torus][rank]:
                    yield Recv(int(p))
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
        body.append(VSendrecv(app.comm.torus(n_ranks), app.comm.message_bytes))
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
    """Simulate an application for one rate vector: a one-row
    :func:`simulate_app_batched` on one tile."""
    return simulate_app_batched(
        app,
        np.asarray(rates_ghz, dtype=float)[None],
        fmax_ghz,
        n_iters=n_iters,
        latency_s=latency_s,
        bandwidth_gbps=bandwidth_gbps,
        work_imbalance=work_imbalance,
    )[0]


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
    """Simulate one application under many rate configurations at once,
    picking the fastest exact path.

    ``rates_ghz`` has shape ``(n_configs, n_ranks)``.  BSP-expressible
    apps run as a single 2-D pass (:func:`run_fast_batched`) on a program
    built once.  Non-BSP comm (``"pipeline"``) has genuinely per-rank
    control flow and falls back to the event-driven machine, one run per
    config.

    ``shard`` is forwarded to :func:`run_fast_batched` (execution
    layout only — results are bit-identical either way); the
    event-driven fallback ignores it, as it has nothing to tile.
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
    traces = []
    for row in rates:
        telemetry.count("sim.route.event")
        machine = EventDrivenMachine(
            row, latency_s=latency_s, bandwidth_gbps=bandwidth_gbps
        )
        machine.observer = telemetry.timeline("eventsim")
        with telemetry.span(
            "sim.run_event", ranks=machine.n_ranks, comm=app.comm.kind
        ):
            traces.append(machine.run(event_app_program(
                app, machine.n_ranks, fmax_ghz, iters, work_imbalance
            )))
    return traces
