"""Shard planning for the 2-D ``(n_configs, n_ranks)`` fast path.

The fast path streams ~20 fleet-sized float64 arrays per superstep
(the four accumulators, rates, two snapshot quads, the gathered ready
plane, cached local time, sync and detector scratch).  Once
the per-superstep working set outgrows the CPU caches, every numpy op
becomes a DRAM-bandwidth-bound pass and throughput falls off a cliff —
the 50k→100k-module drop in ``BENCH_fleet.json``.  The fix is
tiling: split the plane into blocks whose working set fits a
cache-sized budget and make few fused passes per superstep instead of
one full-plane pass per op.

This module is the pure planning half: geometry and sizing only, no
execution.  :func:`plan_shards` turns a plane shape plus optional user
knobs into a :class:`ShardPlan` — a row-block height and a tuple of
column-tile boundaries that together cover the plane exactly once.  The
executor half lives in :mod:`repro.simmpi.fastpath`
(``run_fast_sharded``), which runs every BSP program on a plan — a
plane under the budget, or a ``shard=None`` run, is a one-tile plan —
and guarantees the same bits under every plan (ARCHITECTURE.md
invariant 8).

Row blocks are free parallelism (configs are independent), so the
planner prefers keeping all configs together and splitting columns;
rows split only when the config axis alone overflows the budget.
Column tiles are balanced to within one rank so no shard straggles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.util.topology import effective_cpu_count

__all__ = [
    "BYTES_PER_ELEMENT",
    "DEFAULT_TARGET_BYTES",
    "ShardPlan",
    "ShardSpec",
    "plan_shards",
]

#: Per-plane-element working-set footprint of one sharded superstep, in
#: bytes.  The live float64 arrays are 18: machine state ×4, rates, two
#: snapshot quads ×8 (this iteration's and the previous one's), the
#: gathered ready plane, cached dt, and tile scratch ×3 (sync wait,
#: detector diff and tolerance) — 144 bytes; halo gathers need no
#: scratch, since they max shifted slices straight into the ready
#: plane.  The value stays at 176 so tile widths, and the plans built
#: from them, do not change.
BYTES_PER_ELEMENT = 176

#: Default per-tile working-set budget.  Sized to sit inside a shared
#: L3 slice with room for the interpreter; ~48k plane elements at
#: :data:`BYTES_PER_ELEMENT`.  Override per-process with the
#: ``REPRO_SHARD_TARGET_BYTES`` environment variable or per-call via
#: :class:`ShardSpec`/:func:`plan_shards`.
DEFAULT_TARGET_BYTES = 8 * 1024 * 1024

_TARGET_ENV = "REPRO_SHARD_TARGET_BYTES"


def _resolve_target_bytes(target_bytes: int | None) -> int:
    if target_bytes is None:
        raw = os.environ.get(_TARGET_ENV)
        if raw is None:
            return DEFAULT_TARGET_BYTES
        try:
            target_bytes = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{_TARGET_ENV} must be an integer byte count; got {raw!r}"
            ) from None
        if target_bytes <= 0:
            raise ConfigurationError(
                f"{_TARGET_ENV} must be a positive byte count; got {raw!r}"
            )
    if target_bytes <= 0:
        raise ConfigurationError("shard working-set budget must be positive")
    return int(target_bytes)


@dataclass(frozen=True)
class ShardPlan:
    """A validated tiling of one ``(n_configs, n_ranks)`` plane.

    ``col_bounds`` holds the column-tile edges ``(0, …, n_ranks)`` —
    tile *t* spans ``[col_bounds[t], col_bounds[t+1])`` — and
    ``row_block`` the maximum configs per row block, so the blocks are
    ``[0, row_block), [row_block, 2·row_block), …``.  Together the tiles
    partition the plane: every element belongs to exactly one
    (row block, column tile) pair.
    """

    n_configs: int
    n_ranks: int
    row_block: int
    col_bounds: tuple[int, ...]
    n_workers: int

    def __post_init__(self) -> None:
        if self.n_configs <= 0 or self.n_ranks <= 0:
            raise ConfigurationError("plane dimensions must be positive")
        if not 1 <= self.row_block <= self.n_configs:
            raise ConfigurationError(
                f"row_block must be in [1, {self.n_configs}]; "
                f"got {self.row_block}"
            )
        if self.n_workers <= 0:
            raise ConfigurationError("n_workers must be positive")
        b = self.col_bounds
        if len(b) < 2 or b[0] != 0 or b[-1] != self.n_ranks:
            raise ConfigurationError(
                f"col_bounds must run 0..{self.n_ranks}; got {b}"
            )
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ConfigurationError(
                f"col_bounds must be strictly increasing; got {b}"
            )

    @property
    def n_col_shards(self) -> int:
        """Column tiles per row block."""
        return len(self.col_bounds) - 1

    @property
    def n_row_blocks(self) -> int:
        """Row blocks covering the config axis."""
        return -(-self.n_configs // self.row_block)

    @property
    def is_unsharded(self) -> bool:
        """Whether the plan is the whole plane in one piece (one column
        tile, one row block)."""
        return self.n_col_shards == 1 and self.row_block >= self.n_configs

    def col_tiles(self) -> tuple[tuple[int, int], ...]:
        """``(start, stop)`` column ranges, left to right."""
        b = self.col_bounds
        return tuple((b[i], b[i + 1]) for i in range(len(b) - 1))

    def row_blocks(self) -> tuple[tuple[int, int], ...]:
        """``(start, stop)`` config-row ranges, top to bottom."""
        return tuple(
            (r, min(r + self.row_block, self.n_configs))
            for r in range(0, self.n_configs, self.row_block)
        )


def _balanced_bounds(n_ranks: int, width_cap: int) -> tuple[int, ...]:
    """Tile edges for ``n_ranks`` columns with tiles ≤ ``width_cap``,
    balanced to within one rank so no tile straggles."""
    n_tiles = -(-n_ranks // width_cap)
    base, extra = divmod(n_ranks, n_tiles)
    bounds = [0]
    for t in range(n_tiles):
        bounds.append(bounds[-1] + base + (1 if t < extra else 0))
    return tuple(bounds)


def plan_shards(
    n_configs: int,
    n_ranks: int,
    *,
    shard_ranks: int | None = None,
    shard_workers: int | None = None,
    target_bytes: int | None = None,
) -> ShardPlan:
    """Tile a plane to the working-set budget (or explicit knobs).

    Auto mode (no ``shard_ranks``): a plane that fits the budget is one
    tile; otherwise configs are kept together (rows split only if
    the config axis alone overflows) and columns are cut into balanced
    tiles whose ``rows × width`` working set meets the budget.

    ``shard_ranks`` forces fixed-width column tiles (clamped to
    ``[1, n_ranks]``; the last tile takes the remainder) — the
    deterministic shape the differential suite drives through adversarial
    boundaries.  ``shard_workers`` caps the thread-pool width; it
    defaults to ``min(effective CPUs, column tiles)`` (the affinity-aware
    count — a ``taskset``/cgroup-restricted process plans for the cores
    it may actually use).
    """
    if n_configs <= 0 or n_ranks <= 0:
        raise ConfigurationError("plane dimensions must be positive")
    if shard_workers is not None and shard_workers <= 0:
        raise ConfigurationError("shard_workers must be positive")

    if shard_ranks is not None:
        if shard_ranks <= 0:
            raise ConfigurationError("shard_ranks must be positive")
        width = min(int(shard_ranks), n_ranks)
        bounds = tuple(range(0, n_ranks, width)) + (n_ranks,)
        row_block = n_configs
    else:
        budget = _resolve_target_bytes(target_bytes) // BYTES_PER_ELEMENT
        budget = max(1, budget)
        if n_configs * n_ranks <= budget:
            row_block, bounds = n_configs, (0, n_ranks)
        else:
            row_block = min(n_configs, budget)
            width_cap = max(1, budget // row_block)
            if n_ranks <= width_cap:
                bounds = (0, n_ranks)
            else:
                bounds = _balanced_bounds(n_ranks, width_cap)

    n_tiles = len(bounds) - 1
    if shard_workers is not None:
        workers = min(int(shard_workers), n_tiles)
    else:
        workers = min(effective_cpu_count(), n_tiles)
    return ShardPlan(
        n_configs=n_configs,
        n_ranks=n_ranks,
        row_block=row_block,
        col_bounds=bounds,
        n_workers=max(1, workers),
    )


@dataclass(frozen=True)
class ShardSpec:
    """User-facing shard knobs, independent of any plane shape.

    A spec travels through the runner/engine/CLI layers (never into a
    :class:`~repro.exec.cache.RunKey` — sharding cannot change results,
    so it must not change digests) and resolves to a concrete
    :class:`ShardPlan` per run via :meth:`plan`.  The default spec is
    pure auto-tuning.  Every knob that is set must be positive; a bad
    value fails here, at construction, not when a plan is first built.
    """

    shard_ranks: int | None = None
    shard_workers: int | None = None
    target_bytes: int | None = None

    def __post_init__(self) -> None:
        for name in ("shard_ranks", "shard_workers", "target_bytes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{name} must be positive; got {value}"
                )

    def plan(self, n_configs: int, n_ranks: int) -> ShardPlan:
        """The concrete plan for one plane shape."""
        return plan_shards(
            n_configs,
            n_ranks,
            shard_ranks=self.shard_ranks,
            shard_workers=self.shard_workers,
            target_bytes=self.target_bytes,
        )
