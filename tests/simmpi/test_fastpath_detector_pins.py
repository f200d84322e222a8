"""Frozen bits of the steady-state detector on a mixed-tile halo stack.

A 4-row stack runs a halo exchange on a 64 × 48 torus (3,072 ranks).
Each row seeds a 3 × 3 cluster of slow ranks at a different place, so
within one iteration some column tiles already advance uniformly (the
slow cluster's wavefront has covered them) while others do not, and
the rows reach steady state at different iterations.  That is the case
where the detector's per-tile verdicts, the retirement of some rows
mid-loop and the fast-forward of the rest all interact.

The traces are pinned as sha256 digests under the whole-plane layout
(``shard=None``) and under two fixed-width tilings, one of them on two
worker threads.  Each row's fast-forward telemetry is pinned too: the
iteration it retires at fixes how many iterations it skips.

The same stack also checks the detector's tile counters and that each
neighbour table is validated once per run, and still is when it was
corrupted after the program was built: the halo gathers take in
``"clip"`` mode, which would otherwise hide an out-of-range index.
"""

import hashlib

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.errors import SimulationError
from repro.simmpi.fastpath import (
    BspProgram,
    VAllreduce,
    VCompute,
    VElapse,
    VLoop,
    VSendrecv,
    run_fast_batched,
    run_fast_sharded,
)
from repro.simmpi.machine import BatchedBspMachine
from repro.simmpi.sharding import plan_shards
from repro.simmpi.topology import torus_neighbors
from tests.simmpi.test_fastpath_sharded import fixed_width_plan

SHAPE = (64, 48)
N = SHAPE[0] * SHAPE[1]
ITERS = 80
TRACE_FIELDS = ("total_s", "compute_s", "wait_s", "comm_s")

#: ``(slow factor, top-left grid cell)`` of each row's slow cluster.
CLUSTERS = ((0.55, (1, 2)), (0.7, (0, 0)), (0.6, (5, 40)), (0.8, (2, 20)))


def _program() -> BspProgram:
    work = np.random.default_rng(24).uniform(0.9, 1.1, N)
    return BspProgram(N, (
        VLoop((
            VCompute(work),
            VSendrecv(torus_neighbors(SHAPE), 256.0),
            VElapse(0.05),
        ), ITERS),
        VAllreduce(8.0),
    ))


def _rates() -> np.ndarray:
    """Flat rows and slightly jittered rows, each with its slow cluster."""
    rng = np.random.default_rng(2015)
    rows = []
    for k, (slow, (i, j)) in enumerate(CLUSTERS):
        if k % 2:
            r = 2.0 + rng.uniform(0.0, 1e-3, N)
        else:
            r = np.full(N, 2.0 + 0.1 * k)
        grid = r.reshape(SHAPE)
        grid[i:i + 3, j:j + 3] *= slow
        rows.append(grid.ravel())
    return np.stack(rows)


def _digest(traces) -> str:
    h = hashlib.sha256()
    for tr in traces:
        for name in TRACE_FIELDS:
            arr = getattr(tr, name)
            assert arr.dtype == np.float64 and arr.shape == (N,)
            h.update(arr.tobytes())
    return h.hexdigest()


LAYOUTS = {
    "whole_plane": None,
    "tiles_256": plan_shards(4, N, shard_ranks=256, shard_workers=1),
    "tiles_700_workers_2": plan_shards(4, N, shard_ranks=700, shard_workers=2),
}

#: sha256 of the 4-row trace stack; the same under every layout.
STACK_PIN = (
    "b6120823c7e63479d6e4ee891b83c084949f4c0e42f438ee67c62f5b24cc3cf5"
)

#: Iterations each row skips when it runs alone (one fast-forward each).
ROW_SAVED_ITERS = (20, 15, 20, 12)


def _with_telemetry(run):
    telemetry.disable()
    telemetry.enable()
    try:
        out = run()
    finally:
        c = telemetry.disable()
    return out, c.metrics


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_stack_pin(layout):
    traces, metrics = _with_telemetry(
        lambda: run_fast_batched(_program(), _rates(), shard=LAYOUTS[layout])
    )
    assert _digest(traces) == STACK_PIN
    hist = metrics.histograms["sim.ff_saved_iters"]
    assert metrics.counter("sim.fast_forward").value == len(CLUSTERS)
    assert (hist.count, hist.total) == (len(CLUSTERS), sum(ROW_SAVED_ITERS))
    assert (hist.min, hist.max) == (min(ROW_SAVED_ITERS), max(ROW_SAVED_ITERS))


@pytest.mark.parametrize("row", range(len(CLUSTERS)))
def test_row_fast_forward_pin(row):
    _, metrics = _with_telemetry(
        lambda: run_fast_batched(_program(), _rates()[row:row + 1])
    )
    hist = metrics.histograms["sim.ff_saved_iters"]
    assert metrics.counter("sim.fast_forward").value == 1
    assert (hist.count, hist.total) == (1, ROW_SAVED_ITERS[row])


def test_mutated_neighbor_table_still_rejected():
    """The table is validated on every run, not only at construction: a
    neighbour index pushed out of range afterwards must fail the run."""
    program = _program()
    table = program.ops[0].body[1].neighbors
    table[17, 2] = N
    with pytest.raises(SimulationError, match="out of range"):
        run_fast_batched(program, _rates())


def test_detector_skips_tiles_without_a_uniform_row():
    """Tiles where no row advances uniformly skip the close test, and
    the telemetry shows how many did: 67 detector passes over 12 tiles,
    of which 323 tile visits had a uniform row."""
    _, metrics = _with_telemetry(
        lambda: run_fast_batched(
            _program(), _rates(), shard=LAYOUTS["tiles_256"]
        )
    )
    tiles = metrics.counter("sim.detect_tiles").value
    closed = metrics.counter("sim.detect_close_tiles").value
    assert (tiles, closed) == (804, 323)


def test_neighbor_tables_checked_once_per_run(monkeypatch):
    """Each exchange's table is validated once per run, however many
    supersteps, row blocks or retirements the run goes through."""
    calls = []
    check = BatchedBspMachine.check_neighbors

    def counting(self, neighbors):
        calls.append(id(neighbors))
        return check(self, neighbors)

    monkeypatch.setattr(BatchedBspMachine, "check_neighbors", counting)
    torus = torus_neighbors(SHAPE)
    program = BspProgram(N, (
        VLoop((VCompute(1.0), VSendrecv(torus, 64.0)), 20),
        VLoop((VCompute(1.0), VSendrecv(torus[:, ::-1].copy(), 0.0)), 20),
    ))
    plan = fixed_width_plan(4, N, 700, row_block=1)
    run_fast_sharded(program, _rates(), plan=plan)
    assert len(calls) == 2 and len(set(calls)) == 2
