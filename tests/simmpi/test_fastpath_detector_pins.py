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

The same stack also checks the detector's tile counters and that no
neighbour table is built on the fast path; the descriptor checks of
:class:`~repro.simmpi.topology.Torus` sit beside it.
"""

import hashlib

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.errors import ConfigurationError
from repro.simmpi.fastpath import (
    BspProgram,
    VAllreduce,
    VCompute,
    VElapse,
    VLoop,
    VSendrecv,
    run_fast_batched,
)
from repro.simmpi.sharding import plan_shards
from repro.simmpi.topology import Torus

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
            VSendrecv(Torus(SHAPE), 256.0),
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


@pytest.mark.parametrize("shape", [(64, 47), (N + 1,), (2, 3)])
def test_torus_over_other_rank_count_rejected(shape):
    """A torus whose extents multiply to anything but the program's
    ranks fails at program construction."""
    with pytest.raises(ConfigurationError, match="Torus over 3072 ranks"):
        BspProgram(N, (VLoop((VCompute(1.0), VSendrecv(Torus(shape))), 4),))


@pytest.mark.parametrize("shape", [(), (0,), (64, 0), (-1, -3072), (2.0, 3)])
def test_malformed_torus_rejected(shape):
    """An empty shape, or an extent that is not a positive integer, is
    not a torus."""
    with pytest.raises(ConfigurationError, match="torus shape"):
        Torus(shape)


def test_torus_gather_builds_no_rank_table(monkeypatch):
    """The fast path never calls the event lowering's index-table
    builder: halos are gathered from shifted slices."""
    import repro.simmpi.fastpath as fastpath

    def fail(shape):
        raise AssertionError(f"built a neighbour table for {shape}")

    monkeypatch.setattr(fastpath, "torus_neighbors", fail)
    traces = run_fast_batched(_program(), _rates(), shard=LAYOUTS["tiles_256"])
    assert _digest(traces) == STACK_PIN
