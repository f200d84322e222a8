"""Frozen reference traces for :func:`~repro.simmpi.fastpath.run_fast_batched`.

The fast path's bits are pinned here as sha256 digests of whole trace
stacks, so any change to the executor — fusion, sync order, the
steady-state detector, the fast-forward step — that moves a single ulp
fails loudly.  The digests were recorded with ``shard=None`` (the
whole-plane layout) and cover:

* barrier, allreduce, ring and torus halo exchanges, nested sync loops
  and sync-free loops (fused into one local advance);
* a stack whose rows retire at different iterations (uniform rows reach
  steady state at once, ragged rows only after the ring wavefront);
* 1- and 5-row stacks, at zero and non-zero latency.

The phase-timeline pin freezes what a one-row run reports to telemetry:
the sync sequence, each event's fleet-wide clock maximum, and the
per-module clock/wait snapshots.

The event-driven machine (``test_fastpath_differential.py``) remains the
independent reference; these pins guard the vectorised executor's exact
bits against itself over time.
"""

import hashlib

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.simmpi.fastpath import (
    BspProgram,
    VAllreduce,
    VBarrier,
    VCompute,
    VElapse,
    VLoop,
    VSendrecv,
    run_fast_batched,
)
from repro.simmpi.topology import Torus

N = 12
TRACE_FIELDS = ("total_s", "compute_s", "wait_s", "comm_s")


def _programs() -> dict[str, BspProgram]:
    rng = np.random.default_rng(19)
    work = rng.uniform(0.5, 1.5, N)
    stall = rng.uniform(0.0, 0.2, N)
    ring = Torus((N,))
    torus = Torus((4, 3))
    return {
        "barrier": BspProgram(N, (
            VCompute(work),
            VLoop((VCompute(work), VElapse(stall), VBarrier()), 30),
        )),
        "allreduce": BspProgram(N, (
            VLoop((VCompute(work), VAllreduce(1024.0)), 30),
            VAllreduce(8.0),
        )),
        "ring_sendrecv": BspProgram(N, (
            VLoop((VCompute(work), VElapse(0.1), VSendrecv(ring, 4096.0)), 40),
        )),
        "torus_sendrecv": BspProgram(N, (
            VLoop((VCompute(work), VSendrecv(torus, 0.0)), 40),
            VBarrier(),
        )),
        "nested_sync_loops": BspProgram(N, (
            VLoop((
                VCompute(work),
                VLoop((VElapse(stall), VSendrecv(ring, 0.0)), 5),
                VAllreduce(64.0),
            ), 10),
        )),
        "sync_free_loops": BspProgram(N, (
            VCompute(work),
            VLoop((VCompute(0.5), VElapse(stall)), 7),
            VBarrier(),
            VLoop((VLoop((VCompute(work),), 3), VElapse(0.2)), 4),
        )),
        "staggered_retirement": BspProgram(N, (
            VLoop((VCompute(1.0), VSendrecv(ring, 0.0)), 60),
        )),
    }


def _rates(n_rows: int) -> np.ndarray:
    """Ragged and uniform rows interleaved, so rows of one stack reach
    steady state at different iterations."""
    rng = np.random.default_rng(7)
    rows = [
        1.0 + rng.uniform(0.0, 2.0, N),
        np.full(N, 2.0),
        1.5 + rng.uniform(0.0, 0.5, N),
        np.full(N, 3.3),
        1.0 + rng.uniform(0.0, 3.0, N),
    ]
    return np.stack(rows[:n_rows])


def _digest(traces) -> str:
    h = hashlib.sha256()
    for tr in traces:
        for name in TRACE_FIELDS:
            arr = getattr(tr, name)
            assert arr.dtype == np.float64 and arr.shape == (N,)
            h.update(arr.tobytes())
    return h.hexdigest()


#: ``(program, rows, latency_s) -> sha256`` of the trace stack.
PINS = {
    ("barrier", 1, 0.0): "9a0c830ea1c27aa46ecaf383e44592c36ce1d348979ec8b159f35133a9e49f6d",
    ("barrier", 1, 5e-06): "9a0c830ea1c27aa46ecaf383e44592c36ce1d348979ec8b159f35133a9e49f6d",
    ("barrier", 5, 0.0): "e5f9d185524011eb5be52f21fb626b3fbd9148023901f1031dceda856075d14d",
    ("barrier", 5, 5e-06): "e5f9d185524011eb5be52f21fb626b3fbd9148023901f1031dceda856075d14d",
    ("allreduce", 1, 0.0): "d734dac59caa0774c7602299987f1ac925dcf4fe8bb87068e54cc149451dc88e",
    ("allreduce", 1, 5e-06): "c8abfd3a22cabd9f2d006b8b42e5520fb204455c4e594f7d4e3e49081bc6a03b",
    ("allreduce", 5, 0.0): "3e926051bcad9e8aada1bf3adff020812f989d7b136c9990fd3abd391c840493",
    ("allreduce", 5, 5e-06): "dbf80eba187ebadd5b0308afbf8678d82b5d79115a69566a6ec6307bf59e80e2",
    ("ring_sendrecv", 1, 0.0): "c42a3dcf41ec30802c8982d0aba6e9014b7b7aff79f53630b28daf05b238ea6c",
    ("ring_sendrecv", 1, 5e-06): "75b877a6f27aff2277686443254d7b4cd44c7cc62e6227662437329002d932c1",
    ("ring_sendrecv", 5, 0.0): "9b343318e5d5de5acff506262eff938da470baf78aebc08b172db121ff6380fb",
    ("ring_sendrecv", 5, 5e-06): "b6f52dac77e981b84850d9f30aef431ae90a4c8a5fad9c14bb896e0a6c5fd501",
    ("torus_sendrecv", 1, 0.0): "a4b62f3bf46bdd2f0a139770d202113ecf354a6456b475beced1de56291a0c30",
    ("torus_sendrecv", 1, 5e-06): "dc2bdfb591cdc0defe79db9f3d4858cf686168f7a7bf833f1e4881a1bf46d784",
    ("torus_sendrecv", 5, 0.0): "b2b5cd435cfb0e8fa368d883dc70858ce7e5238cd5afda9741166c4c818d1740",
    ("torus_sendrecv", 5, 5e-06): "034666b42378a680041565b45562105622cac7540bd0b31135ded9bc3347d825",
    ("nested_sync_loops", 1, 0.0): "a371eefb52b749879f8d65bcb74425ac43099b29db6d2c446c7715f78bb51fbd",
    ("nested_sync_loops", 1, 5e-06): "bf7eae13464fcffea8bd56f5a1b76cb55bdca5b6db84f6e30b34fc6539922912",
    ("nested_sync_loops", 5, 0.0): "42c55f90c084491d2dbf23b8588d3d76791a2c642d3c94360c5a05f359c7fc77",
    ("nested_sync_loops", 5, 5e-06): "64fe10cb9e2d4daf6f270176abc69b270f68b4a1cb87b6b8a73f5c12c0eb7dca",
    ("sync_free_loops", 1, 0.0): "4ff29b9381a258b3e6b846a87e4d1c8947cc2ed7fa26e3c9af17333c92961968",
    ("sync_free_loops", 1, 5e-06): "4ff29b9381a258b3e6b846a87e4d1c8947cc2ed7fa26e3c9af17333c92961968",
    ("sync_free_loops", 5, 0.0): "35991416ebabd3edca5e10340d4492cde3f40103879d2e0c03b31ab8f2bc427a",
    ("sync_free_loops", 5, 5e-06): "35991416ebabd3edca5e10340d4492cde3f40103879d2e0c03b31ab8f2bc427a",
    ("staggered_retirement", 1, 0.0): "cf8374a4af1fe8b6691e20394ff19e37109844f51309021581ad999c46e5e5e7",
    ("staggered_retirement", 1, 5e-06): "678d1f9c7afedc9a0867961836e4bb710582260f3592fab56f67da3887c5b80d",
    ("staggered_retirement", 5, 0.0): "d72ebbb46ea262a0cd22b05344c5e753bdb4d69b71103c40b780dc8d79d8a8dd",
    ("staggered_retirement", 5, 5e-06): "1894fd319f8020eab8bf9b021a8e102c4b27115ff9a7622514e4e3d49fd70f54",
}

CASES = [
    (name, rows, latency)
    for name in _programs()
    for rows in (1, 5)
    for latency in (0.0, 5e-6)
]


@pytest.mark.parametrize("name,rows,latency", CASES)
def test_trace_pins(name, rows, latency):
    program = _programs()[name]
    traces = run_fast_batched(program, _rates(rows), latency_s=latency, shard=None)
    assert len(traces) == rows
    assert _digest(traces) == PINS[(name, rows, latency)]


#: The one-row ``"fastpath"`` timeline of :func:`_timeline_program`.
TIMELINE_OPS = [
    "barrier",
    "sendrecv",
    "allreduce",
    "sendrecv",
    "allreduce",
    "sendrecv",
    "allreduce",
    "barrier",
    "barrier",
    "barrier",
    "barrier",
    "allreduce",
]
TIMELINE_T_MAX = [
    "0x1.70fe6e3602c50p-1",
    "0x1.70fec58874e3dp+0",
    "0x1.7101650d197fap+0",
    "0x1.14c079bd46807p+1",
    "0x1.14c1c97f98ce6p+1",
    "0x1.710190b6528f0p+1",
    "0x1.7102e078a4dcfp+1",
    "0x1.33bdd444e2d08p+3",
    "0x1.3ba87cbb41490p+3",
    "0x1.439325319fc18p+3",
    "0x1.4b7dcda7fe3a0p+3",
    "0x1.4b7e218c8c2b9p+3",
]
TIMELINE_DETAIL_SHA = (
    "9e9b7392e9f484ce3bc57942e6bcb65cf7b12dbbbb246c5a649c4ca7e6c028bd"
)


def _timeline_program() -> BspProgram:
    work = np.random.default_rng(23).uniform(0.5, 1.5, N)
    return BspProgram(N, (
        VCompute(work),
        VBarrier(),
        VLoop((VCompute(work), VSendrecv(Torus((N,)), 512.0),
               VAllreduce(64.0)), 12),
        VLoop((VCompute(0.25), VBarrier()), 4),
        VAllreduce(8.0),
    ))


def test_timeline_pin():
    telemetry.disable()
    telemetry.enable()
    try:
        run_fast_batched(_timeline_program(), _rates(1), shard=None)
    finally:
        collector = telemetry.disable()
    (tl,) = collector.timelines
    assert tl.kind == "fastpath" and tl.dropped == 0
    assert [e.op for e in tl.events] == TIMELINE_OPS
    assert [e.t_max_s.hex() for e in tl.events] == TIMELINE_T_MAX
    h = hashlib.sha256()
    for e in tl.events:
        if e.clock_s is not None:
            h.update(e.clock_s.tobytes())
            h.update(e.wait_s.tobytes())
    assert h.hexdigest() == TIMELINE_DETAIL_SHA
