"""Differential equivalence: the vectorised fast path vs the event machine.

Every :class:`~repro.simmpi.fastpath.BspProgram` can be executed two
ways — as whole-fleet array operations (:func:`run_fast`, with op fusion
and steady-state fast-forwarding) or lowered to per-rank generators on
the event-driven machine (:func:`run_event`, no shortcuts, true
point-to-point matching).  These tests generate random programs with
hypothesis — mixes of compute/elapse/barrier/allreduce/sendrecv, with
randomised per-rank payloads, rates, topologies and network parameters —
and require the two paths to agree on every :class:`RankTrace` field to
1e-9 relative, with identical shapes and dtypes.  Halo exchanges run on
random 1-, 2- and 3-D tori, extent-1 and extent-2 axes included: the
fast path gathers them from shifted slices, the event lowering from the
explicit index table of ``torus_neighbors``.

Transfer-cost convention: the event lowering of a halo exchange charges
transfer costs per point-to-point message rather than once per
superstep, so programs containing :class:`VSendrecv` are generated with
zero transfer cost (zero latency, zero payload — pure synchronisation),
where the two semantics coincide exactly.  Barrier and allreduce costs
use the same closed form on both machines, so those programs randomise
latency and bandwidth freely.

Across the three @given suites below, well over 200 distinct random
programs are exercised per run (120 + 60 + 40 examples minimum).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.base import AppModel, CommSpec
from repro.simmpi.topology import Torus, grid_dims, torus_neighbors
from repro.hardware.power_model import PowerSignature
from repro.simmpi.eventsim import EventDrivenMachine
from repro.simmpi.fastpath import (
    BspProgram,
    VAllreduce,
    VBarrier,
    VCompute,
    VElapse,
    VLoop,
    VSendrecv,
    event_app_program,
    run_event,
    run_fast,
    simulate_app,
)

TRACE_FIELDS = ("total_s", "compute_s", "wait_s", "comm_s")
RTOL = 1e-9
#: Absolute slack for identically-zero fields (e.g. wait_s of a
#: communication-free program) where relative error is undefined.
ATOL = 1e-12


def assert_traces_equivalent(fast, ref):
    for name in TRACE_FIELDS:
        a, b = getattr(fast, name), getattr(ref, name)
        assert a.shape == b.shape, name
        assert a.dtype == b.dtype, name
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=ATOL, err_msg=name)


def contains_sendrecv(ops) -> bool:
    return any(
        isinstance(op, VSendrecv)
        or (isinstance(op, VLoop) and contains_sendrecv(op.body))
        for op in ops
    )


# -- random program generation -------------------------------------------------


def _payload(draw, n: int, hi: float):
    """Scalar or per-rank array payload in [0, hi]."""
    if draw(st.booleans()):
        return draw(st.floats(0.0, hi))
    return np.array([draw(st.floats(0.0, hi)) for _ in range(n)])


def _torus(draw, n: int) -> Torus:
    """A random 1-, 2- or 3-D torus over ``n`` ranks: each extent is a
    drawn divisor of the ranks left, so extents of 1 and 2 are common."""
    shape = []
    for _ in range(draw(st.integers(0, 2))):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        shape.append(draw(st.sampled_from(divisors)))
        n //= shape[-1]
    return Torus((*shape, n))


@st.composite
def op_lists(draw, n: int, allow_sendrecv: bool, depth: int = 1) -> list:
    kinds = ["compute", "elapse", "barrier", "allreduce"]
    if allow_sendrecv:
        kinds.append("sendrecv")
    if depth > 0:
        kinds.append("loop")
    ops = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(kinds))
        if kind == "compute":
            ops.append(VCompute(_payload(draw, n, 3.0)))
        elif kind == "elapse":
            ops.append(VElapse(_payload(draw, n, 1.0)))
        elif kind == "barrier":
            ops.append(VBarrier())
        elif kind == "allreduce":
            ops.append(VAllreduce(draw(st.floats(0.0, 1e6))))
        elif kind == "sendrecv":
            # Zero payload by convention (see module docstring).
            ops.append(VSendrecv(_torus(draw, n), 0.0))
        else:
            body = draw(op_lists(n, allow_sendrecv, depth=depth - 1))
            ops.append(VLoop(tuple(body), draw(st.integers(1, 12))))
    return ops


@st.composite
def program_cases(draw, force_sendrecv: bool = False):
    """(program, rates, latency_s, bandwidth_gbps) for one differential run."""
    n = draw(st.integers(2, 8))
    allow_sendrecv = force_sendrecv or draw(st.booleans())
    ops = draw(op_lists(n, allow_sendrecv))
    if force_sendrecv and not contains_sendrecv(ops):
        body = (VCompute(_payload(draw, n, 2.0)),
                VSendrecv(_torus(draw, n), 0.0))
        ops.append(VLoop(body, draw(st.integers(2, 20))))
    program = BspProgram(n, tuple(ops))
    rates = np.array([draw(st.floats(0.5, 4.0)) for _ in range(n)])
    latency = 0.0 if contains_sendrecv(ops) else draw(st.floats(0.0, 1e-4))
    bandwidth = draw(st.floats(1.0, 10.0))
    return program, rates, latency, bandwidth


# -- the differential suites ---------------------------------------------------


class TestRandomProgramEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(case=program_cases())
    def test_mixed_programs(self, case):
        program, rates, latency, bandwidth = case
        fast = run_fast(program, rates, latency_s=latency, bandwidth_gbps=bandwidth)
        ref = run_event(program, rates, latency_s=latency, bandwidth_gbps=bandwidth)
        assert_traces_equivalent(fast, ref)

    @settings(max_examples=60, deadline=None)
    @given(case=program_cases(force_sendrecv=True))
    def test_sendrecv_programs(self, case):
        """Halo-exchange loops — the fast-forward path's hardest case."""
        program, rates, latency, bandwidth = case
        fast = run_fast(program, rates, latency_s=latency, bandwidth_gbps=bandwidth)
        ref = run_event(program, rates, latency_s=latency, bandwidth_gbps=bandwidth)
        assert_traces_equivalent(fast, ref)


@st.composite
def app_cases(draw):
    """A random BSP-expressible AppModel plus run parameters."""
    kind = draw(st.sampled_from(["none", "neighbor", "allreduce"]))
    n = draw(st.integers(2, 10))
    neighbor = kind == "neighbor"
    comm = CommSpec(
        kind=kind,
        ndim=draw(st.integers(1, 2)) if neighbor else 0,
        # Zero-cost convention for the per-message vs per-superstep
        # sendrecv caveat; allreduce matches at any cost.
        message_bytes=0.0 if neighbor else draw(st.floats(0.0, 1e6)),
        final_allreduce=draw(st.booleans()),
    )
    app = AppModel(
        name="hyp-app",
        signature=PowerSignature(0.5, 0.5),
        cpu_bound_fraction=draw(st.floats(0.0, 1.0)),
        iter_seconds_fmax=draw(st.floats(0.05, 1.0)),
        default_iters=4,
        comm=comm,
    )
    rates = np.array([draw(st.floats(0.5, 4.0)) for _ in range(n)])
    iters = draw(st.integers(1, 25))
    latency = 0.0 if neighbor else draw(st.floats(0.0, 1e-4))
    bandwidth = draw(st.floats(1.0, 10.0))
    fmax = draw(st.floats(1.0, 4.0))
    return app, rates, iters, latency, bandwidth, fmax


class TestAppDispatchEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(case=app_cases())
    def test_simulate_app_matches_event_reference(self, case):
        """The runner's dispatch path vs a from-scratch event program."""
        app, rates, iters, latency, bandwidth, fmax = case
        fast = simulate_app(
            app, rates, fmax,
            n_iters=iters, latency_s=latency, bandwidth_gbps=bandwidth,
        )
        machine = EventDrivenMachine(
            rates, latency_s=latency, bandwidth_gbps=bandwidth
        )
        ref = machine.run(
            event_app_program(app, len(rates), fmax, iters)
        )
        assert_traces_equivalent(fast, ref)


# -- targeted regressions ------------------------------------------------------


class TestFastForwardExactness:
    def test_long_allreduce_loop_matches_unrolled_execution(self):
        """Fast-forwarding a 10k-iteration loop must agree with running a
        structurally identical program whose loop count defeats the
        fast-forward threshold chain (pairwise-split loops)."""
        rng = np.random.default_rng(7)
        n, iters = 16, 10_000
        rates = rng.uniform(1.0, 3.0, n)
        body = (VCompute(rng.uniform(0.5, 1.5, n)), VAllreduce(4096.0))
        whole = BspProgram(n, (VLoop(body, iters),))
        split = BspProgram(
            n, (VLoop(body, iters - 1), *body)
        )
        a = run_fast(whole, rates)
        b = run_fast(split, rates)
        for name in TRACE_FIELDS:
            np.testing.assert_allclose(
                getattr(a, name), getattr(b, name), rtol=RTOL, atol=ATOL
            )

    def test_halo_loop_fast_forward_matches_event_reference(self):
        rng = np.random.default_rng(11)
        n, iters = 12, 200
        rates = rng.uniform(1.0, 3.0, n)
        program = BspProgram(n, (
            VLoop((VCompute(rng.uniform(0.2, 0.8, n)),
                   VSendrecv(Torus(grid_dims(n, 2)), 0.0)), iters),
        ))
        fast = run_fast(program, rates, latency_s=0.0)
        ref = run_event(program, rates, latency_s=0.0)
        assert_traces_equivalent(fast, ref)

    def test_transiently_stable_wavefront_is_not_fast_forwarded(self):
        """Hypothesis-found regression: in a 6-rank halo ring the slow
        rank's wavefront moves one hop per superstep, so ranks ahead of
        it show *identical but non-uniform* per-iteration deltas for
        several iterations before snapping to the global rate.  The
        fast-forward must not treat that transient plateau as steady
        state (rank 1 here gains its last 0.125 s only on iteration 8)."""
        n = 6
        ring = Torus((n,))
        work = np.zeros(n)
        work[3] = 1.0  # head start for the slowest rank's wavefront
        body_work = np.array([0.0, 1.75, 0.0, 1.875, 0.0, 0.0])
        program = BspProgram(
            n,
            (
                VCompute(work),
                VLoop((VCompute(body_work), VSendrecv(ring, 0.0)), iters=8),
            ),
        )
        rates = np.ones(n)
        fast = run_fast(program, rates, latency_s=0.0)
        ref = run_event(program, rates, latency_s=0.0)
        assert_traces_equivalent(fast, ref)
        np.testing.assert_allclose(
            fast.total_s, [14.0, 14.125, 16.0, 16.0, 16.0, 14.125]
        )


class TestProgramValidation:
    """Malformed programs fail at construction with a
    :class:`ConfigurationError`, before either executor can run them —
    so the fast path and the event lowering never disagree on one."""

    RING = Torus((4,))

    def test_malformed_ops_rejected(self):
        from repro.errors import ConfigurationError

        bad = [
            (VCompute(np.ones(3)),),
            (VCompute(-1.0),),
            (VElapse(np.nan),),
            (VSendrecv(Torus((3,)), 0.0),),
            (VSendrecv(Torus((2, 3)), 0.0),),
            (VSendrecv(torus_neighbors((4,)), 0.0),),
            (VLoop((VBarrier(),), 0),),
            ("barrier",),
        ]
        for ops in bad:
            with pytest.raises(ConfigurationError):
                BspProgram(4, ops)
        with pytest.raises(ConfigurationError):
            BspProgram(0, ())

    @pytest.mark.parametrize("iters", [2.5, 3.0, True, np.float64(2.0), "3"])
    @pytest.mark.parametrize("body", ["sync_free", "synchronising"])
    def test_non_integral_loop_count_rejected(self, iters, body):
        """A fractional count would scale a fused sync-free body by 2.5
        but run a synchronising body three times (and make the event
        lowering's ``range`` raise)."""
        from repro.errors import ConfigurationError

        ops = (VCompute(1.0),)
        if body == "synchronising":
            ops += (VBarrier(),)
        with pytest.raises(ConfigurationError):
            BspProgram(4, (VLoop(ops, iters),))

    @pytest.mark.parametrize("message_bytes", [-1e12, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("kind", ["allreduce", "sendrecv"])
    def test_bad_message_bytes_rejected(self, message_bytes, kind):
        """A negative payload would move clocks backwards, a NaN one
        poison every clock."""
        from repro.errors import ConfigurationError

        if kind == "allreduce":
            op = VAllreduce(message_bytes)
        else:
            op = VSendrecv(self.RING, message_bytes)
        with pytest.raises(ConfigurationError):
            BspProgram(4, (VCompute(1.0), op))

    def test_integral_counts_and_zero_payloads_accepted(self):
        program = BspProgram(4, (
            VLoop((VCompute(1.0), VAllreduce(0.0)), np.int64(3)),
            VSendrecv(self.RING, 0.0),
        ))
        fast = run_fast(program, np.ones(4), latency_s=0.0)
        ref = run_event(program, np.ones(4), latency_s=0.0)
        assert_traces_equivalent(fast, ref)


class TestPipelineFallback:
    def test_pipeline_app_runs_event_driven(self):
        """The non-BSP kind must dispatch to the event machine and show
        pipeline fill behaviour (downstream ranks wait on upstream)."""
        app = AppModel(
            name="pipe",
            signature=PowerSignature(0.5, 0.5),
            cpu_bound_fraction=1.0,
            iter_seconds_fmax=0.5,
            default_iters=10,
            comm=CommSpec(kind="pipeline"),
        )
        n = 6
        rates = np.full(n, 2.0)
        rates[0] = 1.0  # a slow head rank throttles the whole pipeline
        trace = simulate_app(app, rates, 2.0, n_iters=10)
        machine = EventDrivenMachine(rates, latency_s=5e-6, bandwidth_gbps=5.0)
        ref = machine.run(event_app_program(app, n, 2.0, 10))
        assert_traces_equivalent(trace, ref)
        # Every downstream rank accumulates wait on the slow head.
        assert np.all(trace.wait_s[1:] > 0.0)

    def test_pipeline_rejects_stochastic_run(self):
        app = AppModel(
            name="pipe",
            signature=PowerSignature(0.5, 0.5),
            cpu_bound_fraction=1.0,
            iter_seconds_fmax=0.5,
            default_iters=10,
            comm=CommSpec(kind="pipeline"),
        )
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            app.run(
                np.full(4, 2.0),
                2.0,
                noise_frac=0.1,
                noise_rng=np.random.default_rng(0),
            )
