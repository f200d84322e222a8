"""Differential proof: a config batch vs each config run alone.

:func:`~repro.simmpi.fastpath.run_fast_batched` executes one
:class:`BspProgram` for many rate vectors at once on a
``(n_configs, n_ranks)`` machine.  The contract is *bit-identity* with
running each config through :func:`run_fast` (a one-row batch)
separately: every row sees the same elementwise IEEE-754 operations —
including the sync-free fusion and the per-row steady-state
fast-forward, which must retire each config at exactly the iteration it
would retire alone (``c + k*d`` is not bitwise ``(c+d) + (k-1)*d``).

Random programs reuse the generators of
``tests/simmpi/test_fastpath_differential.py``; partial-retirement cases
(some rows steady, some noisy) are constructed explicitly since they
exercise the in-place active-set shrink that carries detector state
across a retirement.
"""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.simmpi.fastpath as fastpath

from repro.apps.base import AppModel, CommSpec
from repro.hardware.power_model import PowerSignature
from repro.simmpi.sharding import plan_shards
from repro.simmpi.topology import Torus
from repro.simmpi.fastpath import (
    BspProgram,
    VAllreduce,
    VCompute,
    VElapse,
    VLoop,
    VSendrecv,
    run_fast,
    run_fast_batched,
    simulate_app,
    simulate_app_batched,
)

from tests.simmpi.test_fastpath_differential import app_cases, program_cases

TRACE_FIELDS = ("total_s", "compute_s", "wait_s", "comm_s")


def assert_traces_bit_identical(got, want, label=""):
    for name in TRACE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, f"{label}{name}"
        assert a.dtype == b.dtype, f"{label}{name}"
        assert np.array_equal(a, b), f"{label}{name}"


@st.composite
def batched_cases(draw, force_sendrecv: bool = False):
    """A program case plus 1-5 random per-config rate vectors."""
    program, rates, latency, bandwidth = draw(
        program_cases(force_sendrecv=force_sendrecv)
    )
    n = program.n_ranks
    n_configs = draw(st.integers(1, 5))
    rows = [rates]
    for _ in range(n_configs - 1):
        if draw(st.booleans()):
            # Uniform rows reach steady state fastest — mixes retiring
            # and non-retiring configs in one batch.
            rows.append(np.full(n, draw(st.floats(0.5, 4.0))))
        else:
            rows.append(
                np.array([draw(st.floats(0.5, 4.0)) for _ in range(n)])
            )
    return program, np.stack(rows), latency, bandwidth


class TestRandomBatchedEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(case=batched_cases())
    def test_mixed_programs(self, case):
        program, rates2d, latency, bandwidth = case
        batched = run_fast_batched(
            program, rates2d, latency_s=latency, bandwidth_gbps=bandwidth
        )
        for c in range(rates2d.shape[0]):
            ref = run_fast(
                program, rates2d[c], latency_s=latency, bandwidth_gbps=bandwidth
            )
            assert_traces_bit_identical(batched[c], ref, f"config {c}: ")

    @settings(max_examples=40, deadline=None)
    @given(case=batched_cases(force_sendrecv=True))
    def test_sendrecv_programs(self, case):
        """Halo-exchange loops: the per-row fast-forward's hardest case."""
        program, rates2d, latency, bandwidth = case
        batched = run_fast_batched(
            program, rates2d, latency_s=latency, bandwidth_gbps=bandwidth
        )
        for c in range(rates2d.shape[0]):
            ref = run_fast(
                program, rates2d[c], latency_s=latency, bandwidth_gbps=bandwidth
            )
            assert_traces_bit_identical(batched[c], ref, f"config {c}: ")


class TestPartialRetirement:
    def test_mixed_steady_and_noisy_rows(self):
        """Steady rows retire mid-loop while ragged rows run to the end;
        every row must still match its own one-row execution exactly."""
        n = 6
        nb = Torus((n,))
        program = BspProgram(
            n,
            (
                VLoop(
                    (VCompute(1.0), VSendrecv(nb, 0.0), VAllreduce(128.0)),
                    iters=40,
                ),
            ),
        )
        rng = np.random.default_rng(3)
        rates2d = np.stack(
            [
                np.full(n, 2.0),                  # retires early
                1.0 + rng.uniform(0.0, 2.0, n),   # steady after warmup
                np.full(n, 3.3),                  # retires early
                1.0 + rng.uniform(0.0, 2.0, n),   # steady after warmup
            ]
        )
        batched = run_fast_batched(program, rates2d, latency_s=0.0)
        for c in range(4):
            ref = run_fast(program, rates2d[c], latency_s=0.0)
            assert_traces_bit_identical(batched[c], ref, f"row {c}: ")

    def test_single_config_batch_degenerates_to_1d(self):
        program = BspProgram(4, (VLoop((VCompute(0.5), VAllreduce(8.0)), 12),))
        rates = np.array([[1.0, 1.5, 2.0, 2.5]])
        batched = run_fast_batched(program, rates)
        ref = run_fast(program, rates[0])
        assert_traces_bit_identical(batched[0], ref)


class TestInPlaceShrink:
    """Retirement partitions the machine's rows in place and carries on
    with row views; these pin what that must never change."""

    N = 12

    def _nested_program(self) -> BspProgram:
        """A halo loop nested in a halo loop, then an allreduce: rows
        retire inside the nested loop, then in the outer loop, and
        nested loops entered after an outer retirement run on the
        reordered rows."""
        ring = Torus((self.N,))
        work = np.random.default_rng(5).uniform(0.5, 1.5, self.N)
        return BspProgram(self.N, (
            VLoop((
                VCompute(work),
                VLoop((VCompute(1.0), VSendrecv(ring, 0.0)), 25),
                VSendrecv(ring, 0.0),
            ), 30),
            VAllreduce(8.0),
        ))

    def _rates(self) -> np.ndarray:
        """Ragged rows around flat ones, so middle rows retire first."""
        rng = np.random.default_rng(5)
        rng.uniform(0.5, 1.5, self.N)  # the program's work draw
        n = self.N
        return np.stack([
            1.0 + rng.uniform(0.0, 2.0, n),
            np.full(n, 2.0),
            1.5 + rng.uniform(0.0, 0.5, n),
            np.full(n, 3.3),
            1.0 + rng.uniform(0.0, 3.0, n),
        ])

    @staticmethod
    def _record_retirements(monkeypatch) -> list:
        """``(loop depth, retire mask)`` of every retirement."""
        calls = []
        retire = fastpath._retire

        def recording(ex, st, mask, remaining):
            f, depth = sys._getframe(), 0
            while f is not None:
                depth += f.f_code.co_name == "_exec_loop_sharded"
                f = f.f_back
            calls.append((depth, mask.copy()))
            return retire(ex, st, mask, remaining)

        monkeypatch.setattr(fastpath, "_retire", recording)
        return calls

    def test_rates_untouched_when_a_middle_row_retires_first(self, monkeypatch):
        calls = self._record_retirements(monkeypatch)
        rates = self._rates()
        before = rates.tobytes()
        run_fast_batched(self._nested_program(), rates)
        first = calls[0][1]
        assert first[1] and not first[0] and not first.all()
        assert rates.tobytes() == before

    @pytest.mark.parametrize("layout", ["whole_plane", "tiles_5_workers_2"])
    def test_nested_retirement_then_allreduce_matches_single_rows(
        self, monkeypatch, layout
    ):
        rates = self._rates()
        shard = None
        if layout != "whole_plane":
            shard = plan_shards(len(rates), self.N, shard_ranks=5, shard_workers=2)
            assert shard.n_col_shards > 1 and shard.n_workers == 2
        calls = self._record_retirements(monkeypatch)
        batched = run_fast_batched(self._nested_program(), rates, shard=shard)
        # Partial retirements inside the nested loop, in the outer loop,
        # and in nested loops entered after an outer one.
        partial = [depth for depth, mask in calls if not mask.all()]
        assert 2 in partial and 1 in partial
        assert 2 in partial[partial.index(1):]
        for c in range(len(rates)):
            ref = run_fast_batched(self._nested_program(), rates[c:c + 1])[0]
            assert_traces_bit_identical(batched[c], ref, f"row {c}: ")

    @pytest.mark.parametrize("layout", ["whole_plane", "tiles_700_workers_2"])
    def test_retirement_allocates_no_plane(self, monkeypatch, layout):
        """The traced peak across a retirement stays below one row of
        the plane: no plane, snapshot or local-time cache is copied."""
        torus = Torus((256, 256))
        n = torus.n_ranks
        rng = np.random.default_rng(3)
        rates = np.stack([
            1.0 + rng.uniform(0.0, 1.0, n),
            np.full(n, 2.0),
            1.0 + rng.uniform(0.0, 1.0, n),
            1.0 + rng.uniform(0.0, 1.0, n),
        ])
        program = BspProgram(n, (
            VLoop((VCompute(1.0), VSendrecv(torus, 64.0), VElapse(0.1)), 12),
            VAllreduce(8.0),
        ))
        shard = None
        if layout != "whole_plane":
            shard = plan_shards(4, n, shard_ranks=700, shard_workers=2)
        peaks = []
        retire = fastpath._retire

        def traced(ex, st, mask, remaining):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = retire(ex, st, mask, remaining)
            peaks.append((mask.copy(), tracemalloc.get_traced_memory()[1] - base))
            return out

        monkeypatch.setattr(fastpath, "_retire", traced)
        tracemalloc.start()
        try:
            batched = run_fast_batched(program, rates, shard=shard)
        finally:
            tracemalloc.stop()
        assert [m.tolist() for m, _ in peaks] == [[False, True, False, False]]
        assert peaks[0][1] < n * 8
        ref = run_fast_batched(program, rates[1:2])[0]
        assert_traces_bit_identical(batched[1], ref)


class TestAppDispatch:
    @settings(max_examples=30, deadline=None)
    @given(case=app_cases(), n_configs=st.integers(1, 4))
    def test_simulate_app_batched_matches_per_config(self, case, n_configs):
        app, rates, iters, latency, bandwidth, fmax = case
        rng = np.random.default_rng(11)
        rates2d = np.stack(
            [rates] + [
                rates * rng.uniform(0.6, 1.4) for _ in range(n_configs - 1)
            ]
        )
        batched = simulate_app_batched(
            app, rates2d, fmax,
            n_iters=iters, latency_s=latency, bandwidth_gbps=bandwidth,
        )
        for c in range(n_configs):
            ref = simulate_app(
                app, rates2d[c], fmax,
                n_iters=iters, latency_s=latency, bandwidth_gbps=bandwidth,
            )
            assert_traces_bit_identical(batched[c], ref, f"config {c}: ")

    def test_mvmc_allreduce_app(self):
        """The fleet benchmark's workload shape: allreduce-coupled."""
        app = AppModel(
            name="mvmc-like",
            signature=PowerSignature(0.6, 0.4),
            cpu_bound_fraction=0.8,
            iter_seconds_fmax=0.2,
            default_iters=16,
            comm=CommSpec(kind="allreduce", message_bytes=4096.0),
        )
        rng = np.random.default_rng(5)
        rates2d = 1.0 + rng.uniform(0.0, 2.0, size=(3, 64))
        batched = simulate_app_batched(app, rates2d, 2.7)
        for c in range(3):
            ref = simulate_app(app, rates2d[c], 2.7)
            assert_traces_bit_identical(batched[c], ref, f"config {c}: ")
