"""Differential proof: the sharded executor vs the unsharded 2-D path.

:func:`~repro.simmpi.fastpath.run_fast_sharded` executes a
:class:`BspProgram` over a (n_configs, n_ranks) plane in cache-sized
column tiles and row blocks.  Sharding is *execution layout only*: the
contract (ARCHITECTURE.md invariant 8) is bit-identity with
:func:`run_fast_batched` — per-tile partial row maxima, AND-reduced
detector verdicts, and the reference-column reconstruction must compose
to exactly the IEEE-754 operations the unsharded machine performs.

Random programs and rate stacks reuse the generators of the existing
differential suites; the shard plans are adversarial by construction:
1-rank tiles, prime widths that straddle every boundary, widths that do
not divide ``n_ranks``, row blocks of 1 (alone and under a thread pool),
multi-worker thread pools, more workers than column tiles, and
singleton config stacks.
Partial-retirement programs (some configs steady, some noisy) are the
hardest case — the detector state must survive the active-set shrink on
every tile simultaneously.

The engine-level classes prove the knob never leaks into results:
cached NPZ payloads and :class:`RunKey` digests are unchanged whether a
sweep runs sharded or not.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simmpi.fastpath import (
    BspProgram,
    VAllreduce,
    VCompute,
    VLoop,
    VSendrecv,
    run_fast_batched,
    run_fast_sharded,
    simulate_app_batched,
)
from repro.simmpi.sharding import ShardPlan, ShardSpec, plan_shards

from tests.simmpi.test_fastpath_batched import (
    assert_traces_bit_identical,
    batched_cases,
)
from tests.simmpi.test_fastpath_differential import app_cases


def fixed_width_plan(
    n_configs: int, n_ranks: int, width: int,
    row_block: int | None = None, workers: int = 1,
) -> ShardPlan:
    bounds = tuple(range(0, n_ranks, width)) + (n_ranks,)
    if bounds[-2] == n_ranks:
        bounds = bounds[:-1]
    return ShardPlan(
        n_configs=n_configs,
        n_ranks=n_ranks,
        row_block=n_configs if row_block is None else row_block,
        col_bounds=bounds,
        n_workers=workers,
    )


def adversarial_plans(n_configs: int, n_ranks: int) -> list[ShardPlan]:
    """Shard shapes chosen to straddle every boundary a tile can."""
    widths = {1, 2, 3, 5, 7, max(1, n_ranks - 1), n_ranks}
    plans = [
        fixed_width_plan(n_configs, n_ranks, w)
        for w in sorted(w for w in widths if w <= n_ranks)
    ]
    if n_configs > 1:
        plans.append(fixed_width_plan(n_configs, n_ranks, 2, row_block=1))
        plans.append(
            fixed_width_plan(n_configs, n_ranks, 2, row_block=1, workers=2)
        )
    if n_ranks >= 3:
        plans.append(fixed_width_plan(n_configs, n_ranks, 2, workers=3))
    if n_ranks >= 2:
        # Two column tiles, three workers: an idle thread in every pass.
        plans.append(
            fixed_width_plan(n_configs, n_ranks, n_ranks - 1, workers=3)
        )
    return plans


def assert_all_configs_identical(got, want, label=""):
    assert len(got) == len(want)
    for c, (g, w) in enumerate(zip(got, want)):
        assert_traces_bit_identical(g, w, f"{label}config {c}: ")


class TestRandomShardedEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(case=batched_cases(), data=st.data())
    def test_mixed_programs(self, case, data):
        program, rates2d, latency, bandwidth = case
        want = run_fast_batched(
            program, rates2d, latency_s=latency, bandwidth_gbps=bandwidth
        )
        plans = adversarial_plans(rates2d.shape[0], program.n_ranks)
        plan = data.draw(st.sampled_from(plans), label="plan")
        got = run_fast_sharded(
            program, rates2d,
            latency_s=latency, bandwidth_gbps=bandwidth, plan=plan,
        )
        assert_all_configs_identical(got, want)

    @settings(max_examples=30, deadline=None)
    @given(case=batched_cases(force_sendrecv=True), data=st.data())
    def test_sendrecv_programs(self, case, data):
        """Halo gathers read *other* tiles' clocks — the pass ordering's
        hardest case."""
        program, rates2d, latency, bandwidth = case
        want = run_fast_batched(
            program, rates2d, latency_s=latency, bandwidth_gbps=bandwidth
        )
        plans = adversarial_plans(rates2d.shape[0], program.n_ranks)
        plan = data.draw(st.sampled_from(plans), label="plan")
        got = run_fast_sharded(
            program, rates2d,
            latency_s=latency, bandwidth_gbps=bandwidth, plan=plan,
        )
        assert_all_configs_identical(got, want)


class TestPartialRetirementSharded:
    def _case(self):
        n = 13
        nb = np.stack([(np.arange(n) - 1) % n, (np.arange(n) + 1) % n], axis=1)
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
                np.full(n, 2.0),                 # retires early
                1.0 + rng.uniform(0.0, 2.0, n),  # stays noisy
                np.full(n, 3.3),                 # retires early
                1.0 + rng.uniform(0.0, 2.0, n),  # stays noisy
            ]
        )
        return program, rates2d

    def test_every_adversarial_plan(self):
        """Mixed steady/noisy rows retire mid-loop while tiles of every
        width (1-rank, prime, non-divisible) must agree bitwise."""
        program, full = self._case()
        # The full stack and a singleton (noisy) config row.
        for rates2d in (full, full[1:2]):
            want = run_fast_batched(program, rates2d, latency_s=0.0)
            for plan in adversarial_plans(rates2d.shape[0], program.n_ranks):
                got = run_fast_sharded(
                    program, rates2d, latency_s=0.0, plan=plan
                )
                assert_all_configs_identical(
                    got, want,
                    f"{rates2d.shape[0]} configs, "
                    f"plan {plan.col_bounds}/{plan.row_block}/"
                    f"{plan.n_workers}: ",
                )

    def test_retirement_straddles_row_block_boundary(self):
        """Row blocks split the config stack between a retiring and a
        non-retiring config; each block runs independently and must
        still match the full-stack execution (row independence)."""
        program, rates2d = self._case()
        want = run_fast_batched(program, rates2d, latency_s=0.0)
        for row_block in (1, 2, 3):
            plan = fixed_width_plan(
                rates2d.shape[0], program.n_ranks, 5, row_block=row_block
            )
            got = run_fast_sharded(program, rates2d, latency_s=0.0, plan=plan)
            assert_all_configs_identical(got, want, f"row_block {row_block}: ")


class TestFastForwardTelemetry:
    """``sim.ff_saved_iters`` counts iterations saved per config row."""

    N, ITERS = 16, 30

    def _program(self) -> BspProgram:
        return BspProgram(
            self.N,
            (VLoop((VCompute(1.0), VAllreduce(64.0)), iters=self.ITERS),),
        )

    def _saved(self, run) -> tuple[float, int, int]:
        import repro.telemetry as telemetry

        telemetry.disable()
        telemetry.enable()
        try:
            run()
        finally:
            c = telemetry.disable()
        hist = c.metrics.histograms["sim.ff_saved_iters"]
        return hist.total, hist.count, c.metrics.counter("sim.fast_forward").value

    @pytest.mark.parametrize("executor", ["unsharded", "sharded"])
    def test_rows_retiring_together_each_count(self, executor):
        program = self._program()
        rates = 1.0 + np.random.default_rng(5).uniform(0.0, 2.0, self.N)

        def run(k: int):
            stack = np.tile(rates, (k, 1))
            if executor == "unsharded":
                return lambda: run_fast_batched(program, stack)
            plan = fixed_width_plan(k, self.N, 5, workers=2)
            return lambda: run_fast_sharded(program, stack, plan=plan)

        one_total, one_count, one_ff = self._saved(run(1))
        assert one_count == one_ff == 1
        assert 0 < one_total < self.ITERS
        for k in (2, 3):
            total, count, ff = self._saved(run(k))
            assert (total, count, ff) == (k * one_total, k, k)


class TestShardKnobRouting:
    def test_run_fast_batched_shard_kwarg(self):
        program, rates2d = TestPartialRetirementSharded()._case()
        want = run_fast_batched(program, rates2d, latency_s=0.0)
        spec = ShardSpec(shard_ranks=5, shard_workers=2)
        got = run_fast_batched(program, rates2d, latency_s=0.0, shard=spec)
        assert_all_configs_identical(got, want)

    def test_auto_string_routes_through_planner(self):
        program, rates2d = TestPartialRetirementSharded()._case()
        want = run_fast_batched(program, rates2d, latency_s=0.0)
        got = run_fast_batched(program, rates2d, latency_s=0.0, shard="auto")
        assert_all_configs_identical(got, want)

    def test_forced_auto_shard_via_env(self, monkeypatch):
        """A tiny working-set budget forces real tiling through the
        ``"auto"`` route on a small plane."""
        program, rates2d = TestPartialRetirementSharded()._case()
        want = run_fast_batched(program, rates2d, latency_s=0.0)
        monkeypatch.setenv("REPRO_SHARD_TARGET_BYTES", "1024")
        plan = plan_shards(rates2d.shape[0], program.n_ranks)
        assert not plan.is_unsharded
        got = run_fast_batched(program, rates2d, latency_s=0.0, shard="auto")
        assert_all_configs_identical(got, want)

    def test_unknown_shard_string_rejected(self):
        from repro.errors import ConfigurationError

        program, rates2d = TestPartialRetirementSharded()._case()
        with pytest.raises(ConfigurationError):
            run_fast_batched(program, rates2d, shard="fastest")

    def test_plan_for_wrong_shape_rejected(self):
        from repro.errors import ConfigurationError

        program, rates2d = TestPartialRetirementSharded()._case()
        plan = plan_shards(rates2d.shape[0], program.n_ranks + 1, shard_ranks=5)
        with pytest.raises(ConfigurationError):
            run_fast_sharded(program, rates2d, plan=plan)

    @settings(max_examples=20, deadline=None)
    @given(case=app_cases())
    def test_simulate_app_batched_sharded(self, case):
        app, rates, iters, latency, bandwidth, fmax = case
        rates2d = np.stack([rates, rates * 0.75, np.full_like(rates, 2.0)])
        want = simulate_app_batched(
            app, rates2d, fmax,
            n_iters=iters, latency_s=latency, bandwidth_gbps=bandwidth,
        )
        got = simulate_app_batched(
            app, rates2d, fmax,
            n_iters=iters, latency_s=latency, bandwidth_gbps=bandwidth,
            shard=ShardSpec(shard_ranks=3, shard_workers=2),
        )
        assert_all_configs_identical(got, want)


@pytest.mark.slow
class TestEngineDigestsUnchanged:
    """The shard knob must never reach results, payloads, or digests."""

    N_MODULES = 64
    N_ITERS = 5

    def _sweep(self):
        from repro.exec import RunKey
        from repro.experiments.common import DEFAULT_SEED

        return [
            RunKey(
                system="ha8k", n_modules=self.N_MODULES, seed=DEFAULT_SEED,
                app="bt", scheme=scheme, budget_w=cm * self.N_MODULES,
                n_iters=self.N_ITERS,
            )
            for cm in (60.0, 80.0)
            for scheme in ("naive", "vapcor", "vafsor")
        ]

    def test_sharded_sweep_payloads_and_digests_identical(self, tmp_path):
        from repro.exec import ExperimentEngine

        sweep = self._sweep()
        plain_dir, shard_dir = tmp_path / "plain", tmp_path / "sharded"
        ExperimentEngine(
            cache_dir=plain_dir, shard=None
        ).submit_batched_sweep(sweep)
        ExperimentEngine(
            cache_dir=shard_dir,
            shard=ShardSpec(shard_ranks=13, shard_workers=2),
        ).submit_batched_sweep(sweep)
        names = sorted(p.name for p in plain_dir.glob("*.npz"))
        assert names == sorted(p.name for p in shard_dir.glob("*.npz"))
        assert names == sorted(f"{k.digest()}.npz" for k in sweep)
        for name in names:
            with np.load(plain_dir / name, allow_pickle=True) as a, \
                 np.load(shard_dir / name, allow_pickle=True) as b:
                assert sorted(a.files) == sorted(b.files)
                for entry in a.files:
                    assert np.array_equal(a[entry], b[entry]), (name, entry)

    def test_shard_knob_not_in_group_signature_or_key(self):
        from repro.exec import RunKey
        from repro.exec.engine import _group_signature

        key = self._sweep()[0]
        assert "shard" not in RunKey.__annotations__
        assert not any(
            isinstance(part, (ShardPlan, ShardSpec))
            for part in _group_signature(key)
        )
