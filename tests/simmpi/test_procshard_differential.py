"""Differential proof: the cross-process executor vs both in-process paths.

:func:`~repro.simmpi.procshard.run_fast_procshard` distributes the row
blocks of a :class:`~repro.simmpi.sharding.ShardPlan` over a persistent
pool of worker processes that execute the fused tile pass in place on a
shared-memory state plane.  The contract (ARCHITECTURE.md invariant 9)
is bit-identity with *both* the unsharded 2-D machine and the
thread-sharded executor: invariant 8's superstep reduction closes
entirely within a worker, and workers write disjoint row ranges, so no
floating-point operation is reordered by the process boundary.

The suite reuses the random-program generators and adversarial plan
shapes of the thread-sharding suite and adds the layouts that are
adversarial specifically for processes: a single row block (one worker
does everything), more workers than row blocks (the layout refiner
splits rows), partial retirement straddling worker boundaries, and
singleton config stacks.  The engine-level class proves
``mode="processes"`` never reaches cached payloads or digests.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.simmpi import procshard
from repro.simmpi.fastpath import (
    run_fast_batched,
    run_fast_sharded,
    simulate_app_batched,
)
from repro.simmpi.sharding import SHARD_MODES, ShardPlan, ShardSpec, plan_shards

from tests.simmpi.test_fastpath_batched import batched_cases
from tests.simmpi.test_fastpath_differential import app_cases
from tests.simmpi.test_fastpath_sharded import (
    TestPartialRetirementSharded,
    adversarial_plans,
    assert_all_configs_identical,
    fixed_width_plan,
)


def _three_way(program, rates2d, plan, latency_s=5e-6, bandwidth_gbps=5.0):
    """Run unsharded / thread-sharded / process-sharded and return all
    three trace lists."""
    want = run_fast_batched(
        program, rates2d, latency_s=latency_s, bandwidth_gbps=bandwidth_gbps
    )
    threads = run_fast_sharded(
        program, rates2d,
        latency_s=latency_s, bandwidth_gbps=bandwidth_gbps,
        plan=plan, mode="threads",
    )
    procs = run_fast_sharded(
        program, rates2d,
        latency_s=latency_s, bandwidth_gbps=bandwidth_gbps,
        plan=plan, mode="processes",
    )
    return want, threads, procs


class TestRandomProcShardEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(case=batched_cases(), data=st.data())
    def test_mixed_programs(self, case, data):
        program, rates2d, latency, bandwidth = case
        plans = adversarial_plans(rates2d.shape[0], program.n_ranks)
        plan = data.draw(st.sampled_from(plans), label="plan")
        want, threads, procs = _three_way(
            program, rates2d, plan,
            latency_s=latency, bandwidth_gbps=bandwidth,
        )
        assert_all_configs_identical(threads, want, "threads: ")
        assert_all_configs_identical(procs, want, "processes: ")

    @settings(max_examples=10, deadline=None)
    @given(case=batched_cases(force_sendrecv=True), data=st.data())
    def test_sendrecv_programs(self, case, data):
        """Halo gathers read other column tiles' clocks; that reduction
        must close inside one worker, never across the process pool."""
        program, rates2d, latency, bandwidth = case
        plans = adversarial_plans(rates2d.shape[0], program.n_ranks)
        plan = data.draw(st.sampled_from(plans), label="plan")
        want, threads, procs = _three_way(
            program, rates2d, plan,
            latency_s=latency, bandwidth_gbps=bandwidth,
        )
        assert_all_configs_identical(threads, want, "threads: ")
        assert_all_configs_identical(procs, want, "processes: ")


class TestAdversarialLayouts:
    def _case(self):
        return TestPartialRetirementSharded()._case()

    def test_partial_retirement_every_plan(self):
        """Steady rows retire mid-loop in some workers while noisy rows
        keep iterating in others — worker-local detector state must not
        observe the difference."""
        program, rates2d = self._case()
        want = run_fast_batched(program, rates2d, latency_s=0.0)
        for plan in adversarial_plans(rates2d.shape[0], program.n_ranks):
            got = run_fast_sharded(
                program, rates2d, latency_s=0.0, plan=plan, mode="processes"
            )
            assert_all_configs_identical(
                got, want, f"plan {plan.col_bounds}/{plan.row_block}: "
            )

    def test_single_row_block(self):
        """One row block: the whole plane runs in a single worker."""
        program, rates2d = self._case()
        want = run_fast_batched(program, rates2d, latency_s=0.0)
        plan = fixed_width_plan(
            rates2d.shape[0], program.n_ranks, 5,
            row_block=rates2d.shape[0],
        )
        assert plan.n_row_blocks == 1
        got = run_fast_sharded(
            program, rates2d, latency_s=0.0, plan=plan, mode="processes"
        )
        assert_all_configs_identical(got, want)

    def test_more_workers_than_row_blocks(self):
        """The layout refiner splits rows so extra workers get work —
        legal only because rows are independent (must stay bitwise)."""
        program, rates2d = self._case()
        want = run_fast_batched(program, rates2d, latency_s=0.0)
        plan = fixed_width_plan(
            rates2d.shape[0], program.n_ranks, 5,
            row_block=rates2d.shape[0], workers=3,
        )
        refined, n_procs, inner = procshard._process_layout(plan)
        assert refined.n_row_blocks > plan.n_row_blocks
        assert n_procs <= plan.n_workers
        got = run_fast_sharded(
            program, rates2d, latency_s=0.0, plan=plan, mode="processes"
        )
        assert_all_configs_identical(got, want)

    def test_singleton_config(self):
        """n_configs == 1: a single row that cannot be split."""
        program, rates2d = self._case()
        rates1 = rates2d[1:2]
        want = run_fast_batched(program, rates1, latency_s=0.0)
        for workers in (1, 3):
            plan = fixed_width_plan(
                1, program.n_ranks, 4, workers=workers
            )
            got = run_fast_sharded(
                program, rates1, latency_s=0.0, plan=plan, mode="processes"
            )
            assert_all_configs_identical(got, want, f"workers {workers}: ")

    def test_row_block_of_one(self):
        """Every config is its own worker task."""
        program, rates2d = self._case()
        want = run_fast_batched(program, rates2d, latency_s=0.0)
        plan = fixed_width_plan(
            rates2d.shape[0], program.n_ranks, 5, row_block=1, workers=2
        )
        got = run_fast_sharded(
            program, rates2d, latency_s=0.0, plan=plan, mode="processes"
        )
        assert_all_configs_identical(got, want)

    @settings(max_examples=8, deadline=None)
    @given(case=app_cases())
    def test_simulate_app_batched_process_mode(self, case):
        app, rates, iters, latency, bandwidth, fmax = case
        rates2d = np.stack([rates, rates * 0.75, np.full_like(rates, 2.0)])
        want = simulate_app_batched(
            app, rates2d, fmax,
            n_iters=iters, latency_s=latency, bandwidth_gbps=bandwidth,
        )
        got = simulate_app_batched(
            app, rates2d, fmax,
            n_iters=iters, latency_s=latency, bandwidth_gbps=bandwidth,
            shard=ShardSpec(shard_ranks=3, shard_workers=2, mode="processes"),
        )
        assert_all_configs_identical(got, want)


class TestModeRouting:
    def _case(self):
        return TestPartialRetirementSharded()._case()

    def test_shardspec_mode_routes_run_fast_batched(self):
        program, rates2d = self._case()
        want = run_fast_batched(program, rates2d, latency_s=0.0)
        spec = ShardSpec(shard_ranks=5, shard_workers=2, mode="processes")
        got = run_fast_batched(program, rates2d, latency_s=0.0, shard=spec)
        assert_all_configs_identical(got, want)

    def test_default_mode_is_threads(self):
        assert ShardSpec().mode == "threads"
        assert SHARD_MODES == ("threads", "processes")

    def test_bad_mode_in_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardSpec(mode="fibers")

    def test_bad_mode_in_run_fast_sharded_rejected(self):
        program, rates2d = self._case()
        with pytest.raises(ConfigurationError):
            run_fast_sharded(program, rates2d, mode="fibers")

    def test_wrong_shape_plan_rejected_before_pool_spinup(self):
        program, rates2d = self._case()
        plan = plan_shards(rates2d.shape[0], program.n_ranks + 1, shard_ranks=5)
        with pytest.raises(ConfigurationError):
            run_fast_sharded(program, rates2d, plan=plan, mode="processes")


class TestSharedPlaneLifecycle:
    """The plane API itself: ownership, views, idempotent teardown."""

    def _export(self):
        program, rates2d = TestPartialRetirementSharded()._case()
        return program, rates2d, procshard.export_plane(rates2d, program)

    def test_round_trip_views(self):
        program, rates2d, handle = self._export()
        try:
            views = procshard.plane_views(handle)
            assert np.array_equal(views["rates"], rates2d)
            assert not views["clock"].any()  # outputs start zeroed
            rates_v, outs, prog = procshard.attach_plane(handle)
            assert np.array_equal(rates_v, rates2d)
            assert not rates_v.flags.writeable
            assert prog.n_ranks == program.n_ranks
            outs["clock"][0, 0] = 7.0
            assert views["clock"][0, 0] == 7.0  # same backing segment
        finally:
            procshard.destroy_plane(handle)

    def test_destroy_is_idempotent(self):
        _, _, handle = self._export()
        procshard.destroy_plane(handle)
        procshard.destroy_plane(handle)  # second call is a no-op

    def test_views_require_ownership(self):
        _, _, handle = self._export()
        procshard.destroy_plane(handle)
        with pytest.raises(ConfigurationError):
            procshard.plane_views(handle)

    def test_reexported_from_exec(self):
        from repro import exec as exec_pkg
        from repro.exec import shared

        for name in ("SharedPlane", "export_plane", "attach_plane",
                     "destroy_plane"):
            assert getattr(shared, name) is getattr(procshard, name)
            assert getattr(exec_pkg, name) is getattr(procshard, name)


class TestPinnedAndSplitPlane:
    """ARCHITECTURE.md invariant 11: placement — worker pinning and
    per-NUMA-node plane splitting — never changes a bit of the result."""

    def _case(self):
        return TestPartialRetirementSharded()._case()

    @staticmethod
    def _two_node():
        from repro.util.topology import NumaNode, NumaTopology

        return NumaTopology(
            nodes=(NumaNode(0, (0, 1)), NumaNode(1, (2, 3))),
            source="sysfs",
        )

    def test_pinned_vs_unpinned_bitwise(self):
        program, rates2d = self._case()
        want = run_fast_batched(program, rates2d, latency_s=0.0)
        plan = fixed_width_plan(
            rates2d.shape[0], program.n_ranks, 5, row_block=2, workers=2
        )
        for pin in (False, True):
            got = procshard.run_fast_procshard(
                program, rates2d, latency_s=0.0, plan=plan, pin=pin
            )
            assert_all_configs_identical(got, want, f"pin={pin}: ")
        procshard.reset_pool()

    def test_split_plane_on_synthetic_two_node_topology(self):
        """A forced multi-node topology splits the plane into node-local
        segments; traces stay bit-identical, pinned or not."""
        program, rates2d = self._case()
        topo = self._two_node()
        want = run_fast_batched(program, rates2d, latency_s=0.0)
        plan = fixed_width_plan(
            rates2d.shape[0], program.n_ranks, 5, row_block=1, workers=2
        )
        bounds = procshard._node_row_bounds(plan, topo)
        assert len(bounds) == 3  # genuinely split across both nodes
        for pin in (False, True):
            got = procshard.run_fast_procshard(
                program, rates2d, latency_s=0.0, plan=plan,
                pin=pin, topology=topo,
            )
            assert_all_configs_identical(got, want, f"split pin={pin}: ")
        procshard.reset_pool()

    def test_node_row_bounds_align_to_row_blocks(self):
        program, rates2d = self._case()
        plan = fixed_width_plan(
            rates2d.shape[0], program.n_ranks, 5, row_block=2
        )
        bounds = procshard._node_row_bounds(plan, self._two_node())
        assert bounds[0] == 0 and bounds[-1] == plan.n_configs
        edges = {0} | {r1 for _r0, r1 in plan.row_blocks()}
        assert set(bounds) <= edges
        assert list(bounds) == sorted(set(bounds))

    def test_single_node_topology_does_not_split(self):
        from repro.util.topology import NumaNode, NumaTopology

        program, rates2d = self._case()
        plan = fixed_width_plan(
            rates2d.shape[0], program.n_ranks, 5, row_block=1
        )
        flat = NumaTopology(nodes=(NumaNode(0, (0,)),), source="flat")
        assert procshard._node_row_bounds(plan, flat) == (
            0, plan.n_configs,
        )

    def test_export_plane_split_round_trip(self):
        program, rates2d = self._case()
        n = rates2d.shape[0]
        handles = procshard.export_plane_split(
            rates2d, program, (0, 2, n)
        )
        try:
            assert [h.row0 for h in handles] == [0, 2]
            assert [h.n_configs for h in handles] == [2, n - 2]
            assert len({h.group for h in handles}) == 1
            for h in handles:
                views = procshard.plane_views(h)
                assert np.array_equal(
                    views["rates"], rates2d[h.row0:h.row0 + h.n_configs]
                )
                assert not views["clock"].any()
        finally:
            for h in handles:
                procshard.destroy_plane(h)

    def test_export_plane_split_validates_bounds(self):
        program, rates2d = self._case()
        n = rates2d.shape[0]
        for bad in ((1, n), (0, n - 1), (0, 3, 3, n), (0,)):
            with pytest.raises(ConfigurationError):
                procshard.export_plane_split(rates2d, program, bad)

    def test_same_group_segments_share_worker_cache(self):
        """Attaching a sibling segment must not evict its group mates
        (a worker serving two node-local segments of one run keeps both
        mapped); a new group evicts all of the old one."""
        program, rates2d = self._case()
        n = rates2d.shape[0]
        first = procshard.export_plane_split(rates2d, program, (0, 2, n))
        second = procshard.export_plane(rates2d, program)
        saved_owned = dict(procshard._OWNED)
        saved_attached = dict(procshard._ATTACHED)
        try:
            procshard._ATTACHED.clear()
            for h in first:
                procshard.attach_plane(h)
            assert set(procshard._ATTACHED) == {h.shm_name for h in first}
            procshard.attach_plane(second)
            assert set(procshard._ATTACHED) == {second.shm_name}
        finally:
            procshard._ATTACHED.clear()
            procshard._ATTACHED.update(saved_attached)
            procshard._OWNED.clear()
            procshard._OWNED.update(saved_owned)
            for h in first:
                procshard.destroy_plane(h)
            procshard.destroy_plane(second)

    def test_placement_kwargs_not_in_plan(self):
        """Pin/topology ride the call, never the geometry — nothing
        placement-shaped may reach digests through a plan repr."""
        assert "pin" not in ShardPlan.__dataclass_fields__
        assert "topology" not in ShardPlan.__dataclass_fields__
        assert "pin" not in ShardSpec.__dataclass_fields__


@pytest.mark.slow
class TestEngineDigestsUnchangedByProcessMode:
    """``mode="processes"`` must never reach results, payloads, digests."""

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

    def test_process_sharded_sweep_payloads_and_digests_identical(
        self, tmp_path
    ):
        from repro.exec import ExperimentEngine

        sweep = self._sweep()
        plain_dir, proc_dir = tmp_path / "plain", tmp_path / "procshard"
        ExperimentEngine(
            cache_dir=plain_dir, shard=None
        ).submit_batched_sweep(sweep)
        ExperimentEngine(
            cache_dir=proc_dir,
            shard=ShardSpec(shard_ranks=13, shard_workers=2, mode="processes"),
        ).submit_batched_sweep(sweep)
        names = sorted(p.name for p in plain_dir.glob("*.npz"))
        assert names == sorted(p.name for p in proc_dir.glob("*.npz"))
        assert names == sorted(f"{k.digest()}.npz" for k in sweep)
        for name in names:
            with np.load(plain_dir / name, allow_pickle=True) as a, \
                 np.load(proc_dir / name, allow_pickle=True) as b:
                assert sorted(a.files) == sorted(b.files)
                for entry in a.files:
                    assert np.array_equal(a[entry], b[entry]), (name, entry)

    def test_pinned_process_sweep_payloads_and_digests_identical(
        self, tmp_path, monkeypatch
    ):
        """The pinned, split-plane executor leg of the engine proof:
        forcing worker pinning on cannot change an NPZ payload or a
        digest-addressed cache name (invariant 11)."""
        from repro.exec import ExperimentEngine

        sweep = self._sweep()[:3]
        plain_dir, pin_dir = tmp_path / "plain", tmp_path / "pinned"
        monkeypatch.setenv(procshard._PIN_ENV, "0")
        ExperimentEngine(
            cache_dir=plain_dir, shard=None
        ).submit_batched_sweep(sweep)
        monkeypatch.setenv(procshard._PIN_ENV, "1")
        ExperimentEngine(
            cache_dir=pin_dir,
            shard=ShardSpec(shard_ranks=13, shard_workers=2, mode="processes"),
        ).submit_batched_sweep(sweep)
        procshard.reset_pool()
        names = sorted(p.name for p in plain_dir.glob("*.npz"))
        assert names == sorted(p.name for p in pin_dir.glob("*.npz"))
        for name in names:
            with np.load(plain_dir / name, allow_pickle=True) as a, \
                 np.load(pin_dir / name, allow_pickle=True) as b:
                assert sorted(a.files) == sorted(b.files)
                for entry in a.files:
                    assert np.array_equal(a[entry], b[entry]), (name, entry)

    def test_mode_not_in_group_signature_or_key(self):
        from repro.exec import RunKey
        from repro.exec.engine import _group_signature

        key = self._sweep()[0]
        assert "shard" not in RunKey.__annotations__
        assert not any(
            isinstance(part, (ShardPlan, ShardSpec))
            for part in _group_signature(key)
        )
