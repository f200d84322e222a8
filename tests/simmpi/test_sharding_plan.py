"""Property proof for the shard planner.

:func:`~repro.simmpi.sharding.plan_shards` turns a (n_configs, n_ranks)
simulation plane plus a cache working-set budget into a
:class:`~repro.simmpi.sharding.ShardPlan`.  The executor trusts the plan
blindly — a hole in the tiling silently drops ranks, an overlap
double-advances clocks — so the planner's contract is proven here as
properties over random planes and budgets: the tiles partition the plane
*exactly* (no empty tile, no overlap, full cover), the plan is one
whole-plane tile when the plane already fits the budget, and explicit
knobs clamp rather than overrun.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.simmpi.sharding import (
    BYTES_PER_ELEMENT,
    DEFAULT_TARGET_BYTES,
    ShardPlan,
    ShardSpec,
    plan_shards,
)
from repro.util.topology import effective_cpu_count


def assert_exact_partition(plan: ShardPlan) -> None:
    """The tiles cover the (configs, ranks) plane exactly once."""
    cols = plan.col_tiles()
    rows = plan.row_blocks()
    assert cols, "no column tiles"
    assert rows, "no row blocks"
    for a, b in cols:
        assert a < b, f"empty column tile [{a}, {b})"
    for r0, r1 in rows:
        assert r0 < r1, f"empty row block [{r0}, {r1})"
    # Contiguity from the left edge to the right edge == cover + no
    # overlap + no hole, in one pass.
    assert cols[0][0] == 0
    assert cols[-1][1] == plan.n_ranks
    for (_, b0), (a1, _) in zip(cols, cols[1:]):
        assert b0 == a1, "column tiles not contiguous"
    assert rows[0][0] == 0
    assert rows[-1][1] == plan.n_configs
    for (_, b0), (a1, _) in zip(rows, rows[1:]):
        assert b0 == a1, "row blocks not contiguous"
    # Element-level double check via a coverage count plane (bounded
    # sizes keep this cheap).
    if plan.n_configs * plan.n_ranks <= 1 << 16:
        cover = np.zeros((plan.n_configs, plan.n_ranks), dtype=np.int64)
        for r0, r1 in rows:
            for a, b in cols:
                cover[r0:r1, a:b] += 1
        assert (cover == 1).all()


class TestAutoPlanProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        n_configs=st.integers(1, 64),
        n_ranks=st.integers(1, 5000),
        target=st.integers(BYTES_PER_ELEMENT, 1 << 22),
    )
    def test_partitions_exactly(self, n_configs, n_ranks, target):
        plan = plan_shards(n_configs, n_ranks, target_bytes=target)
        assert plan.n_configs == n_configs
        assert plan.n_ranks == n_ranks
        assert plan.n_workers >= 1
        assert_exact_partition(plan)

    @settings(max_examples=100, deadline=None)
    @given(n_configs=st.integers(1, 32), n_ranks=st.integers(1, 2000))
    def test_small_plane_degrades_to_unsharded(self, n_configs, n_ranks):
        """A plane inside the working-set budget must not shard at all."""
        target = n_configs * n_ranks * BYTES_PER_ELEMENT
        plan = plan_shards(n_configs, n_ranks, target_bytes=target)
        assert plan.is_unsharded
        assert plan.col_tiles() == ((0, n_ranks),)
        assert plan.row_blocks() == ((0, n_configs),)

    @settings(max_examples=100, deadline=None)
    @given(
        n_configs=st.integers(1, 64),
        n_ranks=st.integers(2, 5000),
        target=st.integers(BYTES_PER_ELEMENT, 1 << 20),
    )
    def test_oversized_plane_respects_budget(self, n_configs, n_ranks, target):
        """Once sharding engages, every tile fits the element budget
        (unless a single element already exceeds it)."""
        plan = plan_shards(n_configs, n_ranks, target_bytes=target)
        if plan.is_unsharded:
            return
        budget_elems = max(1, target // BYTES_PER_ELEMENT)
        for a, b in plan.col_tiles():
            assert plan.row_block * (b - a) <= max(budget_elems, plan.row_block)

    @settings(max_examples=100, deadline=None)
    @given(
        n_configs=st.integers(1, 64),
        n_ranks=st.integers(2, 5000),
        target=st.integers(BYTES_PER_ELEMENT, 1 << 20),
    )
    def test_column_tiles_balanced(self, n_configs, n_ranks, target):
        """Auto tiling balances widths to within one rank — no sliver
        tail tile that wastes a worker."""
        plan = plan_shards(n_configs, n_ranks, target_bytes=target)
        widths = [b - a for a, b in plan.col_tiles()]
        assert max(widths) - min(widths) <= 1


class TestExplicitKnobs:
    def test_pinned_width_is_honored(self):
        plan = plan_shards(3, 100, shard_ranks=7)
        widths = [b - a for a, b in plan.col_tiles()]
        assert widths[:-1] == [7] * (len(widths) - 1)
        assert widths[-1] == 100 - 7 * (len(widths) - 1)
        assert_exact_partition(plan)

    def test_width_larger_than_plane_clamps_to_single_tile(self):
        plan = plan_shards(2, 10, shard_ranks=1000)
        assert plan.col_tiles() == ((0, 10),)

    def test_one_rank_tiles(self):
        plan = plan_shards(2, 5, shard_ranks=1)
        assert plan.n_col_shards == 5
        assert_exact_partition(plan)

    def test_workers_capped_at_tile_count(self):
        plan = plan_shards(2, 10, shard_ranks=5, shard_workers=64)
        assert plan.n_workers <= plan.n_col_shards
        # The default derives from the affinity mask, not cpu_count().
        plan = plan_shards(2, 100, shard_ranks=1)
        assert plan.n_workers == min(effective_cpu_count(), 100)

    def test_nonpositive_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_shards(2, 10, shard_ranks=0)
        with pytest.raises(ConfigurationError):
            plan_shards(2, 10, shard_workers=0)
        with pytest.raises(ConfigurationError):
            plan_shards(0, 10)
        with pytest.raises(ConfigurationError):
            plan_shards(2, 0)

    @pytest.mark.parametrize(
        "knob", ["shard_ranks", "shard_workers", "target_bytes"]
    )
    @pytest.mark.parametrize("value", [0, -5])
    def test_spec_rejects_nonpositive_knobs_at_construction(self, knob, value):
        """A bad knob fails when the spec is built, not when (or if) a
        plan is later drawn from it."""
        with pytest.raises(ConfigurationError, match=knob):
            ShardSpec(**{knob: value})

    def test_spec_forwards_to_planner(self):
        spec = ShardSpec(shard_ranks=3, shard_workers=2)
        plan = spec.plan(4, 10)
        assert plan == plan_shards(4, 10, shard_ranks=3, shard_workers=2)


class TestEnvOverride:
    def test_env_sets_default_target(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_SHARD_TARGET_BYTES", str(BYTES_PER_ELEMENT * 10)
        )
        plan = plan_shards(1, 100)
        assert not plan.is_unsharded
        assert_exact_partition(plan)

    def test_explicit_target_beats_env(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_SHARD_TARGET_BYTES", str(BYTES_PER_ELEMENT * 10)
        )
        plan = plan_shards(1, 100, target_bytes=DEFAULT_TARGET_BYTES)
        assert plan.is_unsharded

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TARGET_BYTES", "lots")
        with pytest.raises(ConfigurationError):
            plan_shards(1, 100)
        monkeypatch.setenv("REPRO_SHARD_TARGET_BYTES", "-4")
        with pytest.raises(ConfigurationError):
            plan_shards(1, 100)

    def test_non_integer_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TARGET_BYTES", "lots")
        with pytest.raises(
            ConfigurationError, match="REPRO_SHARD_TARGET_BYTES"
        ):
            plan_shards(1, 100)

    def test_nonpositive_env_names_the_variable(self, monkeypatch):
        for raw in ("0", "-4"):
            monkeypatch.setenv("REPRO_SHARD_TARGET_BYTES", raw)
            with pytest.raises(
                ConfigurationError, match="REPRO_SHARD_TARGET_BYTES"
            ):
                plan_shards(1, 100)


class TestPlanValidation:
    def test_bounds_must_start_at_zero_and_end_at_n_ranks(self):
        with pytest.raises(ConfigurationError):
            ShardPlan(
                n_configs=2, n_ranks=10, row_block=2,
                col_bounds=(1, 10), n_workers=1,
            )
        with pytest.raises(ConfigurationError):
            ShardPlan(
                n_configs=2, n_ranks=10, row_block=2,
                col_bounds=(0, 9), n_workers=1,
            )

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ConfigurationError):
            ShardPlan(
                n_configs=2, n_ranks=10, row_block=2,
                col_bounds=(0, 5, 5, 10), n_workers=1,
            )

    def test_row_block_must_fit_configs(self):
        with pytest.raises(ConfigurationError):
            ShardPlan(
                n_configs=2, n_ranks=10, row_block=3,
                col_bounds=(0, 10), n_workers=1,
            )


class TestShardMode:
    """There is one (thread-sharded) executor, so a plan names none."""

    def test_plan_has_no_mode_field(self):
        assert "mode" not in ShardPlan.__dataclass_fields__


class TestTopologyAwarePlans:
    """Host topology may size the default worker count, never the shape
    of a plan."""

    def test_topology_never_changes_plan_fields(self):
        """Plans carry geometry only — no topology/placement field may
        leak in (it would end up inside digests via repr)."""
        assert set(ShardPlan.__dataclass_fields__) == {
            "n_configs", "n_ranks", "row_block", "col_bounds", "n_workers"
        }
