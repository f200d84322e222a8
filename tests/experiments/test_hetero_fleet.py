"""Mixed CPU+GPU fleet experiment: goldens and batching.

The golden pins freeze the headline numbers of the heterogeneous
analogue of Fig 7 / Table 4 — the variation-aware schemes' advantage
carries onto a mixed pool — so refactors of the device plumbing cannot
silently shift the physics.
"""

import numpy as np
import pytest

from repro.apps import get_app
from repro.cluster import build_hetero_system
from repro.core.runner import run_budgeted, run_budgeted_batched, run_uncapped
from repro.experiments.hetero_fleet import (
    HETERO_SCHEMES,
    format_hetero,
    run_hetero_point,
)

#: Golden pins for the 256-module, half-GPU point at the default seed.
#: Regenerate with:  python -c "from repro.experiments.hetero_fleet import
#: run_hetero_point; print(run_hetero_point(256))"
GOLDEN_256 = {
    "vf_norm": {"naive": 3.514151, "vapcor": 1.048504, "vafsor": 1.034392},
    "vt": {"naive": 1.321139, "vapcor": 1.055712, "vafsor": 1.054116},
    "speedup": {"naive": 1.0, "vapcor": 1.637349, "vafsor": 1.560434},
    "budget_kw": 25.9024,
}


@pytest.fixture(scope="module")
def point():
    return run_hetero_point(256)


class TestGoldenPins:
    def test_vf_norm(self, point):
        for scheme, golden in GOLDEN_256["vf_norm"].items():
            assert point.vf_norm[scheme] == pytest.approx(golden, rel=1e-4), scheme

    def test_vt(self, point):
        for scheme, golden in GOLDEN_256["vt"].items():
            assert point.vt[scheme] == pytest.approx(golden, rel=1e-4), scheme

    def test_speedup(self, point):
        for scheme, golden in GOLDEN_256["speedup"].items():
            assert point.speedup[scheme] == pytest.approx(golden, rel=1e-4), scheme

    def test_budget(self, point):
        assert point.budget_kw == pytest.approx(GOLDEN_256["budget_kw"], rel=1e-4)

    def test_all_schemes_within_budget(self, point):
        assert all(point.within_budget.values())

    def test_variation_aware_wins_on_mixed_hardware(self, point):
        # The paper's core claim, device-generic: naive budgeting lets
        # the worst module drag the pool; variation-aware allocation
        # compresses normalised frequency spread AND runs faster.
        assert point.vf_norm["naive"] > 2.0
        assert point.vf_norm["vapcor"] < 1.1
        assert point.speedup["vapcor"] > 1.3

    def test_format_renders(self, point):
        out = format_hetero([point])
        assert "Mixed CPU+GPU" in out
        assert f"{point.n_gpu:,}" in out


class TestMixedBatchedBitIdentity:
    """run_budgeted_batched on a mixed fleet ≡ per-config run_budgeted."""

    @pytest.fixture(scope="class")
    def setup(self):
        system = build_hetero_system(
            [("cpu-ivy-bridge-e5-2697v2", 48), ("gpu-v100-sxm2", 48)], seed=11
        )
        app = get_app("bt")
        base = run_uncapped(system, app, n_iters=10)
        budgets = [0.7 * base.total_power_w, 0.85 * base.total_power_w]
        return system, app, budgets

    def test_batched_equals_single(self, setup):
        system, app, budgets = setup
        configs = [(s, b) for s in HETERO_SCHEMES for b in budgets]
        batch = run_budgeted_batched(system, app, configs, n_iters=10, noisy=False)
        for (scheme, budget), got in zip(configs, batch):
            ref = run_budgeted(
                system, app, scheme, budget, n_iters=10, noisy=False
            )
            assert np.array_equal(got.effective_freq_ghz, ref.effective_freq_ghz)
            assert np.array_equal(got.cpu_power_w, ref.cpu_power_w)
            assert np.array_equal(got.dram_power_w, ref.dram_power_w)
            assert np.array_equal(got.cap_met, ref.cap_met)
            assert np.array_equal(got.trace.total_s, ref.trace.total_s)

    def test_fs_configs_share_per_type_points(self, setup):
        # Budgets quantizing onto the same per-type frequency tuple must
        # share realised operating points (the mixed dedup key).
        system, app, budgets = setup
        batch = run_budgeted_batched(
            system,
            app,
            [("vafsor", b) for b in (budgets[0], budgets[0] * 1.0001)],
            n_iters=10,
            noisy=False,
        )
        assert np.array_equal(
            batch[0].effective_freq_ghz, batch[1].effective_freq_ghz
        )
