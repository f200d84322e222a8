"""Edge-path tests for the end-to-end runner."""

import numpy as np
import pytest

from repro.apps.registry import get_app
from repro.cluster.configs import build_hetero_system
from repro.core.runner import run_budgeted, run_uncapped, uncapped_power_w
from repro.errors import ConfigurationError


class TestSchemesWithoutPVT:
    def test_naive_needs_no_pvt(self, ha8k_small):
        r = run_budgeted(
            ha8k_small, get_app("mhd"), "naive", 70.0 * 96, n_iters=3
        )
        assert r.scheme_name == "naive"

    def test_oracle_schemes_need_no_pvt(self, ha8k_small):
        for scheme in ("vapcor", "vafsor"):
            r = run_budgeted(
                ha8k_small, get_app("mhd"), scheme, 70.0 * 96, n_iters=3
            )
            assert r.within_budget

    def test_calibrated_without_pvt_rejected(self, ha8k_small):
        with pytest.raises(ConfigurationError):
            run_budgeted(ha8k_small, get_app("mhd"), "vapc", 70.0 * 96, n_iters=3)


class TestFsGuardband:
    def test_zero_guardband_faster_but_riskier(self, ha8k_small, pvt_small):
        app = get_app("mhd")
        budget = 70.0 * 96
        guarded = run_budgeted(
            ha8k_small, app, "vafs", budget, pvt=pvt_small, n_iters=3
        )
        raw = run_budgeted(
            ha8k_small, app, "vafs", budget, pvt=pvt_small, n_iters=3,
            fs_guardband_frac=0.0,
        )
        assert raw.makespan_s <= guarded.makespan_s + 1e-9

    def test_guardband_preserves_reported_budget(self, ha8k_small, pvt_small):
        r = run_budgeted(
            ha8k_small, get_app("mhd"), "vafs", 70.0 * 96, pvt=pvt_small,
            n_iters=3,
        )
        # The solution reports the *user's* budget, not the derated one.
        assert r.solution.budget_w == pytest.approx(70.0 * 96)

    def test_guardband_never_turns_feasible_into_infeasible(
        self, ha8k_small, pvt_small
    ):
        # BT at its feasibility edge: a 2% guardband must clamp to the
        # floor, not raise.
        from repro.core.schemes import get_scheme

        app = get_app("bt")
        pmt = get_scheme("vafs").build_pmt(ha8k_small, app, pvt=pvt_small)
        floor = pmt.model.total_min_w()
        r = run_budgeted(
            ha8k_small, app, "vafs", floor * 1.005, pvt=pvt_small, n_iters=3
        )
        assert r.solution.alpha < 0.05


class TestResultMetrics:
    def test_speedup_is_symmetric_inverse(self, ha8k_small, pvt_small):
        app = get_app("mhd")
        a = run_budgeted(ha8k_small, app, "naive", 80.0 * 96, pvt=pvt_small, n_iters=3)
        b = run_budgeted(ha8k_small, app, "vafs", 80.0 * 96, pvt=pvt_small, n_iters=3)
        assert a.speedup_over(b) == pytest.approx(1.0 / b.speedup_over(a))

    def test_module_power_is_cpu_plus_dram(self, ha8k_small, pvt_small):
        r = run_budgeted(
            ha8k_small, get_app("sp"), "vapc", 70.0 * 96, pvt=pvt_small, n_iters=3
        )
        assert np.allclose(r.module_power_w, r.cpu_power_w + r.dram_power_w)
        assert r.total_power_w == pytest.approx(float(r.module_power_w.sum()))

    def test_uncapped_has_no_solution(self, ha8k_small):
        r = run_uncapped(ha8k_small, get_app("sp"), n_iters=3)
        assert r.solution is None
        assert r.scheme_name is None

    def test_custom_test_module(self, ha8k_small, pvt_small):
        a = run_budgeted(
            ha8k_small, get_app("bt"), "vafs", 60.0 * 96, pvt=pvt_small,
            n_iters=3, test_module=0,
        )
        b = run_budgeted(
            ha8k_small, get_app("bt"), "vafs", 60.0 * 96, pvt=pvt_small,
            n_iters=3, test_module=17,
        )
        # Different calibration module, different alpha (BT's residual).
        assert a.solution.alpha != b.solution.alpha


class TestUncappedPowerWithoutSimulation:
    """``uncapped_power_w`` reads the uncapped draw off the operating
    point; it must equal the simulated run's realised power bit for bit
    on every uncapped actuation: fmax, Turbo, and per-type fmax."""

    @pytest.mark.parametrize("turbo", [False, True])
    def test_uniform_fleet(self, ha8k_small, turbo):
        app = get_app("bt")
        run = run_uncapped(ha8k_small, app, n_iters=3, turbo=turbo)
        assert uncapped_power_w(ha8k_small, app, turbo=turbo) == run.total_power_w

    def test_mixed_fleet(self):
        system = build_hetero_system(
            [("cpu-ivy-bridge-e5-2697v2", 12), ("gpu-v100-sxm2", 12)], seed=3
        )
        app = get_app("bt")
        run = run_uncapped(system, app, n_iters=3)
        assert uncapped_power_w(system, app) == run.total_power_w
