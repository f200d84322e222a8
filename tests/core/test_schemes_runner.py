"""Tests for the six schemes and the end-to-end runner (paper Section 6)."""

import numpy as np
import pytest

from repro.apps.registry import get_app
from repro.core.pmmd import instrument
from repro.core.runner import run_budgeted, run_budgeted_batched, run_uncapped
from repro.core.schemes import ALL_SCHEMES, Scheme, get_scheme, list_schemes
from repro.errors import ConfigurationError, InfeasibleBudgetError


class TestSchemeRegistry:
    def test_legend_order(self):
        assert list_schemes() == ["naive", "pc", "vapcor", "vapc", "vafsor", "vafs"]

    def test_properties_match_table(self):
        assert not ALL_SCHEMES["naive"].app_dependent
        assert not ALL_SCHEMES["naive"].variation_aware
        assert ALL_SCHEMES["pc"].app_dependent
        assert not ALL_SCHEMES["pc"].variation_aware
        for name in ("vapc", "vapcor", "vafs", "vafsor"):
            assert ALL_SCHEMES[name].variation_aware
        assert ALL_SCHEMES["vafs"].actuation == "fs"
        assert ALL_SCHEMES["vapc"].actuation == "pc"

    def test_get_scheme(self):
        assert get_scheme("VaFs").name == "vafs"
        with pytest.raises(ConfigurationError):
            get_scheme("rapl-magic")

    def test_invalid_scheme_construction(self):
        with pytest.raises(ConfigurationError):
            Scheme("x", "X", "guesswork", "pc")
        with pytest.raises(ConfigurationError):
            Scheme("x", "X", "oracle", "dvfs")

    def test_calibrated_needs_pvt(self, ha8k_small):
        with pytest.raises(ConfigurationError):
            ALL_SCHEMES["vapc"].build_pmt(ha8k_small, get_app("dgemm"))

    def test_pvt_size_checked(self, ha8k_small, pvt_small):
        sub = pvt_small.take(range(10))
        with pytest.raises(ConfigurationError):
            ALL_SCHEMES["vapc"].build_pmt(ha8k_small, get_app("dgemm"), pvt=sub)


class TestRunUncapped:
    def test_everyone_at_fmax(self, ha8k_small):
        r = run_uncapped(ha8k_small, get_app("dgemm"), n_iters=3)
        assert np.allclose(r.effective_freq_ghz, 2.7)
        assert r.budget_w is None
        assert r.within_budget is None
        assert r.scheme_name is None

    def test_vt_one_for_frequency_binned_parts(self, ha8k_small):
        r = run_uncapped(ha8k_small, get_app("dgemm"), n_iters=3)
        assert r.vt == pytest.approx(1.0)

    def test_vp_matches_paper_band(self, ha8k_full):
        # Fig 2(i): module power Vp ~ 1.2-1.5 uncapped.
        r = run_uncapped(ha8k_full, get_app("dgemm"), n_iters=2)
        assert 1.2 <= r.vp <= 1.5


class TestRunBudgeted:
    def test_all_schemes_execute(self, ha8k_small, pvt_small):
        app = get_app("mhd")
        budget = 70.0 * ha8k_small.n_modules
        for name in list_schemes():
            r = run_budgeted(ha8k_small, app, name, budget, pvt=pvt_small, n_iters=5)
            assert r.scheme_name == name
            assert r.makespan_s > 0

    def test_scheme_accepts_instance(self, ha8k_small, pvt_small):
        r = run_budgeted(
            ha8k_small,
            get_app("mhd"),
            ALL_SCHEMES["vapc"],
            70.0 * ha8k_small.n_modules,
            pvt=pvt_small,
            n_iters=5,
        )
        assert r.scheme_name == "vapc"

    def test_infeasible_budget_raises(self, ha8k_small, pvt_small):
        with pytest.raises(InfeasibleBudgetError):
            run_budgeted(
                ha8k_small,
                get_app("dgemm"),
                "vapc",
                50.0 * ha8k_small.n_modules,  # Table 4: DGEMM "--" at 50 W
                pvt=pvt_small,
                n_iters=5,
            )

    def test_pc_respects_budget(self, ha8k_small, pvt_small):
        for name in ("pc", "vapc", "vapcor"):
            r = run_budgeted(
                ha8k_small,
                get_app("dgemm"),
                name,
                80.0 * ha8k_small.n_modules,
                pvt=pvt_small,
                n_iters=5,
            )
            assert r.within_budget

    def test_vafs_homogeneous_frequency(self, ha8k_small, pvt_small):
        r = run_budgeted(
            ha8k_small,
            get_app("dgemm"),
            "vafs",
            80.0 * ha8k_small.n_modules,
            pvt=pvt_small,
            n_iters=5,
        )
        assert r.vf == pytest.approx(1.0)  # FS pins one common P-state
        assert r.vt == pytest.approx(1.0)

    def test_vapc_beats_naive(self, ha8k_small, pvt_small):
        app = get_app("dgemm")
        budget = 80.0 * ha8k_small.n_modules
        naive = run_budgeted(ha8k_small, app, "naive", budget, pvt=pvt_small, n_iters=5)
        vapc = run_budgeted(ha8k_small, app, "vapc", budget, pvt=pvt_small, n_iters=5)
        assert vapc.speedup_over(naive) > 1.2

    def test_variation_aware_reduces_vt_increases_vp(self, ha8k_small, pvt_small):
        # Fig 8(i): VaFs trades higher Vp for lower Vt vs uniform capping.
        app = get_app("dgemm")
        budget = 80.0 * ha8k_small.n_modules
        pc = run_budgeted(ha8k_small, app, "pc", budget, pvt=pvt_small, n_iters=5)
        vafs = run_budgeted(ha8k_small, app, "vafs", budget, pvt=pvt_small, n_iters=5)
        assert vafs.vt < pc.vt
        assert vafs.vp > pc.vp

    def test_noiseless_mode_deterministic(self, ha8k_small, pvt_small):
        app = get_app("mhd")
        budget = 70.0 * ha8k_small.n_modules
        a = run_budgeted(
            ha8k_small, app, "vapc", budget, pvt=pvt_small, n_iters=5, noisy=False
        )
        b = run_budgeted(
            ha8k_small, app, "vapc", budget, pvt=pvt_small, n_iters=5, noisy=False
        )
        assert a.makespan_s == b.makespan_s
        assert np.array_equal(a.effective_freq_ghz, b.effective_freq_ghz)

    def test_oracle_beats_calibrated_for_bt(self, ha8k_full, pvt_full):
        # Fig 7: VaPc trails VaPcOr most visibly for NPB-BT.
        app = get_app("bt")
        budget = 50.0 * ha8k_full.n_modules
        vapc = run_budgeted(ha8k_full, app, "vapc", budget, pvt=pvt_full, n_iters=10)
        vapcor = run_budgeted(
            ha8k_full, app, "vapcor", budget, pvt=pvt_full, n_iters=10
        )
        assert vapcor.makespan_s < vapc.makespan_s

    def test_naive_violates_budget_only_for_stream(self, ha8k_full, pvt_full):
        # Fig 9's headline: Naive underestimates *STREAM's DRAM power.
        budget_per_module = {"stream": 90.0, "dgemm": 90.0, "mhd": 80.0, "bt": 70.0}
        for name, cm in budget_per_module.items():
            r = run_budgeted(
                ha8k_full,
                get_app(name),
                "naive",
                cm * ha8k_full.n_modules,
                pvt=pvt_full,
                n_iters=5,
            )
            if name == "stream":
                assert not r.within_budget
            else:
                assert r.within_budget

    def test_pmmd_instrumentation_records(self, ha8k_small, pvt_small):
        inst = instrument(get_app("mhd"))
        run_uncapped(ha8k_small, inst, n_iters=5)
        run_budgeted(
            ha8k_small, inst, "vafs", 70.0 * ha8k_small.n_modules,
            pvt=pvt_small, n_iters=5,
        )
        assert len(inst.records) == 2
        assert inst.records[0].plan is None
        assert inst.records[1].plan == "vafs"
        assert inst.records[1].energy_j == pytest.approx(
            inst.records[1].duration_s * inst.records[1].mean_power_w
        )


class TestHeadlineNumbers:
    """The paper's aggregate claims at full 1,920-module scale."""

    def test_max_speedup_band(self, ha8k_full, pvt_full):
        # Paper: max VaFs speedup 5.4X (NPB-BT class at 96 kW).
        app = get_app("sp")
        budget = 50.0 * ha8k_full.n_modules
        naive = run_budgeted(ha8k_full, app, "naive", budget, pvt=pvt_full, n_iters=15)
        vafs = run_budgeted(ha8k_full, app, "vafs", budget, pvt=pvt_full, n_iters=15)
        assert 4.0 <= vafs.speedup_over(naive) <= 7.0

    def test_bt_96kw_band(self, ha8k_full, pvt_full):
        app = get_app("bt")
        budget = 50.0 * ha8k_full.n_modules
        naive = run_budgeted(ha8k_full, app, "naive", budget, pvt=pvt_full, n_iters=15)
        vafs = run_budgeted(ha8k_full, app, "vafs", budget, pvt=pvt_full, n_iters=15)
        vapc = run_budgeted(ha8k_full, app, "vapc", budget, pvt=pvt_full, n_iters=15)
        assert 3.5 <= vafs.speedup_over(naive) <= 7.0
        assert 2.0 <= vapc.speedup_over(naive) <= 5.5


class TestPmtBuildsPerBatch:
    def test_six_schemes_build_one_pmt_per_kind(
        self, ha8k_small, pvt_small, pmt_builds
    ):
        """VaPc/VaFs share the calibrated PMT and VaPcOr/VaFsOr the
        oracle one, so the six schemes plan on four PMTs."""
        app = get_app("bt")
        configs = [(name, 60.0 * 96) for name in ALL_SCHEMES]
        batched = run_budgeted_batched(ha8k_small, app, configs, pvt=pvt_small)
        assert sorted(kind for kind, _, _ in pmt_builds) == [
            "calibrated", "naive", "oracle", "uniform",
        ]
        for (name, budget), got in zip(configs, batched):
            alone = run_budgeted(ha8k_small, app, name, budget, pvt=pvt_small)
            assert got.solution.alpha == alone.solution.alpha
            assert np.array_equal(got.solution.pcpu_w, alone.solution.pcpu_w)
            assert np.array_equal(got.cpu_power_w, alone.cpu_power_w)
            assert np.array_equal(got.trace.total_s, alone.trace.total_s)
