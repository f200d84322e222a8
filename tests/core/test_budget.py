"""Tests for the alpha-solve (Eq 5-9) and Table 4 classification."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.budget import classify_constraint, solve_alpha
from repro.core.model import LinearPowerModel
from repro.errors import InfeasibleBudgetError


def model(n=4, cpu=(100.0, 55.0), dram=(12.0, 8.0), spread=0.0):
    rng = np.random.default_rng(0)
    jitter = 1.0 + spread * rng.standard_normal(n)
    return LinearPowerModel(
        fmin=1.2,
        fmax=2.7,
        p_cpu_max=np.full(n, cpu[0]) * jitter,
        p_cpu_min=np.full(n, cpu[1]) * jitter,
        p_dram_max=np.full(n, dram[0]),
        p_dram_min=np.full(n, dram[1]),
    )


class TestSolveAlpha:
    def test_unconstrained_alpha_one(self):
        m = model()
        sol = solve_alpha(m, 1e9)
        assert sol.alpha == 1.0
        assert not sol.constrained
        assert sol.freq_ghz == pytest.approx(2.7)

    def test_exact_floor_alpha_zero(self):
        m = model()
        sol = solve_alpha(m, m.total_min_w())
        assert sol.alpha == pytest.approx(0.0)
        assert sol.freq_ghz == pytest.approx(1.2)

    def test_infeasible_raises(self):
        m = model()
        with pytest.raises(InfeasibleBudgetError):
            solve_alpha(m, m.total_min_w() * 0.9)

    def test_nonpositive_budget(self):
        with pytest.raises(InfeasibleBudgetError):
            solve_alpha(model(), 0.0)

    def test_eq5_budget_respected(self):
        m = model(spread=0.05)
        budget = (m.total_min_w() + m.total_max_w()) / 2
        sol = solve_alpha(m, budget)
        assert sol.total_allocated_w <= budget + 1e-9
        assert sol.constrained

    def test_eq6_alpha_is_maximal(self):
        # Using any larger alpha would break Eq (5).
        m = model(spread=0.05)
        budget = (m.total_min_w() + m.total_max_w()) / 2
        sol = solve_alpha(m, budget)
        eps = 1e-6
        overshoot = m.module_power_at(sol.alpha + eps).sum()
        assert overshoot > budget

    def test_eq7_allocations_follow_variation(self):
        m = model(spread=0.08)
        budget = (m.total_min_w() + m.total_max_w()) / 2
        sol = solve_alpha(m, budget)
        # Power-hungrier modules get more power (same alpha for all).
        order_alloc = np.argsort(sol.pmodule_w)
        order_max = np.argsort(m.module_power_at(1.0))
        assert np.array_equal(order_alloc, order_max)

    def test_eq8_cpu_plus_dram(self):
        sol = solve_alpha(model(), 400.0)
        assert np.allclose(sol.pmodule_w, sol.pcpu_w + sol.pdram_w)

    def test_common_frequency(self):
        m = model(spread=0.08)
        sol = solve_alpha(m, (m.total_min_w() + m.total_max_w()) / 2)
        # One alpha, hence one frequency, for every module.
        assert 1.2 < sol.freq_ghz < 2.7

    def test_degenerate_single_frequency_model(self):
        m = LinearPowerModel(
            fmin=1.6,
            fmax=1.6,
            p_cpu_max=np.full(2, 50.0),
            p_cpu_min=np.full(2, 50.0),
            p_dram_max=np.full(2, 10.0),
            p_dram_min=np.full(2, 10.0),
        )
        sol = solve_alpha(m, 200.0)
        assert sol.alpha == 1.0
        with pytest.raises(InfeasibleBudgetError):
            solve_alpha(m, 100.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.01, max_value=3.0))
    def test_allocation_never_exceeds_budget(self, scale):
        m = model(n=8, spread=0.06)
        budget = m.total_min_w() * scale
        try:
            sol = solve_alpha(m, budget)
        except InfeasibleBudgetError:
            assert budget < m.total_min_w()
            return
        assert sol.total_allocated_w <= budget + 1e-6
        assert 0.0 <= sol.alpha <= 1.0


class TestChunkedKnob:
    def test_shim_removed(self):
        # The solve_alpha_chunked deprecation shim completed its final
        # warn-on-every-call release and is gone; the chunk knob lives on
        # solve_alpha itself.
        import repro.core.budget as budget_mod

        assert not hasattr(budget_mod, "solve_alpha_chunked")
        assert "solve_alpha_chunked" not in budget_mod.__all__


class TestClassify:
    def test_three_bands(self):
        m = model()
        assert classify_constraint(m, m.total_min_w() - 1.0) == "--"
        mid = (m.total_min_w() + m.total_max_w()) / 2
        assert classify_constraint(m, mid) == "X"
        assert classify_constraint(m, m.total_max_w() + 1.0) == "•"

    def test_boundaries(self):
        m = model()
        assert classify_constraint(m, m.total_min_w()) == "X"
        assert classify_constraint(m, m.total_max_w()) == "•"
