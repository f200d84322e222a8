"""Differential proof: the batched alpha-solve vs the scalar one.

:func:`~repro.core.budget.solve_alpha_batched` answers every budget of a
sweep against one :class:`LinearPowerModel` in a single broadcasted
pass.  Its contract is *bit-identity*: entry ``i`` of the batch must
reproduce exactly what a scalar :func:`solve_alpha` call would return —
same alphas, same allocations (same IEEE-754 operations, not just close
values), and the same :class:`InfeasibleBudgetError` payloads where the
scalar call would raise.  These tests enforce that over
hypothesis-random fleets and budget grids spanning both sides of the
feasibility floor.  :func:`solve_alpha` is itself a one-budget batched
call, so the differential now checks batch-size independence; the
output bits are pinned in ``tests/core/test_budget_pins.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.budget import (
    BatchBudgetSolution,
    classify_constraint,
    classify_constraint_batched,
    solve_alpha,
    solve_alpha_batched,
)
from repro.core.model import LinearPowerModel
from repro.errors import InfeasibleBudgetError


@st.composite
def models(draw):
    """A random fleet-wide linear power model (1-64 modules)."""
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.floats(0.0, 0.15))
    jitter = 1.0 + spread * rng.standard_normal(n)
    fmin = draw(st.floats(0.8, 2.0))
    return LinearPowerModel(
        fmin=fmin,
        fmax=fmin + draw(st.floats(0.0, 2.5)),
        p_cpu_max=np.full(n, draw(st.floats(60.0, 150.0))) * np.abs(jitter),
        p_cpu_min=np.full(n, draw(st.floats(20.0, 55.0))) * np.abs(jitter),
        p_dram_max=np.full(n, draw(st.floats(8.0, 20.0))),
        p_dram_min=np.full(n, draw(st.floats(2.0, 8.0))),
    )


@st.composite
def batch_cases(draw):
    """(model, budgets) with budgets straddling the feasibility floor."""
    m = draw(models())
    floor, ceil = m.total_min_w(), m.total_max_w()
    scales = draw(
        st.lists(st.floats(0.2, 2.5), min_size=1, max_size=24)
    )
    budgets = np.array([floor + s * (ceil - floor) * 0.8 - 0.3 * floor * (s < 0.5) for s in scales])
    # Sprinkle in exact boundaries and degenerate values.
    extras = draw(st.lists(st.sampled_from([0.0, floor, ceil, ceil * 10]), max_size=4))
    return m, np.concatenate([budgets, np.array(extras)]) if extras else budgets


def assert_entry_identical(batch: BatchBudgetSolution, i: int, m, budget: float):
    """Batch entry i must be bitwise the scalar solve's output."""
    try:
        want = solve_alpha(m, budget)
    except InfeasibleBudgetError as exc:
        with pytest.raises(InfeasibleBudgetError) as got:
            batch.solution(i)
        assert got.value.budget_w == exc.budget_w
        assert got.value.floor_w == exc.floor_w
        assert not batch.feasible[i]
        return
    got = batch.solution(i)
    assert got.budget_w == want.budget_w
    assert got.alpha == want.alpha
    assert got.freq_ghz == want.freq_ghz
    assert got.constrained == want.constrained
    for field in ("pcpu_w", "pdram_w", "pmodule_w"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype
        assert np.array_equal(g, w), field


class TestDifferentialBitIdentity:
    @settings(max_examples=100, deadline=None)
    @given(case=batch_cases())
    def test_every_entry_matches_scalar_solve(self, case):
        m, budgets = case
        batch = solve_alpha_batched(m, budgets)
        assert batch.n_budgets == len(budgets)
        assert batch.n_modules == m.n_modules
        for i, b in enumerate(budgets):
            assert_entry_identical(batch, i, m, float(b))

    @settings(max_examples=40, deadline=None)
    @given(case=batch_cases(), chunk=st.integers(1, 80))
    def test_chunked_batch_matches_chunked_scalar(self, case, chunk):
        """The chunk_modules memory knob composes with batching."""
        m, budgets = case
        batch = solve_alpha_batched(m, budgets, chunk_modules=chunk)
        for i, b in enumerate(budgets):
            try:
                want = solve_alpha(m, float(b), chunk_modules=chunk)
            except InfeasibleBudgetError:
                assert not batch.feasible[i]
                continue
            got = batch.solution(i)
            assert got.alpha == want.alpha
            assert np.array_equal(got.pmodule_w, want.pmodule_w)

    @settings(max_examples=60, deadline=None)
    @given(m=models(), scales=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=12))
    def test_classification_matches_scalar(self, m, scales):
        budgets = [m.total_min_w() * s for s in scales]
        assert classify_constraint_batched(m, budgets) == [
            classify_constraint(m, b) for b in budgets
        ]


class TestBatchSolutionSurface:
    def _model(self, n=8):
        rng = np.random.default_rng(7)
        jitter = 1.0 + 0.05 * rng.standard_normal(n)
        return LinearPowerModel(
            fmin=1.2,
            fmax=2.7,
            p_cpu_max=np.full(n, 100.0) * jitter,
            p_cpu_min=np.full(n, 55.0) * jitter,
            p_dram_max=np.full(n, 12.0),
            p_dram_min=np.full(n, 8.0),
        )

    def test_solutions_iterates_in_order(self):
        m = self._model()
        budgets = [m.total_max_w() * 2, (m.total_min_w() + m.total_max_w()) / 2]
        batch = solve_alpha_batched(m, budgets)
        sols = batch.solutions()
        assert [s.budget_w for s in sols] == [float(b) for b in budgets]
        assert sols[0].alpha == 1.0 and sols[1].constrained

    def test_scalar_budget_promotes_to_batch_of_one(self):
        m = self._model()
        batch = solve_alpha_batched(m, m.total_max_w())
        assert batch.n_budgets == 1
        assert batch.solution(0).alpha == solve_alpha(m, m.total_max_w()).alpha

    def test_invalid_budgets_report_unchunked_floor(self):
        """Nonfinite/nonpositive budgets mirror the scalar raise site,
        which reports the *fused* total_min_w."""
        m = self._model()
        batch = solve_alpha_batched(m, [0.0, float("nan"), float("inf")])
        for i, b in enumerate([0.0, float("nan")]):
            with pytest.raises(InfeasibleBudgetError) as exc:
                batch.solution(i)
            assert exc.value.floor_w == m.total_min_w()
        with pytest.raises(InfeasibleBudgetError):
            batch.solution(2)  # inf is rejected like the scalar path

    def test_empty_batch(self):
        m = self._model()
        batch = solve_alpha_batched(m, np.array([]))
        assert batch.n_budgets == 0
        assert batch.solutions() == []
