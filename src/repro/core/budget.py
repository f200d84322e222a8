"""The α-solve and module-level power allocation — Equations (5)–(9).

Objective (paper Section 5.1.2): find the *maximum* application-specific
coefficient α, common to all modules, such that total predicted power
stays within the application-level budget::

    Σᵢ ( α (P_module_max,i − P_module_min,i) + P_module_min,i ) ≤ P_budget   (5)

    α ≤ (P_budget − Σᵢ P_module_min,i) / Σᵢ (P_module_max,i − P_module_min,i)  (6)

Each module then receives its own allocation (Eq 7) and CPU cap
(Eq 8/9)::

    P_module_i = α (P_module_max,i − P_module_min,i) + P_module_min,i   (7)
    P_cpu_i    = P_module_i − P_dram_i                                  (8,9)

α is clamped to 1.0 when the budget is not binding ("α is set to 1.0
when we do not have any power constraints"); a negative α means the
modules cannot be operated even at fmin (Table 4's "–" entries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.telemetry as telemetry
from repro.core.model import LinearPowerModel
from repro.errors import InfeasibleBudgetError

__all__ = [
    "BudgetSolution",
    "BatchBudgetSolution",
    "solve_alpha",
    "solve_alpha_batched",
    "classify_constraint",
    "classify_constraint_batched",
]


@dataclass(frozen=True)
class BudgetSolution:
    """Result of the α-solve for one (application, budget) pair.

    Attributes
    ----------
    alpha:
        The clamped control coefficient ∈ [0, 1].
    raw_alpha:
        Eq (6)'s right-hand side before clamping (>1 means the budget is
        not binding; <0 would mean infeasible).
    constrained:
        Whether the budget actually binds (raw_alpha < 1) — Table 4's
        "X" vs "•" distinction.
    freq_ghz:
        The common target frequency, Eq (1).
    pmodule_w / pcpu_w / pdram_w:
        Per-module allocations, Eq (7)–(9).
    budget_w:
        The application-level power constraint this solves for.
    """

    alpha: float
    raw_alpha: float
    constrained: bool
    freq_ghz: float
    pmodule_w: np.ndarray
    pcpu_w: np.ndarray
    pdram_w: np.ndarray
    budget_w: float

    @property
    def total_allocated_w(self) -> float:
        """Σᵢ P_module_i — must not exceed the budget (Eq 5)."""
        return float(self.pmodule_w.sum())


def solve_alpha(
    model: LinearPowerModel,
    budget_w: float,
    *,
    chunk_modules: int | None = None,
) -> BudgetSolution:
    """Solve Eq (6) and derive the per-module allocations (Eq 7–9).

    A one-budget :func:`solve_alpha_batched`.  ``chunk_modules`` sets
    how the Eq (5)/(6) sums are blocked (``None``: one fused reduction;
    an integer: chunk partial sums, which differ from the fused pass
    only by summation association); the Eq (7)–(9) allocations are one
    broadcast either way.

    Raises
    ------
    InfeasibleBudgetError
        If the budget lies below the fmin power floor (Table 4 "–").
    """
    return solve_alpha_batched(
        model, [budget_w], chunk_modules=chunk_modules
    ).solution(0)


@dataclass(frozen=True)
class BatchBudgetSolution:
    """Result of one batched α-solve over many budgets.

    All per-budget fields are aligned with the ``budgets_w`` the batch
    was solved for; the allocation matrices have shape
    ``(n_budgets, n_modules)``.  Rows whose ``feasible`` flag is False
    carry undefined allocation values — :meth:`solution` raises
    :class:`~repro.errors.InfeasibleBudgetError` for them.
    """

    budgets_w: np.ndarray
    raw_alphas: np.ndarray
    alphas: np.ndarray
    feasible: np.ndarray
    freq_ghz: np.ndarray
    pcpu_w: np.ndarray
    pdram_w: np.ndarray
    floor_w: np.ndarray

    @property
    def n_budgets(self) -> int:
        """Number of budgets the batch covers."""
        return int(self.budgets_w.shape[0])

    @property
    def n_modules(self) -> int:
        """Number of modules each allocation row covers."""
        return int(self.pcpu_w.shape[1])

    def solution(self, i: int) -> BudgetSolution:
        """The i-th budget's :class:`BudgetSolution` (allocation rows
        are views into the batch matrices).

        Raises
        ------
        InfeasibleBudgetError
            If budget *i* was infeasible, with its (budget, floor)
            payload.
        """
        if not bool(self.feasible[i]):
            raise InfeasibleBudgetError(
                float(self.budgets_w[i]), float(self.floor_w[i])
            )
        pcpu = self.pcpu_w[i]
        pdram = self.pdram_w[i]
        return BudgetSolution(
            alpha=float(self.alphas[i]),
            raw_alpha=float(self.raw_alphas[i]),
            constrained=bool(self.raw_alphas[i] < 1.0),
            freq_ghz=float(self.freq_ghz[i]),
            pmodule_w=pcpu + pdram,
            pcpu_w=pcpu,
            pdram_w=pdram,
            budget_w=float(self.budgets_w[i]),
        )

    def solutions(self) -> list[BudgetSolution]:
        """All feasible solutions, in batch order (raises on the first
        infeasible budget — use :attr:`feasible` to pre-filter)."""
        return [self.solution(i) for i in range(self.n_budgets)]


def _solve_eq6(
    floor: float,
    span: float,
    fused_floor: float,
    fmin: float,
    fmax: float,
    budgets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eq (6) and Eq (1) for many budgets from cached aggregates.

    ``floor``/``span`` are the (possibly chunk-blocked) Eq (5)/(6)
    sums, ``fused_floor`` the fused ``total_min_w()``.  Returns
    ``(raw_alphas, alphas, feasible, freq_ghz, floor_w)``, where
    ``floor_w`` is the floor an infeasible budget reports: the fused
    one for invalid (non-finite or non-positive) budgets, the blocked
    one for budgets below it.  ``span <= 0`` is the degenerate
    single-frequency case (e.g. BG/Q): power is fixed, and the budget
    either accommodates it or nothing runs.
    """
    valid = np.isfinite(budgets) & (budgets > 0.0)
    if span <= 0.0:
        raws = np.where(budgets >= floor, 1.0, -1.0)
    else:
        raws = (budgets - floor) / span
    alphas = np.minimum(raws, 1.0)
    return (
        raws,
        alphas,
        valid & (raws >= 0.0),
        alphas * (fmax - fmin) + fmin,
        np.where(valid, floor, fused_floor),
    )


def fs_derate(budgets: np.ndarray, fused_floor: float, frac: float) -> np.ndarray:
    """The FS planning guardband: plan ``frac`` below each budget.

    Frequency selection cannot *enforce* power (Section 5.3), so FS
    schemes solve against a derated budget.  The guardband must not
    turn a feasible budget infeasible (that would just mean "run at
    fmin"): budgets at or above the fused floor are clamped to it,
    infeasible ones keep the plain derated value.  ``frac <= 0``
    plans against the budgets unchanged.
    """
    if frac <= 0.0:
        return budgets
    derated = budgets * (1.0 - frac)
    return np.where(
        budgets >= fused_floor, np.maximum(derated, fused_floor), derated
    )


def solve_alpha_batched(
    model: LinearPowerModel,
    budgets_w,
    *,
    chunk_modules: int | None = None,
) -> BatchBudgetSolution:
    """Solve Eq (6)–(9) for *all* budgets in one broadcasted pass.

    The Eq (5)/(6) aggregates are reduced once (blocked by
    ``chunk_modules``, see :meth:`LinearPowerModel.floor_and_span_w`)
    and shared by every budget; the Eq (7)–(9) allocations are produced
    as one ``(n_budgets, n_modules)`` broadcast.  Entry ``i`` does not
    depend on the other budgets.

    Infeasible budgets do **not** raise here: the corresponding
    ``feasible`` entries are False and :meth:`BatchBudgetSolution.solution`
    raises lazily with the budget and the floor :func:`_solve_eq6`
    reports for it.
    """
    budgets = np.atleast_1d(np.asarray(budgets_w, dtype=float))
    with telemetry.span("solve_alpha_batched", n_budgets=int(budgets.size)) as sp:
        floor, span = model.floor_and_span_w(chunk_modules=chunk_modules)
        raws, alphas, feasible, freqs, floor_err = _solve_eq6(
            floor, span, model.total_min_w(), model.fmin, model.fmax, budgets
        )
        pcpu, pdram = model.allocations_at_batch(alphas)
        telemetry.count("budget.solve_alpha_batched")
        telemetry.observe("budget.batch_size", budgets.size)
        telemetry.observe("budget.modules", model.n_modules)
        sp.set(
            feasible=int(feasible.sum()),
            modules=model.n_modules,
        )
        return BatchBudgetSolution(
            budgets_w=budgets,
            raw_alphas=raws,
            alphas=alphas,
            feasible=feasible,
            freq_ghz=freqs,
            pcpu_w=pcpu,
            pdram_w=pdram,
            floor_w=floor_err,
        )


def classify_constraint(model: LinearPowerModel, budget_w: float) -> str:
    """Table 4 cell for one (application, budget) pair.

    Returns ``"X"`` (meaningfully constrained), ``"•"`` (not sufficiently
    power constrained — no capping required), or ``"--"`` (too limited to
    operate even at fmin).  A one-budget
    :func:`classify_constraint_batched`.
    """
    return classify_constraint_batched(model, [budget_w])[0]


def classify_constraint_batched(
    model: LinearPowerModel, budgets_w
) -> list[str]:
    """Table 4 cells for many budgets against one model.

    The floor/ceiling aggregates are reduced once and each budget is
    compared against them (see :func:`classify_constraint`).
    """
    budgets = np.atleast_1d(np.asarray(budgets_w, dtype=float))
    floor = model.total_min_w()
    ceiling = model.total_max_w()
    return [
        "--" if b < floor else ("•" if b >= ceiling else "X") for b in budgets
    ]
