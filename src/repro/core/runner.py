"""End-to-end orchestration: plan → actuate → run → measure.

:func:`run_budgeted_batched` executes the paper's full workflow (Fig 4)
for a batch of configs of one (system, application).  A config is a
``(scheme, budget)`` pair, or ``(None, None)`` for an uncapped
reference row:

1. plan — as in :meth:`Scheme.allocate_batched
   <repro.core.schemes.Scheme.allocate_batched>`, build the scheme's PMT
   (PVT + single-module test runs, oracle, or TDP defaults; once per
   ``pmt_kind`` in the batch) and solve for α and the module-level
   allocations (Eq 5–9), returning one
   :class:`~repro.core.schemes.PowerAllocation` per budget; uncapped
   rows have no plan;
2. actuate — RAPL caps (PC), a pinned common frequency (FS), or, for an
   uncapped row, fmax, the Turbo point or the per-type fmax;
3. simulate the application on the realised per-module work rates;
4. measure realised power and collect the Vp/Vf/Vt statistics.

:func:`run_budgeted` is the one-config case and :func:`run_uncapped`
the one-row uncapped case: the unconstrained reference execution the
paper normalises against ("Cm = No" in Fig 2/3/8).

Simulation routing: every run goes through
:func:`repro.simmpi.fastpath.simulate_app_batched`.  BSP-expressible
applications (all of the paper's benchmarks) run as whole-fleet
vectorised array operations with steady-state fast-forwarding, which is
what makes the 10k–200k-module fleet sweeps tractable; any non-BSP
communication pattern falls back, explicitly and automatically, to the
event-driven :class:`~repro.simmpi.EventDrivenMachine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.telemetry as telemetry
from repro.apps.base import AppModel
from repro.cluster.system import System
from repro.control.rapl_cap import RaplCapController
from repro.core.budget import BudgetSolution
from repro.core.pmmd import InstrumentedApp
from repro.core.pmt import PowerModelTable
from repro.core.pvt import PowerVariationTable
from repro.core.schemes import Scheme, get_scheme
from repro.errors import ConfigurationError, InfeasibleBudgetError
from repro.hardware.module import ModuleArray, OperatingPoint
from repro.simmpi.fastpath import simulate_app_batched
from repro.simmpi.tracing import RankTrace
from repro.util.stats import worst_case_variation

__all__ = [
    "RunResult",
    "WITHIN_BUDGET_RTOL",
    "UNIFORM_BUDGET_RTOL",
    "run_budgeted",
    "run_budgeted_batched",
    "run_uncapped",
]

#: Relative tolerance for the :attr:`RunResult.within_budget` check.
#:
#: An oracle PC plan lands *exactly* on the budget, and RAPL pins each
#: module's realised CPU power onto its cap bit-for-bit (the controller
#: clamps, so that sum reproduces the planned one identically).  What
#: the realised total adds on top is the DRAM re-evaluation: actuation
#: inverts each cap back to a frequency (a divide by the module's
#: dynamic-power term, condition number ~p/(p − p_static)), and the DRAM
#: curve re-read at that inverted frequency does not reproduce the
#: planned per-module pdram exactly.  The per-module error is a
#: few-hundred-ulp affair (~6e-7 relative) with a coherent sign, so it
#: does *not* average out with fleet size: measured ≈8e-8 of the budget
#: at 2048 modules and roughly size-independent.  1e-7 covers that
#: mechanism while staying ≥4 decades below any real violation (FS
#: calibration error and Naïve's DRAM underestimate are >= 1e-3).
#: ``tests/core/test_within_budget.py`` pins the measured drift so the
#: margin cannot erode silently.
WITHIN_BUDGET_RTOL = 1e-7

#: The genuinely tight bound, valid for the quantities that *don't* go
#: through the DRAM re-evaluation above: on a uniform fleet the planned
#: Eq (7) aggregate of a binding oracle plan sits exactly on the budget
#: (measured error 0.0 at 2048 modules — the solver allocates the
#: residual explicitly), and the realised CPU sum reproduces the planned
#: cap sum bit-for-bit.  1e-9 bounds both with room for benign
#: reduction-order changes.  ``tests/core`` asserts this tight path
#: separately from :data:`WITHIN_BUDGET_RTOL`, so a future widening of
#: the wire tolerance cannot paper over a planning-side regression.
UNIFORM_BUDGET_RTOL = 1e-9


@dataclass(frozen=True)
class RunResult:
    """Everything observed from one managed application execution.

    Power arrays are per-module, realised (not predicted) values.
    """

    app_name: str
    scheme_name: str | None
    budget_w: float | None
    solution: BudgetSolution | None
    effective_freq_ghz: np.ndarray
    cpu_power_w: np.ndarray
    dram_power_w: np.ndarray
    cap_met: np.ndarray
    trace: RankTrace

    @property
    def module_power_w(self) -> np.ndarray:
        """Realised per-module (CPU + DRAM) power."""
        return self.cpu_power_w + self.dram_power_w

    @property
    def total_power_w(self) -> float:
        """Realised system power during the run."""
        return float(self.module_power_w.sum())

    @property
    def makespan_s(self) -> float:
        """Application completion time (slowest rank)."""
        return self.trace.makespan_s

    @property
    def vp(self) -> float:
        """Worst-case module power variation."""
        return worst_case_variation(self.module_power_w)

    @property
    def vf(self) -> float:
        """Worst-case effective-frequency variation."""
        return worst_case_variation(self.effective_freq_ghz)

    @property
    def vt(self) -> float:
        """Worst-case per-rank execution-time variation."""
        return self.trace.vt

    @property
    def within_budget(self) -> bool | None:
        """Whether realised total power stayed within the budget
        (None for uncapped runs).

        The tolerance (:data:`WITHIN_BUDGET_RTOL`, derivation at its
        definition) absorbs actuation round-trip noise only: an oracle
        PC plan lands *exactly* on the budget and RAPL reproduces the
        CPU caps bit-for-bit, but DRAM power is re-evaluated at the
        cap-inverted frequencies and drifts ~1e-7 of the budget.  Real
        violations — FS calibration error, Naïve's DRAM underestimate —
        are orders of magnitude larger.
        """
        if self.budget_w is None:
            return None
        return self.total_power_w <= self.budget_w * (1.0 + WITHIN_BUDGET_RTOL)

    def speedup_over(self, baseline: "RunResult") -> float:
        """Speedup of this run relative to ``baseline`` (>1 = faster)."""
        return baseline.makespan_s / self.makespan_s


def _truth_view(system: System, app: AppModel) -> ModuleArray:
    return app.specialize(system.modules, system.rng.rng(f"app-residual/{app.name}"))


def _work_rates(truth: ModuleArray, eff: np.ndarray | float) -> np.ndarray:
    """Simulation work rates from realised effective frequencies.

    Uniform fleets keep the exact historical expression
    (``perf · eff``).  On a mixed fleet the raw clocks live in different
    domains (a GPU's 1.38 GHz fmax is not "half" a CPU's 2.7 GHz), so
    each module's effective frequency is first expressed as a fraction
    of its *own* fmax and rescaled onto the primary clock — an uncapped
    mixed fleet then shows Vt from manufacturing variation only, not
    from comparing unlike clock domains.
    """
    if not truth.is_mixed:
        return truth.work_rate(eff)
    eff = np.asarray(eff, dtype=float)
    return truth.work_rate(eff * (truth.arch.fmax / truth.fmax_by_module()))


def _unwrap(app: AppModel | InstrumentedApp) -> tuple[AppModel, InstrumentedApp | None]:
    if isinstance(app, InstrumentedApp):
        return app.app, app
    return app, None


def _record_run(result: RunResult) -> None:
    """Retain the run's per-module arrays under the active run scope.

    The ``enabled()`` guard avoids materialising ``module_power_w``
    (a fleet-sized sum) when telemetry is off.
    """
    if not telemetry.enabled():
        return
    telemetry.record_arrays(
        "run",
        module_power_w=result.module_power_w,
        effective_freq_ghz=result.effective_freq_ghz,
        elapsed_s=result.trace.total_s,
    )


def run_uncapped(
    system: System,
    app: AppModel | InstrumentedApp,
    *,
    n_iters: int | None = None,
    turbo: bool = False,
) -> RunResult:
    """Reference execution with no power management: a one-row
    :func:`run_budgeted_batched` on one tile.

    ``turbo=False`` (the default everywhere the evaluation normalises
    against) pins every module at fmax.  ``turbo=True`` lets each module
    climb to its TDP-limited Turbo point — heterogeneous for
    power-hungry workloads, uniform for light ones (see
    :meth:`~repro.hardware.ModuleArray.turbo_frequency`).
    """
    (out,) = run_budgeted_batched(
        system, app, [(None, None)], n_iters=n_iters, turbo=turbo, shard=None
    )
    return out


def _uncapped_point(
    system: System, truth: ModuleArray, model: AppModel, turbo: bool
) -> tuple[OperatingPoint, np.ndarray, np.ndarray]:
    """Realised ``(op, eff, cpu_power)`` of an unmanaged run: the Turbo
    point, the per-type fmax on a mixed fleet, or the uniform fmax.
    Shared by every uncapped row of a batch."""
    n = truth.n_modules
    if turbo:
        eff = truth.turbo_frequency(model.signature)
        op = OperatingPoint(freq_ghz=eff, duty=np.ones(n), signature=model.signature)
    elif truth.is_mixed:
        # Each device type pins at its own fmax — there is no single
        # fleet-wide clock on a mixed fleet.
        eff = truth.fmax_by_module()
        op = OperatingPoint(freq_ghz=eff, duty=np.ones(n), signature=model.signature)
    else:
        op = OperatingPoint.uniform(n, system.arch.fmax, model.signature)
        eff = np.full(n, system.arch.fmax)
    return op, eff, truth.cpu_power_at(op)


def _fs_operating_point(
    truth: ModuleArray, model: AppModel, f_common: float
) -> tuple[OperatingPoint, np.ndarray, np.ndarray]:
    """Realised operating point at one common (ladder) frequency.

    Budget-independent — configs of a batched sweep that quantize onto
    the same ladder step share ``(op, eff, cpu_power)`` exactly, which
    is what lets :func:`run_budgeted_batched` deduplicate them.
    """
    n = truth.n_modules
    op = OperatingPoint.uniform(n, f_common, model.signature)
    eff = np.full(n, f_common)
    return op, eff, truth.cpu_power_at(op)


def _fs_mixed_freqs(
    truth: ModuleArray, alpha: float
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Per-module FS frequencies for a mixed fleet at a shared α.

    Each device type realises the common α on *its own* ladder —
    ``f_t = α·(fmax_t − fmin_t) + fmin_t`` quantized down — so one
    planned α yields one pinned frequency per type.  Returns the
    per-module frequency array and the hashable per-type tuple used to
    deduplicate actuation points across a budget sweep.
    """
    freqs = np.empty(truth.n_modules)
    per_type = []
    for _pos, dt, sel in truth.device_map.groups():
        a = dt.arch
        f_t = float(a.ladder.quantize_down(alpha * (a.fmax - a.fmin) + a.fmin))
        freqs[sel] = f_t
        per_type.append(f_t)
    return freqs, tuple(per_type)


def _fs_operating_point_mixed(
    truth: ModuleArray, model: AppModel, freqs: np.ndarray
) -> tuple[OperatingPoint, np.ndarray, np.ndarray]:
    """Mixed-fleet analogue of :func:`_fs_operating_point`."""
    op = OperatingPoint(
        freq_ghz=freqs, duty=np.ones(truth.n_modules), signature=model.signature
    )
    return op, freqs, truth.cpu_power_at(op)


def _actuate_pc(
    system: System,
    truth: ModuleArray,
    model: AppModel,
    scheme: Scheme,
    sol: BudgetSolution,
    budget_w: float,
    noisy: bool,
) -> tuple[OperatingPoint, np.ndarray, np.ndarray, np.ndarray]:
    """Enforce a planned allocation's CPU caps through RAPL.

    Returns ``(op, effective_freq_ghz, cpu_power_w, cap_met)``.  The
    RAPL dither stream is keyed by (app, scheme, budget), so actuation
    is config-local — identical whether the config runs alone or inside
    a batch.
    """
    rng = (
        system.rng.rng(f"rapl/{model.name}/{scheme.name}/{budget_w:.0f}")
        if noisy
        else None
    )
    controller = RaplCapController(
        truth,
        rng=rng,
        dither_loss_frac=0.02 if noisy else 0.0,
        guardband_frac=0.01 if noisy else 0.0,
    )
    enf = controller.enforce(sol.pcpu_w, model.signature)
    return enf.op, enf.effective_freq_ghz, enf.cpu_power_w, enf.cap_met


def run_budgeted(
    system: System,
    app: AppModel | InstrumentedApp,
    scheme: Scheme | str,
    budget_w: float,
    *,
    pvt: PowerVariationTable | None = None,
    test_module: int = 0,
    n_iters: int | None = None,
    noisy: bool = True,
    fs_guardband_frac: float = 0.02,
    chunk_modules: int | None = None,
) -> RunResult:
    """Run ``app`` on ``system`` under ``budget_w`` with one scheme: a
    one-config :func:`run_budgeted_batched`.  Its simulation runs as one
    row on one tile, so with telemetry on it records the run's phase
    timeline.

    Parameters
    ----------
    pvt:
        The system's Power Variation Table (required by the Pc / VaPc /
        VaFs schemes; generate once and share across calls).
    test_module:
        Which module hosts the single-module calibration runs.
    n_iters:
        Override the app's standard iteration count (shorter runs for
        sweeps; timing statistics are iteration-count invariant for the
        synchronised codes after convergence).
    noisy:
        Disable to remove all measurement/controller noise (pure
        algorithmic behaviour — useful for tests and ablations).
    fs_guardband_frac:
        Planning margin applied by the FS schemes: because frequency
        selection cannot *enforce* power (Section 5.3), the α-solve runs
        against a slightly derated budget so calibration error does not
        push realised power past the constraint.  PC schemes need no
        planning margin — RAPL enforces the caps in hardware.
    chunk_modules:
        Forwarded to the α-solve
        (:func:`~repro.core.budget.solve_alpha_batched`): when set, the
        Eq (5)/(6) sums are blocked in chunks of this many modules (the
        10k–200k module sweeps set it).  ``None`` (the default) uses one
        fused reduction.  The allocations are one broadcast either way.

    Raises
    ------
    InfeasibleBudgetError
        If the scheme's PMT says the budget cannot be met at fmin
        (Table 4's "–" cells).
    """
    (out,) = run_budgeted_batched(
        system,
        app,
        [(scheme, budget_w)],
        pvt=pvt,
        test_module=test_module,
        n_iters=n_iters,
        noisy=noisy,
        fs_guardband_frac=fs_guardband_frac,
        chunk_modules=chunk_modules,
        shard=None,
    )
    if isinstance(out, InfeasibleBudgetError):
        raise out
    return out


def run_budgeted_batched(
    system: System,
    app: AppModel | InstrumentedApp,
    configs,
    *,
    pvt: PowerVariationTable | None = None,
    test_module: int = 0,
    n_iters: int | None = None,
    noisy: bool = True,
    fs_guardband_frac: float = 0.02,
    chunk_modules: int | None = None,
    turbo: bool = False,
    shard="auto",
) -> list["RunResult | InfeasibleBudgetError"]:
    """Run many configs of one app in a single batched pass.

    ``configs`` is a sequence of ``(scheme_or_name, budget_w)`` pairs;
    ``(None, None)`` is an uncapped reference row, actuated at the point
    :func:`run_uncapped` describes (``turbo`` applies to these rows
    only).  Planning is grouped per scheme (one batched α-solve each, as
    in :meth:`Scheme.allocate_batched`) on one PMT build per
    ``pmt_kind`` in the batch, actuation stays per config
    (the RAPL dither stream is keyed by app/scheme/budget), and all
    simulations execute as one 2-D vectorised pass
    (:func:`~repro.simmpi.fastpath.simulate_app_batched`).

    ``shard`` controls the memory layout of that pass — ``"auto"``
    (default) tiles the (configs, ranks) plane once it outgrows the
    cache working-set budget, a
    :class:`~repro.simmpi.sharding.ShardSpec`/:class:`~repro.simmpi.sharding.ShardPlan`
    pins the tiling, ``None`` runs the whole plane as one tile.
    Sharding is pure execution layout: results are bit-identical either
    way.

    Entry *i* is the :class:`RunResult` of config *i* — the same bits
    whatever else is in the batch, since every stage performs the same
    elementwise arithmetic on the same deterministic RNG streams — or
    the :class:`~repro.errors.InfeasibleBudgetError` its budget raises.
    """
    model, pmmd = _unwrap(app)
    resolved = []
    for s, b in configs:
        if (s is None) != (b is None):
            raise ConfigurationError(
                "a config is (scheme, budget_w), or (None, None) for an "
                "uncapped row"
            )
        resolved.append(
            (None, None) if s is None
            else ((get_scheme(s) if isinstance(s, str) else s), float(b))
        )
    n_configs = len(resolved)
    if n_configs == 0:
        return []
    with telemetry.span(
        "run.budgeted_batched", app=model.name, n_configs=n_configs
    ):
        telemetry.count("run.budgeted_batched")
        telemetry.observe("run.batch_size", n_configs)
        truth = _truth_view(system, model)
        arch = system.arch

        # One batched plan per distinct scheme in the batch, and one PMT
        # per distinct pmt_kind: the build depends only on the kind, so
        # VaPc/VaFs share the calibrated PMT and VaPcOr/VaFsOr the oracle.
        allocations: list = [None] * n_configs
        by_scheme: dict[str, list[int]] = {}
        schemes: dict[str, Scheme] = {}
        for i, (scheme, _b) in enumerate(resolved):
            if scheme is not None:
                by_scheme.setdefault(scheme.name, []).append(i)
                schemes[scheme.name] = scheme
        pmts: dict[str, PowerModelTable] = {}
        for name, idxs in by_scheme.items():
            scheme = schemes[name]
            with telemetry.span("run.plan", scheme=name):
                pmt = pmts.get(scheme.pmt_kind)
                if pmt is None:
                    pmt = pmts[scheme.pmt_kind] = scheme.build_pmt(
                        system, model, pvt=pvt, test_module=test_module, noisy=noisy
                    )
                plans = scheme._plan_batched(
                    pmt,
                    [resolved[i][1] for i in idxs],
                    fs_guardband_frac=fs_guardband_frac,
                    chunk_modules=chunk_modules,
                )
            for i, plan in zip(idxs, plans):
                allocations[i] = plan

        acts: list = [None] * n_configs
        shared_points: dict[object, tuple] = {}
        row_key: list[object | None] = [None] * n_configs
        for i, (scheme, budget_w) in enumerate(resolved):
            if scheme is None:
                # Every uncapped row of the batch shares one point.
                shared = shared_points.get("uncapped")
                if shared is None:
                    shared = shared_points["uncapped"] = _uncapped_point(
                        system, truth, model, turbo
                    )
                acts[i] = (*shared, np.ones(truth.n_modules, dtype=bool))
                row_key[i] = "uncapped"
                continue
            plan = allocations[i]
            if isinstance(plan, InfeasibleBudgetError):
                continue
            telemetry.count(f"run.scheme[{scheme.name}]")
            with telemetry.span("run.actuate", actuation=scheme.actuation):
                if scheme.actuation == "fs":
                    # Round the common frequency *down* onto the ladder —
                    # requesting the next P-state up could push total
                    # power past the budget.  The ladder is discrete, so
                    # many budgets of a sweep quantize onto the same
                    # frequency; their realised operating points are
                    # identical and shared.  Only cap_met depends on the
                    # budget's derived caps: FS never throttles, so the
                    # derived CPU cap may be exceeded on leaky modules
                    # (paper Section 5.3) — reported honestly.  On a
                    # mixed fleet each type realises the shared α on its
                    # own ladder, and the dedup key is the per-type
                    # frequency tuple.
                    sol = plan.solution
                    if truth.is_mixed:
                        freqs, key = _fs_mixed_freqs(truth, sol.alpha)
                        shared = shared_points.get(key)
                        if shared is None:
                            shared = shared_points[key] = _fs_operating_point_mixed(
                                truth, model, freqs
                            )
                    else:
                        key = float(arch.ladder.quantize_down(sol.freq_ghz))
                        shared = shared_points.get(key)
                        if shared is None:
                            shared = shared_points[key] = _fs_operating_point(
                                truth, model, key
                            )
                    op, eff, cpu_power = shared
                    acts[i] = (op, eff, cpu_power, cpu_power <= sol.pcpu_w + 1e-9)
                    row_key[i] = key
                else:
                    acts[i] = _actuate_pc(
                        system, truth, model, scheme, plan.solution, budget_w, noisy
                    )

        results: list = list(allocations)  # infeasible errors stay in place
        live = [i for i in range(n_configs) if acts[i] is not None]
        if live:
            # Configs on the same operating point are indistinguishable
            # downstream: simulate and measure each distinct point once
            # and fan the arrays back out (row-independence makes the
            # subset execution bit-identical to the full stack).
            row_of: dict[object, int] = {}
            row: list[int] = []
            unique_rates: list[np.ndarray] = []
            for i in live:
                key = row_key[i] if row_key[i] is not None else ("cfg", i)
                r = row_of.get(key)
                if r is None:
                    r = row_of[key] = len(unique_rates)
                    unique_rates.append(_work_rates(truth, acts[i][1]))
                row.append(r)
            rates = np.stack(unique_rates)
            telemetry.observe("run.unique_rows", rates.shape[0])
            with telemetry.span(
                "run.simulate_batched",
                n_configs=len(live),
                n_unique=rates.shape[0],
            ):
                traces = simulate_app_batched(
                    model, rates, arch.fmax, n_iters=n_iters, shard=shard
                )
            dram_of: dict[int, np.ndarray] = {}
            taken = [False] * rates.shape[0]
            for c, i in zip(row, live):
                scheme, budget_w = resolved[i]
                op, eff, cpu_power, cap_met = acts[i]
                dram_power = dram_of.get(c)
                if dram_power is None:
                    dram_power = dram_of[c] = truth.dram_power_at(op)
                trace = traces[c]
                if taken[c]:
                    # Later consumers of a shared row copy, so every
                    # result owns its arrays exactly as per-config runs
                    # would have.
                    trace = RankTrace(
                        total_s=trace.total_s.copy(),
                        compute_s=trace.compute_s.copy(),
                        wait_s=trace.wait_s.copy(),
                        comm_s=trace.comm_s.copy(),
                    )
                    eff = eff.copy()
                    cpu_power = cpu_power.copy()
                    dram_power = dram_power.copy()
                taken[c] = True
                name = None if scheme is None else scheme.name
                result = RunResult(
                    app_name=model.name,
                    scheme_name=name,
                    budget_w=budget_w,
                    solution=None if scheme is None else allocations[i].solution,
                    effective_freq_ghz=np.asarray(eff, dtype=float),
                    cpu_power_w=cpu_power,
                    dram_power_w=dram_power,
                    cap_met=np.asarray(cap_met, dtype=bool),
                    trace=trace,
                )
                _record_run(result)
                if pmmd is not None:
                    pmmd.record(result.makespan_s, result.total_power_w, plan=name)
                results[i] = result
        return results
