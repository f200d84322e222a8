"""The six power-allocation schemes of the paper's evaluation (Section 6).

==========  ================  ===============  ===========
Scheme      App-dependent?    Variation-aware  Actuation
==========  ================  ===============  ===========
Naïve       no (TDP-based)    no               PC (RAPL)
Pc          yes               no               PC (RAPL)
VaPc        yes               yes (PVT)        PC (RAPL)
VaPcOr      yes               oracle           PC (RAPL)
VaFs        yes               yes (PVT)        FS (cpufreq)
VaFsOr      yes               oracle           FS (cpufreq)
==========  ================  ===============  ===========

A scheme is *how the PMT is obtained* plus *how the allocation is
actuated*; everything downstream (α-solve, allocation, run) is shared.

Every scheme exposes one uniform planning interface,
:meth:`Scheme.allocate_batched` (:meth:`Scheme.allocate` is its
one-budget form): given the fleet (a :class:`System` or a bare
:class:`~repro.hardware.ModuleArray`) and application-level budgets,
it returns one :class:`PowerAllocation` per budget — the scheme's PMT
plus the α-solve — which :func:`repro.core.runner.run_budgeted_batched`
consumes for actuation.  Planning is pure array work: the
PMT is columnar and the α-solve vectorised; ``chunk_modules`` sets how
its Eq (5)/(6) sums are blocked.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

import repro.telemetry as telemetry
from repro.apps.base import AppModel
from repro.cluster.system import System
from repro.core.budget import BudgetSolution, fs_derate, solve_alpha_batched
from repro.core.pmt import (
    PowerModelTable,
    calibrate_pmt,
    calibrate_pmt_mixed,
    naive_pmt,
    oracle_pmt,
    uniform_pmt,
)
from repro.core.pvt import PowerVariationTable
from repro.core.test_run import single_module_test_run
from repro.errors import ConfigurationError, InfeasibleBudgetError
from repro.hardware.module import ModuleArray
from repro.util.rng import RngFactory

__all__ = [
    "Scheme",
    "PowerAllocation",
    "ALL_SCHEMES",
    "get_scheme",
    "list_schemes",
    "available_schemes",
    "register_scheme",
]

_PMT_KINDS = ("naive", "uniform", "calibrated", "oracle")
_ACTUATIONS = ("pc", "fs")


@dataclass(frozen=True)
class Scheme:
    """One evaluated power-allocation scheme.

    Attributes
    ----------
    name:
        Registry key ("naive", "pc", "vapc", "vapcor", "vafs", "vafsor").
    label:
        Display name matching the paper's figures.
    pmt_kind:
        How the Power Model Table is obtained.
    actuation:
        "pc" (RAPL power capping) or "fs" (frequency selection).
    """

    name: str
    label: str
    pmt_kind: str
    actuation: str

    def __post_init__(self) -> None:
        if self.pmt_kind not in _PMT_KINDS:
            raise ConfigurationError(f"pmt_kind must be one of {_PMT_KINDS}")
        if self.actuation not in _ACTUATIONS:
            raise ConfigurationError(f"actuation must be one of {_ACTUATIONS}")

    @property
    def variation_aware(self) -> bool:
        """Whether per-module variation informs the allocation."""
        return self.pmt_kind in ("calibrated", "oracle")

    @property
    def app_dependent(self) -> bool:
        """Whether the application's power profile informs the allocation."""
        return self.pmt_kind != "naive"

    def build_pmt(
        self,
        system: System,
        app: AppModel,
        *,
        pvt: PowerVariationTable | None = None,
        test_module: int = 0,
        noisy: bool = True,
    ) -> PowerModelTable:
        """Produce this scheme's PMT for (system, app).

        ``pvt`` is required for the PVT-calibrated kinds ("uniform" and
        "calibrated"); generate it once per system with
        :func:`repro.core.generate_pvt` and reuse it across apps.
        """
        with telemetry.span("scheme.build_pmt", kind=self.pmt_kind):
            arch = system.arch
            device_map = system.modules.device_map
            if self.pmt_kind == "naive":
                return naive_pmt(arch, system.n_modules, device_map)
            if self.pmt_kind == "oracle":
                return oracle_pmt(system, app, noisy=False)
            if pvt is None:
                raise ConfigurationError(
                    f"scheme {self.name!r} needs a PowerVariationTable"
                )
            if pvt.n_modules != system.n_modules:
                raise ConfigurationError(
                    f"PVT covers {pvt.n_modules} modules, system has "
                    f"{system.n_modules}"
                )
            if device_map is not None and not device_map.is_single_type:
                # Mixed fleet: one single-module test run per device type
                # (the caller's test module for its own type, each other
                # type's first module), assembled into one per-type PMT.
                profiles = []
                for pos, _dt, sel in device_map.groups():
                    k = sel.start if isinstance(sel, slice) else int(sel[0])
                    if int(device_map.index[test_module]) == pos:
                        k = int(test_module)
                    profiles.append(
                        single_module_test_run(system, app, k, noisy=noisy)
                    )
                return calibrate_pmt_mixed(
                    pvt,
                    profiles,
                    device_map,
                    fmin=arch.fmin,
                    fmax=arch.fmax,
                    uniform=self.pmt_kind == "uniform",
                )
            profile = single_module_test_run(system, app, test_module, noisy=noisy)
            builder = calibrate_pmt if self.pmt_kind == "calibrated" else uniform_pmt
            return builder(
                pvt, profile, fmin=arch.fmin, fmax=arch.fmax, device_map=device_map
            )

    def allocate(
        self,
        fleet: System | ModuleArray,
        app: AppModel,
        budget_w: float,
        *,
        pvt: PowerVariationTable | None = None,
        test_module: int = 0,
        noisy: bool = True,
        fs_guardband_frac: float = 0.02,
        chunk_modules: int | None = None,
    ) -> "PowerAllocation":
        """Plan this scheme's power allocation for (fleet, app, budget).

        The uniform planning interface shared by every scheme: build the
        scheme's PMT, apply the FS planning guardband where the
        actuation cannot enforce power in hardware, and solve Eq (5)–(9)
        for the per-module allocations — a one-budget
        :meth:`allocate_batched`.  ``fleet`` may be a full
        :class:`System` or a bare
        :class:`~repro.hardware.ModuleArray` (wrapped in a deterministic
        system — useful for synthetic fleet studies).  ``chunk_modules``
        sets how the α-solve blocks its Eq (5)/(6) sums.

        Raises
        ------
        InfeasibleBudgetError
            If the scheme's PMT says the budget cannot be met at fmin.
        """
        (out,) = self.allocate_batched(
            fleet,
            app,
            [budget_w],
            pvt=pvt,
            test_module=test_module,
            noisy=noisy,
            fs_guardband_frac=fs_guardband_frac,
            chunk_modules=chunk_modules,
        )
        if isinstance(out, InfeasibleBudgetError):
            raise out
        return out

    def allocate_batched(
        self,
        fleet: System | ModuleArray,
        app: AppModel,
        budgets_w,
        *,
        pvt: PowerVariationTable | None = None,
        test_module: int = 0,
        noisy: bool = True,
        fs_guardband_frac: float = 0.02,
        chunk_modules: int | None = None,
    ) -> list["PowerAllocation | InfeasibleBudgetError"]:
        """Plan this scheme for *many* budgets: one PMT build, one
        batched α-solve.

        Entry *i* is either the :class:`PowerAllocation` for
        ``budgets_w[i]`` — the same bits whatever the other budgets,
        because the PMT build is deterministic (every RNG stream restarts
        per call) and the batched solve is elementwise per budget — or
        the :class:`~repro.errors.InfeasibleBudgetError` for it, so
        callers decide per budget instead of losing the whole sweep to
        one infeasible point.

        FS schemes plan against a derated budget: frequency selection
        cannot *enforce* power (Section 5.3), so the α-solve runs
        ``fs_guardband_frac`` below each budget, never below the fmin
        floor for a feasible one.  Infeasible budgets carry the derated
        budget in their error.
        """
        pmt = self.build_pmt(
            _as_system(fleet), app, pvt=pvt, test_module=test_module, noisy=noisy
        )
        return self._plan_batched(
            pmt,
            budgets_w,
            fs_guardband_frac=fs_guardband_frac,
            chunk_modules=chunk_modules,
        )

    def _plan_batched(
        self,
        pmt: PowerModelTable,
        budgets_w,
        *,
        fs_guardband_frac: float = 0.02,
        chunk_modules: int | None = None,
    ) -> list["PowerAllocation | InfeasibleBudgetError"]:
        """:meth:`allocate_batched` on an already-built PMT: the FS
        derating plus one batched α-solve.  Lets a caller planning
        several schemes of one ``pmt_kind`` (VaPc and VaFs, VaPcOr and
        VaFsOr) build their shared PMT once."""
        budgets = np.atleast_1d(np.asarray(budgets_w, dtype=float))
        with telemetry.span(
            "scheme.allocate_batched",
            scheme=self.name,
            n_budgets=int(budgets.size),
        ):
            telemetry.count(f"scheme.allocate[{self.name}]", int(budgets.size))
            solve_on = budgets
            if self.actuation == "fs":
                solve_on = fs_derate(
                    budgets, pmt.model.total_min_w(), fs_guardband_frac
                )
            batch = solve_alpha_batched(
                pmt.model, solve_on, chunk_modules=chunk_modules
            )
            out: list[PowerAllocation | InfeasibleBudgetError] = []
            for i in range(budgets.size):
                try:
                    sol = batch.solution(i)
                except InfeasibleBudgetError as err:
                    out.append(err)
                    continue
                if solve_on is not budgets:
                    # Report the budget asked for, not the derated one.
                    sol = replace(sol, budget_w=float(budgets[i]))
                out.append(PowerAllocation(scheme=self, pmt=pmt, solution=sol))
            return out


def _as_system(fleet: System | ModuleArray) -> System:
    """Wrap a bare module array in a deterministic single-use system."""
    if isinstance(fleet, System):
        return fleet
    return System(
        name="fleet",
        arch=fleet.arch,
        modules=fleet,
        procs_per_node=1,
        meter_kind="rapl",
        rng=RngFactory(0).child("system/fleet"),
    )


@dataclass(frozen=True)
class PowerAllocation:
    """A scheme's planned power allocation for one (fleet, app, budget).

    The uniform currency between planning and actuation: produced by
    :meth:`Scheme.allocate_batched`, consumed by
    :func:`repro.core.runner.run_budgeted_batched` (RAPL caps or a pinned
    common frequency) and by the fleet experiments.  All per-module
    state is columnar (the PMT's endpoint arrays, the solution's
    allocation arrays).
    """

    scheme: Scheme
    pmt: PowerModelTable
    solution: BudgetSolution

    @property
    def n_modules(self) -> int:
        """Number of modules the allocation covers."""
        return self.pmt.n_modules

    @property
    def alpha(self) -> float:
        """The solved control coefficient."""
        return self.solution.alpha

    @property
    def freq_ghz(self) -> float:
        """The common planned frequency, Eq (1)."""
        return self.solution.freq_ghz

    @property
    def budget_w(self) -> float:
        """The application-level constraint this allocation honours."""
        return self.solution.budget_w

    @property
    def pcpu_w(self) -> np.ndarray:
        """Per-module CPU power caps, Eq (8)/(9)."""
        return self.solution.pcpu_w

    @property
    def pmodule_w(self) -> np.ndarray:
        """Per-module total allocations, Eq (7)."""
        return self.solution.pmodule_w


#: Schemes in the paper's Fig 7 legend order.
ALL_SCHEMES: dict[str, Scheme] = {
    s.name: s
    for s in (
        Scheme("naive", "Naive", "naive", "pc"),
        Scheme("pc", "Pc", "uniform", "pc"),
        Scheme("vapcor", "VaPcOr", "oracle", "pc"),
        Scheme("vapc", "VaPc", "calibrated", "pc"),
        Scheme("vafsor", "VaFsOr", "oracle", "fs"),
        Scheme("vafs", "VaFs", "calibrated", "fs"),
    )
}


_SCHEME_FIELDS = frozenset(f.name for f in fields(Scheme))


def get_scheme(name: str, **opts) -> Scheme:
    """Look up a scheme by name (case-insensitive), optionally deriving
    a variant.

    ``opts`` override :class:`Scheme` fields on the registered entry —
    e.g. ``get_scheme("vapc", actuation="fs")`` is the PVT-calibrated
    scheme actuated by frequency selection instead of RAPL.  Overrides
    are validated (unknown fields and invalid values raise
    :class:`~repro.errors.ConfigurationError`) and never mutate the
    registry: the result is a derived frozen :class:`Scheme`.
    """
    try:
        scheme = ALL_SCHEMES[name.lower()]
    except KeyError:
        known = ", ".join(ALL_SCHEMES)
        raise ConfigurationError(f"unknown scheme {name!r}; known: {known}") from None
    if opts:
        unknown = sorted(set(opts) - _SCHEME_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"unknown scheme option(s) {unknown}; "
                f"Scheme fields are {sorted(_SCHEME_FIELDS)}"
            )
        scheme = replace(scheme, **opts)  # __post_init__ re-validates
    return scheme


def available_schemes() -> dict[str, Scheme]:
    """Snapshot of the registry, in the paper's Fig 7 legend order.

    Returns a copy: mutating it does not affect the registry (use
    :func:`register_scheme` for that).
    """
    return dict(ALL_SCHEMES)


def register_scheme(scheme: Scheme, *, replace_existing: bool = False) -> Scheme:
    """Add a scheme to the registry (e.g. a derived variant under its
    own name), making it reachable by name from the CLI, the fleet
    experiment, and multi-app scheduling.

    Raises :class:`~repro.errors.ConfigurationError` if the name is
    already taken and ``replace_existing`` is not set — the six paper
    schemes should be shadowed deliberately, never by accident.
    """
    key = scheme.name.lower()
    if key != scheme.name:
        raise ConfigurationError(
            f"scheme names are lower-case registry keys; got {scheme.name!r}"
        )
    if key in ALL_SCHEMES and not replace_existing:
        raise ConfigurationError(
            f"scheme {key!r} is already registered; pass "
            "replace_existing=True to shadow it"
        )
    ALL_SCHEMES[key] = scheme
    return scheme


def list_schemes() -> list[str]:
    """Scheme names in the paper's legend order."""
    return list(ALL_SCHEMES)
