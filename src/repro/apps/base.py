"""The application model every benchmark instantiates.

An :class:`AppModel` is a *performance and power characterisation*, not a
numerical kernel: what matters for reproducing the paper is how execution
time responds to per-module frequency and how power responds to the
application's activity — the numerics themselves are irrelevant to both.

Ground-truth power of an (app, module) pair
-------------------------------------------
The shared manufacturing variation (leakage, dynamic, DRAM factors) is a
property of the silicon; but how strongly a given app *expresses* the
dynamic and DRAM spread depends on which units it exercises.  We model
this with a small app-specific multiplicative residual on the dynamic and
DRAM factors, drawn deterministically per (app, module).  The *STREAM
microbenchmark (residual 0) is the lens through which the PVT sees the
system; apps whose residual is large (NPB-BT) are the ones the paper's
calibration predicts worst (~10 % vs <5 %).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.topology import grid_dims, torus_neighbors
from repro.errors import ConfigurationError, SimulationError
from repro.hardware.module import ModuleArray
from repro.hardware.power_model import PowerSignature
from repro.hardware.variability import ModuleVariation
from repro.simmpi import fastpath
from repro.simmpi.machine import BatchedBspMachine
from repro.simmpi.tracing import RankTrace

__all__ = ["CommSpec", "AppModel"]

_COMM_KINDS = ("none", "neighbor", "allreduce", "pipeline")


@dataclass(frozen=True)
class CommSpec:
    """Communication pattern of one application.

    ``kind`` is ``"none"`` (embarrassingly parallel), ``"neighbor"``
    (per-iteration halo exchange on an ``ndim``-torus via MPI_Sendrecv),
    ``"allreduce"`` (per-iteration synchronising reduction), or
    ``"pipeline"`` (each rank feeds its successor once per iteration —
    a software pipeline; *not* bulk-synchronous, so it always runs on
    the event-driven machine rather than the vectorised fast path).
    ``final_allreduce`` adds one reduction at the end regardless (EP
    collects its Gaussian tallies once).
    """

    kind: str = "none"
    ndim: int = 0
    message_bytes: float = 0.0
    final_allreduce: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _COMM_KINDS:
            raise ConfigurationError(
                f"comm kind must be one of {_COMM_KINDS}, got {self.kind!r}"
            )
        if self.kind == "neighbor" and self.ndim <= 0:
            raise ConfigurationError("neighbor communication needs ndim >= 1")
        if self.message_bytes < 0:
            raise ConfigurationError("message_bytes must be non-negative")


@dataclass(frozen=True)
class AppModel:
    """Performance/power characterisation of one MPI benchmark.

    Attributes
    ----------
    name:
        Registry key ("dgemm", "stream", "ep", "bt", "sp", "mhd", "mvmc").
    signature:
        Power signature (CPU activity, DRAM activity, DRAM-frequency
        coupling).
    cpu_bound_fraction:
        κ — the fraction of per-iteration time (at fmax) that scales
        inversely with effective frequency; the remainder is
        frequency-insensitive (memory stalls).
    iter_seconds_fmax:
        Per-iteration time on a nominal module at fmax, seconds.
    default_iters:
        Iteration count of the standard problem size.
    comm:
        Communication pattern.
    residual_sigma_dyn / residual_sigma_dram:
        Log-σ of the app-specific expression residual on the dynamic /
        DRAM variation factors (see module docstring).
    description:
        One-line provenance (suite, class/problem size).
    """

    name: str
    signature: PowerSignature
    cpu_bound_fraction: float
    iter_seconds_fmax: float
    default_iters: int
    comm: CommSpec = CommSpec()
    residual_sigma_dyn: float = 0.015
    residual_sigma_dram: float = 0.015
    description: str = ""

    def __post_init__(self) -> None:
        if not (0.0 <= self.cpu_bound_fraction <= 1.0):
            raise ConfigurationError("cpu_bound_fraction must be in [0, 1]")
        if self.iter_seconds_fmax <= 0:
            raise ConfigurationError("iter_seconds_fmax must be positive")
        if self.default_iters <= 0:
            raise ConfigurationError("default_iters must be positive")
        if self.residual_sigma_dyn < 0 or self.residual_sigma_dram < 0:
            raise ConfigurationError("residual sigmas must be non-negative")

    def with_(self, **changes) -> "AppModel":
        """Copy with fields replaced (e.g. a custom iteration count)."""
        return replace(self, **changes)

    # -- ground-truth power view -------------------------------------------------

    def specialize(
        self, modules: ModuleArray, rng: np.random.Generator
    ) -> ModuleArray:
        """This app's ground-truth view of the hardware.

        Applies the app-specific expression residual to the dynamic and
        DRAM variation factors.  ``rng`` must be keyed per (system, app)
        so the residual is a stable property of the pair, not noise —
        e.g. ``system.rng.rng(f"app-residual/{app.name}")``.
        """
        var = modules.variation
        n = var.n_modules
        dyn = var.dyn
        dram = var.dram
        # Residual tails are clipped at 2.5 sigma: the paper's calibration
        # error tops out around 10% (NPB-BT); unbounded tails would let a
        # single pathological module dominate the statistic.  Module 0 is
        # the designated calibration module and carries zero residual by
        # convention: the paper's single-module calibration produced
        # system-level budget adherence (Fig 9) and kept tight budgets
        # feasible, which requires the test module to be representative,
        # while per-module errors still reach 5-10% (Section 5.3).
        # Calibrating on any other module explores the "unrepresentative
        # test module" regime (see the calibration-lottery ablation).
        if self.residual_sigma_dyn > 0.0:
            z = np.clip(rng.standard_normal(n), -2.5, 2.5)
            z[0] = 0.0
            dyn = dyn * np.exp(self.residual_sigma_dyn * z)
        if self.residual_sigma_dram > 0.0:
            z = np.clip(rng.standard_normal(n), -2.5, 2.5)
            z[0] = 0.0
            dram = dram * np.exp(self.residual_sigma_dram * z)
        return ModuleArray(
            modules.arch,
            ModuleVariation(leak=var.leak, dyn=dyn, dram=dram, perf=var.perf),
            modules.device_map,
        )

    # -- execution -----------------------------------------------------------------

    def neighbor_table(self, n_ranks: int) -> np.ndarray | None:
        """Halo-exchange partners for ``n_ranks`` (None for non-neighbor apps)."""
        if self.comm.kind != "neighbor":
            return None
        return torus_neighbors(grid_dims(n_ranks, self.comm.ndim))

    def run(
        self,
        rates_ghz: np.ndarray,
        fmax_ghz: float,
        *,
        n_iters: int | None = None,
        latency_s: float = 5e-6,
        bandwidth_gbps: float = 5.0,
        work_imbalance: np.ndarray | None = None,
        noise_frac: float = 0.0,
        noise_rng: np.random.Generator | None = None,
        rate_jitter_frac: float = 0.0,
        jitter_rng: np.random.Generator | None = None,
    ) -> RankTrace:
        """Simulate the application on ranks running at ``rates_ghz``.

        Parameters
        ----------
        rates_ghz:
            Per-rank work rate (effective frequency × perf factor).
        fmax_ghz:
            The architecture's fmax — defines the reference at which one
            iteration takes :attr:`iter_seconds_fmax`.
        n_iters:
            Iteration count (defaults to the standard problem size).
        work_imbalance:
            Optional per-rank multiplicative work factors (the paper's
            apps are perfectly balanced; ≠1 models naturally imbalanced
            codes).
        noise_frac / noise_rng:
            Mean relative operating-system noise added to every compute
            phase (one-sided exponential — interruptions only ever slow
            a rank down), drawn from ``noise_rng``.  0 models the
            paper's "no per-run noise" idealised ranks; a few tenths of
            a percent reproduces the residual synchronisation spread of
            uncapped runs (Fig 3, Cm = No).
        rate_jitter_frac / jitter_rng:
            Log-σ of a per-(rank, iteration) symmetric fluctuation of the
            effective compute speed.  Models the slow oscillation of a
            RAPL-governed operating point (thermals, workload phases) —
            the paper's observation that RAPL's "dynamic behavior does
            not guarantee consistent performance" (Section 5.3).  It is
            what lets even the slowest rank of a capped run accumulate
            some MPI_Sendrecv wait time (Fig 3).

        Notes
        -----
        Deterministic runs (no noise, no jitter) dispatch through
        :func:`repro.simmpi.fastpath.simulate_app`: BSP-expressible
        communication executes as whole-fleet array operations with
        steady-state fast-forwarding; the ``"pipeline"`` kind falls back
        to the event-driven machine.  Stochastic runs need fresh draws
        every iteration, so they step a one-row
        :class:`~repro.simmpi.BatchedBspMachine` one phase at a time
        (and therefore require a BSP-expressible comm kind).
        """
        iters = self.default_iters if n_iters is None else int(n_iters)
        if iters <= 0:
            raise ConfigurationError("n_iters must be positive")
        if rate_jitter_frac < 0:
            raise ConfigurationError("rate_jitter_frac must be non-negative")
        if rate_jitter_frac > 0.0 and jitter_rng is None:
            raise ConfigurationError("rate_jitter_frac > 0 requires jitter_rng")

        if noise_frac == 0.0 and rate_jitter_frac == 0.0:
            return fastpath.simulate_app(
                self,
                rates_ghz,
                fmax_ghz,
                n_iters=iters,
                latency_s=latency_s,
                bandwidth_gbps=bandwidth_gbps,
                work_imbalance=work_imbalance,
            )
        if not fastpath.is_bsp_expressible(self):
            raise ConfigurationError(
                f"per-iteration noise/jitter is only supported for "
                f"BSP-expressible comm kinds, not {self.comm.kind!r}"
            )
        if noise_frac < 0:
            raise SimulationError("noise_frac must be non-negative")
        if noise_frac > 0 and noise_rng is None:
            raise SimulationError("noise_frac > 0 requires a noise_rng")
        machine = BatchedBspMachine(
            np.asarray(rates_ghz, dtype=float)[None],
            latency_s=latency_s,
            bandwidth_gbps=bandwidth_gbps,
        )
        rates = machine.rates[0]
        n_ranks = machine.n_ranks

        # Per-rank GHz·seconds of CPU work and fixed seconds per iteration.
        cpu_work, fixed = fastpath._app_work(
            self, n_ranks, fmax_ghz, work_imbalance
        )
        neighbors = self.neighbor_table(n_ranks)
        for _ in range(iters):
            if rate_jitter_frac > 0.0:
                jitter = np.exp(
                    rate_jitter_frac * jitter_rng.standard_normal(n_ranks)
                )
                dt = cpu_work * jitter / rates
            else:
                dt = cpu_work / rates
            if noise_frac > 0.0:
                dt = dt * (1.0 + noise_frac * noise_rng.exponential(size=n_ranks))
            machine.advance_local(dt)
            if self.cpu_bound_fraction < 1.0:
                machine.advance_local(fixed)
            if self.comm.kind == "neighbor":
                machine.sendrecv(neighbors, self.comm.message_bytes)
            elif self.comm.kind == "allreduce":
                machine.allreduce(max(self.comm.message_bytes, 8.0))
        if self.comm.final_allreduce:
            machine.allreduce(8.0)
        return machine.traces()[0]
