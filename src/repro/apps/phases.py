"""Phase-structured applications (paper §7: "analyzing their phase behavior").

Real applications alternate between compute-bound and memory-bound
*phases* within each iteration.  A single static α (the paper's scheme)
must budget for the aggregate profile; a phase-aware manager can re-solve
α per phase — running the memory phase (which draws less CPU power) at a
higher frequency under the *same* instantaneous budget.

:class:`AppPhase` describes one phase; :class:`PhasedApp` composes them
into an iterating application runnable on a one-row BSP machine with
per-phase rates.  :mod:`repro.core.phase_budget` implements the
phase-aware planner on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.base import AppModel, CommSpec
from repro.errors import ConfigurationError, SimulationError
from repro.hardware.power_model import PowerSignature
from repro.simmpi.machine import BatchedBspMachine
from repro.simmpi.tracing import RankTrace

__all__ = ["AppPhase", "PhasedApp", "GMRES_LIKE"]


@dataclass(frozen=True)
class AppPhase:
    """One phase of a phase-structured application."""

    name: str
    seconds_fmax: float
    cpu_bound_fraction: float
    signature: PowerSignature

    def __post_init__(self) -> None:
        if self.seconds_fmax <= 0:
            raise ConfigurationError("phase duration must be positive")
        if not (0.0 <= self.cpu_bound_fraction <= 1.0):
            raise ConfigurationError("cpu_bound_fraction must be in [0, 1]")


@dataclass(frozen=True)
class PhasedApp:
    """An application whose iterations cycle through distinct phases.

    Communication (if any) happens once per iteration, after the last
    phase — the common structure of solvers that compute several kernels
    then exchange halos.
    """

    name: str
    phases: tuple[AppPhase, ...]
    default_iters: int
    comm: CommSpec = field(default_factory=CommSpec)
    residual_sigma_dyn: float = 0.015
    residual_sigma_dram: float = 0.015

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError("a PhasedApp needs at least one phase")
        if self.default_iters <= 0:
            raise ConfigurationError("default_iters must be positive")
        names = [p.name for p in self.phases]
        if len(set(names)) != len(names):
            raise ConfigurationError("phase names must be unique")
        # Phase boundaries need mid-run rate switches, which only the BSP
        # machine supports — non-BSP comm kinds cannot be phase-structured.
        if self.comm.kind not in ("none", "neighbor", "allreduce"):
            raise ConfigurationError(
                f"PhasedApp requires a BSP-expressible comm kind, "
                f"not {self.comm.kind!r}"
            )

    @property
    def iter_seconds_fmax(self) -> float:
        """Per-iteration time at fmax (sum of phases)."""
        return sum(p.seconds_fmax for p in self.phases)

    def phase_weights(self) -> np.ndarray:
        """Fraction of iteration time spent in each phase (at fmax)."""
        secs = np.array([p.seconds_fmax for p in self.phases])
        return secs / secs.sum()

    def aggregate_signature(self) -> PowerSignature:
        """Time-weighted average power signature (the static planner's view)."""
        w = self.phase_weights()
        return PowerSignature(
            cpu_activity=float(sum(wi * p.signature.cpu_activity for wi, p in zip(w, self.phases))),
            dram_activity=float(sum(wi * p.signature.dram_activity for wi, p in zip(w, self.phases))),
            dram_freq_coupling=float(
                sum(wi * p.signature.dram_freq_coupling for wi, p in zip(w, self.phases))
            ),
        )

    def phase_model(self, phase: AppPhase) -> AppModel:
        """A standalone AppModel for one phase (used for calibration)."""
        return AppModel(
            name=f"{self.name}/{phase.name}",
            signature=phase.signature,
            cpu_bound_fraction=phase.cpu_bound_fraction,
            iter_seconds_fmax=phase.seconds_fmax,
            default_iters=self.default_iters,
            comm=CommSpec(kind="none"),
            residual_sigma_dyn=self.residual_sigma_dyn,
            residual_sigma_dram=self.residual_sigma_dram,
        )

    def as_static_app(self) -> AppModel:
        """The whole app flattened to one aggregate AppModel.

        This is what a phase-blind planner (the paper's static scheme)
        budgets for: one signature, one κ.
        """
        w = self.phase_weights()
        kappa = float(sum(wi * p.cpu_bound_fraction for wi, p in zip(w, self.phases)))
        return AppModel(
            name=self.name,
            signature=self.aggregate_signature(),
            cpu_bound_fraction=kappa,
            iter_seconds_fmax=self.iter_seconds_fmax,
            default_iters=self.default_iters,
            comm=self.comm,
            residual_sigma_dyn=self.residual_sigma_dyn,
            residual_sigma_dram=self.residual_sigma_dram,
        )

    def run(
        self,
        rates_per_phase: np.ndarray,
        fmax_ghz: float,
        *,
        n_iters: int | None = None,
        latency_s: float = 5e-6,
        bandwidth_gbps: float = 5.0,
    ) -> RankTrace:
        """Simulate with per-phase per-rank rates.

        ``rates_per_phase`` has shape ``(n_phases, n_ranks)`` — a
        phase-aware power manager switches the operating point at phase
        boundaries, so each phase may run at its own frequency.
        """
        iters = self.default_iters if n_iters is None else int(n_iters)
        if iters <= 0:
            raise ConfigurationError("n_iters must be positive")
        rates = np.asarray(rates_per_phase, dtype=float)
        if rates.ndim != 2 or rates.shape[0] != len(self.phases):
            raise ConfigurationError(
                f"rates_per_phase must have shape (n_phases={len(self.phases)}, "
                f"n_ranks); got {rates.shape}"
            )
        if np.any(~np.isfinite(rates)) or np.any(rates <= 0):
            raise SimulationError("rates must be finite and positive")
        n_ranks = rates.shape[1]
        machine = BatchedBspMachine(
            rates[:1], latency_s=latency_s, bandwidth_gbps=bandwidth_gbps
        )
        # Per-phase local time is the same every iteration: (CPU work at
        # the phase's rates, frequency-insensitive seconds or None).
        steps = []
        for phase, phase_rates in zip(self.phases, rates):
            kappa = phase.cpu_bound_fraction
            steps.append((
                kappa * phase.seconds_fmax * fmax_ghz / phase_rates,
                (1.0 - kappa) * phase.seconds_fmax if kappa < 1.0 else None,
            ))
        torus = self.comm.torus(n_ranks)
        for _ in range(iters):
            for compute_dt, fixed_s in steps:
                machine.advance_local(compute_dt)
                if fixed_s is not None:
                    machine.advance_local(fixed_s)
            if self.comm.kind == "neighbor":
                machine.sendrecv(torus, self.comm.message_bytes)
            elif self.comm.kind == "allreduce":
                machine.allreduce(max(self.comm.message_bytes, 8.0))
        return machine.traces()[0]


#: A Krylov-solver-like example: a compute-heavy kernel phase, a
#: bandwidth-saturated sparse phase, and a light orthogonalisation
#: phase, with a per-iteration reduction.
GMRES_LIKE = PhasedApp(
    name="gmres-like",
    phases=(
        AppPhase(
            "spmv",
            seconds_fmax=0.35,
            cpu_bound_fraction=0.45,
            signature=PowerSignature(0.55, 0.85, dram_freq_coupling=0.35),
        ),
        AppPhase(
            "kernel",
            seconds_fmax=0.40,
            cpu_bound_fraction=0.95,
            signature=PowerSignature(0.92, 0.20, dram_freq_coupling=1.0),
        ),
        AppPhase(
            "ortho",
            seconds_fmax=0.15,
            cpu_bound_fraction=0.75,
            signature=PowerSignature(0.70, 0.35, dram_freq_coupling=0.8),
        ),
    ),
    default_iters=120,
    comm=CommSpec(kind="allreduce", message_bytes=4096),
)
