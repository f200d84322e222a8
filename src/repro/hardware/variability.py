"""Manufacturing-variability model.

Section 2.1 of the paper attributes power variation across identically
specified processors to the fabrication process: threshold-voltage spread
from lithographic distortion and dopant variation manifests mostly as
*leakage* (static-power) differences, with a smaller spread in switching
(dynamic) power, and an independent, larger spread across DRAM chips.

We model each module *i* with four multiplicative factors, all with mean
≈ 1:

* ``leak[i]``  — die-to-die leakage factor, multiplies the static CPU term;
* ``dyn[i]``   — dynamic-power factor, multiplies the frequency-dependent
  CPU term;
* ``dram[i]``  — DRAM power factor (the paper measures DRAM Vp ≈ 2.8 on
  HA8K, far larger than the CPU spread);
* ``perf[i]``  — performance factor (work rate at a given frequency).
  1.0 for frequency-binned vendors (Intel, IBM — Fig 1A/1B show no
  performance variation); spread out on the Teller Piledriver parts,
  *positively correlated* with dynamic power so that faster parts draw
  more power (the paper's "small negative correlation between
  [slowdown] and power").

Factors are drawn as ``exp(clip(N(0, σ), ±clip_sigmas·σ))`` — lognormal
with clipped tails so a single pathological draw cannot dominate the
worst-case Vp statistic.  Optionally a fraction of the leakage variance
is shared among sockets of the same node (within-node correlation from a
shared voltage regulator / thermal environment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.util.indexing import (
    Selection,
    _trusted_view,
    checked_indices,
    checked_slice,
)

__all__ = ["VariationModel", "ModuleVariation", "sample_variation"]

#: The per-module factor columns a view selects.
_FACTORS = ("leak", "dyn", "dram", "perf")


@dataclass(frozen=True)
class VariationModel:
    """Distribution parameters for manufacturing variation.

    ``sigma_*`` are log-space standard deviations; ``clip_sigmas`` bounds
    each draw to ±``clip_sigmas``·σ before exponentiation.
    ``rho_perf_power`` correlates the performance factor with the dynamic
    power factor (Teller); ``node_leak_share`` puts that fraction of the
    leakage variance into a per-node common component.
    """

    sigma_leak: float
    sigma_dyn: float
    sigma_dram: float
    sigma_perf: float = 0.0
    rho_perf_power: float = 0.0
    node_leak_share: float = 0.0
    clip_sigmas: float = 3.5

    def __post_init__(self) -> None:
        for attr in ("sigma_leak", "sigma_dyn", "sigma_dram", "sigma_perf"):
            if getattr(self, attr) < 0:
                raise ConfigurationError(f"{attr} must be non-negative")
        if not (-1.0 <= self.rho_perf_power <= 1.0):
            raise ConfigurationError("rho_perf_power must be in [-1, 1]")
        if not (0.0 <= self.node_leak_share <= 1.0):
            raise ConfigurationError("node_leak_share must be in [0, 1]")
        if self.clip_sigmas <= 0:
            raise ConfigurationError("clip_sigmas must be positive")


@dataclass(frozen=True)
class ModuleVariation:
    """Sampled per-module variation factors (ground truth of the simulator).

    Arrays all have shape ``(n_modules,)``.  This object is what a real
    system keeps hidden: schemes may only learn it through measurement
    (the PVT) or oracle access (the *Or* scheme variants).
    """

    leak: np.ndarray
    dyn: np.ndarray
    dram: np.ndarray
    perf: np.ndarray

    def __post_init__(self) -> None:
        n = self.leak.shape[0]
        for name in ("dyn", "dram", "perf"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ConfigurationError(
                    f"variation array {name!r} has shape {arr.shape}, expected ({n},)"
                )
        for name in _FACTORS:
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
                raise ConfigurationError(
                    f"variation array {name!r} must be finite and positive"
                )

    @property
    def n_modules(self) -> int:
        """Number of modules covered by these factors."""
        return int(self.leak.shape[0])

    def _select(self, sel: Selection) -> "ModuleVariation":
        return _trusted_view(self, sel, _FACTORS)

    def take(self, indices: np.ndarray | list[int]) -> "ModuleVariation":
        """Variation factors restricted to a subset of module indices.

        Contiguous ascending index sets (the common case: scheduler
        first-fit allocations, single-module views) are routed through
        the :meth:`take_slice` path and cost nothing — the returned
        object shares the parent's buffers.  Scattered index sets fall
        back to a fancy-index copy.  Neither re-validates the factors;
        an index outside ``[0, n_modules)`` raises
        :class:`~repro.errors.ConfigurationError`.
        """
        return self._select(checked_indices(indices, self.n_modules))

    def take_slice(self, start: int, stop: int) -> "ModuleVariation":
        """Contiguous range ``[start, stop)`` of modules, as *views*.

        Unlike :meth:`take` on scattered indices (fancy indexing, which
        copies), slicing shares the underlying buffers and re-runs no
        validation — this is what lets fleet-scale code walk a
        200k-module array chunk by chunk without duplicating it.
        """
        return self._select(checked_slice(start, stop, self.n_modules))


def _lognormal(rng: np.random.Generator, sigma: float, n: int, clip: float) -> np.ndarray:
    if sigma == 0.0:
        return np.ones(n)
    z = rng.standard_normal(n)
    z = np.clip(z, -clip, clip)
    return np.exp(sigma * z)


def sample_variation(
    model: VariationModel,
    n_modules: int,
    rng: np.random.Generator,
    *,
    procs_per_node: int = 1,
) -> ModuleVariation:
    """Draw per-module variation factors from ``model``.

    Parameters
    ----------
    model:
        Distribution parameters (usually ``arch.variation``).
    n_modules:
        Number of modules (processor + DRAM pairs) in the system.
    rng:
        Generator; obtain from :class:`repro.util.RngFactory` for
        reproducibility.
    procs_per_node:
        When >1 and ``model.node_leak_share`` >0, sockets on the same
        node share part of their leakage draw.
    """
    if n_modules <= 0:
        raise ConfigurationError("n_modules must be positive")
    if procs_per_node <= 0:
        raise ConfigurationError("procs_per_node must be positive")
    clip = model.clip_sigmas

    if model.node_leak_share > 0.0 and procs_per_node > 1:
        n_nodes = -(-n_modules // procs_per_node)  # ceil division
        shared = np.clip(rng.standard_normal(n_nodes), -clip, clip)
        shared = np.repeat(shared, procs_per_node)[:n_modules]
        own = np.clip(rng.standard_normal(n_modules), -clip, clip)
        w = model.node_leak_share
        z = np.sqrt(w) * shared + np.sqrt(1.0 - w) * own
        leak = np.exp(model.sigma_leak * z)
    else:
        leak = _lognormal(rng, model.sigma_leak, n_modules, clip)

    z_dyn = np.clip(rng.standard_normal(n_modules), -clip, clip)
    dyn = np.exp(model.sigma_dyn * z_dyn)
    dram = _lognormal(rng, model.sigma_dram, n_modules, clip)

    if model.sigma_perf == 0.0:
        perf = np.ones(n_modules)
    else:
        # Correlate the performance factor with the dynamic-power draw:
        # perf = exp(σ_perf · (ρ·z_dyn + sqrt(1-ρ²)·z_indep)).
        rho = model.rho_perf_power
        z_ind = np.clip(rng.standard_normal(n_modules), -clip, clip)
        z_perf = rho * z_dyn + np.sqrt(max(0.0, 1.0 - rho * rho)) * z_ind
        perf = np.exp(model.sigma_perf * z_perf)

    return ModuleVariation(leak=leak, dyn=dyn, dram=dram, perf=perf)
