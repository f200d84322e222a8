"""The paper's linear power model — Equations (1) through (4).

Both CPU and DRAM power are assumed (and in Fig 5, validated with
R² ≥ 0.99) to be linear in CPU frequency.  With the two endpoint
measurements ``P_max`` (at fmax) and ``P_min`` (at fmin), the model for a
control coefficient α ∈ [0, 1] is::

    f       = α (fmax − fmin) + fmin                     (1)
    P_cpu   = α (P_cpu_max  − P_cpu_min)  + P_cpu_min    (2)
    P_dram  = α (P_dram_max − P_dram_min) + P_dram_min   (3)
    P_module = P_cpu + P_dram                            (4)

α is the single knob trading power for performance, shared by every
module so all modules run the same frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.devices import DeviceMap
from repro.util.indexing import (
    Selection,
    _trusted_view,
    checked_indices,
    checked_ranges,
    checked_slice,
)

__all__ = ["LinearPowerModel"]

#: The per-module endpoint columns a view selects.
_COLUMNS = ("p_cpu_max", "p_cpu_min", "p_dram_max", "p_dram_min")


@dataclass(frozen=True)
class LinearPowerModel:
    """Per-module endpoint powers, vectorised over modules.

    All four arrays have shape ``(n_modules,)`` (scalars broadcast).
    ``fmin``/``fmax`` are the architecture's frequency range in GHz — the
    *primary* device's range on a heterogeneous fleet, whose per-module
    ladders come from ``device_map``.  The α arithmetic below is purely
    power-domain and therefore device-agnostic: only the α→frequency
    mapping (:meth:`freq_at` / :meth:`freqs_at`) touches a ladder.
    """

    fmin: float
    fmax: float
    p_cpu_max: np.ndarray
    p_cpu_min: np.ndarray
    p_dram_max: np.ndarray
    p_dram_min: np.ndarray
    device_map: DeviceMap | None = None

    def __post_init__(self) -> None:
        if self.fmin > self.fmax:
            raise ConfigurationError("fmin must not exceed fmax")
        arrs = {
            name: np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            for name in _COLUMNS
        }
        n = max(a.shape[0] for a in arrs.values())
        for name, a in arrs.items():
            if a.shape[0] == 1 and n > 1:
                a = np.full(n, a[0])
            if a.shape != (n,):
                raise ConfigurationError(
                    f"{name} has shape {a.shape}, expected ({n},)"
                )
            if np.any(a < 0) or not np.all(np.isfinite(a)):
                raise ConfigurationError(f"{name} must be finite and non-negative")
            object.__setattr__(self, name, a)
        if np.any(self.p_cpu_max < self.p_cpu_min) or np.any(
            self.p_dram_max < self.p_dram_min
        ):
            raise ConfigurationError(
                "endpoint powers must satisfy P_max >= P_min per component"
            )
        if (
            self.device_map is not None
            and self.device_map.n_modules != self.p_cpu_max.shape[0]
        ):
            raise ConfigurationError(
                f"device_map covers {self.device_map.n_modules} modules, "
                f"model covers {self.p_cpu_max.shape[0]}"
            )

    @property
    def n_modules(self) -> int:
        """Number of modules the model covers."""
        return int(self.p_cpu_max.shape[0])

    # -- partitioning (array-first: jobs are index ranges, not lists) ------------

    def _select(self, sel: Selection) -> "LinearPowerModel":
        """Trusted view: the parent's validated columns, selected."""
        dm = None if self.device_map is None else self.device_map._select(sel)
        return _trusted_view(self, sel, _COLUMNS, device_map=dm)

    def take_slice(self, start: int, stop: int) -> "LinearPowerModel":
        """Zero-copy model over the contiguous module range ``[start, stop)``.

        The endpoint columns are numpy slices sharing the parent's
        buffers and the view re-runs none of the constructor's column
        scans, so partitioning a fleet-sized model across jobs costs
        O(1) per job.  A range outside ``[0, n_modules]`` raises
        :class:`~repro.errors.ConfigurationError`.
        """
        return self._select(checked_slice(start, stop, self.n_modules))

    def take(self, indices: np.ndarray | list[int]) -> "LinearPowerModel":
        """Model restricted to the given module indices.

        Contiguous ascending index sets come back as zero-copy
        :meth:`take_slice` views; scattered sets are copied.  Either way
        the parent's validation is trusted, not repeated.  An index
        outside ``[0, n_modules)`` — negative ones included — raises
        :class:`~repro.errors.ConfigurationError`.
        """
        return self._select(checked_indices(indices, self.n_modules))

    def take_ranges(self, ranges) -> "LinearPowerModel":
        """Model over the concatenated module ranges ``[(start, stop), ...]``.

        Adjacent ranges coalesce; a single remaining range is a
        zero-copy :meth:`take_slice` view, several are one
        ``np.concatenate`` of range slices per column (and of the device
        index on a mixed fleet).  The modules, and their order, are
        those of :meth:`take` over the concatenated ranges, but no index
        array is built.  A range outside ``[0, n_modules]`` raises
        :class:`~repro.errors.ConfigurationError`.
        """
        return self._select(checked_ranges(ranges, self.n_modules))

    # -- Equations (1)-(4) -------------------------------------------------------

    def freq_at(self, alpha: float) -> float:
        """Eq (1): the common frequency realised by coefficient α."""
        return float(alpha * (self.fmax - self.fmin) + self.fmin)

    def alpha_for_freq(self, freq_ghz: float) -> float:
        """Inverse of Eq (1)."""
        span = self.fmax - self.fmin
        if span == 0.0:
            return 1.0
        return (float(freq_ghz) - self.fmin) / span

    def freqs_at(self, alpha: float) -> np.ndarray:
        """Eq (1) per module: α mapped through each module's own ladder.

        On a uniform fleet this is ``full(n, freq_at(alpha))``; on a
        mixed fleet each device type realises the shared α on its own
        frequency range — same power-domain knob, device-local clocks.
        """
        if self.device_map is None:
            return np.full(self.n_modules, self.freq_at(alpha))
        fmin = self.device_map.fmin_by_module()
        fmax = self.device_map.fmax_by_module()
        return alpha * (fmax - fmin) + fmin

    def cpu_power_at(self, alpha: float) -> np.ndarray:
        """Eq (2): predicted per-module CPU power at α."""
        return alpha * (self.p_cpu_max - self.p_cpu_min) + self.p_cpu_min

    def dram_power_at(self, alpha: float) -> np.ndarray:
        """Eq (3): predicted per-module DRAM power at α."""
        return alpha * (self.p_dram_max - self.p_dram_min) + self.p_dram_min

    def module_power_at(self, alpha: float) -> np.ndarray:
        """Eq (4): predicted per-module total power at α."""
        return self.cpu_power_at(alpha) + self.dram_power_at(alpha)

    # -- aggregates used by the α-solve ----------------------------------------

    def total_min_w(self) -> float:
        """System power floor: Σᵢ P_module_min,i."""
        return float((self.p_cpu_min + self.p_dram_min).sum())

    def total_max_w(self) -> float:
        """System power ceiling: Σᵢ P_module_max,i."""
        return float((self.p_cpu_max + self.p_dram_max).sum())

    def total_span_w(self) -> float:
        """Σᵢ (P_module_max,i − P_module_min,i) — Eq (6)'s denominator."""
        return self.total_max_w() - self.total_min_w()

    def floor_and_span_w(
        self, *, chunk_modules: int | None = None
    ) -> tuple[float, float]:
        """The Eq (5)/(6) aggregates ``(Σ P_min, Σ (P_max − P_min))``.

        ``chunk_modules=None`` is the fused whole-fleet reduction.  An
        integer blocks the sums: chunk partial sums are accumulated and
        reduced at the end, so the result differs from the fused pass
        only by floating-point association.  This is the single
        aggregation routine behind
        :func:`repro.core.budget.solve_alpha_batched` at every scale.
        """
        if chunk_modules is None:
            floor = self.total_min_w()
            return floor, self.total_max_w() - floor
        if chunk_modules <= 0:
            raise ConfigurationError("chunk_modules must be positive")
        n = self.n_modules
        min_parts: list[float] = []
        max_parts: list[float] = []
        for lo in range(0, n, chunk_modules):
            hi = min(lo + chunk_modules, n)
            min_parts.append(
                float(self.p_cpu_min[lo:hi].sum() + self.p_dram_min[lo:hi].sum())
            )
            max_parts.append(
                float(self.p_cpu_max[lo:hi].sum() + self.p_dram_max[lo:hi].sum())
            )
        floor = float(np.sum(min_parts))
        return floor, float(np.sum(max_parts)) - floor

    def allocations_at_batch(
        self, alphas: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq (2)/(3) for a whole *batch* of coefficients at once.

        ``alphas`` has shape ``(n_configs,)``; the result arrays have
        shape ``(n_configs, n_modules)``.  Each row is elementwise
        :meth:`cpu_power_at` / :meth:`dram_power_at` at that row's α —
        the broadcast performs the same scalar multiply-add per
        element, so batching changes memory layout, not arithmetic.
        """
        a = np.asarray(alphas, dtype=float)[:, None]
        pcpu = a * (self.p_cpu_max - self.p_cpu_min) + self.p_cpu_min
        pdram = a * (self.p_dram_max - self.p_dram_min) + self.p_dram_min
        return pcpu, pdram
