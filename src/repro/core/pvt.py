"""The Power Variation Table (paper Section 5.2, Fig 6 left).

The PVT is the application-*independent* description of a system's
manufacturing variability: for every module, four variation scales —
CPU and DRAM power at fmax and fmin, each divided by the system-wide
average.  "The PVT is generated when the system is installed by
executing representative microbenchmarks on each module" — the paper
uses *STREAM because it exercises CPU and DRAM simultaneously.

The four separate columns matter: leakage is frequency-independent, so a
leaky module's scale is larger at fmin than fmax (Fig 6's module-k: 1.2
at max vs 1.4 at min).  A single scalar scale could not capture that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.apps.base import AppModel
from repro.apps.stream import STREAM
from repro.cluster.system import System
from repro.errors import ConfigurationError
from repro.hardware.module import OperatingPoint
from repro.measurement.rapl import RaplMeter
from repro.util.indexing import (
    Selection,
    _trusted_view,
    checked_indices,
    checked_slice,
)

__all__ = ["PowerVariationTable", "generate_pvt"]

#: The per-module scale columns a view selects.
_SCALES = ("scale_cpu_max", "scale_cpu_min", "scale_dram_max", "scale_dram_min")


@dataclass(frozen=True)
class PowerVariationTable:
    """Per-module variation scales (mean ≈ 1 per column by construction)."""

    system_name: str
    microbenchmark: str
    scale_cpu_max: np.ndarray
    scale_cpu_min: np.ndarray
    scale_dram_max: np.ndarray
    scale_dram_min: np.ndarray

    def __post_init__(self) -> None:
        n = self.scale_cpu_max.shape[0]
        for name in ("scale_cpu_min", "scale_dram_max", "scale_dram_min"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ConfigurationError(
                    f"PVT column {name!r} has shape {arr.shape}, expected ({n},)"
                )
        for name in _SCALES:
            arr = getattr(self, name)
            if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"PVT column {name!r} must be positive")

    @property
    def n_modules(self) -> int:
        """Number of modules the table covers."""
        return int(self.scale_cpu_max.shape[0])

    def _select(self, sel: Selection) -> "PowerVariationTable":
        return _trusted_view(self, sel, _SCALES)

    def take(self, indices: np.ndarray | list[int]) -> "PowerVariationTable":
        """PVT restricted to a job's module allocation.

        Contiguous ascending allocations (the scheduler's first-fit
        default) come back as zero-copy :meth:`take_slice` views;
        scattered allocations are fancy-index copies.  The scales are
        not re-validated; an index outside ``[0, n_modules)`` raises
        :class:`~repro.errors.ConfigurationError`.
        """
        return self._select(checked_indices(indices, self.n_modules))

    def take_slice(self, start: int, stop: int) -> "PowerVariationTable":
        """Zero-copy PVT view of the contiguous module range ``[start, stop)``.

        The four scale columns are numpy slices sharing the parent's
        buffers and are not re-validated — partitioning a fleet PVT
        across jobs allocates nothing.
        """
        return self._select(checked_slice(start, stop, self.n_modules))

    # -- persistence (the PVT is generated once at install time) -----------------

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "system_name": self.system_name,
            "microbenchmark": self.microbenchmark,
            "scale_cpu_max": self.scale_cpu_max.tolist(),
            "scale_cpu_min": self.scale_cpu_min.tolist(),
            "scale_dram_max": self.scale_dram_max.tolist(),
            "scale_dram_min": self.scale_dram_min.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PowerVariationTable":
        """Inverse of :meth:`to_dict`."""
        return cls(
            system_name=data["system_name"],
            microbenchmark=data["microbenchmark"],
            scale_cpu_max=np.asarray(data["scale_cpu_max"], dtype=float),
            scale_cpu_min=np.asarray(data["scale_cpu_min"], dtype=float),
            scale_dram_max=np.asarray(data["scale_dram_max"], dtype=float),
            scale_dram_min=np.asarray(data["scale_dram_min"], dtype=float),
        )

    def save(self, path: str | Path) -> None:
        """Write the table as JSON."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "PowerVariationTable":
        """Read a table written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def generate_pvt(
    system: System,
    microbenchmark: AppModel = STREAM,
    *,
    noisy: bool = True,
    duration_s: float = 1.0,
) -> PowerVariationTable:
    """Build the system's PVT by running a microbenchmark on every module.

    Measures CPU and DRAM power at fmax and fmin on each module via RAPL
    and normalises each column by its mean.  This is the once-per-system
    install-time step; it costs nothing at budgeting time.
    """
    truth = microbenchmark.specialize(
        system.modules, system.rng.rng(f"app-residual/{microbenchmark.name}")
    )
    rng = system.rng.rng(f"pvt/{microbenchmark.name}") if noisy else None
    meter = RaplMeter(truth, rng=rng)
    arch = system.arch
    n = system.n_modules
    mixed = truth.is_mixed

    columns: dict[str, np.ndarray] = {}
    for label, freq in (("max", arch.fmax), ("min", arch.fmin)):
        if mixed:
            # Each device type is characterised at its *own* ladder
            # endpoints — a GPU's "fmax column" is measured at the GPU
            # fmax, not the primary CPU's.
            freqs = (
                truth.fmax_by_module() if label == "max" else truth.fmin_by_module()
            )
            op = OperatingPoint(
                freq_ghz=freqs,
                duty=np.ones(n),
                signature=microbenchmark.signature,
            )
        else:
            op = OperatingPoint.uniform(n, freq, microbenchmark.signature)
        reading = meter.read(op, duration_s=duration_s)
        columns[f"cpu_{label}"] = reading.cpu_w
        columns[f"dram_{label}"] = reading.dram_w

    def normalise(col: np.ndarray) -> np.ndarray:
        if not mixed:
            return col / col.mean()
        # Scales are relative to the *type* average: a 300 W GPU next to
        # a 100 W CPU is not "3x variation", it is a different device.
        out = np.empty(n)
        for _pos, _dt, sel in truth.device_map.groups():
            out[sel] = col[sel] / col[sel].mean()
        return out

    return PowerVariationTable(
        system_name=system.name,
        microbenchmark=microbenchmark.name,
        scale_cpu_max=normalise(columns["cpu_max"]),
        scale_cpu_min=normalise(columns["cpu_min"]),
        scale_dram_max=normalise(columns["dram_max"]),
        scale_dram_min=normalise(columns["dram_min"]),
    )
