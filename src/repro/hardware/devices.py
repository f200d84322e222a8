"""Device types: the unit of heterogeneity in a mixed fleet.

The paper's study is CPU-only, so a single :class:`Microarchitecture`
implicitly *was* the device model: one Vp distribution, one frequency
ladder, one linear P(f) family, one cap mechanism.  A heterogeneous
fleet breaks that identification.  :class:`DeviceType` makes it
explicit — a named bundle of (variability distribution, frequency
ladder with its fmin/fmax, Pmax/Pmin power-model family, cap
mechanism) — and :class:`DeviceMap` assigns one to every slot of a
:class:`~repro.hardware.module.ModuleArray` via a compact per-module
index into a small tuple of types.

Everything above ``hardware/`` stays device-agnostic: the α-solve and
the schemes operate purely in the power domain (floors, spans, per-type
PVT/PMT columns) and only map α back to a frequency through each
type's own ladder at actuation time.  No module below this file may
branch on a concrete device *name* — that contract is invariant 10 in
``docs/ARCHITECTURE.md`` and is enforced by ``scripts/check_layering.py``.

Calibration of the built-in GPU type follows the Wisconsin study
("Not All GPUs Are Created Equal", Sinha et al., 2022): ~25 % spread in
per-GPU power draw at a fixed workload and up to ~1.5x performance
spread under power caps, with performance and power positively
correlated (unlike Intel's frequency-binned CPUs, GPUs are not binned
to homogeneous performance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.dvfs import FrequencyLadder
from repro.hardware.microarch import (
    IVY_BRIDGE_E5_2697V2,
    Microarchitecture,
    register_microarch,
)
from repro.hardware.variability import VariationModel
from repro.util.indexing import (
    Selection,
    _trusted_view,
    as_contiguous_slice,
    checked_indices,
    checked_slice,
)

__all__ = [
    "DeviceType",
    "DeviceMap",
    "register_device_type",
    "get_device_type",
    "list_device_types",
    "CPU_IVY_BRIDGE",
    "GPU_V100_SXM2",
]

#: Cap mechanisms a device type may declare.  "rapl" = Intel RAPL MSRs,
#: "nvml" = NVIDIA power-limit API, "none" = no enforcement (schemes that
#: cap must refuse the fleet, mirroring ``supports_capping`` on CPUs).
CAP_MECHANISMS = ("rapl", "nvml", "none")


@dataclass(frozen=True)
class DeviceType:
    """One kind of device a fleet slot can hold.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"cpu-ivy-bridge-e5-2697v2"``.
    kind:
        Coarse family, ``"cpu"`` or ``"gpu"`` — descriptive only; no
        code below the experiment layer branches on it.
    arch:
        The :class:`Microarchitecture` carrying the type's frequency
        ladder (fmin/fmax), linear-power-model constants (the
        Pmax/Pmin family) and variability distribution.
    cap_mechanism:
        How caps are enforced on this device (``CAP_MECHANISMS``).
    naive_cpu_floor_w / naive_dram_floor_w:
        The Naïve scheme's assumed per-module power floor for this
        device class (the paper uses 40 W CPU / 10 W DRAM for Ivy
        Bridge; a GPU's floor sits elsewhere on its ladder).
    description:
        One-line human-readable provenance note.
    """

    name: str
    kind: str
    arch: Microarchitecture
    cap_mechanism: str = "rapl"
    naive_cpu_floor_w: float = 40.0
    naive_dram_floor_w: float = 10.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("cpu", "gpu"):
            raise ConfigurationError(f"unknown device kind {self.kind!r}")
        if self.cap_mechanism not in CAP_MECHANISMS:
            raise ConfigurationError(
                f"unknown cap mechanism {self.cap_mechanism!r}; "
                f"known: {', '.join(CAP_MECHANISMS)}"
            )

    @property
    def supports_capping(self) -> bool:
        """Whether this device can enforce power caps at all."""
        return self.cap_mechanism != "none" and self.arch.supports_capping


_REGISTRY: dict[str, DeviceType] = {}


def register_device_type(device: DeviceType, *, overwrite: bool = False) -> None:
    """Add ``device`` to the global registry.

    Raises :class:`ConfigurationError` if the name is taken and
    ``overwrite`` is false.
    """
    if device.name in _REGISTRY and not overwrite:
        raise ConfigurationError(f"device type {device.name!r} already registered")
    _REGISTRY[device.name] = device


def get_device_type(name: str) -> DeviceType:
    """Look up a registered device type by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown device type {name!r}; known: {known}"
        ) from None


def list_device_types() -> list[str]:
    """Names of all registered device types, sorted."""
    return sorted(_REGISTRY)


class DeviceMap:
    """Per-module device assignment: a small type table plus an index.

    The map is the only piece of per-module *type* state a mixed
    :class:`~repro.hardware.module.ModuleArray` carries: ``types`` is a
    tuple of distinct :class:`DeviceType` objects and ``index`` an
    ``(n_modules,)`` int8 array of positions into it.  Like every other
    fleet-shaped column it slices contiguity-aware — :meth:`take` on an
    ascending unit-stride index set returns a buffer-sharing view.
    """

    def __init__(self, types: tuple[DeviceType, ...], index: np.ndarray):
        if not types:
            raise ConfigurationError("DeviceMap needs at least one device type")
        idx = np.asarray(index, dtype=np.int8)
        if idx.ndim != 1:
            raise ConfigurationError("device index must be one-dimensional")
        if idx.size and (idx.min() < 0 or idx.max() >= len(types)):
            raise ConfigurationError(
                f"device indices must be in [0, {len(types)}); "
                f"got range [{idx.min()}, {idx.max()}]"
            )
        self.types = tuple(types)
        self.index = idx

    # -- introspection ------------------------------------------------------

    @property
    def n_modules(self) -> int:
        """Number of modules covered by the map."""
        return int(self.index.shape[0])

    def __len__(self) -> int:
        return self.n_modules

    @property
    def is_single_type(self) -> bool:
        """True when every module is the same device type."""
        if len(self.types) == 1:
            return True
        return bool((self.index == self.index[0]).all()) if self.index.size else True

    @property
    def primary(self) -> DeviceType:
        """The device type of module 0 (the calibration module)."""
        return self.types[int(self.index[0])] if self.index.size else self.types[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeviceMap):
            return NotImplemented
        return self.types == other.types and np.array_equal(self.index, other.index)

    @classmethod
    def uniform(cls, device_type: DeviceType, n_modules: int) -> "DeviceMap":
        """Every module the same type."""
        return cls((device_type,), np.zeros(n_modules, dtype=np.int8))

    # -- slicing (contiguity-aware, mirrors ModuleVariation) ----------------

    def _select(self, sel: Selection) -> "DeviceMap":
        return _trusted_view(self, sel, ("index",))

    def take(self, indices: np.ndarray | list[int]) -> "DeviceMap":
        """Map restricted to the given module indices (view when contiguous).

        The device index is not rescanned; a module index outside
        ``[0, n_modules)`` raises :class:`ConfigurationError`.
        """
        return self._select(checked_indices(indices, self.n_modules))

    def take_slice(self, start: int, stop: int) -> "DeviceMap":
        """Zero-copy view of the contiguous module range ``[start, stop)``.

        Only the range is checked; the device index is not rescanned.
        """
        return self._select(checked_slice(start, stop, self.n_modules))

    # -- per-type iteration and per-module parameter gather -----------------

    def groups(self):
        """Yield ``(type_position, device_type, selector)`` per present type.

        ``selector`` indexes the modules of that type: a :class:`slice`
        when they are contiguous (zero-copy downstream), else an index
        array.  Types absent from ``index`` are skipped; iteration is in
        type-table order, so results scattered back by selector are
        deterministic.
        """
        for pos, dt in enumerate(self.types):
            mask = self.index == pos
            if not mask.any():
                continue
            where = np.flatnonzero(mask)
            sl = as_contiguous_slice(where)
            yield pos, dt, (sl if sl is not None else where)

    def per_module(self, getter) -> np.ndarray:
        """Gather ``getter(device_type)`` into an ``(n_modules,)`` float array."""
        table = np.asarray([float(getter(dt)) for dt in self.types])
        return table[self.index]

    def fmax_by_module(self) -> np.ndarray:
        """Per-module top-of-ladder frequency (GHz)."""
        return self.per_module(lambda dt: dt.arch.fmax)

    def fmin_by_module(self) -> np.ndarray:
        """Per-module bottom-of-ladder frequency (GHz)."""
        return self.per_module(lambda dt: dt.arch.fmin)


# ---------------------------------------------------------------------------
# Built-in device types.
# ---------------------------------------------------------------------------

#: NVIDIA V100 SXM2 as a power-managed module.  The linear P(f) family is
#: reused unchanged — GPU power is likewise close to linear in SM clock
#: over the sustainable range — with constants placing the 300 W TDP at
#: the top of the 0.54–1.38 GHz SM-clock ladder.  Variability follows the
#: Wisconsin study: ~25 % fleet-wide power spread (σ_leak + σ_dyn below
#: reproduce it at 3.5σ clipping) and, because GPUs are not performance
#: binned, a real σ_perf with positive power–performance correlation that
#: widens to ~1.5x performance spread once a cap binds.
GPU_V100_MICROARCH = Microarchitecture(
    name="gpu-v100-sxm2",
    vendor="NVIDIA",
    model="Tesla V100 SXM2",
    ladder=FrequencyLadder(fmin=0.54, fmax=1.38, step=0.06),
    cores_per_proc=80,
    tdp_w=300.0,
    dram_tdp_w=50.0,
    cpu_static_w=45.0,
    cpu_dynamic_w=210.0,
    dram_static_w=8.0,
    dram_dynamic_w=45.0,
    variation=VariationModel(
        sigma_leak=0.10,
        sigma_dyn=0.05,
        sigma_dram=0.12,
        sigma_perf=0.06,
        rho_perf_power=0.5,
    ),
    perf_binned=False,
    turbo_ghz=0.0,
)

register_microarch(GPU_V100_MICROARCH)

#: The paper's Ivy Bridge (HA8K) part, wrapped as the canonical CPU device.
CPU_IVY_BRIDGE = DeviceType(
    name="cpu-ivy-bridge-e5-2697v2",
    kind="cpu",
    arch=IVY_BRIDGE_E5_2697V2,
    cap_mechanism="rapl",
    naive_cpu_floor_w=40.0,
    naive_dram_floor_w=10.0,
    description="paper-calibrated Ivy Bridge E5-2697v2 (HA8K, Table 2)",
)

#: The GPU device built on the V100 microarchitecture above.
GPU_V100_SXM2 = DeviceType(
    name="gpu-v100-sxm2",
    kind="gpu",
    arch=GPU_V100_MICROARCH,
    cap_mechanism="nvml",
    naive_cpu_floor_w=60.0,
    naive_dram_floor_w=8.0,
    description="V100 SXM2 calibrated from the Wisconsin GPU-variability study",
)

for _dt in (CPU_IVY_BRIDGE, GPU_V100_SXM2):
    register_device_type(_dt)
