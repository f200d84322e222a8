"""Modules: a processor (CPU socket) plus its associated DRAM.

The paper's unit of power management is the *module* — one CPU socket and
the DRAM attached to it.  :class:`ModuleArray` is the vectorised ground
truth of the simulator: given per-module variation factors and an
application power signature it evaluates true power draw, inverts the
power model, and resolves what happens when a power cap is pushed below
the lowest P-state (clock modulation).

:class:`Module` is a thin scalar view for single-module workflows such as
the paper's two single-module test runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware import power_model as pm
from repro.hardware.devices import DeviceMap
from repro.hardware.microarch import Microarchitecture
from repro.hardware.power_model import PowerSignature
from repro.hardware.variability import ModuleVariation
from repro.util.indexing import checked_indices

__all__ = ["ModuleArray", "Module", "CapResolution", "OperatingPoint"]


@dataclass(frozen=True)
class CapResolution:
    """Outcome of enforcing per-module CPU power caps.

    Attributes
    ----------
    freq_ghz:
        Realised DVFS frequency per module (ladder-clamped; equals fmin
        for modules driven into clock modulation).
    duty:
        Clock-modulation duty cycle per module (1.0 when DVFS alone met
        the cap).
    effective_freq_ghz:
        Work rate expressed as an equivalent frequency:
        ``freq · duty**subfmin_exponent``.  The exponent models the
        super-linear performance collapse of modulation ("rapid
        degradation below 40 W", paper Section 6).
    cpu_power_w:
        Realised average CPU power per module.
    cap_met:
        Whether the realised power is within the requested cap (False
        only when the cap lies below the static floor + minimum duty).
    """

    freq_ghz: np.ndarray
    duty: np.ndarray
    effective_freq_ghz: np.ndarray
    cpu_power_w: np.ndarray
    cap_met: np.ndarray


@dataclass(frozen=True)
class OperatingPoint:
    """Complete dynamic state of a set of modules running one workload.

    Meters read power from an operating point; controllers produce one.

    Attributes
    ----------
    freq_ghz:
        DVFS frequency per module (GHz).
    duty:
        Clock-modulation duty cycle per module (1.0 = none).
    signature:
        Power signature of the workload being executed.
    """

    freq_ghz: np.ndarray
    duty: np.ndarray
    signature: PowerSignature

    def __post_init__(self) -> None:
        f = np.asarray(self.freq_ghz, dtype=float)
        d = np.asarray(self.duty, dtype=float)
        object.__setattr__(self, "freq_ghz", f)
        object.__setattr__(self, "duty", d)
        if f.shape != d.shape:
            raise ConfigurationError("freq_ghz and duty must have the same shape")
        if np.any(f <= 0):
            raise ConfigurationError("frequencies must be positive")
        if np.any((d <= 0) | (d > 1.0)):
            raise ConfigurationError("duty cycles must be in (0, 1]")

    @property
    def n_modules(self) -> int:
        """Number of modules covered by this operating point."""
        return int(self.freq_ghz.shape[0])

    @classmethod
    def uniform(
        cls, n_modules: int, freq_ghz: float, signature: PowerSignature
    ) -> "OperatingPoint":
        """Every module at the same frequency, no clock modulation."""
        return cls(
            freq_ghz=np.full(n_modules, float(freq_ghz)),
            duty=np.ones(n_modules),
            signature=signature,
        )

    @classmethod
    def from_cap_resolution(
        cls, res: "CapResolution", signature: PowerSignature
    ) -> "OperatingPoint":
        """Operating point realised by a resolved set of power caps."""
        return cls(freq_ghz=res.freq_ghz, duty=res.duty, signature=signature)

    def effective_freq_ghz(self, subfmin_exponent: float) -> np.ndarray:
        """Work rate as an equivalent frequency (duty penalty applied)."""
        return self.freq_ghz * np.power(self.duty, subfmin_exponent)


class ModuleArray:
    """All modules of a system, vectorised.

    Parameters
    ----------
    arch:
        The microarchitecture shared by every module (a heterogeneous
        fleet passes its *primary* type's arch here; per-module types
        come from ``device_map``).
    variation:
        Sampled manufacturing-variation factors (one entry per module).
    device_map:
        Optional per-module :class:`~repro.hardware.devices.DeviceMap`.
        ``None`` (the default, and every homogeneous fleet) keeps the
        array on the exact single-arch code paths it always had; a
        single-type map routes through the same paths using that type's
        arch; only a genuinely mixed map engages per-type group
        dispatch.
    """

    def __init__(
        self,
        arch: Microarchitecture,
        variation: ModuleVariation,
        device_map: DeviceMap | None = None,
    ):
        self.arch = arch
        self.variation = variation
        self.device_map = device_map
        if device_map is None:
            self._mixed = False
            self._eff_arch: Microarchitecture | None = arch
        else:
            if device_map.n_modules != variation.n_modules:
                raise ConfigurationError(
                    f"device_map covers {device_map.n_modules} modules, "
                    f"variation covers {variation.n_modules}"
                )
            if device_map.is_single_type:
                self._mixed = False
                self._eff_arch = device_map.primary.arch
            else:
                self._mixed = True
                self._eff_arch = None

    # -- basic introspection ------------------------------------------------

    @property
    def n_modules(self) -> int:
        """Number of modules in the array."""
        return self.variation.n_modules

    def __len__(self) -> int:
        return self.n_modules

    @property
    def is_mixed(self) -> bool:
        """True when the array spans more than one device type."""
        return self._mixed

    def take(self, indices: np.ndarray | list[int]) -> "ModuleArray":
        """A new array restricted to the given module indices.

        Contiguous ascending index sets are returned as zero-copy views
        (see :meth:`~repro.hardware.variability.ModuleVariation.take`);
        scattered sets are fancy-index copies.  The index set is checked
        and classified once for both the variation factors and the
        device map; only the mixed/single-type dispatch is recomputed.
        """
        sel = checked_indices(indices, self.n_modules)
        dm = None if self.device_map is None else self.device_map._select(sel)
        return ModuleArray(self.arch, self.variation._select(sel), dm)

    def take_slice(self, start: int, stop: int) -> "ModuleArray":
        """Zero-copy view of the contiguous module range ``[start, stop)``.

        The variation buffers are shared (numpy slices), so iterating a
        fleet-sized array in chunks costs no extra memory — the basis of
        the ``*_chunked`` evaluation methods.
        """
        dm = None if self.device_map is None else self.device_map.take_slice(start, stop)
        return ModuleArray(self.arch, self.variation.take_slice(start, stop), dm)

    def iter_chunks(self, chunk_modules: int):
        """Yield ``(start, stop, view)`` triples covering the array.

        ``view`` is the zero-copy :meth:`take_slice` of ``[start, stop)``;
        chunks are contiguous, ordered, and at most ``chunk_modules``
        long.
        """
        if chunk_modules <= 0:
            raise ConfigurationError("chunk_modules must be positive")
        for start in range(0, self.n_modules, chunk_modules):
            stop = min(start + chunk_modules, self.n_modules)
            yield start, stop, self.take_slice(start, stop)

    def module(self, index: int) -> "Module":
        """Zero-copy scalar view of one module (see :class:`Module`)."""
        return Module(self, index)

    # -- heterogeneity helpers ----------------------------------------------

    def fmax_by_module(self) -> np.ndarray:
        """Per-module top-of-ladder frequency (GHz)."""
        if self.device_map is not None:
            return self.device_map.fmax_by_module()
        return np.full(self.n_modules, self.arch.fmax)

    def fmin_by_module(self) -> np.ndarray:
        """Per-module bottom-of-ladder frequency (GHz)."""
        if self.device_map is not None:
            return self.device_map.fmin_by_module()
        return np.full(self.n_modules, self.arch.fmin)

    def device_arch(self, index: int) -> Microarchitecture:
        """The microarchitecture governing module ``index``."""
        if self.device_map is None:
            return self.arch
        return self.device_map.types[int(self.device_map.index[index])].arch

    def _scatter_groups(self, fn, arg: np.ndarray | float) -> np.ndarray:
        """Evaluate ``fn(group_view, group_arg)`` per device-type group.

        Each group is evaluated as a plain single-arch :class:`ModuleArray`
        over that type's own arch — the *same* vectorised body a uniform
        fleet of the type would run — and scattered back into one
        ``(n_modules,)`` result.  Contiguous groups ride zero-copy
        variation slices.
        """
        a = np.asarray(arg, dtype=float)
        out = np.empty(self.n_modules)
        for _pos, dt, sel in self.device_map.groups():
            if isinstance(sel, slice):
                var = self.variation.take_slice(sel.start, sel.stop)
            else:
                var = self.variation.take(sel)
            view = ModuleArray(dt.arch, var)
            out[sel] = fn(view, a if a.ndim == 0 else a[sel])
        return out

    # -- true power draw ----------------------------------------------------

    def cpu_power(
        self, freq_ghz: np.ndarray | float, sig: PowerSignature
    ) -> np.ndarray:
        """True per-module CPU power (W) at the given frequency/frequencies."""
        if self._mixed:
            return self._scatter_groups(lambda v, f: v.cpu_power(f, sig), freq_ghz)
        return np.asarray(
            pm.cpu_power(
                freq_ghz,
                fmax=self._eff_arch.fmax,
                static_w=self._eff_arch.cpu_static_w,
                dynamic_w=self._eff_arch.cpu_dynamic_w,
                cpu_activity=sig.cpu_activity,
                leak=self.variation.leak,
                dyn=self.variation.dyn,
            )
        )

    def dram_power(
        self, freq_ghz: np.ndarray | float, sig: PowerSignature
    ) -> np.ndarray:
        """True per-module DRAM power (W) at the given frequency/frequencies."""
        if self._mixed:
            return self._scatter_groups(lambda v, f: v.dram_power(f, sig), freq_ghz)
        return np.asarray(
            pm.dram_power(
                freq_ghz,
                fmax=self._eff_arch.fmax,
                static_w=self._eff_arch.dram_static_w,
                dynamic_w=self._eff_arch.dram_dynamic_w,
                dram_activity=sig.dram_activity,
                dram_freq_coupling=sig.dram_freq_coupling,
                dram=self.variation.dram,
            )
        )

    def module_power(
        self, freq_ghz: np.ndarray | float, sig: PowerSignature
    ) -> np.ndarray:
        """True per-module (CPU + DRAM) power in watts."""
        return self.cpu_power(freq_ghz, sig) + self.dram_power(freq_ghz, sig)

    def static_cpu_power(self) -> np.ndarray:
        """Frequency-independent CPU power floor per module (W)."""
        if self._mixed:
            static_w = self.device_map.per_module(lambda dt: dt.arch.cpu_static_w)
            return self.variation.leak * static_w
        return self.variation.leak * self._eff_arch.cpu_static_w

    def module_power_chunked(
        self,
        freq_ghz: np.ndarray | float,
        sig: PowerSignature,
        *,
        chunk_modules: int = 65536,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`module_power` with O(``chunk_modules``) peak temporaries.

        The unchunked expression materialises several fleet-sized
        intermediates (leakage term, dynamic term, DRAM terms, their
        sums); at 200k modules that is tens of throwaway arrays per
        evaluation.  This variant walks the array in zero-copy slices
        and writes each chunk's result straight into ``out`` (allocated
        once if not supplied).  Bit-identical per element to
        :meth:`module_power` — chunking changes no arithmetic, only
        temporary lifetimes.
        """
        n = self.n_modules
        if out is None:
            out = np.empty(n)
        elif out.shape != (n,):
            raise ConfigurationError(
                f"out has shape {out.shape}, expected ({n},)"
            )
        f = np.asarray(freq_ghz, dtype=float)
        scalar_f = f.ndim == 0
        if not scalar_f and f.shape != (n,):
            raise ConfigurationError(
                f"freq_ghz has shape {f.shape}, expected () or ({n},)"
            )
        for start, stop, view in self.iter_chunks(chunk_modules):
            fc = f if scalar_f else f[start:stop]
            out[start:stop] = view.module_power(fc, sig)
        return out

    def total_module_power_w(
        self,
        freq_ghz: np.ndarray | float,
        sig: PowerSignature,
        *,
        chunk_modules: int = 65536,
    ) -> float:
        """Fleet-total power (W) at ``freq_ghz``, chunk-accumulated.

        Never materialises a full per-module power array: each chunk is
        reduced to a partial sum immediately, so peak memory is
        O(``chunk_modules``) even for a 200k-module fleet.
        """
        f = np.asarray(freq_ghz, dtype=float)
        scalar_f = f.ndim == 0
        if not scalar_f and f.shape != (self.n_modules,):
            raise ConfigurationError(
                f"freq_ghz has shape {f.shape}, expected () or ({self.n_modules},)"
            )
        parts: list[float] = []
        for start, stop, view in self.iter_chunks(chunk_modules):
            fc = f if scalar_f else f[start:stop]
            parts.append(float(view.module_power(fc, sig).sum()))
        return float(np.sum(parts))

    # -- power at an operating point (duty-aware) -----------------------------

    def cpu_power_at(self, op: OperatingPoint) -> np.ndarray:
        """True CPU power at an operating point.

        Clock modulation gates only the dynamic component; leakage burns
        regardless of duty — the physical reason power caps below the
        static floor are unenforceable.
        """
        static = self.static_cpu_power()
        full = self.cpu_power(op.freq_ghz, op.signature)
        return static + op.duty * (full - static)

    def dram_power_at(self, op: OperatingPoint) -> np.ndarray:
        """True DRAM power at an operating point.

        Memory traffic follows the *effective* compute rate, so the
        frequency-coupled portion of DRAM power scales with
        ``freq · duty``.
        """
        return self.dram_power(op.freq_ghz * op.duty, op.signature)

    def module_power_at(self, op: OperatingPoint) -> np.ndarray:
        """True module (CPU + DRAM) power at an operating point."""
        return self.cpu_power_at(op) + self.dram_power_at(op)

    # -- inversion / cap resolution ------------------------------------------

    def freq_for_cpu_power(
        self, cpu_power_w: np.ndarray | float, sig: PowerSignature
    ) -> np.ndarray:
        """Unclamped frequency at which each module draws ``cpu_power_w``.

        May return values outside the DVFS ladder; see
        :meth:`resolve_cpu_cap` for the physical behaviour.
        """
        if self._mixed:
            return self._scatter_groups(
                lambda v, p: v.freq_for_cpu_power(p, sig), cpu_power_w
            )
        return np.asarray(
            pm.cpu_freq_for_power(
                cpu_power_w,
                fmax=self._eff_arch.fmax,
                static_w=self._eff_arch.cpu_static_w,
                dynamic_w=self._eff_arch.cpu_dynamic_w,
                cpu_activity=sig.cpu_activity,
                leak=self.variation.leak,
                dyn=self.variation.dyn,
            )
        )

    def resolve_cpu_cap(
        self, cap_w: np.ndarray | float, sig: PowerSignature
    ) -> CapResolution:
        """Resolve per-module CPU power caps into operating points.

        Mirrors what RAPL's control loop converges to:

        1. If the cap exceeds the draw at fmax, run at fmax (cap not
           binding).
        2. Otherwise scale frequency down the ladder until average power
           meets the cap (RAPL dithers between P-states, so the effective
           frequency is continuous within [fmin, fmax]).
        3. If the cap is below the draw at fmin, engage clock modulation:
           duty ``d`` satisfies ``static + d·dynamic(fmin) = cap``.  Work
           rate falls as ``fmin · d**subfmin_exponent`` — faster than
           power — reproducing the paper's performance cliff below ~40 W.
        4. If the cap is below ``static + min_duty·dynamic(fmin)`` the
           hardware cannot meet it; the module pins at minimum duty and
           the cap is reported as not met.
        """
        cap = np.broadcast_to(np.asarray(cap_w, dtype=float), (self.n_modules,))
        if np.any(cap <= 0):
            raise ConfigurationError("power caps must be positive")

        if self._mixed:
            dm = self.device_map
            fmin: np.ndarray | float = dm.fmin_by_module()
            fmax: np.ndarray | float = dm.fmax_by_module()
            min_duty = dm.per_module(lambda dt: dt.arch.min_duty)
            sub_exp = dm.per_module(lambda dt: dt.arch.subfmin_exponent)
        else:
            arch = self._eff_arch
            fmin, fmax = arch.fmin, arch.fmax
            min_duty, sub_exp = arch.min_duty, arch.subfmin_exponent

        f_raw = self.freq_for_cpu_power(cap, sig)
        freq = np.clip(f_raw, fmin, fmax)

        static = self.static_cpu_power()
        dyn_at_fmin = self.cpu_power(fmin, sig) - static  # ≥ 0

        below_fmin = f_raw < fmin
        with np.errstate(divide="ignore", invalid="ignore"):
            duty_needed = np.where(
                dyn_at_fmin > 0.0,
                (cap - static) / np.where(dyn_at_fmin > 0.0, dyn_at_fmin, 1.0),
                np.where(cap >= static, 1.0, 0.0),
            )
        duty = np.where(below_fmin, np.clip(duty_needed, min_duty, 1.0), 1.0)
        cap_met = ~(below_fmin & (duty_needed < min_duty))

        cpu_power = np.where(
            below_fmin,
            static + duty * dyn_at_fmin,
            np.minimum(self.cpu_power(freq, sig), cap),
        )
        effective = freq * np.power(duty, sub_exp)
        return CapResolution(
            freq_ghz=freq,
            duty=duty,
            effective_freq_ghz=effective,
            cpu_power_w=cpu_power,
            cap_met=cap_met,
        )

    # -- turbo ------------------------------------------------------------------

    def turbo_frequency(self, sig: PowerSignature) -> np.ndarray:
        """Sustained all-core Turbo frequency per module.

        Turbo residency is TDP-limited: each module climbs above fmax
        until its package power hits TDP (or the turbo ceiling, whichever
        comes first).  Because leaky modules hit TDP sooner, a
        TDP-limited workload turboes *heterogeneously* — performance
        variation appears even without any power cap.  A light workload
        (EP-style, with head-room at the ceiling) turboes uniformly,
        which is why the paper's Fig 1 shows flat performance with Turbo
        enabled.  Parts without Turbo return fmax.
        """
        if self._mixed:
            return self._scatter_groups(lambda v, _: v.turbo_frequency(sig), 0.0)
        arch = self._eff_arch
        if not arch.turbo_ghz:
            return np.full(self.n_modules, arch.fmax)
        f_at_tdp = self.freq_for_cpu_power(arch.tdp_w, sig)
        return np.clip(f_at_tdp, arch.fmax, arch.turbo_ghz)

    # -- performance ----------------------------------------------------------

    def work_rate(self, effective_freq_ghz: np.ndarray | float) -> np.ndarray:
        """Per-module work rate (GHz-equivalents) including the performance
        bin factor (≠1 only on non-frequency-binned parts such as Teller)."""
        return self.variation.perf * np.asarray(effective_freq_ghz, dtype=float)


class Module:
    """Scalar view over one slot of a :class:`ModuleArray` — zero-copy.

    The view is backed by a length-1 *slice* of the parent's variation
    buffers (:meth:`ModuleArray.take_slice`), so constructing one costs
    no allocation and always reflects the canonical array state.  Every
    scalar it returns is a builtin :class:`float` computed by exactly
    the same vectorised arithmetic as the full-array path, so view
    results are bit-for-bit identical to indexing the array's output.
    """

    def __init__(self, array: ModuleArray, index: int):
        index = int(index)
        if not (0 <= index < array.n_modules):
            raise ConfigurationError(
                f"module index {index} out of range [0, {array.n_modules})"
            )
        self._array = array.take_slice(index, index + 1)
        self.index = index
        # A length-1 view is always single-type, so its effective arch is
        # this module's own device arch (== array.arch on uniform fleets).
        self.arch = self._array._eff_arch

    # -- backing-slot scalars ---------------------------------------------------

    @property
    def variation(self) -> ModuleVariation:
        """Length-1 view of this module's variation factors."""
        return self._array.variation

    @property
    def leak(self) -> float:
        """Leakage (static-power) variation factor."""
        return float(self._array.variation.leak[0])

    @property
    def dyn(self) -> float:
        """Dynamic-power variation factor."""
        return float(self._array.variation.dyn[0])

    @property
    def dram(self) -> float:
        """DRAM power variation factor."""
        return float(self._array.variation.dram[0])

    @property
    def perf(self) -> float:
        """Performance-bin factor."""
        return float(self._array.variation.perf[0])

    # -- scalar power model -----------------------------------------------------

    def cpu_power(self, freq_ghz: float, sig: PowerSignature) -> float:
        """True CPU power (W) of this module at ``freq_ghz``."""
        return float(self._array.cpu_power(freq_ghz, sig)[0])

    def dram_power(self, freq_ghz: float, sig: PowerSignature) -> float:
        """True DRAM power (W) of this module at ``freq_ghz``."""
        return float(self._array.dram_power(freq_ghz, sig)[0])

    def module_power(self, freq_ghz: float, sig: PowerSignature) -> float:
        """True module (CPU + DRAM) power (W) at ``freq_ghz``."""
        return float(self._array.module_power(freq_ghz, sig)[0])

    def static_cpu_power(self) -> float:
        """Frequency-independent CPU power floor (W)."""
        return float(self._array.static_cpu_power()[0])

    def freq_for_cpu_power(self, cpu_power_w: float, sig: PowerSignature) -> float:
        """Unclamped frequency at which this module draws ``cpu_power_w``."""
        return float(self._array.freq_for_cpu_power(cpu_power_w, sig)[0])

    def work_rate(self, effective_freq_ghz: float) -> float:
        """Work rate (GHz-equivalents) including the performance bin."""
        return float(self._array.work_rate(effective_freq_ghz)[0])

    def turbo_frequency(self, sig: PowerSignature) -> float:
        """Sustained all-core Turbo frequency (fmax on non-Turbo parts)."""
        return float(self._array.turbo_frequency(sig)[0])

    def resolve_cpu_cap(self, cap_w: float, sig: PowerSignature) -> CapResolution:
        """Scalar cap resolution; arrays in the result have length 1."""
        return self._array.resolve_cpu_cap(cap_w, sig)
