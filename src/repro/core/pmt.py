"""The application-dependent Power Model Table and its calibrations.

A PMT holds, for every module a job will run on, the four endpoint
powers of the linear model (P_cpu and P_dram at fmax and fmin).  Four
ways to obtain one, matching the paper's evaluated schemes:

``calibrate_pmt``
    The paper's contribution (VaPc/VaFs): two single-module test runs +
    the install-time PVT.  The test module's measurements are divided by
    its own PVT scales to recover system averages, then multiplied by
    each module's scales (Fig 6).
``uniform_pmt``
    Application-dependent but variation-*unaware* (the Pc scheme): the
    calibrated system averages are used for every module.
``oracle_pmt``
    Perfect calibration (VaPcOr/VaFsOr): the application is actually
    executed on *all* modules and measured — expensive, used only as the
    upper bound.
``naive_pmt``
    Application-independent and variation-unaware (the Naïve baseline):
    TDP values for P_max (130 W CPU / 62 W DRAM on HA8K) and the
    empirical floors for P_min (40 W CPU — below which "rapid
    degradation" occurs — and 10 W DRAM).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import AppModel
from repro.cluster.system import System
from repro.core.model import LinearPowerModel
from repro.core.pvt import PowerVariationTable
from repro.core.test_run import SingleModuleProfile
from repro.errors import ConfigurationError
from repro.hardware.devices import DeviceMap
from repro.hardware.microarch import Microarchitecture
from repro.hardware.module import ModuleArray, OperatingPoint
from repro.measurement.rapl import RaplMeter
from repro.util.indexing import (
    Selection,
    _trusted_view,
    checked_indices,
    checked_slice,
)

__all__ = [
    "PowerModelTable",
    "calibrate_pmt",
    "calibrate_pmt_mixed",
    "uniform_pmt",
    "oracle_pmt",
    "naive_pmt",
    "prediction_error",
    "NAIVE_CPU_FLOOR_W",
    "NAIVE_DRAM_FLOOR_W",
]

#: "Rapid degradation in performance occurs when the power allocated to
#: the CPU goes below the threshold of 40 W" (paper Section 6).
NAIVE_CPU_FLOOR_W = 40.0
#: DRAM power measured at the CPU floor, averaged (paper Section 6).
NAIVE_DRAM_FLOOR_W = 10.0


@dataclass(frozen=True)
class PowerModelTable:
    """A calibrated linear power model plus its provenance."""

    model: LinearPowerModel
    kind: str  # "calibrated" | "uniform" | "oracle" | "naive"
    app_name: str
    test_module: int | None = None

    @property
    def n_modules(self) -> int:
        """Number of modules covered."""
        return self.model.n_modules

    def _select(self, sel: Selection) -> "PowerModelTable":
        return _trusted_view(self, sel, (), model=self.model._select(sel))

    def take(self, indices) -> "PowerModelTable":
        """PMT restricted to the given module indices (provenance kept).

        A trusted view: contiguous ascending index sets share the
        endpoint columns' buffers, and nothing is re-validated (see
        :meth:`~repro.core.model.LinearPowerModel.take`, whose index
        checks apply).
        """
        return self._select(checked_indices(indices, self.n_modules))

    def take_slice(self, start: int, stop: int) -> "PowerModelTable":
        """Zero-copy PMT view of the range ``[start, stop)``.

        Only the range is checked; the columns are not re-validated.
        """
        return self._select(checked_slice(start, stop, self.n_modules))


def calibrate_pmt(
    pvt: PowerVariationTable,
    profile: SingleModuleProfile,
    *,
    fmin: float,
    fmax: float,
    device_map: DeviceMap | None = None,
) -> PowerModelTable:
    """Power model calibration (paper Section 5.2, Fig 6).

    The test module's measured power divided by its variation scale gives
    the system-level average; multiplying the averages by every module's
    scales predicts all four parameters everywhere.
    """
    k = profile.module_index
    if not (0 <= k < pvt.n_modules):
        raise ConfigurationError(
            f"test module {k} not covered by the PVT ({pvt.n_modules} modules)"
        )
    avg_cpu_max = profile.p_cpu_max / pvt.scale_cpu_max[k]
    avg_cpu_min = profile.p_cpu_min / pvt.scale_cpu_min[k]
    avg_dram_max = profile.p_dram_max / pvt.scale_dram_max[k]
    avg_dram_min = profile.p_dram_min / pvt.scale_dram_min[k]
    model = LinearPowerModel(
        fmin=fmin,
        fmax=fmax,
        p_cpu_max=avg_cpu_max * pvt.scale_cpu_max,
        p_cpu_min=avg_cpu_min * pvt.scale_cpu_min,
        p_dram_max=avg_dram_max * pvt.scale_dram_max,
        p_dram_min=avg_dram_min * pvt.scale_dram_min,
        device_map=device_map,
    )
    return PowerModelTable(
        model=model, kind="calibrated", app_name=profile.app_name, test_module=k
    )


def calibrate_pmt_mixed(
    pvt: PowerVariationTable,
    profiles: list[SingleModuleProfile],
    device_map: DeviceMap,
    *,
    fmin: float,
    fmax: float,
    uniform: bool = False,
) -> PowerModelTable:
    """Per-type PMT calibration over a heterogeneous fleet.

    One single-module test run per device type: each profile's
    measurements are divided by its test module's PVT scales to recover
    the *type* average (the mixed PVT normalises per type), then spread
    back over that type's modules — per-module scales when
    ``uniform=False`` (VaPc/VaFs), the bare average otherwise (Pc).
    ``fmin``/``fmax`` are the primary device's range; the per-module
    ladders travel with ``device_map``.
    """
    groups = list(device_map.groups())
    if len(groups) != len(profiles):
        raise ConfigurationError(
            f"need one profile per device type: got {len(profiles)} profiles "
            f"for {len(groups)} types"
        )
    n = pvt.n_modules
    scales = {
        "p_cpu_max": pvt.scale_cpu_max,
        "p_cpu_min": pvt.scale_cpu_min,
        "p_dram_max": pvt.scale_dram_max,
        "p_dram_min": pvt.scale_dram_min,
    }
    cols = {name: np.empty(n) for name in scales}
    for (pos, dt, sel), profile in zip(groups, profiles):
        k = profile.module_index
        if not (0 <= k < n) or int(device_map.index[k]) != pos:
            raise ConfigurationError(
                f"test module {k} is not a {dt.name!r} module"
            )
        avg = {
            "p_cpu_max": profile.p_cpu_max / pvt.scale_cpu_max[k],
            "p_cpu_min": profile.p_cpu_min / pvt.scale_cpu_min[k],
            "p_dram_max": profile.p_dram_max / pvt.scale_dram_max[k],
            "p_dram_min": profile.p_dram_min / pvt.scale_dram_min[k],
        }
        for name in cols:
            cols[name][sel] = avg[name] if uniform else avg[name] * scales[name][sel]
    model = LinearPowerModel(fmin=fmin, fmax=fmax, device_map=device_map, **cols)
    return PowerModelTable(
        model=model,
        kind="uniform" if uniform else "calibrated",
        app_name=profiles[0].app_name,
        test_module=profiles[0].module_index,
    )


def uniform_pmt(
    pvt: PowerVariationTable,
    profile: SingleModuleProfile,
    *,
    fmin: float,
    fmax: float,
    device_map: DeviceMap | None = None,
) -> PowerModelTable:
    """Application-dependent, variation-unaware PMT (the Pc scheme).

    Same calibration of the system averages as :func:`calibrate_pmt`,
    but every module gets the average — power is distributed uniformly.
    """
    k = profile.module_index
    if not (0 <= k < pvt.n_modules):
        raise ConfigurationError(
            f"test module {k} not covered by the PVT ({pvt.n_modules} modules)"
        )
    n = pvt.n_modules
    model = LinearPowerModel(
        fmin=fmin,
        fmax=fmax,
        p_cpu_max=np.full(n, profile.p_cpu_max / pvt.scale_cpu_max[k]),
        p_cpu_min=np.full(n, profile.p_cpu_min / pvt.scale_cpu_min[k]),
        p_dram_max=np.full(n, profile.p_dram_max / pvt.scale_dram_max[k]),
        p_dram_min=np.full(n, profile.p_dram_min / pvt.scale_dram_min[k]),
        device_map=device_map,
    )
    return PowerModelTable(
        model=model, kind="uniform", app_name=profile.app_name, test_module=k
    )


def oracle_pmt(
    system: System, app: AppModel, *, noisy: bool = False, duration_s: float = 1.0
) -> PowerModelTable:
    """Perfect calibration: execute the app on *all* modules and measure.

    This is the VaPcOr/VaFsOr upper bound — "we obtain the PMT based on
    a complete execution of the HPC application on all modules".
    """
    truth = app.specialize(system.modules, system.rng.rng(f"app-residual/{app.name}"))
    rng = system.rng.rng(f"oracle/{app.name}") if noisy else None
    meter = RaplMeter(truth, rng=rng)
    arch = system.arch
    n = system.n_modules
    cols = {}
    for label, freq in (("max", arch.fmax), ("min", arch.fmin)):
        if truth.is_mixed:
            # Measure every module at its own ladder endpoint.
            freqs = (
                truth.fmax_by_module() if label == "max" else truth.fmin_by_module()
            )
            op = OperatingPoint(
                freq_ghz=freqs, duty=np.ones(n), signature=app.signature
            )
        else:
            op = OperatingPoint.uniform(n, freq, app.signature)
        reading = meter.read(op, duration_s=duration_s)
        cols[f"cpu_{label}"] = reading.cpu_w
        cols[f"dram_{label}"] = reading.dram_w
    model = LinearPowerModel(
        fmin=arch.fmin,
        fmax=arch.fmax,
        p_cpu_max=cols["cpu_max"],
        p_cpu_min=cols["cpu_min"],
        p_dram_max=cols["dram_max"],
        p_dram_min=cols["dram_min"],
        device_map=truth.device_map,
    )
    return PowerModelTable(model=model, kind="oracle", app_name=app.name)


def naive_pmt(
    arch: Microarchitecture,
    n_modules: int,
    device_map: DeviceMap | None = None,
) -> PowerModelTable:
    """Application-independent, variation-unaware PMT (the Naïve baseline).

    P_max entries are the architecture TDPs; P_min entries are the
    empirical 40 W CPU / 10 W DRAM floors (paper Section 6).  On a
    heterogeneous fleet each device type contributes its own TDPs and
    declared naive floors.
    """
    if n_modules <= 0:
        raise ConfigurationError("n_modules must be positive")
    if device_map is not None and not device_map.is_single_type:
        p_cpu_max = device_map.per_module(lambda dt: dt.arch.tdp_w)
        p_cpu_min = device_map.per_module(lambda dt: dt.naive_cpu_floor_w)
        p_dram_max = device_map.per_module(lambda dt: dt.arch.dram_tdp_w)
        p_dram_min = device_map.per_module(lambda dt: dt.naive_dram_floor_w)
    else:
        p_cpu_max = np.full(n_modules, arch.tdp_w)
        p_cpu_min = np.full(n_modules, NAIVE_CPU_FLOOR_W)
        p_dram_max = np.full(n_modules, arch.dram_tdp_w)
        p_dram_min = np.full(n_modules, NAIVE_DRAM_FLOOR_W)
    model = LinearPowerModel(
        fmin=arch.fmin,
        fmax=arch.fmax,
        p_cpu_max=p_cpu_max,
        p_cpu_min=p_cpu_min,
        p_dram_max=p_dram_max,
        p_dram_min=p_dram_min,
        device_map=device_map,
    )
    return PowerModelTable(model=model, kind="naive", app_name="*")


def prediction_error(
    pmt: PowerModelTable, truth: ModuleArray, app: AppModel
) -> dict[str, float]:
    """Module-power prediction error of a PMT against ground truth.

    Returns mean and max relative error at fmax and fmin across modules
    — the accuracy statistic of Section 5.3 ("under 5 %", NPB-BT
    "about 10 %").
    """
    if pmt.n_modules != truth.n_modules:
        raise ConfigurationError(
            f"PMT covers {pmt.n_modules} modules, truth covers {truth.n_modules}"
        )
    out: dict[str, float] = {}
    errs_all = []
    for label, freq, alpha in (
        ("fmax", truth.fmax_by_module() if truth.is_mixed else truth.arch.fmax, 1.0),
        ("fmin", truth.fmin_by_module() if truth.is_mixed else truth.arch.fmin, 0.0),
    ):
        actual = truth.module_power(freq, app.signature)
        predicted = pmt.model.module_power_at(alpha)
        rel = np.abs(predicted - actual) / actual
        out[f"mean_{label}"] = float(rel.mean())
        out[f"max_{label}"] = float(rel.max())
        errs_all.append(rel)
    both = np.concatenate(errs_all)
    out["mean"] = float(both.mean())
    out["max"] = float(both.max())
    return out
