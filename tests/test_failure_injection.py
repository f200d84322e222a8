"""Failure injection: the stack degrades loudly, not silently.

Corrupted inputs, absurd parameters, and hostile conditions must raise
typed errors (never produce quietly wrong numbers).
"""

import json

import numpy as np
import pytest

from repro.apps.registry import get_app
from repro.cluster.configs import build_system
from repro.core.pvt import PowerVariationTable, generate_pvt
from repro.core.runner import run_budgeted
from repro.errors import (
    ConfigurationError,
    InfeasibleBudgetError,
    MSRAccessError,
    ReproError,
    SimulationError,
)


@pytest.fixture(scope="module")
def system():
    return build_system("ha8k", n_modules=32, seed=5)


@pytest.fixture(scope="module")
def pvt(system):
    return generate_pvt(system)


class TestCorruptedPVT:
    def test_truncated_pvt_rejected(self, system, pvt):
        bad = pvt.take(range(16))  # wrong size for the system
        with pytest.raises(ConfigurationError):
            run_budgeted(system, get_app("mhd"), "vapc", 70.0 * 32, pvt=bad)

    def test_corrupted_json_round_trip(self, pvt, tmp_path):
        p = tmp_path / "pvt.json"
        pvt.save(p)
        data = json.loads(p.read_text())
        data["scale_cpu_max"][3] = -1.0  # corrupted entry
        p.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError):
            PowerVariationTable.load(p)

    def test_missing_field(self, pvt, tmp_path):
        p = tmp_path / "pvt.json"
        data = pvt.to_dict()
        del data["scale_dram_min"]
        p.write_text(json.dumps(data))
        with pytest.raises(KeyError):
            PowerVariationTable.load(p)


class TestHostileParameters:
    def test_nan_budget(self, system, pvt):
        with pytest.raises(ReproError):
            run_budgeted(system, get_app("mhd"), "vapc", float("nan"), pvt=pvt)

    def test_negative_budget(self, system, pvt):
        with pytest.raises(InfeasibleBudgetError):
            run_budgeted(system, get_app("mhd"), "vapc", -100.0, pvt=pvt)

    def test_nan_rates_rejected_by_machines(self):
        from repro.simmpi.eventsim import EventDrivenMachine
        from repro.simmpi.machine import BatchedBspMachine

        bad = np.array([1.0, np.nan])
        with pytest.raises(SimulationError):
            BatchedBspMachine(bad[None])
        with pytest.raises(SimulationError):
            EventDrivenMachine(bad)

    def test_msr_hostile_writes(self, system):
        from repro.measurement.msr import MSR_PKG_POWER_LIMIT, MSRFile

        msr = MSRFile(4)
        with pytest.raises(MSRAccessError):
            msr.write(0, 0xDEAD, 1)
        with pytest.raises(MSRAccessError):
            msr.write_all(MSR_PKG_POWER_LIMIT, np.zeros(3))  # wrong shape
        with pytest.raises(MSRAccessError):
            msr.encode_power_limit(1e9, 1e-3)  # unencodable magnitude


class TestExtremeConditions:
    def test_single_module_system_works(self):
        system = build_system("ha8k", n_modules=1, seed=1)
        pvt = generate_pvt(system)
        r = run_budgeted(system, get_app("mhd"), "vafs", 70.0, pvt=pvt, n_iters=3)
        assert r.makespan_s > 0

    def test_budget_just_above_floor(self, system, pvt):
        # One watt of headroom: runs at (nearly) fmin, no crash.
        from repro.core.schemes import get_scheme

        pmt = get_scheme("vapc").build_pmt(system, get_app("bt"), pvt=pvt)
        floor = pmt.model.total_min_w()
        r = run_budgeted(
            system, get_app("bt"), "vapc", floor + 1.0, pvt=pvt, n_iters=3
        )
        assert r.solution.alpha < 0.05

    def test_huge_budget_caps_at_fmax(self, system, pvt):
        r = run_budgeted(system, get_app("mhd"), "vafs", 1e12, pvt=pvt, n_iters=3)
        assert r.solution.alpha == 1.0
        assert np.allclose(r.effective_freq_ghz, system.arch.fmax)

    def test_extreme_meter_noise_stays_bounded(self, system):
        from repro.hardware.module import OperatingPoint
        from repro.measurement.powerinsight import PowerInsightMeter

        meter = PowerInsightMeter(
            system.modules, rng=system.rng.rng("hostile"), noise_frac=0.5
        )
        op = OperatingPoint.uniform(32, 2.0, get_app("mhd").signature)
        reading = meter.read(op)
        truth = system.modules.cpu_power_at(op)
        # The sensor clips its own noise: readings stay physical.
        assert np.all(reading.cpu_w > 0)
        assert np.all(np.abs(reading.cpu_w / truth - 1.0) < 0.2)
