"""Tests for the benchmark application models."""

import numpy as np
import pytest

from repro.apps.base import AppModel, CommSpec
from repro.apps.registry import APPS, get_app, list_apps
from repro.cluster.configs import build_system
from repro.errors import ConfigurationError, SimulationError
from repro.hardware.power_model import PowerSignature

FMAX = 2.7


class TestRegistry:
    def test_all_seven_present(self):
        assert list_apps() == ["bt", "dgemm", "ep", "mhd", "mvmc", "sp", "stream"]

    def test_get_app_variants(self):
        assert get_app("DGEMM").name == "dgemm"
        assert get_app("*STREAM").name == "stream"

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            get_app("hpl")

    def test_stream_is_pvt_reference(self):
        # *STREAM generates the PVT; its expression residual must be zero.
        s = get_app("stream")
        assert s.residual_sigma_dyn == 0.0
        assert s.residual_sigma_dram == 0.0

    def test_bt_worst_predicted(self):
        # BT has the largest residual (paper: ~10% prediction error).
        bt = get_app("bt")
        for other in APPS.values():
            assert bt.residual_sigma_dyn >= other.residual_sigma_dyn


class TestValidation:
    def _mk(self, **kw):
        base = dict(
            name="t",
            signature=PowerSignature(0.5, 0.5),
            cpu_bound_fraction=0.8,
            iter_seconds_fmax=1.0,
            default_iters=10,
        )
        base.update(kw)
        return AppModel(**base)

    def test_kappa_bounds(self):
        with pytest.raises(ConfigurationError):
            self._mk(cpu_bound_fraction=1.5)

    def test_positive_times(self):
        with pytest.raises(ConfigurationError):
            self._mk(iter_seconds_fmax=0.0)
        with pytest.raises(ConfigurationError):
            self._mk(default_iters=0)

    def test_comm_spec_validation(self):
        with pytest.raises(ConfigurationError):
            CommSpec(kind="gossip")
        with pytest.raises(ConfigurationError):
            CommSpec(kind="neighbor", ndim=0)
        with pytest.raises(ConfigurationError):
            CommSpec(message_bytes=-1.0)

    def test_with_override(self):
        app = self._mk()
        assert app.with_(default_iters=3).default_iters == 3


class TestRun:
    def test_nominal_runtime_matches_iter_seconds(self):
        app = get_app("dgemm")
        trace = app.run(np.full(4, FMAX), FMAX, n_iters=5)
        expected = 5 * app.iter_seconds_fmax
        assert np.allclose(trace.total_s, expected, rtol=1e-6)

    def test_half_speed_cpu_bound_scaling(self):
        app = get_app("dgemm")  # kappa = 0.97
        t_full = app.run(np.full(2, FMAX), FMAX, n_iters=2).makespan_s
        t_half = app.run(np.full(2, FMAX / 2), FMAX, n_iters=2).makespan_s
        expected = t_full * (0.97 * 2.0 + 0.03)
        assert t_half == pytest.approx(expected, rel=1e-6)

    def test_memory_bound_scales_less(self):
        stream, dgemm = get_app("stream"), get_app("dgemm")
        rates = np.full(2, FMAX / 2)
        slow_stream = stream.run(rates, FMAX, n_iters=2).makespan_s / (
            stream.run(np.full(2, FMAX), FMAX, n_iters=2).makespan_s
        )
        slow_dgemm = dgemm.run(rates, FMAX, n_iters=2).makespan_s / (
            dgemm.run(np.full(2, FMAX), FMAX, n_iters=2).makespan_s
        )
        assert slow_stream < slow_dgemm

    def test_dgemm_no_sync_vt_spreads(self):
        app = get_app("dgemm")
        rates = np.linspace(1.5, 2.7, 16)
        trace = app.run(rates, FMAX, n_iters=5)
        assert trace.vt > 1.4
        assert np.allclose(trace.wait_s, 0.0)

    def test_mhd_sync_hides_vt_but_accumulates_wait(self):
        # Paper Fig 2(iii)/Fig 3: MHD Vt ~ 1 under caps, sync time varies.
        app = get_app("mhd")
        rng = np.random.default_rng(0)
        rates = rng.uniform(1.4, 2.2, 64)
        trace = app.run(rates, FMAX, n_iters=60)
        assert trace.vt < 1.05
        slowest = int(np.argmin(rates))
        assert trace.wait_s[slowest] == pytest.approx(trace.wait_s.min())
        assert trace.wait_vt() > 10.0

    def test_mvmc_allreduce_synchronises(self):
        app = get_app("mvmc")
        rates = np.random.default_rng(1).uniform(1.4, 2.2, 32)
        trace = app.run(rates, FMAX, n_iters=20)
        assert trace.vt < 1.01

    def test_ep_final_allreduce_only(self):
        app = get_app("ep")
        rates = np.array([1.5, 2.7])
        trace = app.run(rates, FMAX, n_iters=3)
        # One final sync: both finish together.
        assert trace.total_s[0] == pytest.approx(trace.total_s[1])
        # But fast rank waited once at the end.
        assert trace.wait_s[1] > 0

    def test_work_imbalance(self):
        app = get_app("dgemm")
        trace = app.run(
            np.full(2, FMAX), FMAX, n_iters=2, work_imbalance=np.array([1.0, 2.0])
        )
        assert trace.total_s[1] == pytest.approx(2 * trace.total_s[0])

    def test_work_imbalance_shape_checked(self):
        with pytest.raises(ConfigurationError):
            get_app("dgemm").run(
                np.full(2, FMAX), FMAX, work_imbalance=np.ones(3)
            )

    def test_bad_iters(self):
        with pytest.raises(ConfigurationError):
            get_app("dgemm").run(np.full(2, FMAX), FMAX, n_iters=0)

    def test_neighbor_table(self):
        assert get_app("dgemm").neighbor_table(16) is None
        nb = get_app("mhd").neighbor_table(64)
        assert nb is not None and nb.shape == (64, 6)


class TestNoise:
    """Per-phase OS noise, drawn by the app as it steps the machine."""

    RATES = np.array([2.0, 2.5, 3.0, 2.2])

    def test_noise_requires_rng(self):
        with pytest.raises(SimulationError):
            get_app("mvmc").run(self.RATES, FMAX, n_iters=3, noise_frac=0.01)

    def test_negative_noise_rejected(self):
        with pytest.raises(SimulationError):
            get_app("mvmc").run(
                self.RATES, FMAX, n_iters=3, noise_frac=-0.01,
                noise_rng=np.random.default_rng(0),
            )

    def test_noise_only_slows_compute(self):
        app = get_app("mvmc")
        quiet = app.run(self.RATES, FMAX, n_iters=5)
        noisy = app.run(
            self.RATES, FMAX, n_iters=5, noise_frac=0.05,
            noise_rng=np.random.default_rng(3),
        )
        assert np.all(noisy.compute_s > quiet.compute_s)
        assert noisy.makespan_s > quiet.makespan_s
        assert np.array_equal(noisy.comm_s, quiet.comm_s)


class TestSpecialize:
    def test_residual_stable_per_pair(self):
        sys = build_system("ha8k", n_modules=32)
        app = get_app("bt")
        a = app.specialize(sys.modules, sys.rng.rng(f"app-residual/{app.name}"))
        b = app.specialize(sys.modules, sys.rng.rng(f"app-residual/{app.name}"))
        assert np.array_equal(a.variation.dyn, b.variation.dyn)

    def test_leakage_shared_across_apps(self):
        sys = build_system("ha8k", n_modules=32)
        bt = get_app("bt").specialize(sys.modules, sys.rng.rng("app-residual/bt"))
        sp = get_app("sp").specialize(sys.modules, sys.rng.rng("app-residual/sp"))
        assert np.array_equal(bt.variation.leak, sp.variation.leak)
        assert not np.array_equal(bt.variation.dyn, sp.variation.dyn)

    def test_stream_unchanged(self):
        sys = build_system("ha8k", n_modules=32)
        app = get_app("stream")
        view = app.specialize(sys.modules, sys.rng.rng("app-residual/stream"))
        assert np.array_equal(view.variation.dyn, sys.modules.variation.dyn)
        assert np.array_equal(view.variation.dram, sys.modules.variation.dram)


class TestPowerCalibration:
    """App signatures must land in the Table 4 feasibility bands."""

    @pytest.fixture(scope="class")
    def nominal(self):
        from repro.hardware.microarch import IVY_BRIDGE_E5_2697V2
        from repro.hardware.module import ModuleArray
        from repro.hardware.variability import ModuleVariation

        ones = np.ones(1)
        return ModuleArray(
            IVY_BRIDGE_E5_2697V2,
            ModuleVariation(leak=ones, dyn=ones, dram=ones, perf=ones),
        )

    # (app, natural module power band at fmax, floor band at fmin) from
    # Table 4's bullet/check/dash pattern.
    CASES = [
        ("dgemm", (110.0, 120.0), (60.0, 70.0)),
        ("stream", (100.0, 110.0), (70.0, 80.0)),
        ("mhd", (90.0, 100.0), (50.0, 60.0)),
        ("bt", (80.0, 90.0), (40.0, 50.0)),
        ("sp", (80.0, 90.0), (40.0, 50.0)),
        ("mvmc", (80.0, 90.0), (50.0, 60.0)),
    ]

    @pytest.mark.parametrize("name,max_band,min_band", CASES)
    def test_table4_bands(self, nominal, name, max_band, min_band):
        app = get_app(name)
        arch = nominal.arch
        p_max = float(nominal.module_power(arch.fmax, app.signature)[0])
        p_min = float(nominal.module_power(arch.fmin, app.signature)[0])
        assert max_band[0] < p_max <= max_band[1], f"{name} fmax power {p_max}"
        assert min_band[0] < p_min <= min_band[1], f"{name} fmin power {p_min}"

    def test_dgemm_matches_fig2_means(self, nominal):
        app = get_app("dgemm")
        cpu = float(nominal.cpu_power(2.7, app.signature)[0])
        mod = float(nominal.module_power(2.7, app.signature)[0])
        assert cpu == pytest.approx(100.8, abs=2.0)  # paper: 100.8 W
        assert mod == pytest.approx(112.8, abs=2.5)  # paper: 112.8 W

    def test_mhd_matches_fig2_means(self, nominal):
        app = get_app("mhd")
        cpu = float(nominal.cpu_power(2.7, app.signature)[0])
        mod = float(nominal.module_power(2.7, app.signature)[0])
        assert cpu == pytest.approx(83.9, abs=2.0)  # paper: 83.9 W
        assert mod == pytest.approx(96.4, abs=2.5)  # paper: 96.4 W
