"""Performance guards: the vectorised paths stay vectorised.

The experiment harness depends on the simulator being effectively free
(1,920-rank, hundreds-of-iteration runs in milliseconds).  These guards
use generous wall-clock bounds — they only trip if someone replaces an
array operation with a Python-level loop over ranks.
"""

import time

import numpy as np
import pytest

from repro.apps.registry import get_app
from repro.simmpi.topology import Torus
from repro.simmpi.machine import BatchedBspMachine


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class TestVectorisedPaths:
    def test_bsp_full_scale_run(self):
        rng = np.random.default_rng(0)
        rates = rng.uniform(1.2, 2.7, 1920)
        nb = Torus((16, 12, 10))

        def run():
            m = BatchedBspMachine(rates[None])
            for _ in range(300):
                m.advance_local(1.0 / rates)
                m.sendrecv(nb)
            m.traces()

        assert timed(run) < 2.0  # milliseconds in practice

    def test_cap_resolution_full_scale(self):
        from repro.cluster.configs import build_system

        system = build_system("ha8k", seed=0)  # 1,920 modules
        sig = get_app("dgemm").signature
        caps = np.linspace(45.0, 110.0, 1920)

        def run():
            for _ in range(50):
                system.modules.resolve_cpu_cap(caps, sig)

        assert timed(run) < 2.0

    def test_pvt_generation_full_scale(self):
        from repro.cluster.configs import build_system
        from repro.core.pvt import generate_pvt

        system = build_system("ha8k", seed=1)

        def run():
            generate_pvt(system)

        assert timed(run) < 2.0

    def test_full_fig7_cell_under_a_second(self):
        from repro.core.runner import run_budgeted
        from repro.experiments.common import ha8k, ha8k_pvt

        system = ha8k(1920)
        pvt = ha8k_pvt(1920)
        app = get_app("mhd")

        def run():
            run_budgeted(system, app, "vafs", 70.0 * 1920, pvt=pvt, n_iters=None)

        assert timed(run) < 1.5
