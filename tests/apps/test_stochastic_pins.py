"""Bit-level pins of the stochastic and per-phase stepping.

``AppModel.run`` with per-phase OS noise or per-iteration rate jitter,
and ``PhasedApp.run`` with per-phase rates, step the machine one phase
at a time instead of taking the fast path.  The Fig 3 / Fig 8 goldens
compare at 1e-6 relative, which cannot tell whether that stepping still
performs the same floating-point operations in the same order; these
sha256 pins of the full traces can.  A change to any digest means the
simulated times moved, not just their rounding tolerance.
"""

import hashlib

import numpy as np
import pytest

from repro.apps.base import CommSpec
from repro.apps.phases import GMRES_LIKE, AppPhase, PhasedApp
from repro.apps.registry import get_app
from repro.hardware.power_model import PowerSignature

FMAX = 2.7
N_RANKS = 64


def _rates(seed: int, shape=(N_RANKS,)) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return FMAX * np.clip(1.0 + 0.05 * rng.standard_normal(shape), 0.8, 1.2)


def _digest(trace) -> str:
    h = hashlib.sha256()
    for arr in (trace.total_s, trace.compute_s, trace.wait_s, trace.comm_s):
        assert arr.dtype == np.float64 and arr.shape == (N_RANKS,)
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


_HALO_PHASED = PhasedApp(
    name="halo-phased",
    phases=(
        AppPhase("a", 0.3, 0.9, PowerSignature(0.9, 0.3)),
        AppPhase("b", 0.2, 0.4, PowerSignature(0.5, 0.8)),
    ),
    default_iters=12,
    comm=CommSpec(kind="neighbor", ndim=2, message_bytes=64 * 1024),
)


def _noisy_mhd():
    return get_app("mhd").run(
        _rates(1), FMAX, n_iters=25,
        noise_frac=0.004, noise_rng=np.random.default_rng(11),
    )


def _jittered_mvmc():
    return get_app("mvmc").run(
        _rates(2), FMAX, n_iters=25,
        rate_jitter_frac=0.03, jitter_rng=np.random.default_rng(12),
    )


def _noisy_jittered_bt():
    return get_app("bt").run(
        _rates(3), FMAX, n_iters=15,
        work_imbalance=np.linspace(0.95, 1.05, N_RANKS),
        noise_frac=0.002, noise_rng=np.random.default_rng(13),
        rate_jitter_frac=0.01, jitter_rng=np.random.default_rng(14),
    )


def _phased_gmres():
    return GMRES_LIKE.run(_rates(4, (3, N_RANKS)), FMAX, n_iters=10)


def _phased_halo():
    return _HALO_PHASED.run(_rates(5, (2, N_RANKS)), FMAX)


PINS = {
    "noise": (
        _noisy_mhd,
        "a389b5fe58a74ddbaad607a03b5e903044edea9d5520d866106ace25f4355d3a",
    ),
    "jitter": (
        _jittered_mvmc,
        "41b72c3468ac0ae5eefe24d2ddcbd1093c6991f31412eb7086df24187d628135",
    ),
    "noise+jitter+imbalance": (
        _noisy_jittered_bt,
        "f839748d287ca2c136e70b8ce229f33aad596ed044f95e75efb183f4f0677ddc",
    ),
    "phased-allreduce": (
        _phased_gmres,
        "f9ca52169d7fc5b96beb0cfe3507c01cd17faa14f47a3161e72cf712948bcc4d",
    ),
    "phased-neighbor": (
        _phased_halo,
        "3a2291b105b754fcd845808a625f07d0fd46ac9b1d14fdc962f21887e3425ac2",
    ),
}


@pytest.mark.parametrize("name", list(PINS))
def test_trace_digest_pinned(name):
    run, want = PINS[name]
    assert _digest(run()) == want

