"""Bit-level pins of uncapped reference runs.

Each digest hashes every array and scalar one :func:`run_uncapped` call
produces: the app and scheme names, the budget, the solution, the
effective frequencies, the realised CPU and DRAM power, ``cap_met`` and
the four :class:`~repro.simmpi.tracing.RankTrace` arrays.  An
:class:`~repro.core.pmmd.InstrumentedApp` run also hashes the region
record it leaves behind.  The cases cover the three uncapped actuation
points (uniform fmax, the Turbo point, per-type fmax on a mixed
CPU/GPU fleet) and both simulation routes (the vectorised BSP path
and the event-driven fallback a ``"pipeline"`` app takes).  Any change
to how an uncapped run is actuated, simulated or measured moves a
digest.

The differential case at the end checks the batched form: an uncapped
``(None, None)`` row inside a mixed budgeted
:func:`run_budgeted_batched` call equals its one-row run bit for bit.
"""

import hashlib

import numpy as np
import pytest

from repro.apps.base import AppModel, CommSpec, PowerSignature
from repro.apps.registry import get_app
from repro.cluster.configs import build_hetero_system, build_system
from repro.core.pmmd import instrument
from repro.core.pvt import generate_pvt
from repro.core.runner import run_budgeted_batched, run_uncapped
from repro.errors import ConfigurationError

N_MODULES = 48
N_ITERS = 6

PIPELINE_APP = AppModel(
    name="pipe",
    signature=PowerSignature(0.6, 0.4),
    cpu_bound_fraction=0.8,
    iter_seconds_fmax=0.05,
    default_iters=10,
    comm=CommSpec(kind="pipeline", message_bytes=4096.0),
)


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    h.update(b"|")


def _digest(result, pmmd=None) -> str:
    h = hashlib.sha256()
    for value in (
        result.app_name,
        result.scheme_name,
        result.budget_w,
        result.solution,
        result.effective_freq_ghz,
        result.cpu_power_w,
        result.dram_power_w,
        result.cap_met,
        result.trace.total_s,
        result.trace.compute_s,
        result.trace.wait_s,
        result.trace.comm_s,
    ):
        _feed(h, value)
    if pmmd is not None:
        for rec in pmmd.records:
            for value in (
                rec.region, rec.duration_s, rec.mean_power_w, rec.energy_j, rec.plan
            ):
                _feed(h, value)
    return h.hexdigest()


@pytest.fixture(scope="module")
def ha8k():
    return build_system("ha8k", n_modules=N_MODULES, seed=2015)


@pytest.fixture(scope="module")
def mixed():
    return build_hetero_system(
        [("cpu-ivy-bridge-e5-2697v2", 24), ("gpu-v100-sxm2", 24)], seed=11
    )


#: Digests recorded from the per-key uncapped path before it became a
#: row of the batched runner.
PINS = {
    "uniform_fmax": (
        "a5c5df89ec5c384b9bd7fee1daddb0c0"
        "758d5859f310115d518f5d21a80c469a"
    ),
    "turbo": (
        "ed31ddb0ffc1710f10d1894a7c5f0262"
        "098ea7f88670cac3ea15d4854eb53883"
    ),
    "mixed_per_type_fmax": (
        "ceb25f25147d759be2896ce0c3ebf906"
        "155e56825b22e396bc7e2de679a47e3f"
    ),
    "pipeline_event": (
        "8656d9163932b3a8d5cfe6b743c33a11"
        "3ee82a2d6a2dc9da4c8dbdae43363e9e"
    ),
    "instrumented": (
        "0b52556b41e740a2a8ace78ea9f2d3d4"
        "156a5f902cd5a2af43ceec1648f0e11b"
    ),
}


def _run(case, ha8k, mixed) -> str:
    if case == "uniform_fmax":
        return _digest(run_uncapped(ha8k, get_app("bt"), n_iters=N_ITERS))
    if case == "turbo":
        return _digest(
            run_uncapped(ha8k, get_app("dgemm"), n_iters=N_ITERS, turbo=True)
        )
    if case == "mixed_per_type_fmax":
        return _digest(run_uncapped(mixed, get_app("bt"), n_iters=N_ITERS))
    if case == "pipeline_event":
        return _digest(run_uncapped(ha8k, PIPELINE_APP, n_iters=N_ITERS))
    inst = instrument(get_app("mhd"))
    result = run_uncapped(ha8k, inst, n_iters=N_ITERS)
    assert [r.plan for r in inst.records] == [None]
    return _digest(result, inst)


@pytest.mark.parametrize("case", sorted(PINS))
def test_uncapped_pin(case, ha8k, mixed):
    assert _run(case, ha8k, mixed) == PINS[case]


def _budgeted_configs(system, app):
    base = run_uncapped(system, app, n_iters=N_ITERS)
    p = base.total_power_w
    return [
        ("vafs", 0.7 * p),
        (None, None),
        ("pc", 0.8 * p),
        ("naive", 0.01 * p),  # infeasible: its error stays in place
        (None, None),
        ("vapc", 0.9 * p),
    ]


@pytest.mark.parametrize("turbo", [False, True], ids=["fmax", "turbo"])
@pytest.mark.parametrize("app_name", ["bt", "pipe"])
def test_uncapped_rows_in_a_budgeted_batch_equal_one_row_runs(
    ha8k, app_name, turbo
):
    app = PIPELINE_APP if app_name == "pipe" else get_app(app_name)
    pvt = generate_pvt(ha8k)
    configs = _budgeted_configs(ha8k, app)
    batch = run_budgeted_batched(
        ha8k, app, configs, pvt=pvt, n_iters=N_ITERS, turbo=turbo
    )
    alone = _digest(run_uncapped(ha8k, app, n_iters=N_ITERS, turbo=turbo))
    plain = run_budgeted_batched(
        ha8k, app, [c for c in configs if c[0] is not None],
        pvt=pvt, n_iters=N_ITERS,
    )
    budgeted = iter(plain)
    for (scheme, _budget), got in zip(configs, batch):
        if scheme is None:
            assert _digest(got) == alone
            assert got.solution is None and got.cap_met.all()
            continue
        # turbo applies to uncapped rows only.
        want = next(budgeted)
        if isinstance(want, Exception):
            assert type(got) is type(want)
            assert (got.budget_w, got.floor_w) == (want.budget_w, want.floor_w)
        else:
            assert _digest(got) == _digest(want)


def test_uncapped_rows_on_a_mixed_fleet_equal_one_row_runs(mixed):
    app = get_app("bt")
    base = run_uncapped(mixed, app, n_iters=N_ITERS)
    batch = run_budgeted_batched(
        mixed, app,
        [("vafsor", 0.8 * base.total_power_w), (None, None)],
        n_iters=N_ITERS, noisy=False,
    )
    assert _digest(batch[1]) == _digest(base)


def test_instrumented_batch_records_uncapped_rows_unplanned(ha8k):
    inst = instrument(get_app("mhd"))
    base = run_uncapped(ha8k, get_app("mhd"), n_iters=N_ITERS)
    run_budgeted_batched(
        ha8k, inst,
        [(None, None), ("vafsor", 0.8 * base.total_power_w)],
        n_iters=N_ITERS,
    )
    assert [r.plan for r in inst.records] == [None, "vafsor"]
    assert inst.records[0].duration_s == base.makespan_s
    assert inst.records[0].mean_power_w == base.total_power_w


def test_half_spelled_uncapped_row_is_rejected(ha8k):
    with pytest.raises(ConfigurationError):
        run_budgeted_batched(ha8k, get_app("bt"), [(None, 100.0)])
