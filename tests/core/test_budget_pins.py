"""Bit-level pins of the scalar α-solve and the Table 4 classifier.

Each digest hashes every output :func:`solve_alpha` produces for one
(model, ``chunk_modules``) pair over a fixed budget ladder: below the
floor, at it, binding, at the ceiling, above it, and the invalid
budgets ``0``, ``-1``, ``nan`` and ``inf``.  A feasible budget
contributes its α, raw α, constrained flag, frequency, budget and the
raw bytes of the CPU/DRAM allocations; an infeasible one contributes
the ``(budget, floor)`` payload of its :class:`InfeasibleBudgetError`.
Any change to the Eq (5)–(9) arithmetic, its summation order or its
error payloads moves a digest.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.core.budget import classify_constraint, solve_alpha
from repro.core.model import LinearPowerModel
from repro.errors import InfeasibleBudgetError

N = 37


def _uniform() -> LinearPowerModel:
    return LinearPowerModel(
        fmin=1.2,
        fmax=2.7,
        p_cpu_max=np.full(N, 100.0),
        p_cpu_min=np.full(N, 55.0),
        p_dram_max=np.full(N, 12.0),
        p_dram_min=np.full(N, 8.0),
    )


def _spread() -> LinearPowerModel:
    # This draw's floor and span both change with the chunking (three
    # distinct sums over None/1/7/64), so the pins see which sum each
    # step of the solve uses.
    rng = np.random.default_rng(2037)
    jitter = 1.0 + 0.08 * rng.standard_normal(N)
    return LinearPowerModel(
        fmin=1.2,
        fmax=2.7,
        p_cpu_max=101.3 * jitter,
        p_cpu_min=54.7 * jitter,
        p_dram_max=12.0 + rng.uniform(0.0, 1.5, N),
        p_dram_min=7.9 + rng.uniform(0.0, 0.4, N),
    )


def _zero_span() -> LinearPowerModel:
    rng = np.random.default_rng(16)
    cpu = 50.0 + rng.uniform(0.0, 3.0, N)
    dram = np.full(N, 10.1)
    return LinearPowerModel(
        fmin=1.6, fmax=1.6, p_cpu_max=cpu, p_cpu_min=cpu,
        p_dram_max=dram, p_dram_min=dram,
    )


MODELS = {"uniform": _uniform, "spread": _spread, "zero_span": _zero_span}


def _budgets(m: LinearPowerModel) -> list[float]:
    floor, ceiling = m.total_min_w(), m.total_max_w()
    return [
        0.9 * floor,
        floor,
        0.5 * (floor + ceiling),
        ceiling,
        1.5 * ceiling,
        0,
        -1,
        float("nan"),
        float("inf"),
    ]


def _f64(x) -> bytes:
    return struct.pack("<d", float(x))


def solve_digest(m: LinearPowerModel, chunk: int | None) -> str:
    h = hashlib.sha256()
    for b in _budgets(m):
        try:
            sol = solve_alpha(m, b, chunk_modules=chunk)
        except InfeasibleBudgetError as err:
            h.update(b"E" + _f64(err.budget_w) + _f64(err.floor_w))
            continue
        h.update(b"S" + _f64(sol.alpha) + _f64(sol.raw_alpha))
        h.update(b"1" if sol.constrained else b"0")
        h.update(_f64(sol.freq_ghz) + _f64(sol.budget_w))
        h.update(np.ascontiguousarray(sol.pcpu_w, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(sol.pdram_w, dtype="<f8").tobytes())
    return h.hexdigest()


#: sha256 of :func:`solve_digest`, keyed by (model, chunk_modules).
SOLVE_PINS = {
    ("uniform", None): "d264795f0de3c4fbfaae7d91bf061231f87739eaf1b7c991e931f8e4207aad2c",
    ("uniform", 1): "d264795f0de3c4fbfaae7d91bf061231f87739eaf1b7c991e931f8e4207aad2c",
    ("uniform", 7): "d264795f0de3c4fbfaae7d91bf061231f87739eaf1b7c991e931f8e4207aad2c",
    ("uniform", 64): "d264795f0de3c4fbfaae7d91bf061231f87739eaf1b7c991e931f8e4207aad2c",
    ("spread", None): "1db374361f57f4bb628a99ccaad604b2c2706c558ac24c238d76de9dd776c682",
    ("spread", 1): "1db374361f57f4bb628a99ccaad604b2c2706c558ac24c238d76de9dd776c682",
    ("spread", 7): "29f845ad51d8350759f13775ecc3126ddfa858234a4c44f63361ae3992ed193e",
    ("spread", 64): "00168494816ecb1a06338f7355d595bdf8419eba9a00743228b3469aa0a032c5",
    ("zero_span", None): "619f61ac113bcc95e9cbefe1715f66f41a50e739a3d26ef01e86625c981a5edc",
    ("zero_span", 1): "619f61ac113bcc95e9cbefe1715f66f41a50e739a3d26ef01e86625c981a5edc",
    ("zero_span", 7): "039e092c151d9a70ab76ba94cfb10dbb5a85afa187c726d12f5a32edf091de76",
    ("zero_span", 64): "619f61ac113bcc95e9cbefe1715f66f41a50e739a3d26ef01e86625c981a5edc",
}

#: classify_constraint at (floor−ε, floor, ceiling, ceiling+ε), ε one ulp.
CLASSIFY_PINS = {
    "uniform": ["--", "X", "•", "•"],
    "spread": ["--", "X", "•", "•"],
    "zero_span": ["--", "•", "•", "•"],
}


@pytest.mark.parametrize("name, chunk", list(SOLVE_PINS), ids=str)
def test_solve_alpha_outputs_pinned(name, chunk):
    assert solve_digest(MODELS[name](), chunk) == SOLVE_PINS[name, chunk]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_classify_constraint_pinned(name):
    m = MODELS[name]()
    floor, ceiling = m.total_min_w(), m.total_max_w()
    budgets = (
        np.nextafter(floor, -np.inf),
        floor,
        ceiling,
        np.nextafter(ceiling, np.inf),
    )
    assert [classify_constraint(m, float(b)) for b in budgets] == CLASSIFY_PINS[name]
