"""Shared constants and cached system builders for the experiment harness."""

from __future__ import annotations

from functools import lru_cache

from repro.cluster.configs import PAPER_STUDY_SIZES, build_system
from repro.cluster.system import System
from repro.core.pvt import PowerVariationTable, generate_pvt
from repro.exec import RunKey

__all__ = [
    "DEFAULT_SEED",
    "CS_GRID_KW",
    "CM_GRID_W",
    "PAPER_TABLE4",
    "ha8k",
    "ha8k_pvt",
    "ha8k_run_key",
    "paper_system",
]

#: Root seed of every published experiment in this repository.
DEFAULT_SEED = 2015

#: The paper's system-level constraints (Table 4 header), in kW.
CS_GRID_KW = (211, 192, 173, 154, 134, 115, 96)

#: The corresponding average module-level constraints (Table 4 row 2), W.
CM_GRID_W = (110, 100, 90, 80, 70, 60, 50)

#: Table 4, verbatim: which (app, Cm) cells the paper marks as meaningfully
#: constrained ("X"), insufficiently constrained ("•"), or inoperable ("--").
PAPER_TABLE4: dict[str, dict[int, str]] = {
    "dgemm": {110: "X", 100: "X", 90: "X", 80: "X", 70: "X", 60: "--", 50: "--"},
    "stream": {110: "•", 100: "X", 90: "X", 80: "X", 70: "--", 60: "--", 50: "--"},
    "mhd": {110: "•", 100: "•", 90: "X", 80: "X", 70: "X", 60: "X", 50: "--"},
    "bt": {110: "•", 100: "•", 90: "•", 80: "X", 70: "X", 60: "X", 50: "X"},
    "sp": {110: "•", 100: "•", 90: "•", 80: "X", 70: "X", 60: "X", 50: "X"},
    "mvmc": {110: "•", 100: "•", 90: "•", 80: "X", 70: "X", 60: "X", 50: "--"},
}


@lru_cache(maxsize=8)
def ha8k(n_modules: int = 1920, seed: int = DEFAULT_SEED) -> System:
    """The HA8K evaluation system (cached — variation is immutable)."""
    return build_system("ha8k", n_modules=n_modules, seed=seed)


@lru_cache(maxsize=8)
def ha8k_pvt(n_modules: int = 1920, seed: int = DEFAULT_SEED) -> PowerVariationTable:
    """The HA8K install-time PVT (cached alongside the system)."""
    return generate_pvt(ha8k(n_modules, seed))


def ha8k_run_key(
    app: str,
    scheme: str | None,
    budget_w: float | None,
    *,
    n_modules: int = 1920,
    n_iters: int | None = None,
    seed: int = DEFAULT_SEED,
    **knobs,
) -> RunKey:
    """A :class:`RunKey` on the HA8K evaluation system (the sweeps'
    common case: default seed, default knobs); ``knobs`` sets any other
    :class:`RunKey` field."""
    return RunKey(
        system="ha8k",
        n_modules=n_modules,
        seed=seed,
        app=app,
        scheme=scheme,
        budget_w=budget_w,
        n_iters=n_iters,
        **knobs,
    )


@lru_cache(maxsize=8)
def paper_system(name: str, seed: int = DEFAULT_SEED) -> System:
    """One of the paper's systems at the size the study actually measured."""
    return build_system(name, n_modules=PAPER_STUDY_SIZES[name.lower()], seed=seed)
