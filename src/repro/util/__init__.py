"""Shared utilities: deterministic RNG plumbing, statistics, table rendering."""

from repro.util.indexing import as_contiguous_slice
from repro.util.rng import RngFactory, spawn_rng
from repro.util.stats import (
    LinearFit,
    linear_fit,
    r_squared,
    worst_case_variation,
    variation_summary,
)
from repro.util.tables import render_table
from repro.util.topology import (
    NumaNode,
    NumaTopology,
    cpu_slices,
    effective_cpu_count,
    probe_topology,
)

__all__ = [
    "as_contiguous_slice",
    "RngFactory",
    "spawn_rng",
    "NumaNode",
    "NumaTopology",
    "cpu_slices",
    "effective_cpu_count",
    "probe_topology",
    "LinearFit",
    "linear_fit",
    "r_squared",
    "worst_case_variation",
    "variation_summary",
    "render_table",
]
