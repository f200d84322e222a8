"""Tests for synthetic workload generation."""

import numpy as np
import pytest

from repro.experiments.workloads import WorkloadSpec, generate_workload
from repro.errors import ConfigurationError
from repro.util.rng import spawn_rng


def spec(**kw):
    base = dict(
        n_jobs=20, mean_interarrival_s=5.0, min_modules=16, max_modules=128
    )
    base.update(kw)
    return WorkloadSpec(**base)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            spec(n_jobs=0)
        with pytest.raises(ConfigurationError):
            spec(min_modules=0)
        with pytest.raises(ConfigurationError):
            spec(min_modules=200)  # > max
        with pytest.raises(ConfigurationError):
            spec(width_quantum=0)
        with pytest.raises(ConfigurationError):
            spec(apps=("hpl-typo",))
        with pytest.raises(ConfigurationError):
            spec(apps=())


class TestGenerate:
    def test_count_and_fields(self):
        jobs = generate_workload(spec(), spawn_rng(0, "w"))
        assert len(jobs) == 20
        names = {j.name for j in jobs}
        assert len(names) == 20  # unique

    def test_arrivals_sorted(self):
        jobs = generate_workload(spec(), spawn_rng(1, "w"))
        arrivals = [j.arrival_s for j in jobs]
        assert arrivals == sorted(arrivals)

    def test_widths_quantised_and_bounded(self):
        s = spec(width_quantum=8)
        jobs = generate_workload(s, spawn_rng(2, "w"))
        for j in jobs:
            assert j.n_modules % 8 == 0
            assert 8 <= j.n_modules <= s.max_modules

    def test_apps_from_spec(self):
        jobs = generate_workload(spec(apps=("dgemm",)), spawn_rng(3, "w"))
        assert all(j.app.name == "dgemm" for j in jobs)

    def test_deterministic(self):
        a = generate_workload(spec(), spawn_rng(4, "w"))
        b = generate_workload(spec(), spawn_rng(4, "w"))
        assert [(j.name, j.n_modules, j.arrival_s) for j in a] == [
            (j.name, j.n_modules, j.arrival_s) for j in b
        ]

    def test_load_scales_with_interarrival(self):
        fast = generate_workload(spec(mean_interarrival_s=1.0), spawn_rng(5, "w"))
        slow = generate_workload(spec(mean_interarrival_s=50.0), spawn_rng(5, "w"))
        assert fast[-1].arrival_s < slow[-1].arrival_s
