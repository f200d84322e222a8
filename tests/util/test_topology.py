"""Tests for :mod:`repro.util.topology`: the sysfs prober, the flat
fallback, and the node-major CPU slicing rule.

Synthetic sysfs trees (``tmp_path``) drive the multi-node paths so the
suite behaves identically on 1-core CI containers and multi-socket
hosts; the live-machine assertions only check shape invariants.
"""

import os

import pytest

from repro.errors import ConfigurationError
from repro.util.topology import (
    NumaNode,
    NumaTopology,
    _parse_cpulist,
    cpu_slices,
    effective_cpu_count,
    probe_topology,
)


def make_sysfs(tmp_path, nodes):
    """A minimal sysfs tree: one cpulist file per node."""
    for node_id, cpulist in nodes.items():
        d = tmp_path / "devices/system/node" / f"node{node_id}"
        d.mkdir(parents=True)
        (d / "cpulist").write_text(cpulist + "\n")
    return tmp_path


class TestCpulistParsing:
    def test_ranges_and_singles(self):
        assert _parse_cpulist("0-3,8,10-11") == (0, 1, 2, 3, 8, 10, 11)

    def test_empty(self):
        assert _parse_cpulist("") == ()
        assert _parse_cpulist(" \n") == ()

    def test_junk_rejected(self):
        with pytest.raises(ConfigurationError):
            _parse_cpulist("0-3,zebra")


class TestProbe:
    def test_synthetic_two_node(self, tmp_path):
        sysfs = make_sysfs(tmp_path, {0: "0-3", 1: "4-7"})
        topo = probe_topology(sysfs, affinity=set(range(8)))
        assert topo.source == "sysfs"
        assert topo.n_nodes == 2
        assert topo.cpus == tuple(range(8))

    def test_affinity_restricts_nodes(self, tmp_path):
        sysfs = make_sysfs(tmp_path, {0: "0-3", 1: "4-7"})
        topo = probe_topology(sysfs, affinity={1, 2, 5})
        assert topo.source == "sysfs"
        assert [n.cpus for n in topo.nodes] == [(1, 2), (5,)]

    def test_missing_sysfs_falls_flat(self, tmp_path):
        topo = probe_topology(tmp_path, affinity={0, 1})
        assert topo.source == "flat"
        assert topo.n_nodes == 1
        assert topo.cpus == (0, 1)

    def test_uncovered_mask_falls_flat(self, tmp_path):
        # Affinity includes a CPU no node file accounts for.
        sysfs = make_sysfs(tmp_path, {0: "0-3"})
        topo = probe_topology(sysfs, affinity={0, 17})
        assert topo.source == "flat"
        assert topo.cpus == (0, 17)

    def test_empty_intersection_falls_flat(self, tmp_path):
        sysfs = make_sysfs(tmp_path, {0: "0-3"})
        topo = probe_topology(sysfs, affinity={8, 9})
        assert topo.source == "flat"
        assert topo.cpus == (8, 9)

    def test_live_machine_probe_is_sane(self):
        topo = probe_topology()
        assert topo.n_cpus == effective_cpu_count()
        assert topo.n_cpus >= 1
        assert sorted(topo.cpus) == list(topo.cpus) or topo.n_nodes > 1


class TestTopologyValidation:
    def test_empty_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            NumaTopology(nodes=(), source="flat")

    def test_node_without_cpus_rejected(self):
        with pytest.raises(ConfigurationError):
            NumaTopology(nodes=(NumaNode(0, ()),), source="flat")

    def test_overlapping_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            NumaTopology(
                nodes=(NumaNode(0, (0, 1)), NumaNode(1, (1, 2))),
                source="sysfs",
            )


def two_node_topology():
    return NumaTopology(
        nodes=(NumaNode(0, (0, 1, 2, 3)), NumaNode(1, (4, 5, 6, 7))),
        source="sysfs",
    )


class TestCpuSlices:
    def test_slices_partition_node_major(self):
        slices = cpu_slices(2, two_node_topology())
        assert slices == ((0, 1, 2, 3), (4, 5, 6, 7))

    def test_slices_exact_cover_when_uneven(self):
        slices = cpu_slices(3, two_node_topology())
        flat = [c for s in slices for c in s]
        assert sorted(flat) == list(range(8))
        assert len(flat) == len(set(flat))

    def test_more_workers_than_cpus_wraps(self):
        topo = NumaTopology(nodes=(NumaNode(0, (0,)),), source="flat")
        slices = cpu_slices(4, topo)
        assert slices == ((0,), (0,), (0,), (0,))

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            cpu_slices(0, two_node_topology())


class TestProcessGlobals:
    def test_effective_count_matches_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert effective_cpu_count() == len(os.sched_getaffinity(0))
        else:  # pragma: no cover - non-Linux
            assert effective_cpu_count() >= 1
