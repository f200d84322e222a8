"""CPU/NUMA topology probing.

This module is the one place that knows what the cores *are*.  Two
pieces:

* :func:`probe_topology` parses the Linux sysfs NUMA layout
  (``/sys/devices/system/node/node*/cpulist``) and intersects it with
  the process's effective CPU set (:func:`os.sched_getaffinity` — which
  honours cgroup quotas and ``taskset`` restrictions, unlike
  :func:`os.cpu_count`).  Anything that stops the probe — a non-Linux
  host, a masked sysfs, a node whose CPUs are all outside the affinity
  mask — degrades to a single synthetic node holding the whole
  effective set, so dev boxes, containers, and multi-socket production
  hosts all see the same shape of answer.
* :func:`effective_cpu_count` is the affinity-aware replacement for
  ``os.cpu_count()`` that every default worker count in this package
  (the tiled executor's threads, the load generator's connections)
  derives from.

Topology is execution layout only — nothing here may influence a
result, a cache digest, or a plan's simulated semantics
(``docs/ARCHITECTURE.md`` invariant 11).  The module is a ``util`` leaf:
it imports nothing above :mod:`repro.errors`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "NumaNode",
    "NumaTopology",
    "probe_topology",
    "effective_cpu_count",
]

_SYSFS_NODES = "devices/system/node"


def _parse_cpulist(text: str) -> tuple[int, ...]:
    """Parse the kernel's cpulist syntax (``"0-3,8,10-11"``) into a
    sorted CPU tuple.  Empty/whitespace input is an empty tuple."""
    cpus: set[int] = set()
    for part in text.strip().split(","):
        part = part.strip()
        if not part:
            continue
        lo, sep, hi = part.partition("-")
        try:
            if sep:
                cpus.update(range(int(lo), int(hi) + 1))
            else:
                cpus.add(int(lo))
        except ValueError:
            raise ConfigurationError(
                f"unparseable cpulist entry {part!r} in {text!r}"
            ) from None
    return tuple(sorted(cpus))


@dataclass(frozen=True)
class NumaNode:
    """One NUMA node: its id and the effective CPUs that live on it."""

    node_id: int
    cpus: tuple[int, ...]

    @property
    def n_cpus(self) -> int:
        return len(self.cpus)


@dataclass(frozen=True)
class NumaTopology:
    """The machine as the scheduler may use it.

    ``nodes`` hold only CPUs inside the effective affinity mask, every
    effective CPU appears in exactly one node, and ``source`` records
    how the answer was obtained (``"sysfs"`` or ``"flat"`` — the
    single-node fallback).
    """

    nodes: tuple[NumaNode, ...]
    source: str

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigurationError("topology must have at least one node")
        seen: set[int] = set()
        for node in self.nodes:
            if not node.cpus:
                raise ConfigurationError(
                    f"node {node.node_id} has no effective CPUs"
                )
            overlap = seen.intersection(node.cpus)
            if overlap:
                raise ConfigurationError(
                    f"CPUs {sorted(overlap)} appear on more than one node"
                )
            seen.update(node.cpus)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_cpus(self) -> int:
        return sum(n.n_cpus for n in self.nodes)

    @property
    def cpus(self) -> tuple[int, ...]:
        """Every effective CPU, grouped by node (node-major order)."""
        return tuple(cpu for node in self.nodes for cpu in node.cpus)


def _effective_cpus() -> set[int]:
    try:
        return set(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return set(range(os.cpu_count() or 1))


def effective_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``len(os.sched_getaffinity(0))`` — which reflects ``taskset``/cgroup
    restrictions — with an ``os.cpu_count()`` fallback on platforms
    without affinity support.  Never less than 1.
    """
    return max(1, len(_effective_cpus()))


def _flat_topology(effective: set[int]) -> NumaTopology:
    return NumaTopology(
        nodes=(NumaNode(node_id=0, cpus=tuple(sorted(effective))),),
        source="flat",
    )


def probe_topology(
    sysfs_root: str | Path = "/sys",
    affinity: set[int] | None = None,
) -> NumaTopology:
    """Probe the NUMA layout, restricted to the effective CPU set.

    ``sysfs_root`` and ``affinity`` exist so tests can feed synthetic
    layouts and masks; production callers use the defaults.  Any probe
    failure — missing sysfs, non-Linux, a mask that intersects no node —
    returns the single-node ``"flat"`` fallback over the effective set,
    so callers never branch on probe success.
    """
    effective = set(affinity) if affinity is not None else _effective_cpus()
    if not effective:
        effective = {0}
    sysfs = Path(sysfs_root)
    nodes: list[NumaNode] = []
    try:
        node_dirs = sorted(
            (d for d in (sysfs / _SYSFS_NODES).iterdir()
             if d.name.startswith("node") and d.name[4:].isdigit()),
            key=lambda d: int(d.name[4:]),
        )
        for node_dir in node_dirs:
            cpus = _parse_cpulist((node_dir / "cpulist").read_text())
            local = tuple(c for c in cpus if c in effective)
            if local:
                nodes.append(NumaNode(node_id=int(node_dir.name[4:]), cpus=local))
    except (OSError, ConfigurationError):
        return _flat_topology(effective)
    covered = {c for n in nodes for c in n.cpus}
    if not nodes or covered != effective:
        # A mask the node files cannot account for (offline nodes,
        # masked sysfs, empty intersection): fall back rather than
        # silently dropping CPUs.
        return _flat_topology(effective)
    return NumaTopology(nodes=tuple(nodes), source="sysfs")
