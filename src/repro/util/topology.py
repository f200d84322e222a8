"""CPU/NUMA topology probing and the process-wide core ledger.

The worker pools place work on cores; this module is the one place
that knows what the cores *are*.  Three pieces:

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
  derives from.
* :class:`CpuBudget` is a process-wide ledger over the effective CPU
  set: pool builders claim node-aware, disjoint CPU slices for their
  workers instead of each sizing itself to "all cores", so composed
  pools (engine ``jobs>1`` × inner tile threads) partition the machine
  rather than oversubscribe it.

Placement is execution layout only — nothing here may influence a
result, a cache digest, or a plan's simulated semantics
(``docs/ARCHITECTURE.md`` invariant 11).  The module is a ``util`` leaf:
it imports nothing above :mod:`repro.errors`.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "NumaNode",
    "NumaTopology",
    "CpuBudget",
    "CpuLease",
    "probe_topology",
    "effective_cpu_count",
    "cpu_budget",
    "reset_topology",
]

#: Force the probe's behaviour: ``"flat"`` skips sysfs and returns the
#: single-node fallback (what CI uses to prove both paths agree);
#: ``"sysfs"`` (the default) probes normally.
_TOPOLOGY_ENV = "REPRO_TOPOLOGY"
_TOPOLOGY_MODES = ("sysfs", "flat")

_SYSFS_NODES = "devices/system/node"
_SYSFS_LLC_GLOB = "devices/system/cpu/cpu{cpu}/cache/index*"


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


def _parse_size(text: str) -> int | None:
    """A sysfs cache size (``"266240K"``, ``"32M"``) in bytes."""
    text = text.strip()
    scale = 1
    if text[-1:].upper() == "K":
        scale, text = 1024, text[:-1]
    elif text[-1:].upper() == "M":
        scale, text = 1024 * 1024, text[:-1]
    try:
        return int(text) * scale
    except ValueError:
        return None


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
    single-node fallback).  ``llc_bytes`` is the last-level cache size
    of one node's CPUs (``None`` when sysfs does not expose it).
    """

    nodes: tuple[NumaNode, ...]
    source: str
    llc_bytes: int | None = None

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

    def node_of(self, cpu: int) -> int:
        """The node id owning ``cpu`` (-1 when outside the topology)."""
        for node in self.nodes:
            if cpu in node.cpus:
                return node.node_id
        return -1


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


def _topology_mode() -> str:
    raw = os.environ.get(_TOPOLOGY_ENV)
    if raw is None:
        return "sysfs"
    if raw not in _TOPOLOGY_MODES:
        raise ConfigurationError(
            f"{_TOPOLOGY_ENV} must be one of {_TOPOLOGY_MODES}; got {raw!r}"
        )
    return raw


def _probe_llc(sysfs: Path, cpu: int) -> int | None:
    """Largest (= last-level) cache size visible to ``cpu``."""
    best: tuple[int, int] | None = None  # (level, bytes)
    for index in sorted(sysfs.glob(_SYSFS_LLC_GLOB.format(cpu=cpu))):
        try:
            level = int((index / "level").read_text())
            size = _parse_size((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if size is not None and (best is None or level > best[0]):
            best = (level, size)
    return best[1] if best else None


def _flat_topology(effective: set[int], llc: int | None) -> NumaTopology:
    return NumaTopology(
        nodes=(NumaNode(node_id=0, cpus=tuple(sorted(effective))),),
        source="flat",
        llc_bytes=llc,
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
    so callers never branch on probe success.  ``REPRO_TOPOLOGY=flat``
    forces the fallback (the CI smoke proves both paths place work
    identically).
    """
    effective = set(affinity) if affinity is not None else _effective_cpus()
    if not effective:
        effective = {0}
    sysfs = Path(sysfs_root)
    llc = _probe_llc(sysfs, min(effective))
    if _topology_mode() == "flat":
        return _flat_topology(effective, llc)
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
        return _flat_topology(effective, llc)
    covered = {c for n in nodes for c in n.cpus}
    if not nodes or covered != effective:
        # A mask the node files cannot account for (offline nodes,
        # masked sysfs, empty intersection): fall back rather than
        # silently dropping CPUs.
        return _flat_topology(effective, llc)
    return NumaTopology(nodes=tuple(nodes), source="sysfs", llc_bytes=llc)


# -- the core ledger -----------------------------------------------------------


@dataclass(frozen=True)
class CpuLease:
    """One claim against the :class:`CpuBudget`: a tuple of node-aware
    CPU slices, one per pool worker.  Release via
    :meth:`CpuBudget.release` (or the budget's context helper)."""

    label: str
    slices: tuple[tuple[int, ...], ...]
    token: int = field(compare=False, default=0)

    @property
    def cpus(self) -> tuple[int, ...]:
        """Distinct CPUs granted across every slice."""
        return tuple(sorted({c for s in self.slices for c in s}))

    @property
    def n_workers(self) -> int:
        return len(self.slices)


class CpuBudget:
    """Process-wide ledger partitioning the effective CPU set.

    Pool builders :meth:`claim` slices for their workers; the ledger
    hands out node-aware contiguous runs and tracks what is outstanding
    so composed pools can be audited (``claimed_cpus`` vs ``total``).
    Claiming more workers than CPUs shares CPUs round-robin — the
    slices stay non-empty and placement stays deterministic, it simply
    stops being exclusive (which a 1-core container cannot avoid).
    """

    def __init__(self, topology: NumaTopology | None = None):
        self._topology = topology if topology is not None else probe_topology()
        self._lock = threading.Lock()
        self._leases: dict[int, CpuLease] = {}
        self._next_token = 1

    @property
    def topology(self) -> NumaTopology:
        return self._topology

    @property
    def total(self) -> int:
        """Cores in the budget (the effective CPU count)."""
        return self._topology.n_cpus

    @property
    def claimed_cpus(self) -> int:
        """Distinct CPUs currently granted across live leases."""
        with self._lock:
            return len({
                c for lease in self._leases.values() for c in lease.cpus
            })

    @property
    def n_leases(self) -> int:
        with self._lock:
            return len(self._leases)

    def slices(self, n_workers: int) -> tuple[tuple[int, ...], ...]:
        """``n_workers`` node-aware CPU slices covering the budget.

        CPUs are laid out node-major, so a slice's CPUs share a node
        whenever the arithmetic allows; with more workers than CPUs the
        assignment wraps (slices of one shared CPU each).
        """
        if n_workers <= 0:
            raise ConfigurationError(
                f"n_workers must be positive; got {n_workers}"
            )
        cpus = self._topology.cpus
        if n_workers >= len(cpus):
            return tuple((cpus[i % len(cpus)],) for i in range(n_workers))
        base, extra = divmod(len(cpus), n_workers)
        out: list[tuple[int, ...]] = []
        start = 0
        for w in range(n_workers):
            width = base + (1 if w < extra else 0)
            out.append(cpus[start:start + width])
            start += width
        return tuple(out)

    def claim(self, n_workers: int, label: str = "pool") -> CpuLease:
        """Claim slices for ``n_workers`` and record the lease."""
        slices = self.slices(n_workers)
        with self._lock:
            lease = CpuLease(label=label, slices=slices, token=self._next_token)
            self._leases[self._next_token] = lease
            self._next_token += 1
        return lease

    def release(self, lease: CpuLease) -> None:
        """Return a lease to the budget (idempotent)."""
        with self._lock:
            self._leases.pop(lease.token, None)


#: The process-wide budget, built lazily from the live topology.
_BUDGET: CpuBudget | None = None
_BUDGET_LOCK = threading.Lock()


def cpu_budget() -> CpuBudget:
    """The process-wide :class:`CpuBudget` (created on first use)."""
    global _BUDGET
    with _BUDGET_LOCK:
        if _BUDGET is None:
            _BUDGET = CpuBudget()
        return _BUDGET


def reset_topology() -> None:
    """Drop the cached process-wide budget (tests, or after the
    process's affinity mask changes)."""
    global _BUDGET
    with _BUDGET_LOCK:
        _BUDGET = None
