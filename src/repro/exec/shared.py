"""Zero-copy fleet handoff to pool workers via POSIX shared memory.

A batched sweep ships each distinct fleet to the worker pool **once**:
the parent exports the four :class:`~repro.hardware.variability.ModuleVariation`
arrays (``leak``, ``dyn``, ``dram``, ``perf``) into one
:class:`multiprocessing.shared_memory.SharedMemory` block and pickles
only a small :class:`SharedFleet` handle per task.  Workers attach the
block and rebuild the :class:`~repro.cluster.system.System` around
read-only ndarray *views* of the mapping — no per-task pickling of
fleet-sized arrays, no re-sampling of variation in every worker.

Bit-identity is inherited rather than argued: the exported arrays are
byte-for-byte the parent's ground truth, and everything else a run
depends on (the :class:`~repro.util.rng.RngFactory`, the
microarchitecture) rides along in the handle, so a worker-side run sees
exactly the state an in-process run would.

Lifecycle: the parent calls :func:`export_fleet` before submitting a
group and :func:`destroy_fleet` after the pool has drained (POSIX keeps
existing worker mappings valid across the unlink).  Workers cache their
attachment per shared-memory name for the life of the process.
"""

from __future__ import annotations

import atexit
import gc
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.cluster.system import System
from repro.core.pvt import PowerVariationTable, generate_pvt
from repro.hardware.devices import DeviceMap, DeviceType
from repro.hardware.microarch import Microarchitecture
from repro.hardware.module import ModuleArray
from repro.hardware.variability import ModuleVariation
from repro.util.rng import RngFactory
from repro.util.shm import attach_block as _attach_block

__all__ = [
    "SharedFleet",
    "export_fleet",
    "attach_fleet",
    "destroy_fleet",
    "fleet_pvt",
]

#: ModuleVariation fields, in on-disk segment order.
_FIELDS = ("leak", "dyn", "dram", "perf")


@dataclass(frozen=True)
class SharedFleet:
    """Picklable handle describing a fleet exported to shared memory.

    Everything needed to rebuild the owning :class:`System` in another
    process: the shared-memory block name plus the small non-array
    attributes (the :class:`RngFactory` is what keeps worker-side PVT
    generation and RAPL noise bit-identical to the parent's).
    """

    shm_name: str
    n_modules: int
    name: str
    arch: Microarchitecture
    procs_per_node: int
    meter_kind: str
    dram_measurable: bool
    rng: RngFactory
    #: Device-type table of a heterogeneous fleet; ``None`` keeps the
    #: homogeneous block layout (4 float64 segments) byte-identical to
    #: before device maps existed.  When set, one int8 index segment
    #: follows the float64 segments and workers rebuild the
    #: :class:`~repro.hardware.devices.DeviceMap` from it zero-copy.
    device_types: tuple[DeviceType, ...] | None = None


def export_fleet(system: System) -> SharedFleet:
    """Copy ``system``'s variation arrays into a new shared-memory block.

    Returns the handle to pass to workers; the parent owns the block and
    must eventually call :func:`destroy_fleet`.
    """
    n = system.n_modules
    device_map = system.device_map
    itemsize = np.dtype(np.float64).itemsize
    size = len(_FIELDS) * n * itemsize + (n if device_map is not None else 0)
    shm = shared_memory.SharedMemory(create=True, size=size)
    try:
        variation = system.modules.variation
        for seg, field in enumerate(_FIELDS):
            view = np.ndarray((n,), dtype=np.float64, buffer=shm.buf, offset=seg * n * itemsize)
            np.copyto(view, np.asarray(getattr(variation, field), dtype=np.float64))
        if device_map is not None:
            view = np.ndarray(
                (n,), dtype=np.int8, buffer=shm.buf, offset=len(_FIELDS) * n * itemsize
            )
            np.copyto(view, device_map.index)
        handle = SharedFleet(
            shm_name=shm.name,
            n_modules=n,
            name=system.name,
            arch=system.arch,
            procs_per_node=system.procs_per_node,
            meter_kind=system.meter_kind,
            dram_measurable=system.dram_measurable,
            rng=system.rng,
            device_types=device_map.types if device_map is not None else None,
        )
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    # The exporter keeps its own mapping open until destroy_fleet() so the
    # block outlives any worker-side attach/close races.
    _OWNED[handle.shm_name] = shm
    return handle


#: Parent-side open mappings, keyed by block name (closed by destroy_fleet).
_OWNED: dict[str, shared_memory.SharedMemory] = {}

#: Worker-side attachments: one (mapping, System) per block name for the
#: life of the process — repeated groups over the same fleet attach once.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, System]] = {}


def attach_fleet(handle: SharedFleet) -> System:
    """Rebuild the :class:`System` around read-only views of the block.

    Cached per block name: a worker that executes several groups over
    the same fleet maps and validates it once.
    """
    cached = _ATTACHED.get(handle.shm_name)
    if cached is not None:
        return cached[1]
    shm = _attach_block(handle.shm_name)
    n = handle.n_modules
    itemsize = np.dtype(np.float64).itemsize
    views = {}
    for seg, field in enumerate(_FIELDS):
        view = np.ndarray((n,), dtype=np.float64, buffer=shm.buf, offset=seg * n * itemsize)
        view.flags.writeable = False
        views[field] = view
    device_map = None
    if handle.device_types is not None:
        idx = np.ndarray(
            (n,), dtype=np.int8, buffer=shm.buf, offset=len(_FIELDS) * n * itemsize
        )
        idx.flags.writeable = False
        device_map = DeviceMap(handle.device_types, idx)
    system = System(
        name=handle.name,
        arch=handle.arch,
        modules=ModuleArray(handle.arch, ModuleVariation(**views), device_map),
        procs_per_node=handle.procs_per_node,
        meter_kind=handle.meter_kind,
        rng=handle.rng,
        dram_measurable=handle.dram_measurable,
    )
    _ATTACHED[handle.shm_name] = (shm, system)
    return system


#: Worker-side PVT cache for attached fleets, keyed by block name.
_ATTACHED_PVT: dict[str, PowerVariationTable] = {}


def fleet_pvt(handle: SharedFleet) -> PowerVariationTable:
    """The attached fleet's Power Variation Table, built once per process.

    :func:`~repro.core.pvt.generate_pvt` draws only from the system's
    keyed :class:`RngFactory` streams (restarted per call), so a
    worker-built table is bit-identical to one the parent built for the
    same fleet.
    """
    pvt = _ATTACHED_PVT.get(handle.shm_name)
    if pvt is None:
        pvt = _ATTACHED_PVT[handle.shm_name] = generate_pvt(attach_fleet(handle))
    return pvt


@atexit.register
def _release_attachments() -> None:
    """Drop worker-side views before their mappings are torn down.

    ndarray views export the mapping's buffer; closing it while they are
    alive raises ``BufferError`` from ``SharedMemory.__del__`` during
    interpreter shutdown.  Releasing the Systems first (refcounting frees
    the views immediately) makes the close clean.
    """
    while _ATTACHED:
        _name, (shm, system) = _ATTACHED.popitem()
        del system
        gc.collect()
        try:
            shm.close()
        except BufferError:  # a view escaped into user code; let GC finish
            pass


def destroy_fleet(handle: SharedFleet) -> None:
    """Release the parent's mapping and unlink the block.

    Safe after the pool has drained: workers that still hold a mapping
    keep valid views (POSIX semantics); new attaches will fail, which is
    the point.
    """
    shm = _OWNED.pop(handle.shm_name, None)
    if shm is None:
        return
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # already unlinked (e.g. double destroy)
        pass
