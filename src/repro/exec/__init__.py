"""Experiment execution engine: persistent run cache + parallel fan-out.

The sweep experiments describe each managed run as a
:class:`~repro.exec.cache.RunKey` and hand batches of keys to an
:class:`~repro.exec.engine.ExperimentEngine`, which answers from a
content-addressed on-disk cache where it can and fans the rest out over
a process pool.  Runs are deterministic functions of their key (see
:mod:`repro.exec.engine`), so parallel, sequential, and cached results
are bit-identical — `tests/exec/` holds the differential proof.
"""

from repro.exec.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    RunKey,
    default_cache_dir,
)
from repro.exec.engine import (
    ExperimentEngine,
    configure,
    execute_key,
    get_engine,
    pins_workers,
    reset,
)
from repro.exec.metrics import BatchRecord, RunRecord, RunStats

# Re-exported so front-ends (the CLI) can pin shard layout without a
# direct cli -> simmpi import edge; the engine owns the knob.
from repro.simmpi.sharding import ShardPlan, ShardSpec
from repro.exec.shared import (
    SharedFleet,
    attach_fleet,
    destroy_fleet,
    export_fleet,
    fleet_pvt,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ResultCache",
    "RunKey",
    "default_cache_dir",
    "ExperimentEngine",
    "configure",
    "execute_key",
    "get_engine",
    "pins_workers",
    "reset",
    "BatchRecord",
    "RunRecord",
    "RunStats",
    "ShardPlan",
    "ShardSpec",
    "SharedFleet",
    "attach_fleet",
    "destroy_fleet",
    "export_fleet",
    "fleet_pvt",
]
