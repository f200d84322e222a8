"""Cluster substrate: systems, configurations, and scheduling.

* :mod:`repro.cluster.system` — a :class:`System` bundles a
  :class:`~repro.hardware.ModuleArray` with its measurement and control
  capabilities and a deterministic RNG namespace.
* :mod:`repro.cluster.configs` — factories for the paper's four systems
  (Table 2): Cab, Vulcan, Teller and HA8K.
* :mod:`repro.cluster.scheduler` — a job scheduler that hands module
  allocations to applications (the budgeting framework takes the
  scheduler's module list as input, Fig 4).
"""

from repro.cluster.configs import SYSTEM_FACTORIES, build_hetero_system, build_system
from repro.cluster.scheduler import Allocation, JobScheduler
from repro.cluster.system import System

__all__ = [
    "System",
    "build_system",
    "build_hetero_system",
    "SYSTEM_FACTORIES",
    "JobScheduler",
    "Allocation",
]
