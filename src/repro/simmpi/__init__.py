"""Vectorised bulk-synchronous SPMD application simulator.

The paper's performance phenomena are *timing* phenomena: per-rank
compute speed follows module frequency, and synchronising communication
(MPI_Sendrecv halo exchanges, allreduces, barriers) propagates straggler
delay while accumulating wait time on the fast ranks.  This subpackage
simulates exactly that:

* :mod:`repro.simmpi.machine` — :class:`BatchedBspMachine`, per-rank
  virtual clocks for a stack of configurations, vectorised over configs
  and ranks (a single run is a one-row machine).  Its column operations
  act on one tile of ranks; the full-width ``advance_local`` /
  ``barrier`` / ``allreduce`` / ``sendrecv`` are the same operations
  over all ranks.
* :mod:`repro.simmpi.topology` — :class:`Torus`, the periodic rank
  torus a halo exchange runs on (a ring is the 1-D torus), and the
  explicit ``(n_ranks, k)`` neighbour tables of the event-driven
  programs.
* :mod:`repro.simmpi.tracing` — :class:`RankTrace`, the per-rank timing
  record (total, compute, and MPI wait time, the quantity plotted in
  Fig 3 and Fig 8(ii)).
* :mod:`repro.simmpi.eventsim` — the general path: an event-driven
  simulator with true point-to-point matching, blocking receives and
  deadlock detection, for programs that are not bulk-synchronous.  The
  two paths cross-validate each other in the test suite.
* :mod:`repro.simmpi.fastpath` — the fleet-scale fast path: a vector-op
  program IR executed as whole-fleet array operations with steady-state
  fast-forwarding by one tiled executor (planned by
  :mod:`repro.simmpi.sharding`; an untiled run is a one-tile plan), plus
  the lowering onto the event-driven machine that the differential
  equivalence suite verifies against.
"""

from repro.simmpi.eventsim import (
    Allreduce,
    Barrier,
    Compute,
    Elapse,
    EventDrivenMachine,
    Recv,
    Send,
)
from repro.simmpi.fastpath import (
    BspProgram,
    VAllreduce,
    VBarrier,
    VCompute,
    VElapse,
    VLoop,
    VSendrecv,
    is_bsp_expressible,
    run_event,
    run_fast,
    simulate_app,
)
from repro.simmpi.machine import BatchedBspMachine
from repro.simmpi.topology import Torus
from repro.simmpi.tracing import RankTrace

__all__ = [
    "BatchedBspMachine",
    "RankTrace",
    "EventDrivenMachine",
    "Compute",
    "Elapse",
    "Send",
    "Recv",
    "Barrier",
    "Allreduce",
    "BspProgram",
    "VCompute",
    "VElapse",
    "VBarrier",
    "VAllreduce",
    "VSendrecv",
    "VLoop",
    "Torus",
    "run_fast",
    "run_event",
    "simulate_app",
    "is_bsp_expressible",
]
