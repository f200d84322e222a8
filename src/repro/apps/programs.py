"""Program builders for the event-driven simulator.

The paper's benchmarks are bulk-synchronous and run on the vectorised
:class:`~repro.simmpi.BatchedBspMachine`; these builders express the same
communication skeletons (and two non-BSP ones) as explicit per-rank
programs for :class:`~repro.simmpi.EventDrivenMachine` — useful for
validating the fast path and for studying codes the paper's model
cannot express (pipelines, master/worker).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.simmpi.eventsim import Allreduce, Compute, Recv, Send

__all__ = [
    "halo_exchange_program",
    "allreduce_program",
    "pipeline_program",
    "master_worker_program",
]


def halo_exchange_program(
    neighbors: np.ndarray,
    *,
    ghz_seconds: float,
    n_iters: int,
    message_bytes: float = 0.0,
) -> Callable[[int], Iterator]:
    """BSP halo exchange: compute, send to all neighbours, receive from all.

    Matches the :meth:`~repro.simmpi.BatchedBspMachine.sendrecv`
    semantics when transfer costs are negligible — the cross-validation
    tests rely on this equivalence.
    """
    nb = np.asarray(neighbors)
    if nb.ndim != 2:
        raise ConfigurationError("neighbors must be a (n_ranks, k) array")
    if n_iters <= 0 or ghz_seconds < 0:
        raise ConfigurationError("n_iters must be positive, work non-negative")

    def program(rank: int) -> Iterator:
        partners = [int(p) for p in nb[rank]]
        for it in range(n_iters):
            yield Compute(ghz_seconds)
            for p in partners:
                yield Send(p, tag=it, message_bytes=message_bytes)
            for p in partners:
                yield Recv(p, tag=it)

    return program


def allreduce_program(
    *,
    ghz_seconds: float,
    n_iters: int,
    message_bytes: float = 8.0,
) -> Callable[[int], Iterator]:
    """Compute + global reduction per iteration (mVMC-style)."""
    if n_iters <= 0 or ghz_seconds < 0:
        raise ConfigurationError("n_iters must be positive, work non-negative")

    def program(rank: int) -> Iterator:
        for _ in range(n_iters):
            yield Compute(ghz_seconds)
            yield Allreduce(message_bytes)

    return program


def pipeline_program(
    n_ranks: int,
    *,
    ghz_seconds_per_stage: float,
    n_items: int,
    message_bytes: float = 0.0,
) -> Callable[[int], Iterator]:
    """A software pipeline: rank r processes each item after rank r-1.

    Not expressible on the BSP machine (ranks are *not* doing the same
    superstep): stage r sits idle until the pipeline fills, then streams.
    """
    if n_ranks <= 0 or n_items <= 0:
        raise ConfigurationError("n_ranks and n_items must be positive")

    def program(rank: int) -> Iterator:
        for item in range(n_items):
            if rank > 0:
                yield Recv(rank - 1, tag=item)
            yield Compute(ghz_seconds_per_stage)
            if rank < n_ranks - 1:
                yield Send(rank + 1, tag=item, message_bytes=message_bytes)

    return program


def master_worker_program(
    n_ranks: int,
    *,
    task_ghz_seconds: float,
    n_tasks: int,
    message_bytes: float = 0.0,
) -> Callable[[int], Iterator]:
    """Static master/worker: rank 0 farms tasks round-robin to workers.

    Each worker receives its task assignments, computes, and returns a
    result; the master collects everything.  (Static assignment — the
    event simulator has no wildcard receive, matching deterministic
    replay semantics.)
    """
    if n_ranks < 2:
        raise ConfigurationError("master/worker needs at least 2 ranks")
    if n_tasks <= 0:
        raise ConfigurationError("n_tasks must be positive")
    n_workers = n_ranks - 1

    def program(rank: int) -> Iterator:
        if rank == 0:
            for task in range(n_tasks):
                yield Send(1 + task % n_workers, tag=task, message_bytes=message_bytes)
            for task in range(n_tasks):
                yield Recv(1 + task % n_workers, tag=n_tasks + task)
        else:
            my_tasks = [t for t in range(n_tasks) if 1 + t % n_workers == rank]
            for task in my_tasks:
                yield Recv(0, tag=task)
                yield Compute(task_ghz_seconds)
                yield Send(0, tag=n_tasks + task, message_bytes=message_bytes)

    return program
