"""POSIX shared-memory attach helper.

The fleet handoff (:mod:`repro.exec.shared`) hands named segments to
pool workers whose lifetime the *parent* owns.  Attaching a segment the
normal way registers it with the worker's ``resource_tracker``, which
unlinks the parent-owned block when the worker exits — exactly the
teardown race a worker-side attach must avoid.
"""

from __future__ import annotations

from multiprocessing import shared_memory

__all__ = ["attach_block"]


def attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without registering it for cleanup.

    Python 3.13 grew ``track=False`` for exactly this; on older
    interpreters the ``resource_tracker`` registration is suppressed for
    the duration of the attach instead.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip_shm(rname: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original(rname, rtype)

    resource_tracker.register = _skip_shm  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original  # type: ignore[assignment]
