"""Suite-wide fixtures.

The fleet handoff (``repro.exec.shared``) — used by the ``--jobs``
engine pool, the batched sweeps and the allocation service — exports
fleets to named POSIX shared memory; a bug in a teardown path (or an
un-cleaned fault-injection path) would leak ``psm_*`` segments into
``/dev/shm`` where they persist past the interpreter.  The autouse
fixture below turns every test into a leak check: it snapshots the
segment names before the test and fails if new ones survive it.
"""

import os

import pytest

_SHM_DIR = "/dev/shm"


def _psm_segments() -> set[str]:
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:  # platform without /dev/shm — nothing to check
        return set()
    return {n for n in names if n.startswith("psm_")}


@pytest.fixture(autouse=True)
def shm_leak_check():
    """Fail any test that leaves a new shared-memory segment behind."""
    before = _psm_segments()
    yield
    leaked = _psm_segments() - before
    assert not leaked, f"test leaked shared-memory segments: {sorted(leaked)}"
