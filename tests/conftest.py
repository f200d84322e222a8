"""Suite-wide fixtures.

Nothing in the package creates named POSIX shared memory: every run
builds its fleet from its run key in the calling process, and the
allocation service keeps its fleets in process.  A ``psm_*`` segment left in ``/dev/shm``
would persist past the interpreter, so the autouse fixture below turns
every test into a leak check: it snapshots the segment names before the
test and fails if new ones survive it.
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


@pytest.fixture()
def psm_segments():
    """The ``psm_*`` segment lister, for tests that check mid-test."""
    return _psm_segments


@pytest.fixture(autouse=True)
def shm_leak_check():
    """Fail any test that leaves a new shared-memory segment behind."""
    before = _psm_segments()
    yield
    leaked = _psm_segments() - before
    assert not leaked, f"test leaked shared-memory segments: {sorted(leaked)}"
