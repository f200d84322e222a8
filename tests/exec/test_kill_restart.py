"""Crash-restart: a ``kill -9`` of a sweep leaves nothing behind.

``python -m repro fig7 --cache-dir D`` runs in its own session and is
SIGKILLed once the first result reached the cache.  The kill may not
leave a process of that session running or a ``psm_*`` segment in
``/dev/shm``.  A rerun over the same cache then completes, and its NPZ
files are byte-identical to those of an uninterrupted run: a torn write
never lands under a final name, and runs are pure functions of their
keys.
"""

import contextlib
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        not os.path.exists("/proc/self/stat"), reason="needs /proc"
    ),
]


def _fig7(cache_dir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "fig7", "--cache-dir", str(cache_dir)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )


def _session(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:  # exited while we looked
            continue
        state, _ppid, _pgrp, session = stat[stat.rindex(")") + 2:].split()[:4]
        if int(session) == sid and state != "Z":
            members.append(int(entry))
    return members


def _digests(cache_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in cache_dir.glob("*.npz")
    }


def _wait_for(predicate, proc: subprocess.Popen, timeout: float = 120.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if proc.poll() is not None:
            pytest.fail(f"fig7 exited {proc.returncode} before the kill point")
        if time.monotonic() > deadline:
            proc.kill()
            pytest.fail("fig7 never reached the kill point")
        time.sleep(0.005)


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> dict[str, str]:
    cache = tmp_path_factory.mktemp("fig7-reference")
    proc = _fig7(cache)
    _out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err.decode()
    digests = _digests(cache)
    assert digests
    return digests


# Killed once the first result is on disk: a write in flight is the
# cache state a crash is most likely to tear.
@pytest.mark.parametrize("kill_point", ["first-npz"])
def test_kill_then_restart_is_clean_and_bit_identical(
    tmp_path, reference, psm_segments, kill_point
):
    cache = tmp_path / "cache"
    before = psm_segments()
    proc = _fig7(cache)
    _wait_for(lambda: any(cache.glob("*.npz")), proc)
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)
    proc.stderr.close()

    deadline = time.monotonic() + 10.0
    while _session(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = _session(proc.pid)
    for pid in left:  # don't leak them into the rest of the suite
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    assert left == [], f"processes of the killed sweep survived: {left}"
    assert psm_segments() == before

    rerun = _fig7(cache)
    _out, err = rerun.communicate(timeout=300)
    assert rerun.returncode == 0, err.decode()
    assert _digests(cache) == reference
