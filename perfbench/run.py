"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload paper_repro --seed 2015 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads and metrics are declared in
``BENCHMARK.json``; ``perfbench/README.md`` says why each exists.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``.  The exit code is 0 only when
every op's output checked correct and nothing leaked.

Set-up is timed from outside: this script starts a fresh worker
process (``worker.py``) per sample and times it from launch to its
``ready`` message, i.e. interpreter start, imports, building systems and
fleets, starting the allocation daemon and a small warm-up.  Untraced
runs take :data:`SETUP_SAMPLES` samples and report the median; the last
worker goes on to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter, sleep

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SHM = "/dev/shm"

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120.0


class Worker:
    """One ``worker.py`` process in its own process group."""

    def __init__(self, args: argparse.Namespace):
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", WORK],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=SRC), start_new_session=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith(b"@perfbench "):
                self.lines.put(line.decode().rstrip("\n"))
        self.lines.put(None)

    def expect(self, kind: str, timeout: float) -> dict:
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"no {kind!r} from the worker within {timeout:.0f} s")
        if line is None:
            raise RuntimeError(f"worker exited {self.proc.wait()} before {kind!r}")
        _, got, payload = line.split(" ", 2)
        if got != kind:
            raise RuntimeError(f"worker sent {got!r}, expected {kind!r}")
        return json.loads(payload)

    def send(self, command: str) -> None:
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.close()

    def finish(self) -> list[str]:
        """Wait for the worker, then make sure its process group (the
        allocation daemon included) is gone."""
        problems = []
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            code = None
        if code != 0:
            problems.append(f"worker exited {code}")
        if _group_alive(self.proc.pid):
            problems.append("a process outlived its worker")
            os.killpg(self.proc.pid, signal.SIGKILL)
            if code is None:
                self.proc.wait()
        self.proc.stdout.close()
        self.reader.join()
        return problems

    def kill(self) -> None:
        if _group_alive(self.proc.pid):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()


def _group_alive(pgid: int) -> bool:
    """Whether a live (not zombie) process of group ``pgid`` remains."""
    for _ in range(50):
        if not any(_live_member(pid, pgid) for pid in os.listdir("/proc") if pid.isdigit()):
            return False
        sleep(0.02)  # a member may still be exiting
    return True


def _live_member(pid: str, pgid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return False
    return fields[0] != "Z" and int(fields[2]) == pgid


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir(SHM) if n.startswith("psm_")}
    except OSError:
        return set()


def run(args: argparse.Namespace, samples: int) -> tuple[list[float], dict, list[str]]:
    """Set up ``samples`` times, measure once; returns set-up times, the
    measuring worker's result and any leak findings."""
    setups: list[float] = []
    problems: list[str] = []
    result: dict = {}
    for i in range(samples):
        worker = Worker(args)
        try:
            worker.expect("ready", SETUP_TIMEOUT_S)
            setups.append(perf_counter() - worker.started)
            if i < samples - 1:
                worker.send("quit")
                problems += worker.expect("closed", 60)["problems"]
            else:
                worker.send("go")
                result = worker.expect("result", args.seconds + 120)
        except BaseException:
            worker.kill()
            raise
        problems += worker.finish()
    return setups, result, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    shm_before = shm_segments()
    try:
        setups, result, problems = run(args, 1 if args.trace else SETUP_SAMPLES)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        leftovers = os.listdir(WORK)
        shutil.rmtree(WORK, ignore_errors=True)
    problems += result["problems"]
    if leftovers:
        problems.append(f"left files in the working directory: {sorted(leftovers)}")
    leaked = shm_segments() - shm_before
    if leaked:
        problems.append(f"leaked shared-memory segments: {sorted(leaked)}")

    measured = dict(result["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    for message in result["errors"] + problems:
        print(f"perfbench: {message}", file=sys.stderr)
    # Each leak or lifecycle finding counts as one more failed op.
    failed = result["failed"] + len(problems)
    print("host " + json.dumps(result["host"]))
    if not args.trace:
        print("setup_s samples " + json.dumps(setups))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"] + len(problems),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
