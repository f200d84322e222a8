"""The four benchmark workloads.

Each workload does its set-up in :meth:`setup` (everything up to the
first timed op, including a small warm-up), then :meth:`measure` runs
ops for a number of seconds and returns a :class:`Phase`.  Every op's
output is checked; a failed check, an exception or a typed service error
counts as a failed op and is never retried.

* ``paper_repro``: one op is ``repro all`` at paper scale, in-process,
  with the result cache in a fresh empty directory.
* ``fleet_1m``: one op is ``run_fleet_point(1_000_000)``.
* ``service_alloc``: one op is an ``allocate`` round trip to a
  ``repro serve`` daemon in its own process (pinned apart from the
  client), from 2 closed-loop connections.
* ``service_churn``: one op is a membership change (admit, depart or
  set-budget) from a fixed seeded cycle, on 1 connection.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from time import monotonic, perf_counter, sleep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Fig 7 headline pins and their tolerance (tests/experiments/test_golden.py).
FIG7_MEAN_VAFS = 2.117258706929211
FIG7_MAX_VAFS = 4.99751032608236
GOLDEN_REL = 1e-6

#: Written to the working directory by the ``report`` experiment.
REPORT_FILE = "reproduction_report.md"

FLEET_MODULES = 1_000_000
FLEET_WARMUP_MODULES = 50_000
SERVICE_MODULES = 100_000
#: Budget points per ``allocate``: a 64-point budget curve, so a round
#: trip is mostly codec and daemon work rather than wake-up latency.
ALLOC_BUDGETS = 64


@dataclass
class Phase:
    """What one measured stretch of ops produced."""

    seconds: float
    op_s: list[float] = field(default_factory=list)  # successful op times
    done_at: list[float] = field(default_factory=list)  # completion offsets
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def clear_memo_caches() -> None:
    """Empty every ``functools.lru_cache`` in the library, so each op
    rebuilds what a fresh ``repro all`` process would."""
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)) and hasattr(
                value, "__wrapped__"
            ):
                value.cache_clear()


class Workload:
    def latency_p50_ms(self, phase: Phase) -> float:
        return statistics.median(phase.op_s) * 1e3


class BatchWorkload(Workload):
    """Ops that each do a fixed amount of work; the throughput is that
    work over the median op time."""

    work_per_op = 1.0
    min_ops = 2

    def measure(self, seconds: float, observer=None) -> Phase:
        """Run ops for ``seconds`` (at least :attr:`min_ops`); the
        optional observer's ``begin``/``end`` bracket each timed op."""
        phase = Phase(seconds)
        start = perf_counter()
        while phase.attempted < self.min_ops or perf_counter() - start < seconds:
            phase.attempted += 1
            if observer:
                observer.begin()
            try:
                t0 = perf_counter()
                out = self.op()
                dt = perf_counter() - t0
            except Exception as exc:  # a failed op, counted and reported
                phase.fail(f"{type(exc).__name__}: {exc}")
                continue
            finally:
                if observer:
                    observer.end()
            problem = self.check(out)
            if problem:
                phase.fail(problem)
                continue
            phase.op_s.append(dt)
            phase.done_at.append(perf_counter() - start)
        return phase

    def throughput(self, phase: Phase) -> float:
        return self.work_per_op / statistics.median(phase.op_s)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> list[str]:
        return []


class PaperRepro(BatchWorkload):
    """``repro all`` with the CLI defaults, cache in a fresh directory."""

    name = "paper_repro"

    def __init__(self, seed: int, work: str):
        self.seed = seed  # the paper's inputs are fixed; the seed is recorded only
        self.work = work
        self.cache_bytes: list[int] = []

    def setup(self) -> None:
        from tracing import import_all

        import repro.cli
        import repro.experiments.common as common

        # Lazy state a first op would fill: every experiment module and
        # the paper system with its PVT.
        import_all("repro.experiments")
        common.ha8k_pvt()
        self._main = repro.cli.main
        self._n_experiments = len(repro.cli.EXPERIMENTS)

    def op(self):
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work)
        clear_memo_caches()
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self._main(["all", "--cache-dir", cache_dir])
        except BaseException:
            self.clean(cache_dir)
            raise
        return code, out.getvalue(), err.getvalue(), cache_dir

    @staticmethod
    def clean(cache_dir: str) -> None:
        """Drop the op's cache and the report ``repro all`` writes to
        the working directory."""
        shutil.rmtree(cache_dir, ignore_errors=True)
        with contextlib.suppress(FileNotFoundError):
            os.remove(REPORT_FILE)

    def check(self, out) -> str | None:
        code, text, err, cache_dir = out
        try:
            if code != 0:
                return f"repro all exited {code}: {err[-300:]}"
            if f"-- all {self._n_experiments} experiments passed" not in text:
                return "not every experiment passed"
            if "-- 17/17 checks pass" not in text:
                return "validation did not pass 17/17 checks"
            from repro.exec import ExperimentEngine
            from repro.experiments.fig7 import run_fig7, summarize_fig7

            self.cache_bytes.append(
                sum(e.stat().st_size for e in os.scandir(cache_dir))
            )
            # Re-read Fig 7 from this op's cache: all hits, full precision.
            summary = summarize_fig7(run_fig7(engine=ExperimentEngine(cache_dir=cache_dir)))
            for got, pin, what in (
                (summary.mean["vafs"], FIG7_MEAN_VAFS, "mean"),
                (summary.max["vafs"], FIG7_MAX_VAFS, "max"),
            ):
                if abs(got - pin) > GOLDEN_REL * abs(pin):
                    return f"Fig 7 VaFs {what} {got!r} != pin {pin!r}"
            return None
        finally:
            self.clean(cache_dir)


class Fleet1M(BatchWorkload):
    """One million-module fleet point: naive, vapcor and vafsor on BT."""

    name = "fleet_1m"
    work_per_op = 3.0 * FLEET_MODULES  # simulated ranks per op

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.reference = None

    def setup(self) -> None:
        from repro.experiments.fleet import run_fleet_point

        self._run = run_fleet_point
        run_fleet_point(FLEET_WARMUP_MODULES, seed=self.seed)

    def op(self):
        return self._run(FLEET_MODULES, seed=self.seed)

    def check(self, point) -> str | None:
        if not all(point.within_budget.values()):
            return f"a scheme exceeded the budget: {point.within_budget}"
        if self.reference is None:
            self.reference = point.speedup
        elif point.speedup != self.reference:
            return f"speedups changed between ops: {point.speedup} != {self.reference}"
        return None


class ServiceWorkload(Workload):
    """A ``repro serve`` daemon in its own process and typed clients."""

    connections = 1

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.daemon: subprocess.Popen | None = None
        self.socket = "svc.sock"
        self.log_path = os.path.join(work, "daemon.log")
        self.spans_path = os.path.join(work, "daemon-spans.jsonl")
        self.rng = random.Random(seed)
        self.daemon_cpus: set[int] | None = None

    # -- daemon lifecycle -------------------------------------------------------

    def start_daemon(self, traced: bool = False) -> None:
        from repro.service import ServiceClient, ServiceError

        if traced:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "serve_traced.py"),
                   self.spans_path]
        else:
            cmd = [sys.executable, "-m", "repro", "serve"]
        env = dict(os.environ, PYTHONPATH=SRC)
        own_cpus = os.sched_getaffinity(0)
        if self.daemon_cpus:
            os.sched_setaffinity(0, self.daemon_cpus)  # inherited by the daemon
        try:
            with open(self.log_path, "ab") as log:
                self.daemon = subprocess.Popen(
                    cmd + ["--socket", self.socket],
                    cwd=self.work, env=env, stdout=subprocess.DEVNULL, stderr=log,
                )
        finally:
            os.sched_setaffinity(0, own_cpus)
        deadline = monotonic() + 60.0
        while True:
            if self.daemon.poll() is not None:
                raise RuntimeError(f"daemon exited {self.daemon.returncode}: {self.log()}")
            try:
                with ServiceClient(self.socket, timeout=5.0) as client:
                    client.ping()
                return
            except ServiceError:
                if monotonic() > deadline:
                    raise
                sleep(0.01)

    def fleet_spec(self):
        from repro.service.api import FleetSpec

        return FleetSpec(system="ha8k", n_modules=SERVICE_MODULES, seed=self.seed,
                         fleet_id="bench")

    @contextlib.contextmanager
    def reference_service(self):
        """An in-process engine hosting the same fleet, for checks."""
        from repro.service.engine import AllocationService

        service = AllocationService(export_shm=False)
        try:
            service.open_fleet(self.fleet_spec())
            yield service
        finally:
            service.close_all()

    def stop_daemon(self) -> list[str]:
        """SIGTERM drain; returns leak findings (each a failed op)."""
        problems = []
        if self.daemon is None:
            return problems
        self.daemon.send_signal(signal.SIGTERM)
        try:
            self.daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.wait()
            problems.append("daemon did not drain within 30 s")
        if self.daemon.returncode != 0:
            problems.append(f"daemon exited {self.daemon.returncode}: {self.log()}")
        if os.path.exists(os.path.join(self.work, self.socket)):
            problems.append("daemon left its socket behind")
        self.daemon = None
        return problems

    def log(self) -> str:
        try:
            with open(self.log_path, errors="replace") as fh:
                return fh.read()[-500:]
        except OSError:
            return ""

    def peak_rss_mb(self) -> float:
        # The daemon is this process's only child, so the children's
        # peak is the daemon's.
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def close(self) -> list[str]:
        problems = self.stop_daemon()
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.log_path)
        return problems

    # -- the closed loop ------------------------------------------------------------

    def setup(self) -> None:
        # Daemon and client on disjoint CPUs, as if on separate hosts: on
        # a small shared host, free placement let the two processes
        # contend and tripled the run-to-run spread.
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) > 1:
            self.daemon_cpus = {cpus[-1]}
            os.sched_setaffinity(0, set(cpus[:-1]))
        self.start_daemon()
        self.prepare()

    def measure(self, seconds: float) -> Phase:
        from repro.service import ServiceClient

        phase = Phase(seconds)
        lock = threading.Lock()
        start = perf_counter()
        deadline = start + seconds

        def loop() -> None:
            times, done, attempted, errors = [], [], 0, []
            with ServiceClient(self.socket, timeout=10.0) as client:
                for method, request in self.requests():
                    if perf_counter() >= deadline:
                        break
                    attempted += 1
                    t0 = perf_counter()
                    try:
                        reply = getattr(client, method)(request)
                    except Exception as exc:  # ServiceError, timeout: a failed op
                        errors.append(f"{type(exc).__name__}: {exc}")
                        continue
                    t1 = perf_counter()
                    problem = self.check(reply)
                    if problem:
                        errors.append(problem)
                        continue
                    times.append(t1 - t0)
                    done.append(t1 - start)
            with lock:
                phase.attempted += attempted
                phase.op_s.extend(times)
                phase.done_at.extend(done)
                for message in errors:
                    phase.fail(message)

        threads = [threading.Thread(target=loop) for _ in range(self.connections)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return phase

    def throughput(self, phase: Phase) -> float:
        """Median completions over the run's whole seconds, so one stall
        moves one window, not the figure."""
        windows = [0] * max(1, int(phase.seconds))
        for t in phase.done_at:
            if int(t) < len(windows):
                windows[int(t)] += 1
        return float(statistics.median(windows))


class ServiceAlloc(ServiceWorkload):
    """``allocate`` (BT, vafsor, 64 seeded budgets) on 2 connections."""

    name = "service_alloc"
    connections = 2

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        from repro.service.api import AllocationRequest

        cms = [round(self.rng.uniform(55.0, 110.0), 3) for _ in range(ALLOC_BUDGETS)]
        self.request = AllocationRequest.build(
            fleet_id="bench", app="bt", scheme="vafsor",
            budgets_w=[cm * SERVICE_MODULES for cm in cms],
        )
        self.first = None

    def prepare(self) -> None:
        from repro.service import ServiceClient

        with ServiceClient(self.socket) as client:
            client.open_fleet(self.fleet_spec())
            reply = client.allocate(self.request)  # warm-up: builds the plan table
        if self.first is None:
            self.first = reply
        elif reply != self.first:
            raise RuntimeError("a restarted daemon answered differently")

    def requests(self):
        while True:
            yield "allocate", self.request

    def check(self, reply) -> str | None:
        if reply != self.first:
            return "allocate reply differs from the first reply"
        return None

    def verify(self) -> str | None:
        """The daemon's answer equals an in-process engine's."""
        with self.reference_service() as service:
            if service.allocate(self.request) != self.first:
                return "daemon allocate differs from in-process AllocationService"
        return None


class ServiceChurn(ServiceWorkload):
    """A fixed seeded cycle of admit / depart / set-budget on 1 connection.

    Five jobs hold 60,000 of the fleet's modules.  Each cycle departs and
    re-admits every job once, in a seeded order, each followed by a
    seeded budget change, and ends at the starting budget.  Every seed
    therefore re-solves the same multiset of memberships (the same work)
    in a different order.  Jobs are placed first-fit over contiguous
    ranges, so a re-admitted job returns to its range and every cycle
    must return the same replies.
    """

    name = "service_churn"
    connections = 1
    job_modules = (8_000, 10_000, 12_000, 14_000, 16_000)

    def plan(self):
        from repro.service.api import (
            BudgetUpdateRequest,
            JobAdmitRequest,
            JobDepartRequest,
        )

        rng = self.rng
        sizes = {f"job-{i}": n for i, n in enumerate(self.job_modules)}
        active = sum(sizes.values())
        base_w = 80.0 * active
        initial = [("set_budget", BudgetUpdateRequest("bench", base_w))] + [
            ("admit", JobAdmitRequest("bench", job, n)) for job, n in sizes.items()
        ]
        cycle = []
        for job in rng.sample(sorted(sizes), len(sizes)):
            cycle.append(("depart", JobDepartRequest("bench", job)))
            cycle.append(("admit", JobAdmitRequest("bench", job, sizes[job])))
            cycle.append(("set_budget", BudgetUpdateRequest(
                "bench", round(rng.uniform(55.0, 100.0), 3) * active)))
        cycle.append(("set_budget", BudgetUpdateRequest("bench", base_w)))
        return initial, cycle

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        self.initial, self.cycle = self.plan()
        self.first: dict[int, object] = {}  # cycle position -> first reply

    def prepare(self) -> None:
        from repro.service import ServiceClient

        with ServiceClient(self.socket) as client:
            client.open_fleet(self.fleet_spec())
            self.apply(client, self.initial)

    @staticmethod
    def apply(target, calls) -> list:
        return [getattr(target, method)(request) for method, request in calls]

    def requests(self):
        while True:
            for position, call in enumerate(self.cycle):
                self.position = position
                yield call

    def check(self, reply) -> str | None:
        expect = self.first.setdefault(self.position, reply)
        if reply != expect:
            return f"churn reply {self.position} differs from the first cycle"
        return None

    def verify(self) -> str | None:
        """The first cycle equals an in-process engine's replies."""
        with self.reference_service() as service:
            self.apply(service, self.initial)
            expect = self.apply(service, self.cycle)
        if any(expect[pos] != reply for pos, reply in self.first.items()):
            return "daemon churn replies differ from in-process AllocationService"
        return None


WORKLOADS = {
    cls.name: cls for cls in (PaperRepro, Fleet1M, ServiceAlloc, ServiceChurn)
}
