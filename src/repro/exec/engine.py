"""The experiment execution engine: cached, parallel, deterministic runs.

:class:`ExperimentEngine` sits between the experiments and
:func:`~repro.core.runner.run_budgeted` / :func:`run_uncapped`:

* every run is addressed by a :class:`~repro.exec.cache.RunKey` and can
  be answered from the persistent :class:`~repro.exec.cache.ResultCache`;
* :meth:`ExperimentEngine.submit_sweep` runs cache misses sharing a
  system/fleet/app as one config batch
  (:func:`~repro.core.runner.run_budgeted_batched`) and fans groups out
  over a process pool (``jobs`` workers);
* every dispatch is recorded in :class:`~repro.exec.metrics.RunStats`.

Determinism
-----------
Every stochastic element of a run draws from
:class:`~repro.util.rng.RngFactory` streams keyed by (root seed, string
path), restarted per call — a run's output is a pure function of its
:class:`RunKey`, independent of process, ordering, or what ran before
it.  That is what makes parallel fan-out bit-identical to sequential
execution and cached results trustworthy; ``tests/exec/test_engine.py``
proves it differentially.  As a defensive measure, :func:`execute_key`
additionally reseeds numpy's *legacy global* generator from the key
digest, so even a stray ``np.random.*`` draw in future model code would
be order- and schedule-independent rather than silently racy.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from time import perf_counter

import numpy as np

import repro.telemetry as telemetry
from repro.apps.registry import get_app
from repro.cluster.configs import build_system
from repro.cluster.system import System
from repro.core.pvt import PowerVariationTable, generate_pvt
from repro.core.runner import (
    RunResult,
    run_budgeted,
    run_budgeted_batched,
    run_uncapped,
)
from repro.errors import InfeasibleBudgetError
from repro.exec.cache import ResultCache, RunKey
from repro.exec.metrics import RunStats
from repro.hardware.microarch import Microarchitecture, get_microarch
from repro.util.topology import cpu_slices, effective_cpu_count, probe_topology

__all__ = [
    "ExperimentEngine",
    "execute_key",
    "configure",
    "get_engine",
    "pins_workers",
    "reset",
]


# -- per-process system/PVT construction (shared by workers via lru_cache) ----

def _apply_arch_overrides(
    arch: Microarchitecture, overrides: tuple[tuple[str, object], ...]
) -> Microarchitecture:
    changes: dict[str, object] = {}
    var_changes: dict[str, object] = {}
    for name, value in overrides:
        if name.startswith("variation."):
            var_changes[name.split(".", 1)[1]] = value
        else:
            changes[name] = value
    if var_changes:
        changes["variation"] = replace(arch.variation, **var_changes)
    return arch.with_(**changes) if changes else arch


_SystemSpec = tuple[str, int, int, str, tuple, int, str]


def _spec(key: RunKey) -> _SystemSpec:
    return (
        key.system,
        key.n_modules,
        key.seed,
        key.arch_base,
        key.arch_overrides,
        key.procs_per_node,
        key.meter_kind,
    )


@lru_cache(maxsize=32)
def _system_for(spec: _SystemSpec) -> System:
    system, n_modules, seed, arch_base, arch_overrides, ppn, meter = spec
    if arch_base:
        arch = _apply_arch_overrides(get_microarch(arch_base), arch_overrides)
        return System.create(
            system,
            arch,
            n_modules,
            procs_per_node=ppn,
            meter_kind=meter,
            seed=seed,
        )
    return build_system(system, n_modules=n_modules, seed=seed)


@lru_cache(maxsize=32)
def _pvt_for(spec: _SystemSpec) -> PowerVariationTable:
    return generate_pvt(_system_for(spec))


def execute_key(key: RunKey) -> RunResult:
    """Execute the run a :class:`RunKey` describes (no cache involved).

    Raises :class:`InfeasibleBudgetError` for budgets below the fmin
    floor, like :func:`~repro.core.runner.run_budgeted`.

    When telemetry is enabled, everything the run records (spans,
    timelines, per-module arrays) is scoped to the key's digest prefix —
    the same identity the result cache uses — so exported traces join
    back to cached results.
    """
    # Defensive per-run seeding (see module docstring): nothing in this
    # package draws from the legacy global generator, but pinning it per
    # key keeps any future stray draw schedule-independent.
    digest = key.digest()
    np.random.seed(int(digest[:8], 16))
    if not telemetry.enabled():
        return _execute_key(key)
    with telemetry.run_scope(digest[:12], key.describe()):
        with telemetry.span("engine.execute"):
            return _execute_key(key)


def _execute_key(key: RunKey) -> RunResult:
    spec = _spec(key)
    system = _system_for(spec)
    app = get_app(key.app)
    if key.app_overrides:
        app = app.with_(**dict(key.app_overrides))
    if key.scheme is None:
        return run_uncapped(system, app, n_iters=key.n_iters, turbo=key.turbo)
    return run_budgeted(
        system,
        app,
        key.scheme,
        key.budget_w,
        pvt=_pvt_for(spec),
        test_module=key.test_module,
        n_iters=key.n_iters,
        noisy=key.noisy,
        fs_guardband_frac=key.fs_guardband_frac,
    )


#: Fault-injection hook: with ``REPRO_ENGINE_FAULT=kill`` in the
#: caller's environment, every pool task of a sweep SIGKILLs its worker
#: at task start.  The parent reads the variable when it starts the pool
#: and hands it to each task: a forkserver worker sees the environment
#: the server started with, not the caller's current one.  Inline runs
#: (``jobs == 1``) never receive it, since dying there would kill the
#: caller, not simulate a worker crash.  Used by the overload/fault
#: tests to prove callers get a typed retryable error rather than a hang.
_FAULT_ENV = "REPRO_ENGINE_FAULT"


def _maybe_inject_fault(fault: str | None) -> None:
    if fault == "kill":
        os.kill(os.getpid(), signal.SIGKILL)


def pins_workers(workers: int) -> bool:
    """The placement rule: a parallel pool pins each of its ``workers``
    to one :func:`~repro.util.topology.cpu_slices` slice wherever the
    platform can set affinity; a sequential run is never pinned."""
    return workers > 1 and hasattr(os, "sched_setaffinity")


def _mp_context() -> multiprocessing.context.BaseContext:
    """The one start method for engine pools: a forkserver that has
    preloaded this module, or the platform default where no forkserver
    exists."""
    try:
        ctx = multiprocessing.get_context("forkserver")
    except ValueError:
        return multiprocessing.get_context()
    ctx.set_forkserver_preload(["repro.exec.engine"])
    return ctx


def _pin_worker(slices: tuple[tuple[int, ...], ...], taken) -> None:
    """Pool-worker initializer: pin to the next unclaimed slice.

    ``taken`` is a lock-guarded shared counter, so the hand-off needs no
    background thread in the parent (a :class:`multiprocessing.Queue`
    would start a feeder thread).  Only CPUs inside the inherited
    affinity mask are used, and a worker with no slice left, or whose
    mask raced a cgroup change, runs unpinned: placement may never fail
    or stall a run."""
    try:
        with taken.get_lock():
            index = taken.value
            taken.value = index + 1
        target = set(slices[index]) & os.sched_getaffinity(0)
        if target:
            os.sched_setaffinity(0, target)
    except (IndexError, OSError):
        pass


def _exit_with_owner(owner) -> None:
    """Pool-worker watchdog: ``owner`` is the read end of a pipe whose
    only write end the pool's owner holds, so it turns readable (EOF)
    exactly when the owner dies without shutting the pool down — a
    ``kill -9``.  The worker then exits: left alone it would wait forever
    on a task queue whose write end it holds itself."""
    owner.poll(None)
    os._exit(1)


def _init_worker(owner, slices, taken) -> None:
    """Pool-worker initializer: watch the owner, then pin (``slices`` is
    ``None`` where :func:`pins_workers` says not to)."""
    threading.Thread(
        target=_exit_with_owner, args=(owner,), name="repro-owner-watch",
        daemon=True,
    ).start()
    if slices is not None:
        _pin_worker(slices, taken)


def _pool_run(
    key: RunKey, fault: str | None = None
) -> tuple[str, object, float]:
    """Worker-side wrapper: never lets an InfeasibleBudgetError cross the
    process boundary (its multi-argument ``__init__`` does not survive
    pickling); returns a tagged tuple plus the measured wall time."""
    _maybe_inject_fault(fault)
    t0 = perf_counter()
    try:
        result = execute_key(key)
    except InfeasibleBudgetError as exc:
        return "infeasible", (exc.budget_w, exc.floor_w), perf_counter() - t0
    return "ok", result, perf_counter() - t0


# -- config-batched group execution -------------------------------------------

def _group_signature(key: RunKey) -> tuple:
    """Keys sharing this signature run as one batched group: same system,
    fleet, app, and run knobs — only (scheme, budget) vary within it."""
    return (
        _spec(key),
        key.app,
        key.app_overrides,
        key.n_iters,
        key.noisy,
        key.fs_guardband_frac,
        key.test_module,
    )


def _run_group(
    keys: Sequence[RunKey], shard="auto"
) -> list[tuple[str, object]]:
    """Execute one batched group; per-key tagged outcomes, input order.

    The system and PVT come from this process's :func:`_system_for` /
    :func:`_pvt_for` caches (a pool worker rebuilds them from the key's
    keyed RNG streams), so the runs are bit-identical to per-key
    :func:`execute_key` calls in any process.

    ``shard`` forwards to :func:`~repro.core.runner.run_budgeted_batched`
    unchanged.  It is execution layout only — results, and therefore
    cache payloads and key digests, do not depend on it, which is why it
    is *not* part of :func:`_group_signature` or :class:`RunKey`.
    """
    key0 = keys[0]
    spec = _spec(key0)
    system = _system_for(spec)
    pvt = _pvt_for(spec)
    app = get_app(key0.app)
    if key0.app_overrides:
        app = app.with_(**dict(key0.app_overrides))
    # Defensive group-level seeding, mirroring execute_key.
    np.random.seed(int(key0.digest()[:8], 16))
    outs = run_budgeted_batched(
        system,
        app,
        [(k.scheme, k.budget_w) for k in keys],
        pvt=pvt,
        test_module=key0.test_module,
        n_iters=key0.n_iters,
        noisy=key0.noisy,
        fs_guardband_frac=key0.fs_guardband_frac,
        shard=shard,
    )
    return [
        ("infeasible", (out.budget_w, out.floor_w))
        if isinstance(out, InfeasibleBudgetError)
        else ("ok", out)
        for out in outs
    ]


def _pool_run_group(
    keys: tuple[RunKey, ...], shard="auto", fault: str | None = None
) -> tuple[list[tuple[str, object]], float]:
    """Worker-side group wrapper: tagged per-key outcomes + group wall."""
    _maybe_inject_fault(fault)
    t0 = perf_counter()
    tagged = _run_group(keys, shard=shard)
    return tagged, perf_counter() - t0


class ExperimentEngine:
    """Cached, parallel dispatcher for :class:`RunKey` sweeps.

    Parameters
    ----------
    jobs:
        Worker processes for :meth:`submit_sweep` / :meth:`map` fan-out;
        ``1`` (the default) executes in-process, sequentially.  ``0`` or
        ``None`` sizes the pool to the *effective* CPU count
        (:func:`~repro.util.topology.effective_cpu_count` — the
        affinity mask, not ``os.cpu_count()``, so ``taskset``/cgroup
        restricted environments are not oversubscribed).
    cache_dir:
        Cache directory; ``None`` uses the default
        (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``) when caching is on.
    use_cache:
        Enable the persistent result cache.  Defaults to ``True`` iff
        ``cache_dir`` was given, so a bare ``ExperimentEngine()`` — what
        library callers and tests get — touches no global state.
    stats:
        Share an existing :class:`RunStats` collector (defaults to a
        fresh one, exposed as :attr:`stats`).
    shard:
        Execution layout for batched groups, forwarded to
        :func:`~repro.core.runner.run_budgeted_batched`: ``"auto"``
        (the default) tiles the simulation plane when it outgrows the
        cache working-set budget, a
        :class:`~repro.simmpi.sharding.ShardSpec` pins the tiling,
        ``None`` runs the whole plane as one tile.  Layout only —
        results and cache digests never depend on it.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache_dir: str | None = None,
        use_cache: bool | None = None,
        stats: RunStats | None = None,
        shard="auto",
    ):
        self.jobs = (
            effective_cpu_count() if not jobs else max(1, int(jobs))
        )
        if use_cache is None:
            use_cache = cache_dir is not None
        self.cache: ResultCache | None = (
            ResultCache(cache_dir) if use_cache else None
        )
        self.stats = stats if stats is not None else RunStats()
        self.shard = shard

    # -- pool construction ---------------------------------------------------

    @contextmanager
    def _pool(self, workers: int):
        """A :class:`ProcessPoolExecutor` started from a forkserver and
        placed by :func:`pins_workers`.

        Every pool starts its workers from :func:`_mp_context`, so the
        caller's process never forks: a daemon handler thread or a live
        pool thread cannot leave a child holding a lock that no thread
        will release.  Workers need nothing inherited; each rebuilds the
        fleets its tasks name from their keys.  A script that creates a
        ``jobs > 1`` engine must therefore guard its entry point with
        ``if __name__ == "__main__":``, as with any non-fork start.
        Workers exit when the pool's owner dies (:func:`_exit_with_owner`),
        so a ``kill -9`` of the caller leaves no process behind.

        The topology is probed per pool, so a changed affinity mask is
        seen by the next pool.  Pinned workers inherit a shrunken mask,
        so any worker count they derive (inner tile threads) partitions
        their slice instead of oversubscribing the machine.  Records the
        placement gauges the composition tests audit:
        ``engine.cpu_budget.total`` (the effective CPU count),
        ``engine.pool.workers``, and ``engine.pool.cpus_granted``
        (distinct CPUs the workers may use — never above the total).
        """
        topology = probe_topology()
        ctx = _mp_context()
        slices = taken = None
        granted = min(workers, topology.n_cpus)
        if pins_workers(workers):
            slices = cpu_slices(workers, topology)
            granted = len({c for s in slices for c in s})
            taken = ctx.Value("i", 0)
        telemetry.gauge("engine.cpu_budget.total", topology.n_cpus)
        telemetry.gauge("engine.pool.workers", workers)
        telemetry.gauge("engine.pool.cpus_granted", granted)
        owner_r, owner_w = ctx.Pipe(duplex=False)
        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx,
            initializer=_init_worker, initargs=(owner_r, slices, taken),
        )
        try:
            yield pool
        finally:
            pool.shutdown(wait=True)
            owner_r.close()
            owner_w.close()

    # -- single runs ---------------------------------------------------------

    def run(self, key: RunKey) -> RunResult:
        """One run through the cache: hit, or execute-and-store."""
        t0 = perf_counter()
        if self.cache is not None:
            try:
                cached = self.cache.get(key)
            except InfeasibleBudgetError:
                self.stats.record(key.describe(), "hit", perf_counter() - t0)
                raise
            if cached is not None:
                self.stats.record(key.describe(), "hit", perf_counter() - t0)
                return cached
        try:
            result = execute_key(key)
        except InfeasibleBudgetError as exc:
            if self.cache is not None:
                self.cache.put_infeasible(key, exc)
            self.stats.record(
                key.describe(),
                "miss" if self.cache is not None else "exec",
                perf_counter() - t0,
            )
            raise
        if self.cache is not None:
            self.cache.put(key, result)
        self.stats.record(
            key.describe(),
            "miss" if self.cache is not None else "exec",
            perf_counter() - t0,
        )
        return result

    # -- sweeps --------------------------------------------------------------

    def _scan_cache(
        self,
        keys: Sequence[RunKey],
        results: list,
        skip_infeasible: bool,
    ) -> list[tuple[int, RunKey]]:
        """The shared cache pass: fill ``results`` with hits, record
        their stats, and return the (index, key) list still to execute."""
        pending: list[tuple[int, RunKey]] = []
        for i, key in enumerate(keys):
            t0 = perf_counter()
            if self.cache is None:
                pending.append((i, key))
                continue
            try:
                cached = self.cache.get(key)
            except InfeasibleBudgetError:
                self.stats.record(key.describe(), "hit", perf_counter() - t0)
                if skip_infeasible:
                    continue
                raise
            if cached is not None:
                self.stats.record(key.describe(), "hit", perf_counter() - t0)
                results[i] = cached
            else:
                pending.append((i, key))
        return pending

    def submit_sweep(
        self,
        keys: Sequence[RunKey],
        *,
        skip_infeasible: bool = False,
    ) -> list[RunResult | None]:
        """Run every key, answering from the cache and batching misses per
        system/fleet/app; results come back in input order.

        Pending budgeted keys sharing a :func:`_group_signature` execute
        as **one** :func:`~repro.core.runner.run_budgeted_batched` pass
        per group — one fleet build, one PMT per ``pmt_kind``, one
        batched α-solve per scheme, one 2-D simulation.  Uncapped keys
        and singleton groups run one at a time through
        :func:`execute_key`.  With
        ``jobs > 1`` each group or single key is one pool task, and each
        worker rebuilds the fleets it needs from their keys
        (:func:`_system_for`); nothing fleet-sized crosses the process
        boundary.

        Results, cache payloads, key digests, and infeasible semantics
        are bit-identical to running each key alone with :meth:`run`;
        per-key stats record the group wall time amortised over its
        members.  With ``skip_infeasible=True`` an infeasible budget
        yields ``None`` in its slot instead of raising (sweeps over
        feasibility edges, e.g. the uncertainty study).
        """
        results: list[RunResult | None] = [None] * len(keys)
        pending = self._scan_cache(keys, results, skip_infeasible)
        if not pending:
            return results

        # Partition: batched groups (>= 2 budgeted keys sharing a
        # signature) vs keys that run alone.
        by_sig: dict[tuple, list[tuple[int, RunKey]]] = {}
        singles: list[tuple[int, RunKey]] = []
        for i, key in pending:
            if key.scheme is None:
                singles.append((i, key))
            else:
                by_sig.setdefault(_group_signature(key), []).append((i, key))
        groups: list[list[tuple[int, RunKey]]] = []
        for members in by_sig.values():
            if len(members) > 1:
                groups.append(members)
            else:
                singles.extend(members)
        singles.sort()

        #: index -> (tag, payload, amortised wall seconds)
        outcome: dict[int, tuple[str, object, float]] = {}

        def _fold_group(members, tagged, wall_s) -> None:
            per_key = wall_s / len(members)
            for (i, _key), (tag, payload) in zip(members, tagged):
                outcome[i] = (tag, payload, per_key)
            self.stats.record_batch(len(members), wall_s)

        n_tasks = len(groups) + len(singles)
        if self.jobs > 1 and n_tasks > 1:
            fault = os.environ.get(_FAULT_ENV)
            with self._pool(min(self.jobs, n_tasks)) as pool:
                group_futs = [
                    pool.submit(
                        _pool_run_group,
                        tuple(k for _, k in members),
                        self.shard,
                        fault,
                    )
                    for members in groups
                ]
                single_futs = [
                    pool.submit(_pool_run, key, fault) for _, key in singles
                ]
                for members, fut in zip(groups, group_futs):
                    tagged, wall_s = fut.result()
                    _fold_group(members, tagged, wall_s)
                for (i, _key), fut in zip(singles, single_futs):
                    tag, payload, wall_s = fut.result()
                    outcome[i] = (tag, payload, wall_s)
        else:
            for members in groups:
                t0 = perf_counter()
                tagged = _run_group([k for _, k in members], shard=self.shard)
                _fold_group(members, tagged, perf_counter() - t0)
            for i, key in singles:
                tag, payload, wall_s = _pool_run(key)
                outcome[i] = (tag, payload, wall_s)

        # Fold outcomes back in *pending* order so stats, cache writes,
        # and the first-infeasible raise follow the input order.
        source = "miss" if self.cache is not None else "exec"
        for i, key in pending:
            tag, payload, wall_s = outcome[i]
            self.stats.record(key.describe(), source, wall_s)
            if tag == "infeasible":
                budget_w, floor_w = payload
                exc = InfeasibleBudgetError(budget_w, floor_w)
                if self.cache is not None:
                    self.cache.put_infeasible(key, exc)
                if skip_infeasible:
                    continue
                raise exc
            assert isinstance(payload, RunResult)
            if self.cache is not None:
                self.cache.put(key, payload)
            results[i] = payload
        return results

    #: Alias of :meth:`submit_sweep`; callers use both names.
    submit_batched_sweep = submit_sweep

    # -- generic fan-out -----------------------------------------------------

    def map(self, fn: Callable, items: Iterable, *, label: str = "map") -> list:
        """Apply a picklable top-level function over ``items`` with the
        engine's pool (uncached — for experiment stages that do not
        produce :class:`RunResult`, e.g. Table 4 classification or the
        throughput schedulers)."""
        items = list(items)
        t0 = perf_counter()
        if self.jobs > 1 and len(items) > 1:
            workers = min(self.jobs, len(items))
            with self._pool(workers) as pool:
                out = list(pool.map(fn, items))
        else:
            out = [fn(item) for item in items]
        self.stats.record(f"{label}[{len(items)}]", "exec", perf_counter() - t0)
        return out


# -- process-global engine (configured by the CLI) ----------------------------

_engine: ExperimentEngine | None = None


def configure(
    *,
    jobs: int | None = 1,
    cache_dir: str | None = None,
    use_cache: bool | None = None,
    shard="auto",
) -> ExperimentEngine:
    """Install the process-global engine (called by the CLI front-end)."""
    global _engine
    _engine = ExperimentEngine(
        jobs=jobs, cache_dir=cache_dir, use_cache=use_cache, shard=shard
    )
    return _engine


def get_engine() -> ExperimentEngine:
    """The process-global engine (a sequential, cacheless default until
    :func:`configure` is called)."""
    global _engine
    if _engine is None:
        _engine = ExperimentEngine()
    return _engine


def reset() -> None:
    """Drop the process-global engine (tests)."""
    global _engine
    _engine = None
