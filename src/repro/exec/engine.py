"""The experiment execution engine: cached, deterministic runs.

:class:`ExperimentEngine` sits between the experiments and
:func:`~repro.core.runner.run_budgeted_batched`, the one run entry point:

* every run is addressed by a :class:`~repro.exec.cache.RunKey` and can
  be answered from the persistent :class:`~repro.exec.cache.ResultCache`;
* :meth:`ExperimentEngine.submit_sweep` runs cache misses sharing a
  system/fleet/app as one config batch, uncapped keys included as
  ``(None, None)`` rows; a lone key is a group of one, and
  :meth:`ExperimentEngine.run` is a one-key sweep;
* every dispatch is recorded in :class:`~repro.exec.metrics.RunStats`.

Every run, sweep and :meth:`~ExperimentEngine.map` executes in the
calling process.  The only parallelism is the tiled executor's threads
inside one batched simulation (``shard``, see
:mod:`repro.simmpi.sharding`).

Determinism
-----------
Every stochastic element of a run draws from
:class:`~repro.util.rng.RngFactory` streams keyed by (root seed, string
path), restarted per call — a run's output is a pure function of its
:class:`RunKey`, independent of ordering, grouping, or what ran before
it.  That is what makes batched execution bit-identical to per-key
execution and cached results trustworthy; ``tests/exec/test_engine.py``
proves it differentially.  As a defensive measure, every group run
additionally reseeds numpy's *legacy global* generator from its first
key's digest, so even a stray ``np.random.*`` draw in future model code
would be order-independent rather than silently racy.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import replace
from functools import lru_cache
from time import perf_counter

import numpy as np

import repro.telemetry as telemetry
from repro.apps.registry import get_app
from repro.cluster.configs import build_system
from repro.cluster.system import System
from repro.core.pvt import PowerVariationTable, generate_pvt
from repro.core.runner import RunResult, run_budgeted_batched
from repro.errors import InfeasibleBudgetError
from repro.exec.cache import ResultCache, RunKey
from repro.exec.metrics import RunStats
from repro.hardware.microarch import Microarchitecture, get_microarch

__all__ = [
    "ExperimentEngine",
    "execute_key",
    "configure",
    "get_engine",
    "reset",
]


# -- system/PVT construction (memoised per process) ---------------------------

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
    """Execute the run a :class:`RunKey` describes (no cache involved):
    a group of one.

    Raises :class:`InfeasibleBudgetError` for budgets below the fmin
    floor, like :func:`~repro.core.runner.run_budgeted`.
    """
    (out,) = _run_group((key,))
    if isinstance(out, InfeasibleBudgetError):
        raise out
    return out


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
        key.turbo,
    )


def _run_batch(
    keys: Sequence[RunKey], shard
) -> list[RunResult | InfeasibleBudgetError]:
    key0 = keys[0]
    # Defensive group-level seeding (see module docstring).
    np.random.seed(int(key0.digest()[:8], 16))
    spec = _spec(key0)
    system = _system_for(spec)
    # Only budgeted rows plan, so a group of uncapped keys builds no PVT.
    pvt = _pvt_for(spec) if any(k.scheme is not None for k in keys) else None
    app = get_app(key0.app)
    if key0.app_overrides:
        app = app.with_(**dict(key0.app_overrides))
    return run_budgeted_batched(
        system,
        app,
        [(k.scheme, k.budget_w) for k in keys],
        pvt=pvt,
        test_module=key0.test_module,
        n_iters=key0.n_iters,
        noisy=key0.noisy,
        fs_guardband_frac=key0.fs_guardband_frac,
        turbo=key0.turbo,
        shard=shard,
    )


def _run_group(
    keys: Sequence[RunKey], shard="auto"
) -> list[RunResult | InfeasibleBudgetError]:
    """Execute keys sharing a :func:`_group_signature` as one
    :func:`~repro.core.runner.run_budgeted_batched` pass; per-key
    outcomes in input order.

    The system and PVT come from the :func:`_system_for` /
    :func:`_pvt_for` caches, built from the key's keyed RNG streams, so
    the runs are bit-identical in any grouping.

    ``shard`` forwards to :func:`~repro.core.runner.run_budgeted_batched`
    unchanged.  It is execution layout only — results, and therefore
    cache payloads and key digests, do not depend on it, which is why it
    is *not* part of :func:`_group_signature` or :class:`RunKey`.  A
    lone key runs on one tile and, when telemetry is enabled, under a
    run scope named by its digest prefix — the same identity the result
    cache uses — so exported traces join back to cached results.
    """
    if len(keys) > 1:
        return _run_batch(keys, shard)
    if not telemetry.enabled():
        return _run_batch(keys, None)
    digest = keys[0].digest()
    with telemetry.run_scope(digest[:12], keys[0].describe()):
        with telemetry.span("engine.execute"):
            return _run_batch(keys, None)


#: What a ``jobs=`` caller gets told; the keyword is kept for one
#: deprecation release (docs/API.md "Current shims").
_JOBS_DEPRECATED = (
    "jobs= is deprecated and ignored: runs execute in the calling process; "
    "parallelise a batched simulation with shard=ShardSpec(shard_workers=N)"
)


def _warn_jobs(jobs) -> None:
    """Issue the ``jobs=`` deprecation warning if a caller passed one,
    attributed to the caller of the function that calls this."""
    if jobs is not None:
        warnings.warn(_JOBS_DEPRECATED, DeprecationWarning, stacklevel=3)


class ExperimentEngine:
    """Cached dispatcher for :class:`RunKey` sweeps, in the calling process.

    Parameters
    ----------
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
        :class:`~repro.simmpi.sharding.ShardSpec` pins the tiling and
        its thread count, ``None`` runs the whole plane as one tile.
        Layout only — results and cache digests never depend on it.
    jobs:
        Deprecated and ignored; passing it warns
        (:class:`DeprecationWarning`).  Runs never leave the calling
        process.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache_dir: str | None = None,
        use_cache: bool | None = None,
        stats: RunStats | None = None,
        shard="auto",
    ):
        _warn_jobs(jobs)
        if use_cache is None:
            use_cache = cache_dir is not None
        self.cache: ResultCache | None = (
            ResultCache(cache_dir) if use_cache else None
        )
        self.stats = stats if stats is not None else RunStats()
        self.shard = shard

    # -- single runs ---------------------------------------------------------

    def run(self, key: RunKey) -> RunResult:
        """One run through the cache: a one-key :meth:`submit_sweep`."""
        return self.submit_sweep([key])[0]

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

        Pending keys sharing a :func:`_group_signature` execute as
        **one** :func:`~repro.core.runner.run_budgeted_batched` pass per
        group — one fleet build, one PMT per ``pmt_kind``, one batched
        α-solve per scheme, one 2-D simulation; uncapped keys are
        ``(None, None)`` rows of their group, and a lone key is a group
        of one (:func:`execute_key`).  Groups run one after another in
        the calling process.

        Results, cache payloads, key digests, and infeasible semantics
        are bit-identical to running each key alone with :meth:`run`;
        per-key stats record the group wall time amortised over its
        members, and groups of two or more keys are recorded as batches.
        With ``skip_infeasible=True`` an infeasible budget yields
        ``None`` in its slot instead of raising (sweeps over feasibility
        edges, e.g. the uncertainty study).
        """
        results: list[RunResult | None] = [None] * len(keys)
        pending = self._scan_cache(keys, results, skip_infeasible)
        if not pending:
            return results

        by_sig: dict[tuple, list[tuple[int, RunKey]]] = {}
        for i, key in pending:
            by_sig.setdefault(_group_signature(key), []).append((i, key))

        #: index -> (outcome, amortised wall seconds)
        outcome: dict[int, tuple[RunResult | InfeasibleBudgetError, float]] = {}
        for members in by_sig.values():
            t0 = perf_counter()
            outs = _run_group(tuple(k for _, k in members), shard=self.shard)
            wall_s = perf_counter() - t0
            for (i, _key), out in zip(members, outs):
                outcome[i] = (out, wall_s / len(members))
            if len(members) > 1:
                self.stats.record_batch(len(members), wall_s)

        # Fold outcomes back in *pending* order so stats, cache writes,
        # and the first-infeasible raise follow the input order.
        source = "miss" if self.cache is not None else "exec"
        for i, key in pending:
            out, wall_s = outcome[i]
            self.stats.record(key.describe(), source, wall_s)
            if isinstance(out, InfeasibleBudgetError):
                if self.cache is not None:
                    self.cache.put_infeasible(key, out)
                if skip_infeasible:
                    continue
                raise out
            if self.cache is not None:
                self.cache.put(key, out)
            results[i] = out
        return results

    #: Alias of :meth:`submit_sweep`; callers use both names.
    submit_batched_sweep = submit_sweep

    # -- uncached stages -------------------------------------------------------

    def map(self, fn: Callable, items: Iterable, *, label: str = "map") -> list:
        """Apply ``fn`` over ``items`` in the calling process and record
        the stage's wall time (uncached — for experiment stages that do
        not produce :class:`RunResult`, e.g. Table 4 classification or
        the throughput schedulers)."""
        items = list(items)
        t0 = perf_counter()
        out = [fn(item) for item in items]
        self.stats.record(f"{label}[{len(items)}]", "exec", perf_counter() - t0)
        return out


# -- process-global engine (configured by the CLI) ----------------------------

_engine: ExperimentEngine | None = None


def configure(
    *,
    jobs: int | None = None,
    cache_dir: str | None = None,
    use_cache: bool | None = None,
    shard="auto",
) -> ExperimentEngine:
    """Install the process-global engine (called by the CLI front-end).
    ``jobs`` is deprecated and ignored, as for :class:`ExperimentEngine`."""
    global _engine
    _warn_jobs(jobs)
    _engine = ExperimentEngine(
        cache_dir=cache_dir, use_cache=use_cache, shard=shard
    )
    return _engine


def get_engine() -> ExperimentEngine:
    """The process-global engine (a cacheless default until
    :func:`configure` is called)."""
    global _engine
    if _engine is None:
        _engine = ExperimentEngine()
    return _engine


def reset() -> None:
    """Drop the process-global engine (tests)."""
    global _engine
    _engine = None
