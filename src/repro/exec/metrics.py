"""Run-level observability for the experiment engine.

Every run dispatched through :class:`~repro.exec.ExperimentEngine` is
recorded here: what it was, where the result came from (cache hit, cache
miss, or a plain uncached execution), and how long it took.  The
``--stats`` CLI flag renders the aggregate as a table after the
experiments finish.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import repro.telemetry as telemetry
from repro.util.tables import render_table

__all__ = ["BatchRecord", "RunRecord", "RunStats"]

#: Where a dispatched run's result came from.
SOURCES = ("hit", "miss", "exec")

#: Telemetry counter names per source (every dispatch funnels through
#: :meth:`RunStats.record`, so this one hook observes the whole engine).
_SOURCE_COUNTERS = {
    "hit": "engine.cache.hit",
    "miss": "engine.cache.miss",
    "exec": "engine.exec",
}


@dataclass(frozen=True)
class RunRecord:
    """One dispatched run: identity, result provenance, wall time."""

    label: str
    source: str  # "hit" (cache), "miss" (executed + stored), "exec" (no cache)
    wall_s: float


@dataclass(frozen=True)
class BatchRecord:
    """One config-batched group dispatch: how many keys, total wall time."""

    n_keys: int
    wall_s: float

    @property
    def amortized_wall_s(self) -> float:
        """Wall time per key once the group overhead is shared out."""
        return self.wall_s / self.n_keys if self.n_keys else 0.0


@dataclass
class RunStats:
    """Counters and per-run wall-times for one engine's lifetime."""

    records: list[RunRecord] = field(default_factory=list)
    batches: list[BatchRecord] = field(default_factory=list)

    def record(self, label: str, source: str, wall_s: float) -> None:
        """Append one run record (``source`` must be in :data:`SOURCES`)."""
        if source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {source!r}")
        self.records.append(RunRecord(label=label, source=source, wall_s=wall_s))
        telemetry.count(_SOURCE_COUNTERS[source])
        telemetry.observe("engine.dispatch_wall_s", wall_s)

    def record_batch(self, n_keys: int, wall_s: float) -> None:
        """Append one batched-group record (the member runs are recorded
        individually through :meth:`record` with amortised wall times)."""
        rec = BatchRecord(n_keys=int(n_keys), wall_s=wall_s)
        self.batches.append(rec)
        telemetry.count("engine.batched.groups")
        telemetry.observe("engine.batch_size", rec.n_keys)
        telemetry.observe("engine.batch_amortized_wall_s", rec.amortized_wall_s)

    # -- counters ------------------------------------------------------------

    @property
    def n_runs(self) -> int:
        """Total runs dispatched."""
        return len(self.records)

    @property
    def hits(self) -> int:
        """Runs answered from the persistent cache."""
        return sum(1 for r in self.records if r.source == "hit")

    @property
    def misses(self) -> int:
        """Runs executed because the cache had no entry."""
        return sum(1 for r in self.records if r.source == "miss")

    @property
    def executed(self) -> int:
        """Runs executed with caching disabled."""
        return sum(1 for r in self.records if r.source == "exec")

    @property
    def hit_rate(self) -> float:
        """Fraction of cache-eligible runs answered from the cache."""
        eligible = self.hits + self.misses
        return self.hits / eligible if eligible else 0.0

    @property
    def total_wall_s(self) -> float:
        """Cumulative wall time across every dispatched run."""
        return sum(r.wall_s for r in self.records)

    def slowest(self, n: int = 5) -> list[RunRecord]:
        """The ``n`` slowest runs, slowest first."""
        return sorted(self.records, key=lambda r: r.wall_s, reverse=True)[:n]

    # -- batching ------------------------------------------------------------

    @property
    def n_batches(self) -> int:
        """Config-batched group dispatches."""
        return len(self.batches)

    @property
    def batched_keys(self) -> int:
        """Total keys executed through batched groups."""
        return sum(b.n_keys for b in self.batches)

    @property
    def mean_batch_size(self) -> float:
        """Average keys per batched group."""
        return self.batched_keys / self.n_batches if self.n_batches else 0.0

    @property
    def amortized_wall_s(self) -> float:
        """Mean per-key wall time across all batched keys."""
        total = sum(b.wall_s for b in self.batches)
        return total / self.batched_keys if self.batched_keys else 0.0

    # -- rendering -----------------------------------------------------------

    def format_summary(self, top: int = 5) -> str:
        """Render the counters plus the slowest runs as a table."""
        if not self.records:
            return "-- engine stats: no runs dispatched"
        head = (
            f"-- engine stats: {self.n_runs} runs "
            f"({self.hits} cache hits, {self.misses} misses, "
            f"{self.executed} uncached), hit rate {self.hit_rate:.0%}, "
            f"total {self.total_wall_s:.2f} s"
        )
        if self.batches:
            head += (
                f"\n-- batched dispatch: {self.batched_keys} keys in "
                f"{self.n_batches} groups (avg batch {self.mean_batch_size:.1f}, "
                f"amortized {self.amortized_wall_s * 1e3:.1f} ms/key)"
            )
        rows = [
            [r.label, r.source, f"{r.wall_s * 1e3:.1f}"]
            for r in self.slowest(top)
        ]
        table = render_table(
            ["Run", "Source", "Wall [ms]"],
            rows,
            title=f"Slowest {min(top, self.n_runs)} runs",
        )
        return f"{head}\n{table}"
