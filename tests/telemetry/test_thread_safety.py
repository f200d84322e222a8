"""Telemetry under concurrent shard workers.

The sharded fast path updates counters/histograms and records per-shard
spans from a thread pool.  Unsynchronised read-modify-write updates
would drop increments at GIL preemption points and interleave span
stacks across threads; these tests hammer every instrument from many
threads and require *exact* totals (the observed values are small
integers, so float summation is associative and lossless) plus
structurally sane span trees (unique ids, parents resolved per thread).
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import TelemetryCollector

N_THREADS = 8
N_OPS = 2_000

#: Generous bound on the start barrier: a wedged worker turns into a
#: failed test instead of a hung suite.
_BARRIER_TIMEOUT_S = 60.0


def _hammer(n_threads, fn):
    """Run ``fn(thread_index)`` concurrently with a start barrier so all
    threads contend from the first operation.

    Deterministic regardless of test order or scheduling: the barrier
    is bounded (a wedged thread fails the test rather than hanging it),
    a failing thread aborts the barrier so peers are released, and the
    first *real* exception in thread-index order is what propagates —
    the secondary ``BrokenBarrierError`` every released peer sees can
    never mask it.
    """
    barrier = threading.Barrier(n_threads)
    errors: list = [None] * n_threads

    def run(t):
        try:
            barrier.wait(timeout=_BARRIER_TIMEOUT_S)
            fn(t)
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors[t] = exc
            barrier.abort()

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        list(pool.map(run, range(n_threads)))
    real = [
        e for e in errors
        if e is not None and not isinstance(e, threading.BrokenBarrierError)
    ]
    if real:
        raise real[0]
    if any(errors):
        raise next(e for e in errors if e is not None)


class TestInstrumentExactness:
    def test_counter_increments_are_not_lost(self):
        reg = MetricsRegistry()

        def work(_t):
            c = reg.counter("hits")
            for _ in range(N_OPS):
                c.inc()

        _hammer(N_THREADS, work)
        assert reg.counter("hits").value == N_THREADS * N_OPS

    def test_histogram_folds_every_observation(self):
        reg = MetricsRegistry()

        def work(t):
            h = reg.histogram("sizes")
            for i in range(N_OPS):
                h.observe(float(t * N_OPS + i))

        _hammer(N_THREADS, work)
        h = reg.histogram("sizes")
        total = N_THREADS * N_OPS
        assert h.count == total
        assert h.min == 0.0
        assert h.max == float(total - 1)
        # Small integers: float addition is exact, so a lost or doubled
        # fold shows up in the sum.
        assert h.total == float(total * (total - 1) // 2)

    def test_gauge_last_write_wins_cleanly(self):
        reg = MetricsRegistry()

        def work(t):
            g = reg.gauge("level")
            for i in range(N_OPS):
                g.set(float(t))

        _hammer(N_THREADS, work)
        assert reg.gauge("level").value in {float(t) for t in range(N_THREADS)}

    def test_get_or_create_never_races_distinct_instruments(self):
        reg = MetricsRegistry()
        seen: list = [None] * N_THREADS

        def work(t):
            seen[t] = reg.counter("shared")
            seen[t].inc()

        _hammer(N_THREADS, work)
        assert all(c is seen[0] for c in seen)
        assert reg.counter("shared").value == N_THREADS
        assert len(reg.counters) == 1


class TestConcurrentSpans:
    def test_span_ids_unique_and_parents_thread_local(self):
        c = TelemetryCollector()

        def work(t):
            with c.span(f"outer-{t}"):
                for i in range(50):
                    with c.span(f"inner-{t}-{i}"):
                        pass

        _hammer(N_THREADS, work)
        assert c.n_spans == N_THREADS * 51
        ids = [s.id for s in c.spans]
        assert len(set(ids)) == len(ids)
        by_id = {s.id: s for s in c.spans}
        for s in c.spans:
            if s.name.startswith("inner-"):
                t = s.name.split("-")[1]
                parent = by_id[s.parent]
                # A worker's spans nest under its own outer span, never
                # under another thread's frame.
                assert parent.name == f"outer-{t}"
            else:
                assert s.parent == -1

    def test_add_span_from_workers(self):
        c = TelemetryCollector()

        def work(t):
            for i in range(200):
                c.add_span("shard", 0.001, {"tile": t, "i": i})

        _hammer(N_THREADS, work)
        assert c.n_spans == N_THREADS * 200
        ids = [s.id for s in c.spans]
        assert len(set(ids)) == len(ids)
        assert all(s.dur_s == 0.001 for s in c.spans)

    def test_add_span_nests_under_calling_threads_stack(self):
        c = TelemetryCollector()
        with c.span("driver"):
            c.add_span("shard", 0.5)
        driver = next(s for s in c.spans if s.name == "driver")
        shard = next(s for s in c.spans if s.name == "shard")
        assert shard.parent == driver.id
        # Backdated start: the shard span ends where it was recorded.
        assert shard.t_start_s <= driver.t_start_s + driver.dur_s

    def test_sinks_roundtrip_after_concurrent_session(self, tmp_path):
        from repro.telemetry.sinks import read_jsonl, write_jsonl

        c = TelemetryCollector()

        def work(t):
            with c.span(f"w{t}"):
                c.metrics.counter("ops").inc()
                c.metrics.histogram("h").observe(1.0)
                c.add_span("shard", 0.002, {"tile": t})

        _hammer(N_THREADS, work)
        path = tmp_path / "session.jsonl"
        write_jsonl(c, path)
        rebuilt = read_jsonl(path)
        assert rebuilt.n_spans == 2 * N_THREADS
        assert rebuilt.metrics.counters["ops"].value == N_THREADS
        assert rebuilt.metrics.histograms["h"].count == N_THREADS


class TestShardedRunTelemetry:
    def test_sharded_fast_path_records_shard_metrics(self):
        """End to end: a multi-worker sharded run populates the shard
        histograms and per-shard spans without corrupting anything."""
        import repro.telemetry as telemetry
        from repro.simmpi.fastpath import (
            BspProgram, VAllreduce, VCompute, VLoop, run_fast_sharded,
        )
        from repro.simmpi.sharding import plan_shards

        program = BspProgram(
            16, (VLoop((VCompute(1.0), VAllreduce(64.0)), iters=10),)
        )
        rng = np.random.default_rng(5)
        rates = 1.0 + rng.uniform(0.0, 2.0, (3, 16))
        plan = plan_shards(3, 16, shard_ranks=3, shard_workers=4)
        c = telemetry.enable()
        try:
            run_fast_sharded(program, rates, plan=plan)
        finally:
            telemetry.disable()
        h = c.metrics.histograms["sim.shard_ranks"]
        assert h.count == plan.n_col_shards
        assert h.total == float(program.n_ranks)
        occ = c.metrics.histograms["sim.shard_occupancy"]
        assert occ.count == 1
        assert 0.0 <= occ.max <= 1.0
        shard_spans = [s for s in c.spans if s.name == "sim.shard"]
        assert len(shard_spans) == plan.n_col_shards
        root = next(s for s in c.spans if s.name == "sim.run_fast_sharded")
        assert all(s.parent == root.id for s in shard_spans)


class TestCrossProcessSpanBackdating:
    """Walls measured elsewhere (the sharded executor's per-tile busy
    time) are recorded after the fact via
    :func:`repro.telemetry.record_span` — the span must backdate into
    the enclosing run span, not dangle at the record time, and the path
    must hold up under thread contention."""

    def test_record_span_backdates_under_open_frame(self):
        import repro.telemetry as telemetry

        c = telemetry.enable()
        try:
            with telemetry.span("driver"):
                telemetry.record_span("worker.block", 0.25, pid=1234)
        finally:
            telemetry.disable()
        driver = next(s for s in c.spans if s.name == "driver")
        block = next(s for s in c.spans if s.name == "worker.block")
        assert block.parent == driver.id
        assert block.dur_s == 0.25
        # Backdated start: the block ends where it was recorded.
        assert block.t_start_s <= driver.t_start_s + driver.dur_s

    def test_backdated_spans_parent_per_thread_under_contention(self):
        c = TelemetryCollector()

        def work(t):
            with c.span(f"driver-{t}"):
                for i in range(100):
                    c.add_span("block", 0.001, {"t": t, "i": i})

        _hammer(N_THREADS, work)
        assert c.n_spans == N_THREADS * 101
        drivers = {
            s.name: s.id for s in c.spans if s.name.startswith("driver-")
        }
        for s in c.spans:
            if s.name == "block":
                # Each backdated span nests under *its own* thread's
                # driver frame, never a concurrent thread's.
                assert s.parent == drivers[f"driver-{s.attrs['t']}"]
