"""One benchmark worker: set up a workload, then measure it on request.

``run.py`` starts this script once per set-up sample.  Protocol, on
stdout lines starting with ``@perfbench``: ``ready`` once set-up is done;
then one command is read from stdin: ``quit`` (close, reply ``closed``)
or ``go`` (measure, check, close, reply ``result`` with a JSON payload).
Everything else the library prints goes to stderr.

With ``--trace 1``, batch workloads alternate unmodified ops with ops
run under the span wrappers of :mod:`tracing` and the library's
telemetry; service workloads measure half the seconds against a plain
daemon, then half with the client wrapped and a daemon started by
``serve_traced.py``.  The per-layer metrics come from the traced ops;
the two throughputs give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from collections import Counter
from time import monotonic, perf_counter

from workloads import ROOT, SRC, WORKLOADS, BatchWorkload, PaperRepro

TRACE_DIR = os.path.join(ROOT, ".perfbench_trace")


def send(proto, kind: str, payload: dict | None = None) -> None:
    proto.write(f"@perfbench {kind} {json.dumps(payload or {})}\n")
    proto.flush()


def host_fingerprint(workload: str, seed: int) -> dict:
    import numpy as np

    from repro.util.topology import probe_topology

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "cpu_model": model,
        "effective_cpus": len(os.sched_getaffinity(0)),
        "numa_nodes": probe_topology().n_nodes,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class OpObserver:
    """Alternates untraced and traced batch ops, so both see the same
    host; around each traced op it installs the span wrappers, slices
    the spans and reads the library's own counters, so that the checks
    between ops are not counted."""

    def __init__(self, tracer, experiments: dict | None):
        self.tracer = tracer
        self.experiments = experiments
        self.times: dict[bool, list[float]] = {False: [], True: []}
        self.slices: list[tuple[int, int]] = []
        self.counters: Counter = Counter()

    def begin(self) -> None:
        import repro.telemetry as telemetry
        from tracing import LIBRARY_TARGETS

        self.traced = len(self.times[False]) > len(self.times[True])
        if self.traced:
            self.tracer.install(LIBRARY_TARGETS)
            if self.experiments is not None:
                self.tracer.wrap_experiments(self.experiments)
            telemetry.enable()
            self.first = len(self.tracer.spans)
        self.t0 = perf_counter()

    def end(self) -> None:
        import repro.telemetry as telemetry

        self.times[self.traced].append(perf_counter() - self.t0)
        if not self.traced:
            return
        metrics = telemetry.disable().metrics
        self.tracer.uninstall()
        for name, counter in metrics.counters.items():
            self.counters[name] += counter.value
        saved = metrics.histograms.get("sim.ff_saved_iters")
        self.counters["sim.ff_saved_iters"] += saved.total if saved else 0.0
        self.slices.append((self.first, len(self.tracer.spans)))


def overhead_metrics(untraced: float, traced: float) -> dict:
    return {
        "trace.untraced_throughput_per_s": untraced,
        "trace.traced_throughput_per_s": traced,
        "trace.overhead_pct": 100.0 * (untraced - traced) / untraced if untraced else 0.0,
    }


def library_metrics(spans: list[tuple], per: int) -> dict:
    """Core, simulator, engine and cache layers, per op (or request)."""
    from repro.cli import EXPERIMENTS
    from tracing import layer_totals

    layers = layer_totals(spans)
    per = max(per, 1)

    def row(name: str) -> dict:
        return layers.get(name, {})

    def ms(name: str, key: str = "self_s") -> float:
        return row(name).get(key, 0.0) * 1e3

    hits = row("exec.cache.get").get("hit", 0)
    misses = row("exec.cache.get").get("n", 0) - hits
    planes = [s[5].get("plane_bytes", 0) for s in spans if s[2] == "simmpi.fastpath"]
    out = {
        "cluster.build.ms": ms("cluster.build"),
        "cluster.build.calls": row("cluster.build").get("calls", 0),
        "core.pvt.ms": ms("core.pvt"),
        "core.pmt.ms": ms("core.pmt"),
        "core.pmt.calls": row("core.pmt").get("calls", 0),
        "core.budget.ms": ms("core.budget"),
        "core.budget.calls": row("core.budget").get("calls", 0),
        "core.runner.self_ms": ms("core.runner"),
        "core.runner.onedim_calls": row("core.runner").get("onedim", 0),
        "core.runner.batched_calls": row("core.runner").get("batched", 0),
        "core.runner.batched_rows": row("core.runner").get("rows", 0),
        "simmpi.fastpath.ms": ms("simmpi.fastpath"),
        "simmpi.fastpath.calls": row("simmpi.fastpath").get("calls", 0),
        "simmpi.machine.ms": ms("simmpi.machine"),
        "simmpi.sharded.ms": ms("simmpi.sharded"),
        "simmpi.sharded.calls": row("simmpi.sharded").get("calls", 0),
        "exec.engine.self_ms": ms("exec.engine"),
        "exec.cache.get_ms": ms("exec.cache.get", "incl_s"),
        "exec.cache.put_ms": ms("exec.cache.put", "incl_s"),
        "exec.cache.hits": hits,
        "exec.cache.misses": misses,
    }
    out.update(
        {f"experiments.{key}.ms": ms(f"experiments.{key}", "incl_s") for key in EXPERIMENTS}
    )
    out = {k: v / per for k, v in out.items()}
    out["exec.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    # Largest (n_configs, n_ranks) plane an op simulated: computed bytes.
    out["simmpi.plane_mb"] = max(planes, default=0) / 1e6
    return out


def counter_metrics(counters: dict, per: int) -> dict:
    """The library's own counters (read through ``repro.telemetry``)."""
    per = max(per, 1)
    runs = sum(counters.get(f"engine.{k}", 0) for k in ("cache.hit", "cache.miss", "exec"))
    return {
        "sim.ff_saved_iters": counters.get("sim.ff_saved_iters", 0) / per,
        "exec.engine.runs": runs / per,
        "exec.engine.groups": counters.get("engine.batched.groups", 0) / per,
    }


def service_metrics(spans: list[tuple]) -> dict:
    """Client codec, wire and round-trip layers, per request."""
    from tracing import self_times

    selfs = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def mean(name: str, scale: float, value=lambda s: s[4] - s[3]) -> float:
        rows = by_name.get(name, [])
        return scale * sum(map(value, rows)) / len(rows) if rows else 0.0

    calls = [s for s in spans if s[2].startswith("service.client.")]
    durations = sorted(s[4] - s[3] for s in calls)
    churn = [s for s in calls if "active" in s[5]]
    return {
        "service.api.encode_us": mean("service.api.encode", 1e6),
        "service.api.decode_us": mean("service.api.decode", 1e6),
        "service.wire.request_bytes": mean("service.api.encode", 1, lambda s: s[5]["bytes"]),
        "service.wire.reply_bytes": mean("service.api.decode", 1, lambda s: s[5]["bytes"]),
        "service.client.wait_us": (
            1e6 * sum(selfs[s[0]] for s in calls) / len(calls) if calls else 0.0
        ),
        "service.client.latency_p99_ms": (
            1e3 * statistics.quantiles(durations, n=100)[98] if len(durations) > 1 else 0.0
        ),
        "service.churn.admit_ms": mean("service.client.admit", 1e3),
        "service.churn.depart_ms": mean("service.client.depart", 1e3),
        "service.churn.set_budget_ms": mean("service.client.set_budget", 1e3),
        "service.churn.modules_resolved": (
            sum(s[5]["active"] for s in churn) / len(churn) if churn else 0.0
        ),
    }


def traced_batch(wl: BatchWorkload, seconds: float) -> tuple[list, dict, list[str]]:
    import repro.cli
    from tracing import Tracer, import_all

    import_all()
    tracer = Tracer()
    observer = OpObserver(
        tracer, repro.cli.EXPERIMENTS if isinstance(wl, PaperRepro) else None
    )
    phase = wl.measure(seconds, observer)
    spans = [s for a, b in observer.slices for s in tracer.spans[a:b]]
    n = len(observer.slices)
    metrics = library_metrics(spans, n)
    metrics.update(counter_metrics(observer.counters, n))
    metrics.update(service_metrics([]))
    metrics.update({
        "exec.cache.mb_written": (
            statistics.fmean(wl.cache_bytes) / 1e6 if isinstance(wl, PaperRepro) else 0.0
        ),
        "service.open_fleet.ms": 0.0,
        "service.daemon.served": 0,
        "service.daemon.rejected": 0,
    })
    rates = [
        wl.work_per_op / statistics.median(t) if t else 0.0
        for t in (observer.times[False], observer.times[True])
    ]
    metrics.update(overhead_metrics(*rates))
    tracer.dump(os.path.join(TRACE_DIR, f"{wl.name}.client.jsonl"))
    return [phase], metrics, []


def traced_service(wl, seconds: float) -> tuple[list, dict, list[str]]:
    from repro.service import ServiceClient
    from tracing import CLIENT_TARGETS, Tracer, import_all, load_spans

    untraced = wl.measure(seconds / 2)
    problems = wl.stop_daemon()
    import_all()
    tracer = Tracer()
    tracer.install(CLIENT_TARGETS)
    try:
        wl.start_daemon(traced=True)
        t_open = monotonic()
        wl.prepare()
        with ServiceClient(wl.socket) as client:
            before = client.telemetry()[0]
        t0 = monotonic()
        traced = wl.measure(seconds / 2)
        t1 = monotonic()
        with ServiceClient(wl.socket) as client:
            after = client.telemetry()[0]
    finally:
        tracer.uninstall()
        problems += wl.stop_daemon()
    daemon_spans = load_spans(wl.spans_path)
    shutil.move(wl.spans_path, os.path.join(TRACE_DIR, f"{wl.name}.daemon.jsonl"))
    tracer.dump(os.path.join(TRACE_DIR, f"{wl.name}.client.jsonl"))
    n = traced.attempted
    window = [s for s in daemon_spans if t0 <= s[3] and s[4] <= t1]
    metrics = library_metrics(window, n)
    metrics.update(service_metrics(tracer.window(t0, t1)))
    start = dict(before.counters)
    metrics.update(counter_metrics(
        {k: v - start.get(k, 0) for k, v in after.counters}, n
    ))
    metrics["exec.cache.mb_written"] = 0.0
    opens = [s for s in tracer.window(t_open, t0) if s[2] == "service.open_fleet"]
    metrics["service.open_fleet.ms"] = sum(s[4] - s[3] for s in opens) * 1e3
    metrics["service.daemon.served"] = sum(dict(after.served).values()) - sum(
        dict(before.served).values()
    )
    metrics["service.daemon.rejected"] = sum(dict(after.rejected).values()) - sum(
        dict(before.rejected).values()
    )
    metrics.update(overhead_metrics(
        *(wl.throughput(p) if p.op_s else 0.0 for p in (untraced, traced))
    ))
    return [untraced, traced], metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    # The protocol keeps the real stdout; library output goes to stderr.
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.chdir(args.work)
    host = host_fingerprint(args.workload, args.seed)  # before any pinning
    wl = WORKLOADS[args.workload](args.seed, args.work)
    try:
        wl.setup()
        send(proto, "ready")
        if sys.stdin.readline().strip() != "go":
            send(proto, "closed", {"problems": wl.close()})
            return 0
        send(proto, "result", dict(measure(wl, args), host=host))
    finally:
        wl.close()  # idempotent: stops the daemon if anything above failed
    return 0


def measure(wl, args: argparse.Namespace) -> dict:
    problems: list[str] = []
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        traced = traced_batch if isinstance(wl, BatchWorkload) else traced_service
        phases, metrics, problems = traced(wl, args.seconds)
    else:
        phases = [wl.measure(args.seconds)]
        ok = phases[0].op_s
        metrics = {
            "throughput_per_s": wl.throughput(phases[0]) if ok else 0.0,
            "latency_p50_ms": wl.latency_p50_ms(phases[0]) if ok else 0.0,
        }
    verify = getattr(wl, "verify", None)
    if verify is not None:
        problem = verify()
        if problem:
            problems.append(problem)
    problems += wl.close()
    metrics["peak_rss_mb"] = wl.peak_rss_mb()
    return {
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "errors": [e for p in phases for e in p.errors],
        "problems": problems,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
