"""Command-line entry point: ``python -m repro <experiment>``.

Lists and runs the paper's tables/figures and the ablation studies::

    python -m repro list
    python -m repro schemes
    python -m repro fig7 --no-cache
    python -m repro table4 --modules 512
    python -m repro all --stats
    python -m repro fleet --telemetry
    python -m repro fleet --modules 10000 --cm 80
    python -m repro hetero --modules 2000 --gpu-fraction 0.5
    python -m repro serve --fleet ha8k:100000 --socket /tmp/repro.sock
    python -m repro trace fig7
    python -m repro trace traces/fleet.jsonl

Sweep experiments route through the execution engine
(:mod:`repro.exec`), which runs everything in this process:
``--cache-dir``/``--no-cache`` control the persistent run cache, and
``--stats`` prints per-run observability afterwards.  Cache misses
sharing a system/fleet/app run as one vectorised config batch, whose
simulation plane ``--shard-ranks``/``--shard-workers`` tile over
threads.  Engine results are bit-identical regardless of cache state
and tiling (see ``tests/exec/``), so the flags trade time, never
accuracy.
``repro stats <experiment>`` runs one experiment with telemetry on and
reports the batching/amortisation counters.

Telemetry: ``--telemetry`` records spans, metrics, and phase timelines
while an experiment runs and prints the session report afterwards
(results are unchanged — ``tests/exec/test_telemetry_determinism.py``);
``--telemetry-dir DIR`` additionally exports the JSONL + NPZ sink pair.
``repro trace <target>`` either re-renders a saved ``.jsonl`` sink or
runs an experiment with telemetry on — cheap on a warm cache, where the
trace shows the cache traffic itself.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from collections.abc import Callable
from pathlib import Path
from time import perf_counter

import repro.telemetry as telemetry
from repro import exec as engine_mod
from repro.errors import ConfigurationError
from repro.util.tables import render_table

__all__ = ["main", "build_parser", "EXPERIMENTS", "run_all", "format_schemes"]


def _lazy(module: str) -> Callable[[], None]:
    def runner() -> None:
        import importlib

        importlib.import_module(f"repro.experiments.{module}").main()

    return runner


#: Experiment name -> (description, runner).
EXPERIMENTS: dict[str, tuple[str, Callable[[], None]]] = {
    "table1": ("power measurement techniques", _lazy("table1")),
    "table2": ("architectures under consideration", _lazy("table2")),
    "table4": ("constraint feasibility matrix", _lazy("table4")),
    "fig1": ("power/perf variation on Cab, Vulcan, Teller", _lazy("fig1")),
    "fig2": ("HA8K module power & performance variation", _lazy("fig2")),
    "fig3": ("MHD synchronisation overhead under caps", _lazy("fig3")),
    "fig4": ("the budgeting workflow, executed end to end", _lazy("fig4")),
    "fig5": ("power vs frequency linearity", _lazy("fig5")),
    "fig6": ("PMT calibration accuracy", _lazy("fig6_calibration")),
    "fig7": ("speedup over the Naive scheme", _lazy("fig7")),
    "fig8": ("VaFs detailed behaviour", _lazy("fig8")),
    "fig9": ("total power vs constraint", _lazy("fig9")),
    "ablations": ("DESIGN.md §5 design-decision ablations", _lazy("ablations")),
    "validate": ("headline claims vs measured, PASS/FAIL", _lazy("validate")),
    "sensitivity": ("headline robustness to model knobs", _lazy("sensitivity")),
    "overprovisioning": (
        "width vs per-module power under a facility bound",
        _lazy("overprovisioning"),
    ),
    "throughput": (
        "job-stream throughput: power-aware vs worst-case admission",
        _lazy("throughput"),
    ),
    "binning": ("frequency vs power binning counterfactual", _lazy("binning")),
    "fleet": ("fleet-scale sweep: Vf/Vt/speedup at 10k-200k modules", _lazy("fleet")),
    "hetero": (
        "mixed CPU+GPU fleets under one global budget",
        _lazy("hetero_fleet"),
    ),
    "energy": ("energy-to-solution vs budget (race-to-fmax)", _lazy("energy")),
    "report": ("write reproduction_report.md", _lazy("report")),
    "uncertainty": ("headline speedups across variation draws", _lazy("uncertainty")),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the SC'15 "
        "manufacturing-variability paper.",
    )
    parser.add_argument(
        "experiment",
        help="experiment name, 'list' to enumerate, 'schemes' to show the "
        "power-allocation scheme registry, 'all' to run everything, "
        "'trace' to render telemetry, 'topo' to print the probed "
        "CPU/NUMA topology, or 'stats' to run an experiment "
        "and report batching/amortisation counters (see 'target')",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="for 'trace': a telemetry .jsonl sink to render, or an "
        "experiment name to run with telemetry enabled; for 'stats': "
        "the experiment to profile",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent run-cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent run cache entirely",
    )
    parser.add_argument(
        "--shard-ranks",
        type=int,
        default=None,
        metavar="W",
        help="pin the sharded fast path's column-tile width to W ranks "
        "(default: auto-tuned from the cache working-set budget; "
        "sharding is execution layout only — results are bit-identical "
        "at any value)",
    )
    parser.add_argument(
        "--shard-workers",
        type=int,
        default=None,
        metavar="N",
        help="thread-pool workers executing shards (default: one per "
        "CPU core, capped at the shard count)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print engine run statistics (cache hits/misses, per-run "
        "wall times) after the experiment(s)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="record spans/metrics/phase timelines during the run and "
        "print the session report afterwards (results are unchanged)",
    )
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        metavar="DIR",
        help="export the telemetry session as <DIR>/<experiment>.jsonl "
        "+ .npz (implies --telemetry)",
    )
    point = parser.add_argument_group(
        "single-point mode (fleet / hetero)",
        "run one fleet point instead of the full sweep; arguments are "
        "validated through the same typed AllocationRequest builder the "
        "allocation service uses on the wire",
    )
    point.add_argument(
        "--modules",
        type=int,
        default=None,
        metavar="N",
        help="fleet size in modules (enables single-point mode)",
    )
    point.add_argument(
        "--app", default="bt", metavar="NAME", help="benchmark (default: bt)"
    )
    point.add_argument(
        "--cm",
        type=float,
        default=None,
        metavar="W",
        help="fleet: per-module budget in watts (default: 80)",
    )
    point.add_argument(
        "--gpu-fraction",
        type=float,
        default=None,
        metavar="F",
        help="hetero: fraction of modules that are GPUs (default: 0.5)",
    )
    point.add_argument(
        "--budget-frac",
        type=float,
        default=None,
        metavar="F",
        help="hetero: budget as a fraction of the uncapped draw "
        "(default: 0.7)",
    )
    srv = parser.add_argument_group(
        "service mode (repro serve)",
        "run the power-budget allocation daemon (see docs/API.md)",
    )
    srv.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="unix-socket path to listen on (default: a per-process "
        "path under $TMPDIR when no listener is given)",
    )
    srv.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help="also serve the NDJSON protocol on 127.0.0.1:N (0 = ephemeral)",
    )
    srv.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="N",
        help="also serve the HTTP adapter on 127.0.0.1:N (0 = ephemeral)",
    )
    srv.add_argument(
        "--fleet",
        action="append",
        default=None,
        metavar="SPEC",
        help="pre-open a fleet, e.g. 'ha8k:100000' or 'ha8k:10000:7' "
        "(repeatable)",
    )
    srv.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="in-flight request bound before typed overload rejects "
        "(default: 64)",
    )
    return parser


def _configure_engine(args: argparse.Namespace):
    """Install the process-global engine from the parsed flags."""
    return engine_mod.configure(
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        shard=args.shard,
    )


def _shard_arg(args: argparse.Namespace):
    """The engine ``shard`` value for the parsed flags: ``"auto"`` when
    no knob was given, else a pinned ShardSpec (auto geometry unless
    ``--shard-ranks``/``--shard-workers`` pin it).  Raises
    :class:`~repro.errors.ConfigurationError` on a non-positive knob."""
    if args.shard_ranks is None and args.shard_workers is None:
        return "auto"
    return engine_mod.ShardSpec(
        shard_ranks=args.shard_ranks,
        shard_workers=args.shard_workers,
    )


def run_all(stats: bool = False) -> int:
    """Run every experiment, continuing past failures.

    Prints a per-experiment PASS/FAIL + timing summary at the end and
    returns 1 if any experiment failed, 0 otherwise.
    """
    rows: list[list[object]] = []
    failed: list[str] = []
    for key, (_, runner) in EXPERIMENTS.items():
        print(f"######## {key}")
        t0 = perf_counter()
        try:
            runner()
            status = "PASS"
        except Exception:
            status = "FAIL"
            failed.append(key)
            traceback.print_exc()
        rows.append([key, status, f"{perf_counter() - t0:.2f}"])
        print()
    print(render_table(["Experiment", "Status", "Time [s]"], rows,
                       title="repro all: per-experiment summary"))
    if failed:
        print(
            f"-- {len(failed)}/{len(EXPERIMENTS)} experiments FAILED: "
            f"{', '.join(failed)}",
            file=sys.stderr,
        )
    else:
        print(f"-- all {len(EXPERIMENTS)} experiments passed")
    if stats:
        print(engine_mod.get_engine().stats.format_summary())
    return 1 if failed else 0


def format_schemes() -> str:
    """Render the power-allocation scheme registry as a table."""
    from repro import available_schemes

    rows = [
        [
            s.name,
            s.label,
            s.pmt_kind,
            s.actuation,
            "yes" if s.variation_aware else "no",
            "yes" if s.app_dependent else "no",
        ]
        for s in available_schemes().values()
    ]
    return render_table(
        ["Name", "Label", "PMT", "Actuation", "Variation-aware", "App-dependent"],
        rows,
        title="power-allocation schemes (paper Fig 7 legend order)",
    )


def _finish_telemetry(name: str, telemetry_dir: str | None) -> None:
    """Print the session report, export the sinks, and switch back off."""
    print()
    print(telemetry.report(f"telemetry: {name}"))
    if telemetry_dir is not None:
        collector = telemetry.collector()
        if collector is not None:
            jsonl, npz = telemetry.write_sinks(collector, telemetry_dir, name)
            print(f"-- telemetry written to {jsonl} and {npz}")
    telemetry.disable()


def _run_trace(args: argparse.Namespace) -> int:
    """``repro trace <target>``: render a sink, or run traced."""
    target = args.target
    if target is None:
        print(
            "trace needs a target: a telemetry .jsonl file or an "
            "experiment name",
            file=sys.stderr,
        )
        return 2
    path = Path(target)
    if path.suffix == ".jsonl" or path.exists():
        try:
            collector = telemetry.read_jsonl(path)
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(telemetry.format_report(collector, f"telemetry: {path.name}"))
        return 0
    name = target.lower()
    if name not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        print(
            f"trace target {target!r} is neither a telemetry .jsonl file "
            f"nor an experiment; experiments: {known}",
            file=sys.stderr,
        )
        return 2
    _configure_engine(args)
    telemetry.enable()
    _, runner = EXPERIMENTS[name]
    runner()
    _finish_telemetry(name, args.telemetry_dir)
    return 0


def _format_batch_counters() -> str:
    """Render the batching/amortisation metrics of the live telemetry
    session (the ``repro stats`` payload)."""
    collector = telemetry.collector()
    if collector is None:
        return "-- batching: telemetry was not enabled"
    m = collector.metrics
    rows: list[list[object]] = []
    for cname, label in (
        ("engine.batched.groups", "batched groups dispatched"),
        ("engine.cache.hit", "cache hits"),
        ("engine.cache.miss", "cache misses"),
        ("engine.exec", "uncached executions"),
        ("run.budgeted_batched", "batched runner passes"),
        ("budget.solve_alpha_batched", "batched alpha-solves"),
        ("sim.detect_tiles", "steady-state detector tiles"),
        ("sim.detect_close_tiles", "detector tiles close-tested"),
    ):
        counter = m.counters.get(cname)
        if counter is not None and counter.value:
            rows.append([label, counter.value, "", ""])
    for hname, label, scale, unit in (
        ("engine.batch_size", "engine batch size [keys]", 1.0, ""),
        ("run.batch_size", "runner batch size [configs]", 1.0, ""),
        (
            "engine.batch_amortized_wall_s",
            "amortised wall per key [ms]",
            1e3,
            "",
        ),
        ("budget.batch_size", "alpha-solve batch size [budgets]", 1.0, ""),
    ):
        hist = m.histograms.get(hname)
        if hist is not None and hist.count:
            rows.append(
                [
                    label,
                    hist.count,
                    f"{hist.mean * scale:.1f}",
                    f"{hist.min * scale:.1f}..{hist.max * scale:.1f}",
                ]
            )
    if not rows:
        return (
            "-- batching: no batched dispatches recorded (every cache miss "
            "ran alone, or all keys were cache hits)"
        )
    return render_table(
        ["Metric", "Count", "Mean", "Range"],
        rows,
        title="batching and amortisation",
    )


def _run_stats(args: argparse.Namespace) -> int:
    """``repro stats <experiment>``: run it and report batching counters."""
    target = args.target
    if target is None or target.lower() not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        print(
            f"stats needs an experiment to profile; experiments: {known}",
            file=sys.stderr,
        )
        return 2
    name = target.lower()
    eng = _configure_engine(args)
    telemetry.enable()
    _, runner = EXPERIMENTS[name]
    runner()
    print()
    print(eng.stats.format_summary())
    print(_format_batch_counters())
    telemetry.disable()
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the allocation-service daemon (blocks until a
    SIGTERM/SIGINT drain completes)."""
    from repro.service import ServiceError, serve

    try:
        serve(
            socket_path=args.socket,
            port=args.port,
            http_port=args.http_port,
            fleets=tuple(args.fleet or ()),
            max_pending=args.max_pending,
        )
    except ServiceError as exc:
        print(f"serve failed [{exc.code}]: {exc.message}", file=sys.stderr)
        return 2
    return 0


def _run_point(args: argparse.Namespace, name: str) -> int:
    """Single-point mode for ``repro fleet``/``repro hetero``.

    The knobs are normalised and validated through the typed
    :meth:`AllocationRequest.build
    <repro.service.api.AllocationRequest.build>` path — the exact
    builder the service applies to wire requests — so a bad app or
    scheme name fails here with the same typed error a client would
    get, and CLI runs and service runs are one code path.
    """
    from repro.service import ServiceError

    try:
        if name == "fleet":
            from repro.experiments.fleet import (
                FLEET_CM_W,
                format_fleet,
                run_fleet_point,
            )

            point = run_fleet_point(
                args.modules,
                app=args.app,
                cm_w=args.cm if args.cm is not None else FLEET_CM_W,
                shard=engine_mod.get_engine().shard,
            )
            print(format_fleet([point]))
        else:
            from repro.experiments.hetero_fleet import (
                HETERO_BUDGET_FRAC,
                HETERO_GPU_FRACTION,
                format_hetero,
                run_hetero_point,
            )

            point = run_hetero_point(
                args.modules,
                app=args.app,
                gpu_fraction=(
                    args.gpu_fraction
                    if args.gpu_fraction is not None
                    else HETERO_GPU_FRACTION
                ),
                budget_frac=(
                    args.budget_frac
                    if args.budget_frac is not None
                    else HETERO_BUDGET_FRAC
                ),
                shard=engine_mod.get_engine().shard,
            )
            print(format_hetero([point]))
    except ServiceError as exc:
        print(f"{name} point rejected [{exc.code}]: {exc.message}", file=sys.stderr)
        return 2
    return 0


def _format_cpulist(cpus: tuple[int, ...]) -> str:
    """Compact kernel-style cpulist (``"0-3,8"``) for a sorted tuple."""
    parts: list[str] = []
    i = 0
    while i < len(cpus):
        j = i
        while j + 1 < len(cpus) and cpus[j + 1] == cpus[j] + 1:
            j += 1
        parts.append(str(cpus[i]) if i == j else f"{cpus[i]}-{cpus[j]}")
        i = j + 1
    return ",".join(parts)


def _run_topo() -> int:
    """``repro topo``: print the probed CPU/NUMA topology and the
    effective CPU count the shard thread defaults derive from."""
    from repro.util.topology import effective_cpu_count, probe_topology

    topo = probe_topology()
    rows = [
        [f"node{n.node_id}", n.n_cpus, _format_cpulist(n.cpus)]
        for n in topo.nodes
    ]
    print(
        render_table(
            ["Node", "CPUs", "CPU list"],
            rows,
            title=f"topology (source: {topo.source})",
        )
    )
    print(f"effective CPUs: {effective_cpu_count()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns a process exit code."""
    args = build_parser().parse_args(argv)
    name = args.experiment.lower()
    try:
        args.shard = _shard_arg(args)
    except ConfigurationError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2

    if name == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for key, (desc, _) in EXPERIMENTS.items():
            print(f"{key.ljust(width)}  {desc}")
        return 0

    if name == "schemes":
        print(format_schemes())
        return 0

    if name == "topo":
        return _run_topo()

    if name == "trace":
        return _run_trace(args)

    if name == "stats":
        return _run_stats(args)

    if name == "serve":
        return _run_serve(args)

    if name in ("fleet", "hetero") and args.modules is not None:
        _configure_engine(args)
        return _run_point(args, name)

    if name != "all" and name not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {name!r}; known: list, all, {known}", file=sys.stderr)
        return 2

    _configure_engine(args)
    with_telemetry = args.telemetry or args.telemetry_dir is not None
    if with_telemetry:
        telemetry.enable()

    if name == "all":
        code = run_all(stats=args.stats)
        if with_telemetry:
            _finish_telemetry("all", args.telemetry_dir)
        return code

    _, runner = EXPERIMENTS[name]
    runner()
    if args.stats:
        print(engine_mod.get_engine().stats.format_summary())
    if with_telemetry:
        _finish_telemetry(name, args.telemetry_dir)
    return 0
