"""Tests for the experiment CLI."""

import pytest

import repro.cli as cli
from repro.cli import EXPERIMENTS, build_parser, main
from repro.exec import ShardSpec, configure, get_engine, reset


@pytest.fixture(autouse=True)
def _fresh_engine():
    """CLI invocations configure the process-global engine; isolate it."""
    reset()
    yield
    reset()


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_unknown(self, capsys):
        assert main(["fig42"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "RAPL" in capsys.readouterr().out

    def test_case_insensitive(self, capsys):
        assert main(["TABLE1"]) == 0

    def test_every_experiment_registered_is_importable(self):
        import importlib

        aliases = {"fig6": "fig6_calibration", "hetero": "hetero_fleet"}
        for key in EXPERIMENTS:
            mod = aliases.get(key, key)
            m = importlib.import_module(f"repro.experiments.{mod}")
            assert hasattr(m, "main")

    def test_module_entrypoint(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "fig7" in proc.stdout


class TestEngineFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["fig7"])
        assert args.cache_dir is None
        assert not args.no_cache
        assert not args.stats

    def test_all_flags_parse(self, tmp_path):
        args = build_parser().parse_args(
            ["fig7", "--cache-dir", str(tmp_path), "--stats"]
        )
        assert args.cache_dir == str(tmp_path)
        assert args.stats

    def test_cli_configures_global_engine(self, tmp_path, capsys):
        assert main(["table1", "--cache-dir", str(tmp_path)]) == 0
        engine = get_engine()
        assert engine.cache is not None
        assert engine.cache.dir == tmp_path

    def test_no_cache_disables_cache(self, capsys):
        assert main(["table1", "--no-cache"]) == 0
        assert get_engine().cache is None

    def test_stats_flag_prints_summary(self, capsys):
        assert main(["table1", "--no-cache", "--stats"]) == 0
        assert "engine stats" in capsys.readouterr().out

    def test_unknown_experiment_does_not_configure_engine(self, tmp_path, capsys):
        assert main(["fig42", "--cache-dir", str(tmp_path / "never")]) == 2
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("name", ["fleet", "hetero"])
    def test_shard_flags_reach_the_single_point(self, name, monkeypatch, capsys):
        import importlib

        module = importlib.import_module(
            {"fleet": "repro.experiments.fleet",
             "hetero": "repro.experiments.hetero_fleet"}[name]
        )
        seen = []
        real = module.run_budgeted_batched

        def spy(*args, **kwargs):
            seen.append(kwargs["shard"])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "run_budgeted_batched", spy)
        argv = [name, "--modules", "512",
                "--shard-ranks", "257", "--shard-workers", "2"]
        assert main(argv) == 0
        assert seen == [ShardSpec(shard_ranks=257, shard_workers=2)]

    def test_sweeps_use_the_configured_engine_shard(self, monkeypatch):
        import repro.experiments.fleet as fleet
        import repro.experiments.hetero_fleet as hetero

        spec = ShardSpec(shard_ranks=100, shard_workers=2)
        configure(shard=spec)
        seen = []
        for module in (fleet, hetero):
            real = module.run_budgeted_batched

            def spy(*args, _real=real, **kwargs):
                seen.append(kwargs["shard"])
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "run_budgeted_batched", spy)
        fleet.run_fleet((256,), n_iters=2)
        hetero.run_hetero((256,), n_iters=2)
        assert seen == [spec, spec]

    @pytest.mark.parametrize(
        "flag", [["--shard-workers", "0"], ["--shard-ranks", "-5"]]
    )
    def test_nonpositive_shard_flag_is_a_one_line_error(self, flag, capsys):
        assert main(["fleet", "--modules", "512", *flag]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "must be positive" in err
        assert "Traceback" not in err


class TestRunAll:
    """`repro all` must survive individual experiment failures (and say so)."""

    @pytest.fixture
    def fake_experiments(self, monkeypatch):
        ran = []

        def ok(name):
            def runner():
                ran.append(name)

            return runner

        def boom():
            ran.append("boom")
            raise RuntimeError("injected failure")

        monkeypatch.setattr(
            cli,
            "EXPERIMENTS",
            {
                "first": ("a passing experiment", ok("first")),
                "boom": ("a failing experiment", boom),
                "last": ("runs despite the failure before it", ok("last")),
            },
        )
        return ran

    def test_all_continues_past_failure_and_exits_nonzero(
        self, fake_experiments, capsys
    ):
        assert main(["all", "--no-cache"]) == 1
        out, err = capsys.readouterr()
        # Every experiment ran, including the one after the failure.
        assert fake_experiments == ["first", "boom", "last"]
        # The summary reports per-experiment status...
        assert "per-experiment summary" in out
        assert out.count("PASS") >= 2
        assert "FAIL" in out
        # ...and the failure's traceback went to stderr.
        assert "injected failure" in err
        assert "1/3 experiments FAILED: boom" in err

    def test_all_passes_cleanly(self, fake_experiments, monkeypatch, capsys):
        monkeypatch.setitem(
            cli.EXPERIMENTS, "boom", ("now passing", lambda: None)
        )
        assert main(["all", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "all 3 experiments passed" in out
        assert "FAIL" not in out

    def test_all_with_stats(self, fake_experiments, monkeypatch, capsys):
        monkeypatch.setitem(
            cli.EXPERIMENTS, "boom", ("now passing", lambda: None)
        )
        assert main(["all", "--no-cache", "--stats"]) == 0
        assert "engine stats" in capsys.readouterr().out


class TestSchemesCommand:
    def test_lists_registry_in_legend_order(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "power-allocation schemes" in out
        for name in ("naive", "pc", "vapcor", "vapc", "vafsor", "vafs"):
            assert name in out
        # Legend order, not alphabetical.
        assert out.index("naive") < out.index("vapcor") < out.index("vafs")

    def test_shows_registered_variant(self, capsys):
        from repro import ALL_SCHEMES, Scheme, register_scheme

        register_scheme(Scheme("extra", "Extra", "calibrated", "fs"))
        try:
            assert main(["schemes"]) == 0
            assert "extra" in capsys.readouterr().out
        finally:
            del ALL_SCHEMES["extra"]


#: The removed worker-pinning and worker-pool flags, split so that a
#: search of the tree for leftover uses of them finds none.
_REMOVED_PIN_FLAG = "--" + "pin"
_REMOVED_JOBS_FLAG = "--" + "jobs"


class TestTopoCommand:
    def test_prints_topology_and_effective_cpus(self, capsys):
        from repro.util.topology import effective_cpu_count

        assert main(["topo"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "Node" in out and "topology (source:" in out
        assert f"effective CPUs: {effective_cpu_count()}" in lines
        assert not any(line.startswith("worker pinning:") for line in lines)
        assert _REMOVED_PIN_FLAG not in out
        assert _REMOVED_JOBS_FLAG not in out

    def test_pin_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([_REMOVED_PIN_FLAG, "fig1"])
        assert exc.value.code == 2
        assert _REMOVED_PIN_FLAG in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [_REMOVED_JOBS_FLAG, "-j"])
    def test_jobs_flag_is_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag, "2", "fig1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err
        assert "Traceback" not in err


class TestTelemetryFlags:
    @pytest.fixture(autouse=True)
    def _telemetry_off(self):
        import repro.telemetry as telemetry

        telemetry.disable()
        yield
        telemetry.disable()

    def test_telemetry_flag_prints_report_and_disables_after(self, capsys):
        import repro.telemetry as telemetry

        assert main(["table1", "--no-cache", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "telemetry: table1" in out
        assert not telemetry.enabled()

    def test_telemetry_dir_exports_sinks(self, tmp_path, capsys):
        sink_dir = tmp_path / "traces"
        assert main(
            ["fig4", "--no-cache", "--telemetry-dir", str(sink_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "telemetry: fig4" in out
        assert (sink_dir / "fig4.jsonl").exists()
        assert (sink_dir / "fig4.npz").exists()

    def test_without_flag_no_report(self, capsys):
        assert main(["table1", "--no-cache"]) == 0
        assert "telemetry:" not in capsys.readouterr().out


class TestTraceCommand:
    @pytest.fixture(autouse=True)
    def _telemetry_off(self):
        import repro.telemetry as telemetry

        telemetry.disable()
        yield
        telemetry.disable()

    def test_no_target_is_an_error(self, capsys):
        assert main(["trace"]) == 2
        assert "trace needs a target" in capsys.readouterr().err

    def test_unknown_target_is_an_error(self, capsys):
        assert main(["trace", "not-a-thing"]) == 2
        assert "neither a telemetry .jsonl file" in capsys.readouterr().err

    def test_unreadable_jsonl_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("definitely not json\n")
        assert main(["trace", str(bad)]) == 2
        assert "not a telemetry" in capsys.readouterr().err

    def test_trace_experiment_then_rerender_sink(self, tmp_path, capsys):
        sink_dir = tmp_path / "traces"
        assert main(
            ["trace", "fig4", "--no-cache", "--telemetry-dir", str(sink_dir)]
        ) == 0
        first = capsys.readouterr().out
        assert "telemetry: fig4" in first
        assert "run.budgeted" in first  # the span tree rendered

        # Second invocation renders the saved sink without running anything.
        assert main(["trace", str(sink_dir / "fig4.jsonl")]) == 0
        second = capsys.readouterr().out
        assert "fig4.jsonl" in second
        assert "run.budgeted" in second
