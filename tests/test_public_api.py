"""The stable public API surface (``repro.__all__``), pinned.

Two contracts:

1. **Snapshot** — ``repro.__all__`` is exactly the frozen list below.
   Adding a name is a deliberate API decision (update the snapshot *and*
   ``docs/API.md``); removing or renaming one is a breaking change and
   must follow the deprecation policy in ``docs/API.md``.
2. **Sufficiency** — importing only ``__all__`` names is enough to run a
   budgeted fleet experiment end to end, including the engine and
   telemetry.  No reaching into submodules required.
"""

import warnings

import pytest

import repro

#: The public surface, frozen.  Keep sorted within each section to make
#: diffs reviewable (the test compares as sets + exact list).
PUBLIC_API = [
    "__version__",
    # apps
    "APPS",
    "AppModel",
    "get_app",
    "list_apps",
    # cluster
    "System",
    "build_system",
    "build_hetero_system",
    "JobScheduler",
    # core
    "ALL_SCHEMES",
    "BatchBudgetSolution",
    "BudgetSolution",
    "LinearPowerModel",
    "PowerAllocation",
    "PowerModelTable",
    "PowerVariationTable",
    "RunResult",
    "Scheme",
    "available_schemes",
    "calibrate_pmt",
    "classify_constraint",
    "classify_constraint_batched",
    "generate_pvt",
    "get_scheme",
    "instrument",
    "list_schemes",
    "naive_pmt",
    "oracle_pmt",
    "register_scheme",
    "run_budgeted",
    "run_budgeted_batched",
    "run_uncapped",
    "single_module_test_run",
    "solve_alpha",
    "solve_alpha_batched",
    # hardware
    "DeviceMap",
    "DeviceType",
    "Microarchitecture",
    "Module",
    "ModuleArray",
    "OperatingPoint",
    "PowerSignature",
    "get_device_type",
    "get_microarch",
    "list_device_types",
    "list_microarchs",
    # exec (experiment engine)
    "ExperimentEngine",
    "RunKey",
    "configure",
    "get_engine",
    # service (allocation daemon: repro serve + typed client)
    "ServiceClient",
    "ServiceError",
    "serve",
    # telemetry (submodule facade)
    "telemetry",
    # errors
    "ReproError",
    "ConfigurationError",
    "InfeasibleBudgetError",
    "MeasurementError",
    "CappingUnsupportedError",
]


class TestSnapshot:
    def test_all_matches_snapshot_exactly(self):
        assert repro.__all__ == PUBLIC_API, (
            "repro.__all__ diverged from the snapshot in "
            "tests/test_public_api.py — if this is a deliberate API "
            "change, update the snapshot AND docs/API.md"
        )

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_no_duplicates(self):
        assert len(PUBLIC_API) == len(set(PUBLIC_API))

    def test_no_deprecated_names_in_surface(self):
        # The compat shims stay importable from their home modules but
        # are not part of the blessed surface.
        assert "solve_alpha_chunked" not in repro.__all__

    def test_star_import_is_clean(self):
        # `from repro import *` must honour __all__ without error.
        namespace: dict = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec("from repro import *", namespace)
        for name in PUBLIC_API:
            assert name in namespace


class TestSufficiency:
    """__all__ alone runs a budgeted fleet experiment end to end."""

    def test_budgeted_run_via_public_surface_only(self):
        ns: dict = {}
        exec("from repro import *", ns)

        system = ns["build_system"]("ha8k", n_modules=16, seed=7)
        pvt = ns["generate_pvt"](system)
        app = ns["get_app"]("mhd")
        scheme = ns["get_scheme"]("vafs")
        assert scheme.name in ns["available_schemes"]()

        ns["telemetry"].enable()
        try:
            result = ns["run_budgeted"](
                system, app, scheme, 70.0 * system.n_modules, pvt=pvt
            )
            report = ns["telemetry"].report("public-surface run")
            assert "run.budgeted" in report
        finally:
            ns["telemetry"].disable()

        assert result.within_budget
        assert result.makespan_s > 0.0
        # The engine surface is live too.
        ns["configure"](use_cache=False)
        assert ns["get_engine"]().cache is None

    def test_registry_derives_and_registers_variants(self):
        variant = repro.get_scheme("vapc", actuation="fs")
        assert variant.actuation == "fs"
        # The registry itself is untouched by derivation.
        assert repro.get_scheme("vapc").actuation == "pc"

        custom = repro.Scheme("myvapc", "MyVaPc", "calibrated", "fs")
        repro.register_scheme(custom)
        try:
            assert repro.get_scheme("myvapc") is custom
            with pytest.raises(repro.ConfigurationError):
                repro.register_scheme(custom)
        finally:
            del repro.ALL_SCHEMES["myvapc"]
