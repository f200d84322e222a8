"""The import-layering contract, enforced as a test.

``scripts/check_layering.py`` is the single source of truth (CI also
runs it as a standalone step so the failure is visible even when the
test run aborts earlier); this wrapper makes the contract part of the
plain ``pytest`` loop and adds direct pins for the load-bearing rule:
``hardware`` — the simulator's ground truth — must stay importable in
total isolation from the budgeting framework it is modelling.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "scripts" / "check_layering.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_layering", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layering_contract_holds():
    checker = _load_checker()
    violations = checker.check()
    assert violations == [], "\n".join(violations)


def test_every_layer_is_registered():
    checker = _load_checker()
    on_disk = {
        p.name for p in checker.PACKAGE_ROOT.iterdir() if p.is_dir() and p.name != "__pycache__"
    }
    registered = set(checker.ALLOWED) - {"repro", "errors", "cli"}
    assert on_disk == registered, (
        "packages on disk and the allowlist in scripts/check_layering.py "
        f"disagree: {sorted(on_disk ^ registered)}"
    )


def test_hardware_never_allowed_to_import_core_or_experiments():
    # The ratchet can loosen other edges, but these must stay forbidden.
    checker = _load_checker()
    assert checker.ALLOWED["hardware"] == {"errors", "util"}
    assert ("hardware", "core") in checker.FORBIDDEN
    assert ("hardware", "experiments") in checker.FORBIDDEN


def test_telemetry_is_a_pure_leaf():
    # Telemetry is observation-only: no layer is forbidden to import it
    # (the allowlist lists only the edges in use), but it may depend on
    # nothing it observes — otherwise enabling it could perturb the
    # thing being measured.
    checker = _load_checker()
    assert checker.ALLOWED["telemetry"] == {"errors", "util"}
    assert not any(dst == "telemetry" for _src, dst in checker.FORBIDDEN)
    assert ("telemetry", "core") in checker.FORBIDDEN
    assert ("telemetry", "exec") in checker.FORBIDDEN
    assert ("telemetry", "experiments") in checker.FORBIDDEN


def test_unused_allowlist_edge_reported():
    # The ratchet holds exactly the edges in use: a made-up edge that no
    # import needs is a violation, so dead edges cannot accumulate.
    checker = _load_checker()
    checker.ALLOWED["util"] = checker.ALLOWED["util"] | {"hardware"}
    violations = checker.check()
    assert len(violations) == 1
    assert "util -> hardware" in violations[0]
    assert "no import uses it" in violations[0]


def test_script_entrypoint_exits_zero():
    # CI invokes the script directly; keep that path working too.
    result = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, cwd=REPO_ROOT
    )
    assert result.returncode == 0, result.stderr
    assert "layering OK" in result.stdout
