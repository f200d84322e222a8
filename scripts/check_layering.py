#!/usr/bin/env python
"""Import-layering contract check (see docs/ARCHITECTURE.md).

The array-first refactor depends on a one-way flow between layers:

    hardware  ->  (errors, util)                    ground truth; imports nothing above
    measurement, control, simmpi                    substrate; hardware only
    core, cluster, apps                             budgeting framework
    exec, service, experiments, cli                 orchestration; may import anything
    telemetry ->  (errors, util)                    pure leaf; no layer is forbidden to import it

This script parses every module under ``src/repro`` with :mod:`ast`
(no imports are executed) and fails if any package gains an import edge
not present in the allowlist below, or if the allowlist holds an edge
that no import uses.  The allowlist is a *ratchet*: it encodes the
graph exactly as it stands — including one grandfathered cycle
(``cluster <-> core``, mediated through late imports and type-only
uses) — so an edge must be removed when its last import goes, and
adding one requires editing this file, which is the point: layering
violations become a reviewed decision, not drift.

The hard rule the contract exists to protect: ``hardware`` (the ground
truth the schemes are only allowed to observe through measurement) must
never import ``core`` or ``experiments``.

Exit status 0 = clean, 1 = violations (listed on stderr).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

#: source layer -> layers it may import.  A "layer" is a top-level
#: subpackage of repro, or the stem of a top-level module ("errors",
#: "cli"); the package's own __init__/__main__ are layer "repro".
ALLOWED: dict[str, set[str]] = {
    # Ground truth: the physical model.  NOTHING from the budgeting
    # framework or above — schemes may only learn about hardware through
    # measurement (the PVT) or declared oracle access.
    "hardware": {"errors", "util"},
    # Substrate over hardware.
    "measurement": {"errors", "hardware"},
    "control": {"errors", "hardware"},
    "simmpi": {"errors", "telemetry", "util"},
    # Budgeting framework.  cluster <-> core is a grandfathered cycle
    # (ratchet: remove when untangled, never add).
    "apps": {"errors", "hardware", "simmpi"},
    "cluster": {
        "apps",
        "control",
        "core",
        "errors",
        "hardware",
        "measurement",
        "util",
    },
    "core": {
        "apps",
        "cluster",
        "control",
        "errors",
        "hardware",
        "measurement",
        "simmpi",
        "telemetry",
        "util",
    },
    # Orchestration: may reach down into everything.
    "exec": {
        "apps",
        "cluster",
        "core",
        "errors",
        "hardware",
        "simmpi",
        "telemetry",
        "util",
    },
    # The allocation service: a front-end over exec/core — hosts fleets,
    # serves typed requests.  Like exec it may reach down, never across
    # into experiments/cli (those consume it).
    "service": {
        "apps",
        "cluster",
        "core",
        "errors",
        "exec",
        "telemetry",
        "util",
    },
    "experiments": {
        "apps",
        "cluster",
        "control",
        "core",
        "errors",
        "exec",
        "hardware",
        "measurement",
        "service",
        "telemetry",
        "util",
    },
    "cli": {"experiments", "errors", "service", "telemetry", "util", "repro"},
    # Leaves.  telemetry is observation-only: no layer is forbidden to
    # import it, but it must never import the things it observes (see
    # FORBIDDEN).
    "errors": set(),
    "util": {"errors"},
    "telemetry": {"errors", "util"},
    # The package facade re-exports the public API.
    "repro": {
        "apps",
        "cli",
        "cluster",
        "core",
        "errors",
        "exec",
        "hardware",
        "service",
        "telemetry",
    },
}

#: Intra-``hardware`` stack: ``devices.py`` (device types / the
#: DeviceMap) sits at the *top* of the hardware layer, built on these
#: foundation modules — none of them may import it back.  A reverse
#: edge would make the generic physics depend on the concrete catalogue.
DEVICE_FOUNDATION = ("dvfs", "variability", "microarch", "power_model")

#: Concrete device names (ARCHITECTURE.md invariant 10): no module below
#: ``experiments`` may branch on — or even mention — one.  Heterogeneity
#: flows exclusively through DeviceType parameters and the DeviceMap
#: index; a name literal in the core would be a hidden device branch.
DEVICE_NAME_LITERALS = ("cpu-ivy-bridge-e5-2697v2", "gpu-v100-sxm2")

#: Layers allowed to name concrete devices (plus hardware/devices.py
#: itself, which defines them).
DEVICE_NAME_LAYERS = {"experiments", "cli"}

#: The edges this contract was written to forbid — reported with a
#: louder message than a plain allowlist miss.
FORBIDDEN: set[tuple[str, str]] = {
    ("hardware", "core"),
    ("hardware", "experiments"),
    ("hardware", "cluster"),
    ("hardware", "apps"),
    # Telemetry observes every layer, so it must depend on none of them —
    # otherwise enabling it could change what it measures.
    ("telemetry", "core"),
    ("telemetry", "exec"),
    ("telemetry", "experiments"),
}


def _layer_of(path: Path) -> str:
    rel = path.relative_to(PACKAGE_ROOT)
    if len(rel.parts) > 1:
        return rel.parts[0]
    if rel.stem in ("__init__", "__main__"):
        return "repro"
    return rel.stem


def _target_layer(module: str) -> str | None:
    """Layer a ``repro[.x[.y]]`` import lands in; None for third-party."""
    if module != "repro" and not module.startswith("repro."):
        return None
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "repro"


def collect_edges() -> list[tuple[str, str, str, int]]:
    """All intra-repro import edges: (src_layer, dst_layer, file, lineno)."""
    edges = []
    for py in sorted(PACKAGE_ROOT.rglob("*.py")):
        src = _layer_of(py)
        tree = ast.parse(py.read_text(), filename=str(py))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [(alias.name, node.lineno) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                targets = [(node.module, node.lineno)]
            else:
                continue
            for module, lineno in targets:
                dst = _target_layer(module)
                if dst is not None and dst != src:
                    edges.append((src, dst, str(py.relative_to(REPO_ROOT)), lineno))
    return edges


def check_device_rules() -> list[str]:
    """Invariant 10: device types stay atop hardware, names stay out of
    the core.

    Two rules: (a) the hardware foundation modules
    (:data:`DEVICE_FOUNDATION`) must not import
    ``repro.hardware.devices``; (b) concrete device-name string literals
    appear only in ``hardware/devices.py`` and the layers in
    :data:`DEVICE_NAME_LAYERS`.  Docstrings are exempt — *mentioning* a
    device in prose is documentation, not a branch.
    """
    violations = []
    devices_py = PACKAGE_ROOT / "hardware" / "devices.py"
    for py in sorted(PACKAGE_ROOT.rglob("*.py")):
        layer = _layer_of(py)
        tree = ast.parse(py.read_text(), filename=str(py))
        rel = str(py.relative_to(REPO_ROOT))
        if layer == "hardware" and py.stem in DEVICE_FOUNDATION:
            for node in ast.walk(tree):
                modules = []
                if isinstance(node, ast.Import):
                    modules = [(a.name, node.lineno) for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    modules = [(node.module, node.lineno)]
                for module, lineno in modules:
                    if module.startswith("repro.hardware.devices"):
                        violations.append(
                            f"{rel}:{lineno}: hardware foundation module "
                            f"{py.stem!r} imports hardware.devices — device "
                            "types build ON the foundation, never the reverse"
                        )
        if py == devices_py or layer in DEVICE_NAME_LAYERS:
            continue
        docstrings = set()
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                body = node.body
                if (
                    body
                    and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)
                ):
                    docstrings.add(id(body[0].value))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
            ):
                for name in DEVICE_NAME_LITERALS:
                    if name in node.value:
                        violations.append(
                            f"{rel}:{node.lineno}: concrete device name "
                            f"{name!r} below the experiment layer — "
                            "invariant 10: heterogeneity flows through "
                            "DeviceType parameters, never name branches"
                        )
    return violations


def check() -> list[str]:
    """Return a list of violation messages (empty = contract holds)."""
    violations = check_device_rules()
    edges = collect_edges()
    used = {(src, dst) for src, dst, _path, _lineno in edges}
    for src in sorted(ALLOWED):
        for dst in sorted(ALLOWED[src]):
            if (src, dst) not in used:
                violations.append(
                    f"scripts/check_layering.py: {src} -> {dst}: allowed but "
                    "no import uses it — the ratchet holds only edges in "
                    "use; remove it from the allowlist"
                )
    for src, dst, path, lineno in edges:
        if src not in ALLOWED:
            violations.append(
                f"{path}:{lineno}: unknown layer {src!r} — register it in "
                "scripts/check_layering.py"
            )
        elif dst not in ALLOWED[src]:
            note = (
                "FORBIDDEN by the layering contract (ground truth must not "
                "import the budgeting framework; telemetry must not import "
                "what it observes)"
                if (src, dst) in FORBIDDEN
                else "not in the allowlist — layering is a ratchet; adding an "
                "edge requires editing scripts/check_layering.py"
            )
            violations.append(f"{path}:{lineno}: {src} -> {dst}: {note}")
    return violations


def main() -> int:
    violations = check()
    if violations:
        print("import-layering contract violated:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(
        f"layering OK ({len(collect_edges())} intra-package imports checked "
        f"against {sum(map(len, ALLOWED.values()))} allowed edges)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
