"""Documentation stays honest: code blocks run, claims reference real APIs."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def python_blocks(path: Path) -> list[str]:
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_quickstart_block_runs(self):
        blocks = python_blocks(ROOT / "README.md")
        assert blocks, "README must contain a python quickstart"
        # Shrink the system so the doc test stays fast.
        code = blocks[0].replace("n_modules=256", "n_modules=64")
        namespace: dict = {}
        exec(compile(code, "README.md", "exec"), namespace)  # noqa: S102

    def test_mentioned_examples_exist(self):
        text = (ROOT / "README.md").read_text()
        for match in re.findall(r"examples/(\w+)\.py", text):
            assert (ROOT / "examples" / f"{match}.py").exists(), match

    def test_mentioned_modules_import(self):
        import importlib

        text = (ROOT / "README.md").read_text()
        for mod in set(re.findall(r"`(repro(?:\.\w+)+)`", text)):
            if mod.endswith(".figN"):  # the "fig1..fig9" placeholder
                continue
            try:
                importlib.import_module(mod)
            except ModuleNotFoundError:
                # `repro.util.RngFactory`-style attribute references.
                parent, _, attr = mod.rpartition(".")
                assert hasattr(importlib.import_module(parent), attr), mod


class TestArchitectureDoc:
    def test_linked_from_readme_and_reproducing(self):
        for doc in ("README.md", Path("docs") / "REPRODUCING.md"):
            assert "ARCHITECTURE.md" in (ROOT / doc).read_text(), doc

    def test_where_to_look_paths_exist(self):
        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        referenced = re.findall(r"`((?:repro|scripts|tests|benchmarks)/[\w/]+\.py)`", text)
        assert referenced, "ARCHITECTURE.md must reference concrete modules"
        for rel in referenced:
            path = ROOT / ("src/" + rel if rel.startswith("repro/") else rel)
            assert path.exists(), rel


class TestReproducingDoc:
    def test_shard_mode_block_runs(self):
        """The §6 sharding snippet is a live differential check: it
        must execute and its bit-identity asserts must hold."""
        blocks = python_blocks(ROOT / "docs" / "REPRODUCING.md")
        assert blocks, "REPRODUCING.md must contain the sharding snippet"
        for i, code in enumerate(blocks):
            namespace: dict = {}
            exec(  # noqa: S102
                compile(code, f"REPRODUCING.md[block {i}]", "exec"), namespace
            )

    def test_env_knobs_mentioned_exist(self):
        text = (ROOT / "docs" / "REPRODUCING.md").read_text()
        from repro.simmpi import sharding

        assert sharding._TARGET_ENV in text

    def test_topology_section_documents_the_cli(self):
        """§9 must keep the `repro topo` inspection flow discoverable."""
        text = (ROOT / "docs" / "REPRODUCING.md").read_text()
        assert "repro topo" in text


class TestDesignDoc:
    def test_module_map_entries_exist(self):
        text = (ROOT / "DESIGN.md").read_text()
        src = ROOT / "src" / "repro"
        for pkg in ("util", "hardware", "measurement", "control", "cluster",
                    "simmpi", "apps", "core", "experiments"):
            assert pkg in text
            assert (src / pkg / "__init__.py").exists()

    def test_paper_check_is_first(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "Paper-text check" in text[:600]


class TestExamplesRun:
    """Every example is runnable end to end (the quickstart is fastest)."""

    def test_quickstart_example(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "examples" / "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "VaFs speedup over Naive" in proc.stdout
