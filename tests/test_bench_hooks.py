"""The traced benchmark's hooks still resolve against the library.

``perfbench/tracing.py`` times each layer by wrapping named public
functions and methods.  A name that no longer exists would only surface
as a crash of ``perfbench/run.py --trace 1``; this test catches it in
the ordinary suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
TARGETS = list(_tracing.LIBRARY_TARGETS) + list(_tracing.CLIENT_TARGETS)


@pytest.mark.parametrize(
    "module_name, attr", [(t[0], t[1]) for t in TARGETS],
    ids=[f"{t[0]}:{t[1]}" for t in TARGETS],
)
def test_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        # Wrapped through the class __dict__, so it must be defined (or
        # aliased) on the class itself, not only inherited.
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        assert meth in cls.__dict__, f"{cls_name}.{meth} is not in the class dict"
        assert callable(cls.__dict__[meth])
    else:
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
