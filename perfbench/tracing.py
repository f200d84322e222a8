"""Outside-in span tracing for the traced benchmark run.

Nothing under ``src/`` is edited: each layer is timed by replacing its
public functions with a recording wrapper at every module attribute (or
class attribute) its callers resolve them through, and restoring the
originals afterwards.  A span records ``(id, parent, name, t0, t1,
attrs)``; the parent is the innermost open span of the same thread.
Spans stay in memory and are written out once, when the run ends.

Times use ``time.monotonic`` so spans recorded in the allocation daemon
(a separate process) can be windowed against the client's clock.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
from time import monotonic

#: Module attributes wrapped as ``(module, attribute, span name, result
#: hook)``.  ``attribute`` may be ``Class.method``.  The hook turns a
#: call's ``(result, args, kwargs)`` into numeric span attributes.
LIBRARY_TARGETS = (
    ("repro.cluster.configs", "build_system", "cluster.build", None),
    ("repro.core.pvt", "generate_pvt", "core.pvt", None),
    ("repro.core.schemes", "Scheme.build_pmt", "core.pmt", None),
    ("repro.core.budget", "solve_alpha", "core.budget", None),
    ("repro.core.budget", "solve_alpha_batched", "core.budget", None),
    ("repro.core.runner", "run_budgeted", "core.runner", lambda r, a, k: {"onedim": 1}),
    ("repro.core.runner", "run_uncapped", "core.runner", lambda r, a, k: {"onedim": 1}),
    (
        "repro.core.runner",
        "run_budgeted_batched",
        "core.runner",
        lambda r, a, k: {"batched": 1, "rows": len(r)},
    ),
    ("repro.simmpi.fastpath", "simulate_app", "simmpi.fastpath", None),
    ("repro.simmpi.fastpath", "simulate_app_batched", "simmpi.fastpath", None),
    ("repro.simmpi.fastpath", "run_fast", "simmpi.fastpath", None),
    (
        "repro.simmpi.fastpath",
        "run_fast_batched",
        "simmpi.fastpath",
        # Five float64 (n_configs, n_ranks) planes: computed, not measured.
        lambda r, a, k: {"plane_bytes": 5 * 8 * len(r) * r[0].total_s.size if r else 0},
    ),
    ("repro.simmpi.fastpath", "run_fast_sharded", "simmpi.sharded", None),
    ("repro.simmpi.sharding", "plan_shards", "simmpi.sharded", None),
    ("repro.apps.base", "AppModel.run", "simmpi.machine", None),
    ("repro.apps.phases", "PhasedApp.run", "simmpi.machine", None),
    ("repro.simmpi.eventsim", "EventDrivenMachine.run", "simmpi.machine", None),
    ("repro.exec.engine", "ExperimentEngine.submit_sweep", "exec.engine", None),
    ("repro.exec.engine", "ExperimentEngine.submit_batched_sweep", "exec.engine", None),
    ("repro.exec.engine", "ExperimentEngine.run", "exec.engine", None),
    ("repro.exec.engine", "ExperimentEngine.map", "exec.engine", None),
    (
        "repro.exec.cache",
        "ResultCache.get",
        "exec.cache.get",
        lambda r, a, k: {"hit": int(r is not None)},
    ),
    ("repro.exec.cache", "ResultCache.put", "exec.cache.put", None),
    ("repro.exec.cache", "ResultCache.put_infeasible", "exec.cache.put", None),
)

#: The service client's codec and typed calls, wrapped in the client process.
CLIENT_TARGETS = (
    (
        "repro.service.client",
        "encode_request",
        "service.api.encode",
        lambda r, a, k: {"bytes": len(r)},
    ),
    (
        "repro.service.client",
        "decode_reply",
        "service.api.decode",
        lambda r, a, k: {"bytes": len(a[0])},
    ),
    ("repro.service.client", "ServiceClient.allocate", "service.client.allocate", None),
    (
        "repro.service.client",
        "ServiceClient.admit",
        "service.client.admit",
        lambda r, a, k: {"active": r.active_modules},
    ),
    (
        "repro.service.client",
        "ServiceClient.depart",
        "service.client.depart",
        lambda r, a, k: {"active": r.active_modules},
    ),
    (
        "repro.service.client",
        "ServiceClient.set_budget",
        "service.client.set_budget",
        lambda r, a, k: {"active": r.active_modules},
    ),
    ("repro.service.client", "ServiceClient.open_fleet", "service.open_fleet", None),
)


def import_all(package: str = "repro") -> None:
    """Import every submodule, so that every ``from x import f`` binding
    exists before wrapping (a module imported later would otherwise keep
    the wrapper after the originals are restored)."""
    pkg = importlib.import_module(package)
    for info in pkgutil.walk_packages(pkg.__path__, package + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


class Tracer:
    """Records spans from wrapped calls; :meth:`install` /
    :meth:`uninstall` swap the wrappers in and out."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, hook=None):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            t0 = monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, t0, monotonic(), {"raised": 1}))
                raise
            finally:
                stack.pop()
            t1 = monotonic()
            spans.append((sid, parent, name, t0, t1, hook(result, args, kwargs) if hook else {}))
            return result

        return traced

    def install(self, targets) -> None:
        for module_name, attr, name, hook in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, hook)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def wrap_experiments(self, experiments: dict) -> None:
        """Wrap each ``repro all`` runner in the CLI's experiment table."""
        for key, (desc, runner) in list(experiments.items()):
            self._undo.append((experiments, key, (desc, runner)))
            experiments[key] = (desc, self.wrap(f"experiments.{key}", runner))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def window(self, t0: float, t1: float) -> list[tuple]:
        return [s for s in self.spans if t0 <= s[3] and s[4] <= t1]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name,
                         "start": t0, "end": t1, "attrs": attrs}
                    )
                    + "\n"
                )


def load_spans(path: str) -> list[tuple]:
    with open(path) as fh:
        return [
            (d["id"], d["parent"], d["name"], d["start"], d["end"], d["attrs"])
            for d in map(json.loads, fh)
        ]


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, t0, t1, _ in spans:
        if parent:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, _, t0, t1, _ in spans:
        covered, end = 0.0, t0
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, end), min(b, t1)
            if b > a:
                covered += b - a
                end = b
        out[sid] = (t1 - t0) - covered
    return out


def layer_totals(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: ``self_s`` (sum of self times), ``incl_s`` and
    ``calls`` (over entries from outside the layer), and summed attrs."""
    names = {s[0]: s[2] for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for sid, parent, name, t0, t1, attrs in spans:
        row = out.setdefault(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "n": 0})
        row["self_s"] += selfs[sid]
        row["n"] += 1
        if names.get(parent) != name:
            row["incl_s"] += t1 - t0
            row["calls"] += 1
        for key, value in attrs.items():
            row[key] = row.get(key, 0) + value
    return out
