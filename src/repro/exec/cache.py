"""Content-addressed persistent cache for :class:`~repro.core.runner.RunResult`.

A :class:`RunKey` is the complete, serialisable description of one
managed run — everything :func:`~repro.core.runner.run_budgeted` /
:func:`~repro.core.runner.run_uncapped` consume that can change the
output bit-for-bit: the system configuration (name, size, seed, any
microarchitecture overrides), the application (plus residual overrides),
the scheme, the budget, and the execution knobs.  Two keys with the same
canonical form denote the same deterministic computation, so the cached
result can stand in for a live run.

Entries are single ``.npz`` files named by the SHA-256 digest of the
key's canonical JSON (plus :data:`CACHE_SCHEMA_VERSION`), written
atomically (temp file + ``os.replace``) so concurrent processes can never
observe a torn entry.  An entry torn or corrupted some other way (a
truncated file, a flipped byte that fails a member's CRC-32, a header
the reader does not accept) reads as a miss, so the run executes again
and its entry is rewritten.  Reads decode the archive in one file read
and hand back writable arrays, bit-identical to :func:`numpy.load`.
Canonicalisation hashes *bytes*, not reprs:
floats are encoded as their little-endian IEEE-754 image and numpy
scalars are demoted to the Python value they wrap, so a key built from
``np.float64(96000.0)`` on one platform addresses the same entry as one
built from ``96000.0`` on another.  Arrays round-trip bit-identically
through NPZ; scalar metadata rides along as a JSON string, whose float
formatting (``repr``) is also exact.

Cache invalidation is entirely key-driven: change any field and the
digest — hence the file name — changes; bump
:data:`CACHE_SCHEMA_VERSION` when the *semantics* of a run change (model
constants, scheme algorithms) and every old entry becomes unreachable at
once.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import hashlib
import io
import json
import os
import struct
import tempfile
import zipfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from repro.core.budget import BudgetSolution
from repro.core.runner import RunResult
from repro.errors import ConfigurationError, InfeasibleBudgetError
from repro.simmpi.tracing import RankTrace

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "RunKey",
    "ResultCache",
    "default_cache_dir",
]

#: Bump whenever the *meaning* of a run changes (model constants, scheme
#: algorithms, serialisation layout) — all previously cached entries
#: become unreachable without touching the filesystem.
#: v2: canonical-bytes key hashing (IEEE-754 float encoding, numpy
#: scalar demotion) replaced repr-based JSON floats.
CACHE_SCHEMA_VERSION = 2

_Overrides = tuple[tuple[str, object], ...]


def _canon(value):
    """Canonical JSON-able form of one key field, hashed by bytes.

    * numpy scalars (``np.float64``, ``np.int64``, ``np.bool_``, ...)
      are demoted to the Python scalar they wrap, so the *type* an
      experiment happened to compute a budget with cannot change the
      cache address;
    * floats are encoded as the hex of their little-endian IEEE-754
      image — exact, repr-independent, and platform-stable (``repr``
      round-trips too, but hashing the bit pattern makes the invariant
      self-evident and immune to formatting changes);
    * ``-0.0`` collapses to ``0.0`` first: the two compare equal, and
      equal keys must produce equal digests.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        if value == 0.0:
            value = 0.0
        return "f64:" + struct.pack("<d", value).hex()
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    raise ConfigurationError(
        f"RunKey field value {value!r} ({type(value).__name__}) is not "
        "canonicalisable"
    )


@dataclass(frozen=True)
class RunKey:
    """Complete description of one deterministic managed run.

    ``scheme=None`` (with ``budget_w=None``) denotes an uncapped
    reference run; otherwise both must be set.

    Attributes
    ----------
    system:
        Either a registered site name ("ha8k", "cab", ...) built through
        :func:`repro.cluster.build_system`, or — when ``arch_base`` is
        set — an arbitrary system name built directly from that
        registered microarchitecture (the sensitivity studies).
    arch_base / arch_overrides:
        ``arch_base`` names a registered microarchitecture;
        ``arch_overrides`` is a flat tuple of ``(field, value)`` pairs
        applied with :meth:`Microarchitecture.with_` — fields prefixed
        ``"variation."`` are applied to the variation model instead.
    app_overrides:
        ``(field, value)`` pairs applied with :meth:`AppModel.with_`
        (residual knobs in the sensitivity study).
    """

    system: str
    n_modules: int
    seed: int
    app: str
    scheme: str | None
    budget_w: float | None
    n_iters: int | None = None
    noisy: bool = True
    fs_guardband_frac: float = 0.02
    test_module: int = 0
    turbo: bool = False
    arch_base: str = ""
    arch_overrides: _Overrides = ()
    app_overrides: _Overrides = ()
    procs_per_node: int = 2
    meter_kind: str = "rapl"
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if (self.scheme is None) != (self.budget_w is None):
            raise ConfigurationError(
                "scheme and budget_w must both be set (budgeted run) "
                "or both be None (uncapped run)"
            )
        if self.n_modules <= 0:
            raise ConfigurationError("n_modules must be positive")

    def canonical(self) -> dict:
        """The key as a stable, JSON-serialisable mapping.

        ``label`` is presentation-only and excluded — relabelling a run
        must not change its cache identity.  Values go through
        :func:`_canon`: numpy scalars are demoted and floats are encoded
        as IEEE-754 bytes, so the digest is a function of the key's
        *values*, never of scalar types or float formatting.
        """
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "label"}
        d["schema"] = CACHE_SCHEMA_VERSION
        return _canon(d)

    def digest(self) -> str:
        """SHA-256 content hash of the canonical form (the cache address).

        Computed once per key: the key is frozen, so the digest is
        cached on the instance (a pickled key carries it along;
        :func:`dataclasses.replace` builds a new key and a new digest).
        """
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Human-readable one-liner (stats tables, error messages)."""
        if self.label:
            return self.label
        if self.scheme is None:
            return f"{self.system}/{self.app}/uncapped"
        return f"{self.system}/{self.app}/{self.scheme}@{self.budget_w:.0f}W"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


# -- RunResult <-> NPZ payload -------------------------------------------------

_TRACE_FIELDS = ("total_s", "compute_s", "wait_s", "comm_s")
_SOL_ARRAYS = ("pmodule_w", "pcpu_w", "pdram_w")
_SOL_SCALARS = ("alpha", "raw_alpha", "constrained", "freq_ghz", "budget_w")


def result_to_payload(result: RunResult) -> tuple[dict, dict[str, np.ndarray]]:
    """Split a :class:`RunResult` into JSON-able metadata plus arrays."""
    meta: dict = {
        "kind": "result",
        "app_name": result.app_name,
        "scheme_name": result.scheme_name,
        "budget_w": result.budget_w,
    }
    arrays: dict[str, np.ndarray] = {
        "effective_freq_ghz": result.effective_freq_ghz,
        "cpu_power_w": result.cpu_power_w,
        "dram_power_w": result.dram_power_w,
        "cap_met": result.cap_met,
    }
    for f in _TRACE_FIELDS:
        arrays[f"trace_{f}"] = getattr(result.trace, f)
    if result.solution is not None:
        meta["solution"] = {s: getattr(result.solution, s) for s in _SOL_SCALARS}
        for f in _SOL_ARRAYS:
            arrays[f"sol_{f}"] = getattr(result.solution, f)
    else:
        meta["solution"] = None
    return meta, arrays


def payload_to_result(meta: dict, arrays: dict[str, np.ndarray]) -> RunResult:
    """Inverse of :func:`result_to_payload` (bit-identical arrays)."""
    solution = None
    if meta["solution"] is not None:
        solution = BudgetSolution(
            **meta["solution"],
            **{f: arrays[f"sol_{f}"] for f in _SOL_ARRAYS},
        )
    trace = RankTrace(**{f: arrays[f"trace_{f}"] for f in _TRACE_FIELDS})
    return RunResult(
        app_name=meta["app_name"],
        scheme_name=meta["scheme_name"],
        budget_w=meta["budget_w"],
        solution=solution,
        effective_freq_ghz=arrays["effective_freq_ghz"],
        cpu_power_w=arrays["cpu_power_w"],
        dram_power_w=arrays["dram_power_w"],
        cap_met=arrays["cap_met"],
        trace=trace,
    )


# -- NPZ reader ------------------------------------------------------------------

#: What a torn, truncated or corrupt entry can raise while it is read
#: and decoded: all of it reads as a miss.  ``zipfile`` checks every
#: member's CRC-32, so a flipped payload byte raises ``BadZipFile``; a
#: flipped header field can also name a zip version or feature it does
#: not implement.
_CORRUPT = (
    OSError,
    ValueError,
    KeyError,
    EOFError,
    NotImplementedError,
    zipfile.BadZipFile,
)


@functools.lru_cache(maxsize=256)
def _npy_header(header: bytes) -> tuple[np.dtype, tuple[int, ...], bool]:
    """``(dtype, shape, fortran_order)`` of one ``.npy`` header dict.

    Entries repeat a handful of headers (one per array field and fleet
    size), so each distinct header is parsed once.  Object dtypes are
    rejected: a cache entry never holds pickled data.
    """
    try:
        d = ast.literal_eval(header.decode("latin1"))
        dtype = np.lib.format.descr_to_dtype(d["descr"])
    except (SyntaxError, TypeError) as err:
        raise ValueError(f"malformed npy header {header!r}") from err
    if not isinstance(d, dict) or set(d) != {"descr", "fortran_order", "shape"}:
        raise ValueError(f"malformed npy header {header!r}")
    shape, fortran = d["shape"], d["fortran_order"]
    if dtype.hasobject:
        raise ValueError("object arrays are never cached")
    if not (
        isinstance(shape, tuple)
        and all(isinstance(n, int) and n >= 0 for n in shape)
        and isinstance(fortran, bool)
    ):
        raise ValueError(f"malformed npy header {header!r}")
    return dtype, shape, fortran


def _npy_array(raw: bytes) -> np.ndarray:
    """Decode one ``.npy`` member into a writable array (formats 1.0 and
    2.0, the ones :func:`numpy.savez` writes for non-structured dtypes)."""
    if len(raw) < 12 or raw[:6] != b"\x93NUMPY":
        raise ValueError("not an npy member")
    if raw[6] == 1:
        (hlen,), start = struct.unpack_from("<H", raw, 8), 10
    elif raw[6] == 2:
        (hlen,), start = struct.unpack_from("<I", raw, 8), 12
    else:
        raise ValueError(f"unsupported npy format version {raw[6]}")
    dtype, shape, fortran = _npy_header(raw[start : start + hlen])
    offset = start + hlen
    count = int(np.prod(shape, dtype=np.int64))
    if len(raw) - offset != count * dtype.itemsize:
        raise ValueError("npy payload size does not match its header")
    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    if fortran:
        return flat.reshape(shape[::-1]).transpose().copy(order="F")
    return flat.reshape(shape).copy()


def _read_npz(path: Path) -> dict[str, np.ndarray]:
    """Every array of an ``.npz`` file, read with one file read.

    The same arrays, bit for bit, as :func:`numpy.load` with
    ``allow_pickle=False``, but without its per-member seeks and header
    re-parsing.
    """
    with zipfile.ZipFile(io.BytesIO(path.read_bytes())) as zf:
        out = {}
        for info in zf.infolist():
            # numpy.savez stores members uncompressed and unencrypted.
            if (
                not info.filename.endswith(".npy")
                or info.compress_type != zipfile.ZIP_STORED
                or info.flag_bits & 0x1
            ):
                raise ValueError(f"unexpected npz member {info.filename!r}")
            out[info.filename[: -len(".npy")]] = _npy_array(zf.read(info))
        return out


class ResultCache:
    """Directory of ``<digest>.npz`` entries, one per :class:`RunKey`.

    Also caches *infeasibility*: a budget below the fmin floor is a
    deterministic property of the key, so the
    :class:`~repro.errors.InfeasibleBudgetError` is stored and re-raised
    on later lookups instead of re-deriving the PMT.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self.dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.dir.mkdir(parents=True, exist_ok=True)

    def _path(self, key: RunKey) -> Path:
        return self.dir / f"{key.digest()}.npz"

    def __len__(self) -> int:
        return sum(1 for _ in self.dir.glob("*.npz"))

    def __contains__(self, key: RunKey) -> bool:
        return self._path(key).exists()

    def get(self, key: RunKey) -> RunResult | None:
        """The cached result, ``None`` on a miss.

        Raises :class:`InfeasibleBudgetError` when the cached entry
        records that this key's budget is infeasible.
        """
        try:
            arrays = _read_npz(self._path(key))
            meta = json.loads(str(arrays.pop("meta")[()]))
            if meta.get("kind") != "infeasible":
                return payload_to_result(meta, arrays)
            exc = InfeasibleBudgetError(meta["budget_w"], meta["floor_w"])
        except _CORRUPT:
            return None  # missing, torn or corrupt entry == miss
        raise exc

    def put(self, key: RunKey, result: RunResult) -> None:
        """Store ``result`` under ``key`` (atomic; last writer wins)."""
        meta, arrays = result_to_payload(result)
        self._write(key, meta, arrays)

    def put_infeasible(self, key: RunKey, exc: InfeasibleBudgetError) -> None:
        """Record that ``key``'s budget is below the fmin floor."""
        meta = {"kind": "infeasible", "budget_w": exc.budget_w, "floor_w": exc.floor_w}
        self._write(key, meta, {})

    def _write(self, key: RunKey, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        buf = io.BytesIO()
        np.savez(buf, meta=np.array(json.dumps(meta)), **arrays)
        fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(buf.getvalue())
            os.replace(tmp, self._path(key))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = 0
        for p in self.dir.glob("*.npz"):
            p.unlink(missing_ok=True)
            n += 1
        return n
