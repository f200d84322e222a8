"""Cache-key stability and result serialisation round-trips.

The contract under test: a :class:`RunKey` digest changes *iff* a
run-relevant input changes — never for presentation fields, never
spuriously — and a cached :class:`RunResult` round-trips bit-identically
through the on-disk NPZ format.
"""

import dataclasses
import io
import json
import pickle
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, InfeasibleBudgetError
from repro.exec import ExperimentEngine, ResultCache, RunKey, execute_key
from repro.exec.cache import _read_npz, payload_to_result, result_to_payload

# -- RunKey strategies --------------------------------------------------------

# Budgeted keys only (scheme and budget set together); floats are drawn
# from finite, positive ranges the runner actually accepts.
run_keys = st.builds(
    RunKey,
    system=st.sampled_from(["ha8k", "cab", "teller"]),
    n_modules=st.integers(min_value=1, max_value=4096),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    app=st.sampled_from(["bt", "sp", "dgemm", "stream", "mhd", "mvmc"]),
    scheme=st.sampled_from(["naive", "pc", "vapc", "vafs", "vapcor", "vafsor"]),
    budget_w=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    n_iters=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
    noisy=st.booleans(),
    fs_guardband_frac=st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
    test_module=st.integers(min_value=0, max_value=64),
    app_overrides=st.one_of(
        st.just(()),
        st.just((("residual_sigma_dyn", 0.05),)),
    ),
)

#: Field -> a replacement value guaranteed to differ from any generated one.
_PERTURBATIONS = {
    "system": "vulcan",
    "n_modules": 5000,
    "seed": -1,
    "app": "ep",
    "scheme": "fs-oracle-perturbed",
    "budget_w": 2e6,
    "n_iters": 101,
    "noisy": None,  # toggled below
    "fs_guardband_frac": 0.33,
    "test_module": 65,
    "turbo": None,  # toggled below
    "arch_base": "ivy-bridge-e5-2697v2",
    "arch_overrides": (("variation.sigma_leak", 0.42),),
    "app_overrides": (("residual_sigma_dram", 0.42),),
    "procs_per_node": 7,
    "meter_kind": "emon",
}


class TestRunKeyDigest:
    @settings(max_examples=50, deadline=None)
    @given(key=run_keys)
    def test_digest_is_deterministic(self, key):
        clone = dataclasses.replace(key)
        assert key.digest() == clone.digest()

    @settings(max_examples=50, deadline=None)
    @given(key=run_keys, field=st.sampled_from(sorted(_PERTURBATIONS)))
    def test_digest_changes_iff_an_input_changes(self, key, field):
        value = _PERTURBATIONS[field]
        if value is None:  # booleans: flip
            value = not getattr(key, field)
        perturbed = dataclasses.replace(key, **{field: value})
        assert getattr(perturbed, field) != getattr(key, field)
        assert perturbed.digest() != key.digest()

    @settings(max_examples=25, deadline=None)
    @given(key=run_keys, label=st.text(max_size=20))
    def test_label_never_changes_the_digest(self, key, label):
        assert dataclasses.replace(key, label=label).digest() == key.digest()

    @settings(max_examples=25, deadline=None)
    @given(a=run_keys, b=run_keys)
    def test_equal_keys_iff_equal_digests(self, a, b):
        assert (a == b) == (a.digest() == b.digest())

    def test_uncapped_key(self):
        key = RunKey(
            system="ha8k", n_modules=8, seed=1, app="bt",
            scheme=None, budget_w=None,
        )
        assert "uncapped" in key.describe()

    @settings(max_examples=50, deadline=None)
    @given(key=run_keys)
    def test_numpy_scalar_fields_hash_like_python_scalars(self, key):
        """The scalar *type* an experiment computed a field with must
        never change the cache address (canonical-bytes hashing)."""
        promoted = dataclasses.replace(
            key,
            n_modules=np.int64(key.n_modules),
            seed=np.int64(key.seed),
            budget_w=np.float64(key.budget_w),
            fs_guardband_frac=np.float64(key.fs_guardband_frac),
        )
        assert promoted.digest() == key.digest()

    def test_digest_pinned(self):
        """Known digests at CACHE_SCHEMA_VERSION 2.

        These pins make the canonical encoding part of the public
        contract: any change to field canonicalisation, float byte
        encoding, JSON layout, or the schema version shows up here as a
        different address — i.e. a silently cold cache.
        """
        budgeted = RunKey(
            system="ha8k", n_modules=1920, seed=2015, app="bt",
            scheme="vafs", budget_w=96000.0, n_iters=None,
        )
        assert budgeted.digest() == (
            "0a07390644a7cdb3c28e3b62054151c2809eb8a46d56f2a8c924cd257804d361"
        )
        uncapped = RunKey(
            system="ha8k", n_modules=1920, seed=2015, app="bt",
            scheme=None, budget_w=None,
        )
        assert uncapped.digest() == (
            "5b90300c953fcaca96850cda6715021c948f37e9a81912bd7e755bf34bac94c6"
        )

    def test_negative_zero_collapses(self):
        """-0.0 == 0.0, so the digests must coincide too."""
        a = RunKey(
            system="ha8k", n_modules=8, seed=1, app="bt",
            scheme="vafs", budget_w=800.0, fs_guardband_frac=0.0,
        )
        b = dataclasses.replace(a, fs_guardband_frac=-0.0)
        assert a == b
        assert a.digest() == b.digest()

    def test_digest_survives_pickle(self):
        key = RunKey(
            system="ha8k", n_modules=1920, seed=2015, app="bt",
            scheme="vafs", budget_w=96000.0,
        )
        unhashed = pickle.loads(pickle.dumps(key))  # before any digest
        fresh = key.digest()
        clone = pickle.loads(pickle.dumps(key))  # carries the digest
        assert clone == key == unhashed
        assert clone.digest() == unhashed.digest() == fresh

    def test_replace_gets_a_fresh_digest(self):
        key = RunKey(
            system="ha8k", n_modules=1920, seed=2015, app="bt",
            scheme="vafs", budget_w=96000.0,
        )
        cached = key.digest()
        moved = dataclasses.replace(key, budget_w=80000.0)
        assert moved.digest() != cached
        assert moved.digest() == dataclasses.replace(moved).digest()
        assert dataclasses.replace(moved, budget_w=96000.0).digest() == cached
        assert key.digest() == cached

    def test_half_specified_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            RunKey(
                system="ha8k", n_modules=8, seed=1, app="bt",
                scheme="vafs", budget_w=None,
            )
        with pytest.raises(ConfigurationError):
            RunKey(
                system="ha8k", n_modules=8, seed=1, app="bt",
                scheme=None, budget_w=100.0,
            )


# -- serialisation round-trip -------------------------------------------------

def _small_key(**over):
    base = dict(
        system="ha8k", n_modules=24, seed=2015, app="bt",
        scheme="vafs", budget_w=55.0 * 24, n_iters=4,
    )
    base.update(over)
    return RunKey(**base)


def _assert_results_identical(a, b):
    assert a.app_name == b.app_name
    assert a.scheme_name == b.scheme_name
    assert a.budget_w == b.budget_w
    for f in ("effective_freq_ghz", "cpu_power_w", "dram_power_w", "cap_met"):
        got, want = getattr(a, f), getattr(b, f)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    for f in ("total_s", "compute_s", "wait_s", "comm_s"):
        assert np.array_equal(getattr(a.trace, f), getattr(b.trace, f))
    if b.solution is None:
        assert a.solution is None
    else:
        for f in ("alpha", "raw_alpha", "constrained", "freq_ghz", "budget_w"):
            assert getattr(a.solution, f) == getattr(b.solution, f)
        for f in ("pmodule_w", "pcpu_w", "pdram_w"):
            assert np.array_equal(getattr(a.solution, f), getattr(b.solution, f))


class TestSerialization:
    def test_payload_round_trip_budgeted(self):
        result = execute_key(_small_key())
        meta, arrays = result_to_payload(result)
        _assert_results_identical(payload_to_result(meta, arrays), result)

    def test_payload_round_trip_uncapped(self):
        result = execute_key(_small_key(scheme=None, budget_w=None))
        assert result.solution is None
        meta, arrays = result_to_payload(result)
        _assert_results_identical(payload_to_result(meta, arrays), result)

    def test_disk_round_trip_is_bit_identical(self, tmp_path):
        key = _small_key()
        result = execute_key(key)
        cache = ResultCache(tmp_path)
        assert cache.get(key) is None
        cache.put(key, result)
        assert key in cache
        assert len(cache) == 1
        _assert_results_identical(cache.get(key), result)

    def test_infeasible_budget_is_cached_and_reraised(self, tmp_path):
        key = _small_key(budget_w=1.0)  # far below the fmin floor
        cache = ResultCache(tmp_path)
        with pytest.raises(InfeasibleBudgetError) as excinfo:
            execute_key(key)
        cache.put_infeasible(key, excinfo.value)
        with pytest.raises(InfeasibleBudgetError) as cached:
            cache.get(key)
        assert cached.value.budget_w == excinfo.value.budget_w
        assert cached.value.floor_w == excinfo.value.floor_w

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        key = _small_key()
        cache = ResultCache(tmp_path)
        cache.put(key, execute_key(key))
        (tmp_path / f"{key.digest()}.npz").write_bytes(b"not an npz file")
        assert cache.get(key) is None

    def test_object_dtype_member_reads_as_miss(self, tmp_path):
        key = _small_key()
        cache = ResultCache(tmp_path)
        meta, arrays = result_to_payload(execute_key(key))
        arrays["cap_met"] = arrays["cap_met"].astype(object)
        np.savez(
            tmp_path / f"{key.digest()}.npz",
            meta=np.array(json.dumps(meta)),
            **arrays,
        )
        with pytest.raises(ValueError, match="allow_pickle"):
            np.load(tmp_path / f"{key.digest()}.npz")["cap_met"]
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_small_key(), execute_key(_small_key()))
        assert cache.clear() == 1
        assert len(cache) == 0


def _first_payload_byte(blob: bytes) -> int:
    """Offset of the first array byte of an entry's first member."""
    i = blob.index(b"\x93NUMPY")
    (hlen,) = struct.unpack_from("<H", blob, i + 8)
    return i + 10 + hlen


class TestTornEntries:
    """A torn or corrupted entry is a miss: the run executes again and
    its entry is rewritten whole."""

    def _torn(self, tmp_path, corrupt):
        key = _small_key()
        want = execute_key(key)
        engine = ExperimentEngine(cache_dir=str(tmp_path))
        engine.run(key)
        path = tmp_path / f"{key.digest()}.npz"
        good = path.read_bytes()
        path.write_bytes(corrupt(good))
        assert engine.cache.get(key) is None
        _assert_results_identical(engine.run(key), want)
        assert path.read_bytes() == good
        _assert_results_identical(engine.cache.get(key), want)
        return good

    @pytest.mark.parametrize("keep", [0, 1, 30, "half", -22, -1])
    def test_truncated_entry(self, tmp_path, keep):
        """Cut inside the first local header, a payload, and the
        end-of-archive record."""
        self._torn(
            tmp_path,
            lambda blob: blob[: len(blob) // 2 if keep == "half" else keep],
        )

    def test_flipped_payload_byte_fails_the_crc(self, tmp_path):
        def flip(blob):
            out = bytearray(blob)
            out[_first_payload_byte(blob)] ^= 0x01
            corrupt = bytes(out)
            with zipfile.ZipFile(io.BytesIO(corrupt)) as zf:
                with pytest.raises(zipfile.BadZipFile, match="CRC"):
                    zf.read(zf.namelist()[0])
            return corrupt

        self._torn(tmp_path, flip)

    def test_sweep_reexecutes_a_torn_entry(self, tmp_path):
        keys = [_small_key(scheme=s) for s in ("vapc", "vafs")]
        engine = ExperimentEngine(cache_dir=str(tmp_path))
        want = engine.submit_sweep(keys)
        path = tmp_path / f"{keys[1].digest()}.npz"
        good = path.read_bytes()
        path.write_bytes(good[: len(good) // 2])
        for got, ref in zip(engine.submit_sweep(keys), want):
            _assert_results_identical(got, ref)
        assert path.read_bytes() == good


class TestLeanReader:
    def test_matches_np_load_on_every_entry(self, tmp_path):
        """Every member of every entry of a small sweep — budgeted,
        uncapped and infeasible — decodes to the array ``np.load``
        reads: same dtype, shape and bytes, and writable."""
        keys = [_small_key(scheme=s) for s in ("naive", "vapc", "vafs", "vafsor")]
        keys += [_small_key(scheme=None, budget_w=None), _small_key(budget_w=1.0)]
        engine = ExperimentEngine(cache_dir=str(tmp_path))
        out = engine.submit_sweep(keys, skip_infeasible=True)
        assert out[-1] is None
        paths = sorted(tmp_path.glob("*.npz"))
        assert len(paths) == len(keys)
        for path in paths:
            got = _read_npz(path)
            with np.load(path, allow_pickle=False) as ref:
                assert sorted(got) == sorted(ref.files)
                for name in ref.files:
                    want = ref[name]
                    assert got[name].dtype == want.dtype
                    assert got[name].shape == want.shape
                    assert got[name].tobytes() == want.tobytes()
                    assert got[name].flags.writeable
        with pytest.raises(InfeasibleBudgetError):
            engine.cache.get(keys[-1])
