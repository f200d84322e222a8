"""Constructors validate; views trust their parent.

The fleet-shaped column holders — :class:`LinearPowerModel`,
:class:`PowerModelTable`, :class:`PowerVariationTable`,
:class:`ModuleVariation` and :class:`DeviceMap` — check their columns
once, in their public constructors.  ``take``/``take_slice``/
``take_ranges`` on a validated object select values that already passed
those checks, so they run no constructor at all; what they check is the
selection, which must lie in ``[0, n)`` (``ConfigurationError``, never a
wrapped negative index or a bare ``IndexError``).
"""

import numpy as np
import pytest

from repro.core.model import LinearPowerModel
from repro.core.pmt import PowerModelTable
from repro.core.pvt import PowerVariationTable
from repro.errors import ConfigurationError
from repro.hardware.devices import CPU_IVY_BRIDGE, GPU_V100_SXM2, DeviceMap
from repro.hardware.module import ModuleArray
from repro.hardware.variability import ModuleVariation
from repro.util.indexing import coalesce_ranges

N = 12
RNG = np.random.default_rng(7)
COLS = {name: RNG.uniform(1.0, 2.0, N) for name in ("a", "b", "c", "d")}
DEVICE_INDEX = np.array([0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 0], dtype=np.int8)


def _device_map():
    return DeviceMap((CPU_IVY_BRIDGE, GPU_V100_SXM2), DEVICE_INDEX)


def _model():
    return LinearPowerModel(
        fmin=1.2,
        fmax=2.7,
        p_cpu_max=COLS["a"] + 2.0,
        p_cpu_min=COLS["a"],
        p_dram_max=COLS["b"] + 1.0,
        p_dram_min=COLS["b"],
        device_map=_device_map(),
    )


def _pmt():
    return PowerModelTable(model=_model(), kind="calibrated", app_name="bt")


def _pvt():
    return PowerVariationTable(
        system_name="s",
        microbenchmark="stream",
        scale_cpu_max=COLS["a"],
        scale_cpu_min=COLS["b"],
        scale_dram_max=COLS["c"],
        scale_dram_min=COLS["d"],
    )


def _variation():
    return ModuleVariation(
        leak=COLS["a"], dyn=COLS["b"], dram=COLS["c"], perf=COLS["d"]
    )


#: class, validated-instance factory, per-module column accessors.
FAMILY = {
    "LinearPowerModel": (
        LinearPowerModel,
        _model,
        lambda o: (o.p_cpu_max, o.p_cpu_min, o.p_dram_max, o.p_dram_min,
                   o.device_map.index),
    ),
    "PowerModelTable": (
        PowerModelTable,
        _pmt,
        lambda o: (o.model.p_cpu_max, o.model.p_dram_min, o.model.device_map.index),
    ),
    "PowerVariationTable": (
        PowerVariationTable,
        _pvt,
        lambda o: (o.scale_cpu_max, o.scale_cpu_min, o.scale_dram_max,
                   o.scale_dram_min),
    ),
    "ModuleVariation": (
        ModuleVariation,
        _variation,
        lambda o: (o.leak, o.dyn, o.dram, o.perf),
    ),
    "DeviceMap": (DeviceMap, _device_map, lambda o: (o.index,)),
}

#: Selections and the module indices each one stands for.
SELECTIONS = {
    "take_slice": (lambda o: o.take_slice(3, 9), np.arange(3, 9)),
    "take_contiguous": (lambda o: o.take([4, 5, 6, 7]), np.arange(4, 8)),
    "take_scattered": (lambda o: o.take([9, 0, 4, 4]), np.array([9, 0, 4, 4])),
    "take_empty": (lambda o: o.take([]), np.array([], dtype=int)),
}


@pytest.fixture
def constructions(monkeypatch):
    """Count every constructor call of the view family while a test runs."""
    calls = []
    for cls in (LinearPowerModel, PowerModelTable, PowerVariationTable,
                ModuleVariation, DeviceMap):
        original = cls.__init__

        def counted(self, *args, __original=original, __cls=cls, **kwargs):
            calls.append(__cls.__name__)
            __original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return calls


@pytest.mark.parametrize("selection", sorted(SELECTIONS))
@pytest.mark.parametrize("family", sorted(FAMILY))
def test_views_run_no_validation(family, selection, constructions):
    cls, make, columns = FAMILY[family]
    parent = make()
    assert constructions, "the spy must see the parent's construction"
    constructions.clear()
    take, idx = SELECTIONS[selection]
    view = take(parent)
    assert constructions == []
    assert type(view) is cls
    assert view.n_modules == idx.size
    for got, full in zip(columns(view), columns(parent)):
        assert np.array_equal(got, full[idx])
        assert got.dtype == full.dtype


@pytest.mark.parametrize(
    "ranges, idx",
    [
        ([(2, 5), (8, 11)], [2, 3, 4, 8, 9, 10]),
        ([(0, 3), (3, 7)], list(range(0, 7))),  # adjacent: one slice
        ([(5, 5), (1, 2)], [1]),  # an empty range drops out
        ([], []),
    ],
    ids=["gapped", "adjacent", "empty-range", "none"],
)
def test_take_ranges_is_the_concatenated_take(ranges, idx, constructions):
    parent = _model()
    constructions.clear()
    view = parent.take_ranges(ranges)
    assert constructions == []
    reference = parent.take(np.asarray(idx, dtype=int))
    for name in ("p_cpu_max", "p_cpu_min", "p_dram_max", "p_dram_min"):
        assert np.array_equal(getattr(view, name), getattr(reference, name))
    assert view.device_map == reference.device_map


def test_adjacent_ranges_are_a_zero_copy_view():
    parent = _model()
    view = parent.take_ranges([(2, 5), (5, 9)])
    assert np.shares_memory(view.p_cpu_max, parent.p_cpu_max)
    assert np.shares_memory(view.device_map.index, parent.device_map.index)
    gathered = parent.take_ranges([(2, 5), (6, 9)])
    assert not np.shares_memory(gathered.p_cpu_max, parent.p_cpu_max)


def test_coalesce_ranges():
    assert coalesce_ranges([(0, 8), (8, 20), (30, 40), (40, 40)]) == [
        (0, 20),
        (30, 40),
    ]
    assert coalesce_ranges([(4, 6), (0, 4)]) == [(4, 6), (0, 4)]
    assert coalesce_ranges([]) == []


class TestSelectionsAreChecked:
    """A negative or past-the-end index is a typed error on every class."""

    @pytest.mark.parametrize("family", sorted(FAMILY))
    @pytest.mark.parametrize(
        "indices", [[-1], [-2, -1], [0, -3, 2], [N], [3, N + 4], [[0, 1]]],
        ids=["last", "last-two", "scattered-negative", "past-end",
             "scattered-past-end", "two-dimensional"],
    )
    def test_take_rejects_out_of_range(self, family, indices):
        _cls, make, _cols = FAMILY[family]
        with pytest.raises(ConfigurationError):
            make().take(indices)

    @pytest.mark.parametrize("family", sorted(FAMILY))
    @pytest.mark.parametrize("bounds", [(-1, 3), (0, N + 1), (5, 4)])
    def test_take_slice_rejects_out_of_range(self, family, bounds):
        _cls, make, _cols = FAMILY[family]
        with pytest.raises(ConfigurationError):
            make().take_slice(*bounds)

    @pytest.mark.parametrize(
        "ranges", [[(-1, 2)], [(0, 2), (10, N + 1)], [(6, 4)]]
    )
    def test_take_ranges_rejects_out_of_range(self, ranges):
        with pytest.raises(ConfigurationError):
            _model().take_ranges(ranges)


class TestConstructorsStillValidate:
    """Trusting views must not loosen the public constructors."""

    @staticmethod
    def _model_with(**override):
        cols = dict(
            p_cpu_max=COLS["a"] + 2.0,
            p_cpu_min=COLS["a"].copy(),
            p_dram_max=COLS["b"] + 1.0,
            p_dram_min=COLS["b"].copy(),
        )
        cols.update(override)
        return LinearPowerModel(fmin=1.2, fmax=2.7, **cols)

    @pytest.mark.parametrize(
        "override",
        [
            {"p_cpu_min": np.full(N, np.nan)},
            {"p_dram_min": -COLS["b"]},
            {"p_cpu_max": COLS["a"][:-1]},
            {"p_cpu_max": COLS["a"] - 1.0},  # P_max < P_min
            {"p_dram_max": COLS["b"] - 0.5},  # P_max < P_min
        ],
        ids=["nan", "negative", "wrong-shape", "cpu-max-below-min",
             "dram-max-below-min"],
    )
    def test_linear_power_model(self, override):
        with pytest.raises(ConfigurationError):
            self._model_with(**override)

    def test_linear_power_model_device_map_length(self):
        with pytest.raises(ConfigurationError):
            LinearPowerModel(
                fmin=1.2, fmax=2.7, p_cpu_max=COLS["a"], p_cpu_min=COLS["a"],
                p_dram_max=COLS["b"], p_dram_min=COLS["b"],
                device_map=_device_map().take_slice(0, N - 1),
            )

    @pytest.mark.parametrize(
        "bad",
        [np.full(N, np.nan), -COLS["c"], COLS["c"][:-1]],
        ids=["nan", "negative", "wrong-shape"],
    )
    def test_power_variation_table(self, bad):
        with pytest.raises(ConfigurationError):
            PowerVariationTable(
                system_name="s", microbenchmark="stream",
                scale_cpu_max=COLS["a"], scale_cpu_min=COLS["b"],
                scale_dram_max=bad, scale_dram_min=COLS["d"],
            )

    @pytest.mark.parametrize(
        "bad",
        [np.full(N, np.nan), -COLS["c"], COLS["c"][:-1]],
        ids=["nan", "negative", "wrong-shape"],
    )
    def test_module_variation(self, bad):
        with pytest.raises(ConfigurationError):
            ModuleVariation(leak=COLS["a"], dyn=COLS["b"], dram=bad, perf=COLS["d"])

    @pytest.mark.parametrize(
        "index",
        [np.array([0, 1, 2]), np.array([0, -1, 1]), np.zeros((2, 2))],
        ids=["past-types", "negative", "wrong-shape"],
    )
    def test_device_map(self, index):
        with pytest.raises(ConfigurationError):
            DeviceMap((CPU_IVY_BRIDGE, GPU_V100_SXM2), index)

    def test_power_model_table_takes_a_validated_model(self):
        # A PMT has no columns of its own: a bad one cannot get past the
        # LinearPowerModel it must be built from.
        with pytest.raises(ConfigurationError):
            PowerModelTable(
                model=self._model_with(p_cpu_min=np.full(N, np.nan)),
                kind="calibrated",
                app_name="bt",
            )


class TestModuleArrayViews:
    """``ModuleArray`` recomputes its dispatch state from the sliced map,
    but builds its variation and map views without re-validating them."""

    @staticmethod
    def _array():
        return ModuleArray(CPU_IVY_BRIDGE.arch, _variation(), _device_map())

    @pytest.mark.parametrize(
        "indices, mixed",
        [([0, 1], False), ([2, 3, 4], True), ([5, 6, 7], False), ([9, 2], True)],
    )
    def test_take_trusts_its_columns(self, indices, mixed, constructions):
        array = self._array()
        constructions.clear()
        view = array.take(indices)
        assert constructions == []
        assert view.is_mixed == mixed
        assert np.array_equal(view.variation.leak, COLS["a"][indices])
        assert np.array_equal(view.device_map.index, DEVICE_INDEX[indices])

    @pytest.mark.parametrize("indices", [[-1], [N], [0, -2]])
    def test_take_rejects_out_of_range(self, indices):
        with pytest.raises(ConfigurationError):
            self._array().take(indices)
