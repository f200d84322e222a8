"""Index-set helpers for the array-first core.

The canonical fleet representation is columnar numpy arrays, so "give a
job these modules" is an indexing operation.  Fancy indexing always
copies; contiguous slices are zero-copy views.  The scheduler's default
(contiguous first-fit) grants exactly the kind of index set that *can*
be a slice, so every take-path in the stack first asks
:func:`as_contiguous_slice` and only falls back to a fancy-index copy
for genuinely scattered allocations (a fragmented machine).

**Constructors validate; views trust their parent.**  The fleet-shaped
column holders (``LinearPowerModel``, ``PowerModelTable``,
``PowerVariationTable``, ``ModuleVariation``, ``DeviceMap``) check their
columns once, in their public constructors: finiteness, sign,
``P_max >= P_min``, device-index range.  A view holds a subset of values
its parent already passed, so ``take``/``take_slice``/``take_ranges``
check only the *selection* — :func:`checked_slice`,
:func:`checked_indices` and :func:`checked_ranges` reject anything
outside ``[0, n)`` with :class:`~repro.errors.ConfigurationError` — and
then build the result with :func:`_trusted_view`, which runs no
constructor scan and allocates no temporary.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["as_contiguous_slice", "coalesce_ranges"]

#: What a view-family ``take`` selects: a slice (zero-copy), a checked
#: index array (fancy-index copy), or a tuple of slices (one
#: concatenated gather per column).
Selection = slice | np.ndarray | tuple[slice, ...]


def as_contiguous_slice(indices: np.ndarray | list[int]) -> slice | None:
    """The ``slice`` equivalent of ``indices``, or ``None`` if scattered.

    Returns ``slice(start, stop)`` (unit stride, ascending) when the
    index set is a contiguous run ``start, start+1, ..., stop-1``; any
    other shape — gaps, repeats, descending order, empty — returns
    ``None`` and the caller must fancy-index.
    """
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size == 0:
        return None
    if not np.issubdtype(idx.dtype, np.integer):
        idx = idx.astype(int)
    start = int(idx[0])
    stop = int(idx[-1]) + 1
    if start < 0 or stop - start != idx.size:
        return None
    if idx.size > 1 and not np.array_equal(idx, np.arange(start, stop)):
        return None
    return slice(start, stop)


def coalesce_ranges(ranges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """``ranges`` with empty ones dropped and adjacent ones merged.

    ``[(0, 8), (8, 20), (30, 40)]`` becomes ``[(0, 20), (30, 40)]``: a
    range whose start equals the previous range's stop extends it.
    Order is kept, so the concatenation of the result selects the same
    modules in the same order as the concatenation of the input.
    """
    out: list[tuple[int, int]] = []
    for start, stop in ranges:
        start, stop = int(start), int(stop)
        if start == stop:
            continue
        if out and out[-1][1] == start:
            out[-1] = (out[-1][0], stop)
        else:
            out.append((start, stop))
    return out


def checked_slice(start: int, stop: int, n: int) -> slice:
    """``slice(start, stop)`` after checking ``0 <= start <= stop <= n``."""
    if not (0 <= start <= stop <= n):
        raise ConfigurationError(
            f"slice [{start}, {stop}) out of range for {n} modules"
        )
    return slice(int(start), int(stop))


def checked_indices(indices: np.ndarray | list[int], n: int) -> slice | np.ndarray:
    """A 1-D index set over ``n`` modules as a :data:`Selection`.

    Contiguous ascending sets come back as a slice; anything else as an
    integer array.  Every index must lie in ``[0, n)``: negative indices
    are rejected, not wrapped.
    """
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        idx = idx.astype(int)
    if idx.ndim != 1:
        raise ConfigurationError(
            f"module indices must be one-dimensional, got shape {idx.shape}"
        )
    sl = as_contiguous_slice(idx)
    if sl is not None and sl.stop <= n:
        return sl
    if idx.size:
        lo, hi = int(idx.min()), int(idx.max())
        if lo < 0 or hi >= n:
            raise ConfigurationError(
                f"module indices must be in [0, {n}); got range [{lo}, {hi}]"
            )
    return idx


def checked_ranges(ranges: Iterable[tuple[int, int]], n: int) -> Selection:
    """Module ranges ``[(start, stop), ...]`` over ``n`` modules as a
    :data:`Selection`: one slice when they coalesce into a single range
    (see :func:`coalesce_ranges`), else a tuple of slices."""
    spans = [checked_slice(a, b, n) for a, b in coalesce_ranges(ranges)]
    if not spans:
        return slice(0, 0)
    return spans[0] if len(spans) == 1 else tuple(spans)


def select(column: np.ndarray, sel: Selection) -> np.ndarray:
    """Apply a :data:`Selection` to one column (a view for a slice)."""
    if isinstance(sel, tuple):
        return np.concatenate([column[s] for s in sel])
    return column[sel]


def _trusted_view(parent, sel: Selection, columns: tuple[str, ...], **fields):
    """A ``type(parent)`` built without running its constructor.

    Every attribute is shared with ``parent`` except ``columns``, which
    are ``select``-ed by ``sel``, and ``fields``, which replace the
    parent's.  Only for selections out of an already-validated parent:
    the result holds values that passed the parent's constructor.
    """
    view = object.__new__(type(parent))
    state = view.__dict__
    state.update(parent.__dict__)
    for name in columns:
        state[name] = select(state[name], sel)
    state.update(fields)
    return view
