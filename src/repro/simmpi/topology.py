"""Rank neighbourhood topologies for the application communication models.

The simulated applications exchange halos with logical neighbours on a
periodic torus: MHD uses a 3-D decomposition (the paper's code is a 3-D
MLF solver), BT/SP multizone codes sweep over a 2-D zone grid, and a
ring is the 1-D case.  The vectorised BSP engine takes a :class:`Torus`
and gathers halos from shifted slices; the ``(n_ranks, k)`` index
tables below serve the event-driven programs' explicit messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Torus", "torus_neighbors", "grid_dims"]


@dataclass(frozen=True)
class Torus:
    """A periodic Cartesian torus of ranks, numbered row-major.

    Rank *r*'s partners are its −/+ neighbours along every axis.  Along
    an axis of stride ``s`` and extent ``e`` they are ``r ± s`` wrapped
    within r's block of ``e·s`` ranks, so a halo gather is a rotation
    of contiguous slices (:meth:`partner_max`).  An extent-1 axis makes
    *r* its own partner twice, an extent-2 axis one partner twice.
    """

    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        shape = tuple(self.shape)
        if not shape or any(
            isinstance(e, bool) or not isinstance(e, (int, np.integer)) or e <= 0
            for e in shape
        ):
            raise ConfigurationError(
                f"torus shape must be non-empty with positive integer "
                f"extents; got {self.shape!r}"
            )
        object.__setattr__(self, "shape", tuple(int(e) for e in shape))

    @property
    def n_ranks(self) -> int:
        return math.prod(self.shape)

    @property
    def degree(self) -> int:
        """Partners per rank, self and duplicates included: the count a
        halo exchange's transfer cost charges."""
        return 2 * len(self.shape)

    def partner_max(
        self, plane: np.ndarray, a: int, b: int, out: np.ndarray
    ) -> None:
        """``out = max(out, plane[:, p])`` over every partner ``p`` of
        each rank in columns ``[a, b)``; ``out`` is ``(rows, b - a)``.
        Max is exact and selects an operand, so neither the slicing nor
        the order of the partners can change the result."""
        stride = self.n_ranks
        for extent in self.shape:
            stride //= extent
            block = extent * stride
            # The + partner is a rotation by ``stride``, the − partner by
            # ``block - stride``: one rotation on an extent-2 axis, none
            # (the rank itself) on an extent-1 axis.
            for shift in {stride % block, block - stride} - {0}:
                _rotate_max(plane, a, b, out, block, shift)


def _rotate_max(
    plane: np.ndarray, a: int, b: int, out: np.ndarray, block: int, shift: int
) -> None:
    """``out[:, r - a] max= plane[:, q + (r - q + shift) % block]`` for
    each ``r`` in ``[a, b)``, where ``q`` starts r's block: two slice
    maxima over a ``(rows, n, block)`` view of the whole blocks, and at
    most two more for each partial block at the edges."""
    lo, hi = -(-a // block) * block, b // block * block
    k = block - shift
    if lo < hi:
        shape = (plane.shape[0], (hi - lo) // block, block)
        src = plane[:, lo:hi].reshape(shape)
        dst = out[:, lo - a:hi - a].reshape(shape)
        np.maximum(dst[:, :, :k], src[:, :, shift:], out=dst[:, :, :k])
        np.maximum(dst[:, :, k:], src[:, :, :shift], out=dst[:, :, k:])
    for x0, x1 in ((a, min(b, lo)), (max(a, lo, hi), b)):
        # Ranks before ``wrap`` find their partner ``shift`` ahead; the
        # rest wrap around to the start of the block.
        wrap = x0 - x0 % block + block - shift
        for y0, y1, d in ((x0, min(x1, wrap), shift), (max(x0, wrap), x1, -k)):
            if y0 < y1:
                dst = out[:, y0 - a:y1 - a]
                np.maximum(dst, plane[:, y0 + d:y1 + d], out=dst)


def grid_dims(n_ranks: int, ndim: int) -> tuple[int, ...]:
    """Factor ``n_ranks`` into ``ndim`` near-equal dimensions.

    Mirrors ``MPI_Dims_create``: dimensions are as close to each other
    as possible, largest first, and their product is exactly
    ``n_ranks``.
    """
    if n_ranks <= 0:
        raise ConfigurationError("n_ranks must be positive")
    if ndim <= 0:
        raise ConfigurationError("ndim must be positive")
    dims = [1] * ndim
    remaining = n_ranks
    # Greedily peel off prime factors onto the currently smallest dim.
    factors: list[int] = []
    d = 2
    while d * d <= remaining:
        while remaining % d == 0:
            factors.append(d)
            remaining //= d
        d += 1
    if remaining > 1:
        factors.append(remaining)
    for f in sorted(factors, reverse=True):
        dims[int(np.argmin(dims))] *= f
    return tuple(sorted(dims, reverse=True))


def torus_neighbors(shape: tuple[int, ...]) -> np.ndarray:
    """Neighbour indices on a periodic Cartesian torus.

    Returns an array of shape ``(prod(shape), 2 * len(shape))`` whose row
    *r* lists the ranks adjacent to *r* (−/+ along each axis).  Axes of
    extent 1 contribute the rank itself (self-neighbour), matching the
    degenerate behaviour of a periodic exchange on a flat axis; a ring
    is ``shape=(n,)``.  The event-driven lowering of a :class:`Torus`
    exchange uses this table; the fast path never builds it.
    """
    if not shape or any(s <= 0 for s in shape):
        raise ConfigurationError("shape must be non-empty with positive extents")
    n = int(np.prod(shape))
    coords = np.unravel_index(np.arange(n), shape)
    neighbors = np.empty((n, 2 * len(shape)), dtype=int)
    for axis, extent in enumerate(shape):
        for k, delta in enumerate((-1, +1)):
            shifted = list(coords)
            shifted[axis] = (coords[axis] + delta) % extent
            neighbors[:, 2 * axis + k] = np.ravel_multi_index(tuple(shifted), shape)
    return neighbors
