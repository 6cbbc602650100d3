"""Brute-force reference for the completion engine.

Everything here enumerates candidate windows one by one on plain Python
lists.  That is the point: this module must stay simple enough to audit by
eye and must not share machinery with the completion module, so no
summed-area tables and no vectorized shortcuts appear anywhere.  The one
concession to practicality is counting a window's ones by slicing rows
instead of XOR-ing full images, using the identity

    d = s*s + total_ones - 2 * ones_inside_window

whose correctness is itself checked (in the test suite) against a rescan
that walks the entire image per candidate.  Masks, patch sizes and
thresholds are read by :mod:`maskcomplete.masks`, the package's readers
(:func:`~maskcomplete.masks.as_mask`, :func:`~maskcomplete.masks.as_int`,
:func:`~maskcomplete.masks.normalize_sizes` and
:func:`~maskcomplete.masks.as_gamma`), in the engine's order, so the oracle
and the engine reject the same inputs with the same errors; the window
enumeration and the acceptance test stay the oracle's own.
"""

from typing import NamedTuple

import numpy as np

from .masks import as_gamma, as_int, as_mask, normalize_sizes

__all__ = [
    "PatchCandidate",
    "oracle_complete_single",
    "oracle_complete_multi",
    "oracle_min_distance",
]


class PatchCandidate(NamedTuple):
    """An s-by-s square window with top-left corner at (row, col)."""

    size: int
    row: int
    col: int


def _window_distances(bits, s):
    """Yield ``(row, col, distance)`` for every s-by-s window, row-major."""
    H = len(bits)
    W = len(bits[0])
    total = sum(sum(row) for row in bits)
    for i in range(H - s + 1):
        window_rows = bits[i : i + s]
        for j in range(W - s + 1):
            inside = 0
            for row in window_rows:
                inside += sum(row[j : j + s])
            yield i, j, s * s + total - 2 * inside


def oracle_complete_single(observed, size, gamma) -> np.ndarray:
    """Reference completion for one patch size: :func:`oracle_complete_multi` on it."""
    return oracle_complete_multi(observed, [size], gamma)


def oracle_complete_multi(observed, sizes, gamma) -> np.ndarray:
    """Reference completion: try every window of every size, OR in the accepted ones."""
    bits = as_mask(observed).tolist()
    sizes = normalize_sizes(sizes)
    g = as_gamma(gamma)
    num, den = g.numerator, g.denominator
    out = [[0] * len(bits[0]) for _ in bits]
    for s in sizes:
        # a size that does not fit has no windows and adds nothing
        for i, j, dist in _window_distances(bits, s):
            # accept iff dist / s^2 <= num / den, in exact integer form
            if dist * den <= num * s * s:
                for out_row in out[i : i + s]:
                    out_row[j : j + s] = [1] * s
    return np.array(out, dtype=np.uint8)


def oracle_min_distance(observed, size):
    """Smallest candidate distance and its first (row-major) argmin.

    Returns ``(distance, PatchCandidate)``.  Raises when no window of the
    requested size fits in the image.
    """
    bits = as_mask(observed).tolist()
    H = len(bits)
    W = len(bits[0])
    s = as_int(size, "patch size", 1)
    if s > H or s > W:
        raise ValueError(f"no {s}x{s} candidate fits in a {H}x{W} mask")

    # min keeps the first of equal keys, so ties go to the row-major first
    i, j, dist = min(_window_distances(bits, s), key=lambda w: w[2])
    return dist, PatchCandidate(size=s, row=i, col=j)
