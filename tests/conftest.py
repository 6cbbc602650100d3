"""Shared helpers for the test suite."""

import math
from collections import deque

import numpy as np
import pytest

from maskcomplete import completion
from maskcomplete.completion import _ones, _summed_area


def random_mask(rng, height, width, density=0.5):
    """Random binary mask with roughly the given fill density."""
    return (rng.random((height, width)) < density).astype(np.uint8)


def planted_patch(rng, height, width, size, flips=0):
    """A square patch at a random spot, with ``flips`` random bits toggled."""
    mask = np.zeros((height, width), dtype=np.uint8)
    row = int(rng.integers(0, height - size + 1))
    col = int(rng.integers(0, width - size + 1))
    mask[row : row + size, col : col + size] = 1
    if flips:
        idx = rng.choice(height * width, size=flips, replace=False)
        mask.flat[idx] ^= 1
    return mask


def window_distances(mask, s):
    """Hamming distance to every s×s window, s² + total - 2·ones, in int64.

    The ones come from the engine's own table and ones plane.
    """
    ones = _ones(_summed_area(mask, s), s).astype(np.int64)
    return s * s + int(np.count_nonzero(mask)) - 2 * ones


def edit_bytes(data, edits):
    """``data`` with each (op, position, byte) edit applied in turn.

    op is "flip" (XOR with ``byte``, or 1 when ``byte`` is 0), "insert" or
    "delete"; the position wraps into range, and an empty string can only
    grow.
    """
    data = bytearray(data)
    for op, pos, byte in edits:
        pos %= len(data) + 1
        if op == "flip" and pos < len(data):
            data[pos] ^= byte or 1
        elif op == "insert" or not data:
            data[pos:pos] = bytes([byte])
        else:
            del data[min(pos, len(data) - 1)]
    return bytes(data)


def component_count(mask):
    """Number of 4-connected components of 1-pixels."""
    mask = np.asarray(mask)
    seen = np.zeros(mask.shape, dtype=bool)
    count = 0
    for start_r, start_c in zip(*np.nonzero(mask)):
        if seen[start_r, start_c]:
            continue
        count += 1
        queue = deque([(start_r, start_c)])
        seen[start_r, start_c] = True
        while queue:
            r, c = queue.popleft()
            for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if (
                    0 <= rr < mask.shape[0]
                    and 0 <= cc < mask.shape[1]
                    and mask[rr, cc]
                    and not seen[rr, cc]
                ):
                    seen[rr, cc] = True
                    queue.append((rr, cc))
    return count


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(0xA11CE)


@pytest.fixture(params=["flat", "serial"])
def row_pass(request, monkeypatch):
    """Build every table with one row pass: the flat doubling or the row sums.

    The two bounds are set so that every block takes the named pass, and
    the test errs unless some table was built, all of them by that pass:
    the flat pass doubles over a 1-D block, the column pass over rows.
    """
    flat = request.param == "flat"
    monkeypatch.setattr(completion, "_FLAT_MIN", 0 if flat else math.inf)
    monkeypatch.setattr(completion, "_FLAT_COLS", math.inf if flat else 0)
    blocks, double = [], completion._double

    def spied(block):
        blocks.append(block.ndim)
        double(block)

    monkeypatch.setattr(completion, "_double", spied)
    yield request.param
    assert 2 in blocks and (1 in blocks) == flat
