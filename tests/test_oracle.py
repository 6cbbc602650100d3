"""Brute-force oracle: checked against an even more naive implementation
that rescans the whole image for every candidate, with no arithmetic
shortcuts at all.
"""

from fractions import Fraction

import numpy as np
import pytest

from conftest import planted_patch, random_mask
from maskcomplete.oracle import (
    PatchCandidate,
    oracle_complete_multi,
    oracle_complete_single,
    oracle_min_distance,
)


def doubly_naive_complete(mask, size, gamma):
    """Rescan the full image per candidate; no total/inside bookkeeping."""
    H, W = mask.shape
    g = Fraction(gamma)
    out = np.zeros((H, W), dtype=np.uint8)
    for i in range(H - size + 1):
        for j in range(W - size + 1):
            dist = 0
            for r in range(H):
                for c in range(W):
                    inside = i <= r < i + size and j <= c < j + size
                    dist += int(mask[r, c]) != inside
            if Fraction(dist, size * size) <= g:
                out[i : i + size, j : j + size] = 1
    return out


def doubly_naive_min(mask, size):
    H, W = mask.shape
    best = None
    for i in range(H - size + 1):
        for j in range(W - size + 1):
            dist = 0
            for r in range(H):
                for c in range(W):
                    inside = i <= r < i + size and j <= c < j + size
                    dist += int(mask[r, c]) != inside
            if best is None or dist < best[0]:
                best = (dist, (i, j))
    return best


class TestCompleteSingle:
    def test_exact_patch_gamma_zero(self):
        mask = np.zeros((12, 12), dtype=np.uint8)
        mask[3:7, 5:9] = 1
        assert np.array_equal(oracle_complete_single(mask, 4, 0.0), mask)

    def test_empty_input(self):
        out = oracle_complete_single(np.zeros((8, 8), dtype=np.uint8), 3, 0.9)
        assert not out.any()

    def test_matches_doubly_naive_16x16(self, rng):
        mask = random_mask(rng, 16, 16, density=0.2)
        got = oracle_complete_single(mask, 4, 0.5)
        want = doubly_naive_complete(mask, 4, 0.5)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.8])
    def test_matches_doubly_naive_small(self, rng, size, gamma):
        for density in (0.1, 0.5, 0.9):
            mask = random_mask(rng, 7, 8, density=density)
            got = oracle_complete_single(mask, size, gamma)
            want = doubly_naive_complete(mask, size, gamma)
            assert np.array_equal(got, want)

    def test_oversized_patch_gives_empty(self):
        mask = np.ones((3, 3), dtype=np.uint8)
        assert not oracle_complete_single(mask, 4, 0.5).any()

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            oracle_complete_single(np.ones((4, 4), dtype=np.uint8), 2, 1.0)
        with pytest.raises(ValueError):
            oracle_complete_single(np.ones((4, 4), dtype=np.uint8), 2, -0.2)

    def test_rejects_bad_masks(self):
        with pytest.raises(ValueError):
            oracle_complete_single(np.array([[0, 3]]), 1, 0.5)
        with pytest.raises(ValueError):
            oracle_complete_single(np.zeros(4, dtype=np.uint8), 1, 0.5)


class TestCompleteMulti:
    def test_singleton(self, rng):
        mask = random_mask(rng, 9, 9, density=0.4)
        assert np.array_equal(
            oracle_complete_multi(mask, [3], 0.4),
            oracle_complete_single(mask, 3, 0.4),
        )

    def test_empty_size_set(self, rng):
        mask = random_mask(rng, 6, 6)
        assert not oracle_complete_multi(mask, [], 0.5).any()

    def test_exhaustive_4x4_sweep_equals_union_of_singles(self):
        # every one of the 2**16 masks on a 4x4 grid, sizes {2, 3}
        codes = np.arange(65536, dtype=">u2").view(np.uint8)
        all_masks = np.unpackbits(codes).reshape(65536, 4, 4)
        gamma = 0.25
        for mask in all_masks:
            multi = oracle_complete_multi(mask, [2, 3], gamma)
            single = oracle_complete_single(mask, 2, gamma) | oracle_complete_single(
                mask, 3, gamma
            )
            assert np.array_equal(multi, single)


class TestMinDistance:
    def test_exact_patch(self):
        mask = np.zeros((10, 10), dtype=np.uint8)
        mask[6:9, 2:5] = 1
        assert oracle_min_distance(mask, 3) == (0, PatchCandidate(3, 6, 2))

    def test_empty_mask_ties_break_row_major(self):
        dist, cand = oracle_min_distance(np.zeros((6, 6), dtype=np.uint8), 3)
        assert dist == 9
        assert cand == PatchCandidate(3, 0, 0)

    def test_matches_doubly_naive(self, rng):
        for _ in range(20):
            H = int(rng.integers(4, 11))
            W = int(rng.integers(4, 11))
            size = int(rng.integers(1, min(H, W) + 1))
            mask = random_mask(rng, H, W, density=float(rng.random()))
            dist, cand = oracle_min_distance(mask, size)
            want_dist, want_pos = doubly_naive_min(mask, size)
            assert dist == want_dist
            assert (cand.row, cand.col) == want_pos

    def test_oversized_raises(self):
        with pytest.raises(ValueError):
            oracle_min_distance(np.zeros((4, 4), dtype=np.uint8), 5)

    def test_min_distance_consistent_with_completion(self, rng):
        # the completion is nonzero exactly when the best candidate passes
        # the threshold, probed right at the boundary
        for _ in range(20):
            mask = planted_patch(rng, 14, 14, 5, flips=int(rng.integers(0, 12)))
            dist, _ = oracle_min_distance(mask, 5)
            exact = Fraction(dist, 25)
            if exact < 1:
                assert oracle_complete_single(mask, 5, exact).any()
            if dist > 0:
                just_below = Fraction(dist - 1, 25)
                assert not oracle_complete_single(mask, 5, just_below).any()
