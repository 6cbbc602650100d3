"""Shape generator: exact areas where promised, 2% tolerance elsewhere,
connectivity, and placement semantics.
"""

import numpy as np
import pytest

from conftest import component_count
from maskcomplete import ShapeKind, generate_shape_mask, popcount

ALL_KINDS = list(ShapeKind)
APPROX_KINDS = [
    ShapeKind.CIRCLE,
    ShapeKind.ELLIPSE,
    ShapeKind.DIAMOND,
    ShapeKind.TRIANGLE,
]


def tight_bbox(mask):
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return rows[0], rows[-1], cols[0], cols[-1]


class TestExactKinds:
    def test_square_at_origin(self):
        mask = generate_shape_mask(ShapeKind.SQUARE, 5, (0, 0), (10, 10))
        expected = np.zeros((10, 10), dtype=np.uint8)
        expected[:5, :5] = 1
        assert np.array_equal(mask, expected)

    @pytest.mark.parametrize("n", [1, 4, 13, 40])
    def test_square_popcount(self, n):
        mask = generate_shape_mask(ShapeKind.SQUARE, n, None, (100, 100))
        assert popcount(mask) == n * n

    def test_rectangle_is_5_by_20_for_n10(self):
        mask = generate_shape_mask(ShapeKind.RECTANGLE, 10, (0, 0), (100, 100))
        r0, r1, c0, c1 = tight_bbox(mask)
        assert (r1 - r0 + 1, c1 - c0 + 1) == (5, 20)
        assert popcount(mask) == 100

    @pytest.mark.parametrize("n", [4, 6, 10, 12, 24, 50])
    def test_rectangle_popcount_exact(self, n):
        mask = generate_shape_mask(ShapeKind.RECTANGLE, n, None, (150, 150))
        assert popcount(mask) == n * n

    def test_rectangle_prime_n_degenerates_to_square(self):
        # n*n has no divisors between 1 and n when n is prime, so the
        # closest exact-area rectangle is the square itself
        mask = generate_shape_mask(ShapeKind.RECTANGLE, 7, (0, 0), (60, 60))
        r0, r1, c0, c1 = tight_bbox(mask)
        assert (r1 - r0 + 1, c1 - c0 + 1) == (7, 7)


class TestApproxKinds:
    def test_circle_n50_reference_window(self):
        mask = generate_shape_mask(ShapeKind.CIRCLE, 50, None, (500, 500))
        assert 2450 <= popcount(mask) <= 2550

    @pytest.mark.parametrize("kind", APPROX_KINDS)
    @pytest.mark.parametrize("n", [8, 10, 16, 25, 40, 64, 100])
    def test_popcount_within_two_percent(self, kind, n):
        mask = generate_shape_mask(kind, n, None, (3 * n + 20, 3 * n + 20))
        assert abs(popcount(mask) - n * n) <= 0.02 * n * n

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", [8, 12, 30])
    def test_single_connected_region(self, kind, n):
        mask = generate_shape_mask(kind, n, None, (3 * n + 20, 3 * n + 20))
        assert component_count(mask) == 1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bbox_is_tight(self, kind):
        mask = generate_shape_mask(kind, 20, (3, 4), (100, 100))
        r0, r1, c0, c1 = tight_bbox(mask)
        sub = mask[r0 : r1 + 1, c0 : c1 + 1]
        assert sub[0].any() and sub[-1].any()
        assert sub[:, 0].any() and sub[:, -1].any()
        assert (r0, c0) == (3, 4)  # anchor is the bbox top-left

    def test_diamond_tapers_both_ways(self):
        mask = generate_shape_mask(ShapeKind.DIAMOND, 15, (0, 0), (40, 40))
        r0, r1, c0, c1 = tight_bbox(mask)
        # signed dtype so np.diff can go negative on the falling side
        widths = mask[r0 : r1 + 1, c0 : c1 + 1].sum(axis=1, dtype=np.int64)
        assert widths[0] < widths.max()
        assert widths[-1] < widths.max()
        # row widths rise to the middle and fall back off
        peak = int(np.argmax(widths))
        assert (np.diff(widths[: peak + 1]) >= 0).all()
        assert (np.diff(widths[peak:]) <= 0).all()

    def test_triangle_base_wider_than_apex(self):
        mask = generate_shape_mask(ShapeKind.TRIANGLE, 20, (0, 0), (60, 60))
        r0, r1, c0, c1 = tight_bbox(mask)
        sub = mask[r0 : r1 + 1, c0 : c1 + 1]
        assert sub[-1].sum() > sub[0].sum()  # apex up


class TestPlacement:
    def test_centered_by_default(self):
        mask = generate_shape_mask(ShapeKind.SQUARE, 10, None, (100, 100))
        r0, r1, c0, c1 = tight_bbox(mask)
        assert (r0, c0) == (45, 45)

    def test_exceeds_canvas_raises(self):
        with pytest.raises(ValueError):
            generate_shape_mask(ShapeKind.SQUARE, 20, (0, 0), (10, 30))
        with pytest.raises(ValueError):
            generate_shape_mask(ShapeKind.SQUARE, 5, (8, 0), (10, 10))
        with pytest.raises(ValueError):
            generate_shape_mask(ShapeKind.CIRCLE, 50, (0, 0), (40, 40))

    def test_negative_anchor_raises(self):
        with pytest.raises(ValueError):
            generate_shape_mask(ShapeKind.SQUARE, 5, (-1, 0), (10, 10))

    def test_kind_accepts_string_value(self):
        mask = generate_shape_mask("circle", 12, None, (60, 60))
        assert popcount(mask) > 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_more_than_half_of_n_squared(self, kind):
        # generate_shape_mask rejects n*n > 2*H*W before drawing, on this bound
        for n in range(1, 9):
            mask = generate_shape_mask(kind, n, None, (3 * n + 20, 3 * n + 20))
            assert 2 * popcount(mask) > n * n

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            generate_shape_mask(ShapeKind.SQUARE, 0, None, (10, 10))
        with pytest.raises(ValueError):
            generate_shape_mask(ShapeKind.SQUARE, 3, None, (0, 10))
