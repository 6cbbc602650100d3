"""Shape generator: exact areas where promised, 0.5% tolerance elsewhere,
pinned rasterizer output, connectivity, and placement semantics.
"""

import hashlib

import numpy as np
import pytest

from conftest import component_count
from maskcomplete.shapes import ShapeKind, generate_shape_mask

ALL_KINDS = list(ShapeKind)
APPROX_KINDS = [
    ShapeKind.CIRCLE,
    ShapeKind.ELLIPSE,
    ShapeKind.DIAMOND,
    ShapeKind.TRIANGLE,
]
PINNED_SIZES = (1, 7, 8, 15, 50, 100)
PINNED_DIGESTS = {
    ShapeKind.CIRCLE: (
        "626c92f1777927c9c409e75ac040f4b60938c460433e5bdb78bd7ae34520678d",
        "8af7ca5c77fc51cb402f7d24c8ab53b1008316751d31a74a48afc1da9e456d8d",
        "c5d234ea35e1327e8378129c117ebad3fe3c9828b96cab574ecba2d55fb55aa4",
        "4426c6f6c69290ef493ccdd736f218bf47d6a586e901e09c7d862e6d786b6aac",
        "cc71723403a90a281618c121ca1a65f4b3dfbc1f1b6bd288b758b4b56979611f",
        "886c2ec101dcb0566749429e13c5017dc31773cf584abc04f01224593cb7b4d8",
    ),
    ShapeKind.ELLIPSE: (
        "626c92f1777927c9c409e75ac040f4b60938c460433e5bdb78bd7ae34520678d",
        "e3a500f7c9bc47a18dc51cea6d28da375af681cec04529d8d69b29bfd38d479b",
        "4184cf2ec9a2f717d1c30e9f7981089fc2d731c40d07741a644b77b4818b30c2",
        "fc0d4f6ba7d0095bcd11aec9bff793745e576d247a1746936552560a66368eca",
        "dd2b7b2ec85237591e3eb66ebba2131984ffa4997d11d836d08a8f9e6ab2cc7e",
        "4c31e1c3c33f9df25b0535477962580a8717c1da7856121ea0db412fa59545ce",
    ),
    ShapeKind.DIAMOND: (
        "626c92f1777927c9c409e75ac040f4b60938c460433e5bdb78bd7ae34520678d",
        "e98ca1fa48a37667542832e8ed5e8ddd48ab34ac43a8c0cf5e5ac848b048fc84",
        "936e13481b626e9bf8a31266c88118ff427ab20761dfa9c7fd24c177e49fe71a",
        "86559f9f6a03bd55e7e8b83087f9a78817f122dcce8d0235852ee9b94e4539ef",
        "87c260aed7a91e3da97bb065709f90c036c196db6d36336fd7b000113cf44f4f",
        "f8cf51c509048321e591dd997fe37e57e620bcfb7cc985818b64f6e91167c424",
    ),
    ShapeKind.TRIANGLE: (
        "626c92f1777927c9c409e75ac040f4b60938c460433e5bdb78bd7ae34520678d",
        "6d70b4b4139cd92aef9e5f648814f4b74caa6adc96cfea7032536511689f739b",
        "df1abbb018098ca72fe6d9b66cadf516e8bd6a165bfb761a51e89b0a95b73909",
        "5ef8d15ae48c342f92821d7821ba42146a28c602ad0f6d2d2f9e4643b0768dd9",
        "f43ff32e2e5ee74e3a54b54621584e829ac46ddf40cffd39a98366d2686dc573",
        "651f936fa5597b7920e45fc3525a7275b955d7c078259b95060cd61e25da37e5",
    ),
}


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
        assert np.count_nonzero(mask) == n * n

    def test_rectangle_is_5_by_20_for_n10(self):
        mask = generate_shape_mask(ShapeKind.RECTANGLE, 10, (0, 0), (100, 100))
        r0, r1, c0, c1 = tight_bbox(mask)
        assert (r1 - r0 + 1, c1 - c0 + 1) == (5, 20)
        assert np.count_nonzero(mask) == 100

    @pytest.mark.parametrize("n", [4, 6, 10, 12, 24, 50])
    def test_rectangle_popcount_exact(self, n):
        mask = generate_shape_mask(ShapeKind.RECTANGLE, n, None, (150, 150))
        assert np.count_nonzero(mask) == n * n

    def test_rectangle_prime_n_degenerates_to_square(self):
        # n*n has no divisors between 1 and n when n is prime, so the
        # closest exact-area rectangle is the square itself
        mask = generate_shape_mask(ShapeKind.RECTANGLE, 7, (0, 0), (60, 60))
        r0, r1, c0, c1 = tight_bbox(mask)
        assert (r1 - r0 + 1, c1 - c0 + 1) == (7, 7)


class TestApproxKinds:
    def test_circle_n50_reference_window(self):
        mask = generate_shape_mask(ShapeKind.CIRCLE, 50, None, (500, 500))
        assert 2450 <= np.count_nonzero(mask) <= 2550

    # The name keeps the test IDs stable; the bound is 0.5% for every n >= 8
    # checked here (the worst is ellipse n=15, 1 pixel off 225: 0.44%).
    @pytest.mark.parametrize("kind", APPROX_KINDS)
    @pytest.mark.parametrize("n", range(8, 151))
    def test_popcount_within_two_percent(self, kind, n):
        mask = generate_shape_mask(kind, n, None, (3 * n + 20, 3 * n + 20))
        assert abs(np.count_nonzero(mask) - n * n) <= 0.005 * n * n

    @pytest.mark.parametrize("kind", APPROX_KINDS)
    def test_masks_match_pinned_digests(self, kind):
        # SHA-256 of the centered mask on a (3n+8)-square canvas; any change
        # to the rasterizer's search or tie-breaking moves these.
        for n, digest in zip(PINNED_SIZES, PINNED_DIGESTS[kind]):
            mask = generate_shape_mask(kind, n, None, (3 * n + 8, 3 * n + 8))
            assert mask.dtype == np.uint8
            assert hashlib.sha256(mask.tobytes()).hexdigest() == digest, n

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

    def test_anchor_needs_exactly_two_entries(self):
        message = r"^anchor must be two integers, got \(0, 0, 7\)$"
        with pytest.raises(ValueError, match=message):
            generate_shape_mask(ShapeKind.SQUARE, 5, (0, 0, 7), (10, 10))

    def test_kind_accepts_string_value(self):
        mask = generate_shape_mask("circle", 12, None, (60, 60))
        assert np.count_nonzero(mask) > 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_more_than_half_of_n_squared(self, kind):
        # generate_shape_mask rejects n*n > 2*H*W before drawing, on this bound
        for n in range(1, 9):
            mask = generate_shape_mask(kind, n, None, (3 * n + 20, 3 * n + 20))
            assert 2 * np.count_nonzero(mask) > n * n

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            generate_shape_mask(ShapeKind.SQUARE, 0, None, (10, 10))
        with pytest.raises(ValueError):
            generate_shape_mask(ShapeKind.SQUARE, 3, None, (0, 10))
