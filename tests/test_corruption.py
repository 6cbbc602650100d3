"""Corruption models: exact damage accounting, determinism, clamping, and
the per-trial guarantee harness.
"""

import dataclasses

import numpy as np
import pytest

from maskcomplete import distance_cutoff
from maskcomplete.corruption import (
    CorruptionKind,
    CorruptionModel,
    corrupt_outcome,
    guarantee_trial,
)
from maskcomplete.shapes import generate_shape_mask
import maskcomplete.corruption as corruption

ALL_KINDS = list(CorruptionKind)


def square_patch(size=16, canvas=48, at=None):
    if at is None:
        at = ((canvas - size) // 2, (canvas - size) // 2)
    assert at[0] + size <= canvas and at[1] + size <= canvas, "patch must fit"
    mask = np.zeros((canvas, canvas), dtype=np.uint8)
    mask[at[0] : at[0] + size, at[1] : at[1] + size] = 1
    return mask


def hamming(a, b):
    return int((a ^ b).sum())


class TestBudgetZero:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_identity(self, kind):
        gt = square_patch()
        out = corrupt_outcome(gt, CorruptionModel(kind, budget=0, seed=3)).mask
        assert np.array_equal(out, gt)


class TestUniformFlip:
    @pytest.mark.parametrize("budget", [1, 7, 76, 300])
    def test_flips_exactly_budget(self, budget):
        gt = square_patch()
        outcome = corrupt_outcome(
            gt, CorruptionModel(CorruptionKind.UNIFORM_FLIP, budget, seed=11)
        )
        assert hamming(outcome.mask, gt) == budget
        assert outcome.hamming == budget
        assert not outcome.clamped

    def test_clamps_at_canvas_area(self):
        gt = square_patch(size=4, canvas=8)
        outcome = corrupt_outcome(
            gt, CorruptionModel(CorruptionKind.UNIFORM_FLIP, 999, seed=2)
        )
        assert outcome.hamming == 64
        assert outcome.clamped
        assert hamming(outcome.mask, gt) == 64

    def test_works_on_empty_mask(self):
        empty = np.zeros((10, 10), dtype=np.uint8)
        model = CorruptionModel(CorruptionKind.UNIFORM_FLIP, 5, seed=4)
        out = corrupt_outcome(empty, model).mask
        assert np.count_nonzero(out) == 5


class TestErodeBoundary:
    @pytest.mark.parametrize("budget", [1, 20, 76])
    def test_removes_exactly_budget(self, budget):
        gt = square_patch()
        outcome = corrupt_outcome(
            gt, CorruptionModel(CorruptionKind.ERODE_BOUNDARY, budget, seed=9)
        )
        assert not (outcome.mask & ~gt).any()  # subset of the input
        assert np.count_nonzero(gt) - np.count_nonzero(outcome.mask) == budget
        assert outcome.hamming == budget

    def test_clamps_when_patch_exhausted(self):
        gt = square_patch(size=4, canvas=12)
        outcome = corrupt_outcome(
            gt, CorruptionModel(CorruptionKind.ERODE_BOUNDARY, 100, seed=1)
        )
        assert outcome.hamming == 16
        assert outcome.clamped
        assert not outcome.mask.any()

    def test_requires_nonzero_mask(self):
        with pytest.raises(ValueError):
            corrupt_outcome(
                np.zeros((6, 6), dtype=np.uint8),
                CorruptionModel(CorruptionKind.ERODE_BOUNDARY, 1, seed=0),
            )


class TestDilateOutside:
    @pytest.mark.parametrize("budget", [1, 30, 76])
    def test_adds_exactly_budget(self, budget):
        gt = square_patch()
        outcome = corrupt_outcome(
            gt, CorruptionModel(CorruptionKind.DILATE_OUTSIDE, budget, seed=9)
        )
        assert not (gt & ~outcome.mask).any()  # superset of the input
        assert np.count_nonzero(outcome.mask) - np.count_nonzero(gt) == budget
        assert outcome.hamming == budget

    def test_added_pixels_touch_the_patch_for_small_budgets(self):
        gt = square_patch(size=6, canvas=30, at=(12, 12))
        model = CorruptionModel(CorruptionKind.DILATE_OUTSIDE, 5, seed=13)
        out = corrupt_outcome(gt, model).mask
        added = np.argwhere(out & ~gt)
        for r, c in added:
            neighborhood = gt[max(0, r - 1) : r + 2, max(0, c - 1) : c + 2]
            assert neighborhood.any()

    def test_clamps_when_canvas_full(self):
        gt = square_patch(size=4, canvas=6, at=(1, 1))
        outcome = corrupt_outcome(
            gt, CorruptionModel(CorruptionKind.DILATE_OUTSIDE, 99, seed=5)
        )
        assert outcome.hamming == 36 - 16
        assert outcome.clamped
        assert outcome.mask.all()


class TestSplitHole:
    def test_hole_stays_within_budget_and_interior(self):
        gt = square_patch(size=16, canvas=40, at=(5, 7))
        outcome = corrupt_outcome(
            gt, CorruptionModel(CorruptionKind.SPLIT_HOLE, 76, seed=21)
        )
        assert outcome.hamming <= 76
        assert outcome.hamming > 0
        assert not (outcome.mask & ~gt).any()
        # the patch outline is untouched: the hole is strictly interior
        assert outcome.mask[5, 7:23].all() and outcome.mask[20, 7:23].all()
        assert outcome.mask[5:21, 7].all() and outcome.mask[5:21, 22].all()

    def test_hole_is_rectangular(self):
        gt = square_patch(size=12, canvas=30)
        outcome = corrupt_outcome(
            gt, CorruptionModel(CorruptionKind.SPLIT_HOLE, 25, seed=2)
        )
        removed = gt & ~outcome.mask
        rows = np.flatnonzero(removed.any(axis=1))
        cols = np.flatnonzero(removed.any(axis=0))
        assert np.count_nonzero(removed) == len(rows) * len(cols)
        assert outcome.hamming == np.count_nonzero(removed)

    def test_thin_patch_clamps(self):
        # a 2-pixel-tall patch has no interior at all
        gt = np.zeros((10, 20), dtype=np.uint8)
        gt[4:6, 2:18] = 1
        outcome = corrupt_outcome(
            gt, CorruptionModel(CorruptionKind.SPLIT_HOLE, 10, seed=3)
        )
        assert outcome.hamming == 0
        assert outcome.clamped
        assert np.array_equal(outcome.mask, gt)

    def test_requires_nonzero_mask(self):
        with pytest.raises(ValueError):
            corrupt_outcome(
                np.zeros((6, 6), dtype=np.uint8),
                CorruptionModel(CorruptionKind.SPLIT_HOLE, 4, seed=0),
            )


class TestDeterminismAndBudget:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_same_seed_same_output(self, kind):
        gt = square_patch()
        model = CorruptionModel(kind, budget=40, seed=123)
        assert np.array_equal(
            corrupt_outcome(gt, model).mask, corrupt_outcome(gt, model).mask
        )

    def test_different_seeds_usually_differ(self):
        gt = square_patch()
        outs = [
            corrupt_outcome(
                gt, CorruptionModel(CorruptionKind.UNIFORM_FLIP, 30, seed=s)
            ).mask
            for s in range(5)
        ]
        assert any(not np.array_equal(outs[0], o) for o in outs[1:])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("budget", [0, 3, 19, 76])
    def test_damage_never_exceeds_budget(self, kind, budget):
        shapes = [
            square_patch(),
            generate_shape_mask("circle", 14, (8, 8), (48, 48)),
        ]
        for gt in shapes:
            for seed in (0, 7, 99):
                outcome = corrupt_outcome(gt, CorruptionModel(kind, budget, seed))
                assert hamming(outcome.mask, gt) <= budget
                assert outcome.hamming == hamming(outcome.mask, gt)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            CorruptionModel(CorruptionKind.UNIFORM_FLIP, budget=-1)
        with pytest.raises(ValueError):
            CorruptionModel("no-such-model", budget=1)

    def test_kind_accepts_string_value(self):
        model = CorruptionModel("uniform-flip", budget=1, seed=0)
        assert model.kind is CorruptionKind.UNIFORM_FLIP


# corrupt_outcome of a 5x8 rectangle at budget 30, seed 2024: (rows, hamming,
# clamped).  Erode and dilate need a second layer; split-hole is clamped.
GOLDEN_OUTCOMES = {
    CorruptionKind.UNIFORM_FLIP: (
        [
            "100000110010",
            "100111010000",
            "010111111110",
            "001111111000",
            "001011011111",
            "000111110100",
            "011110000100",
            "001100010000",
            "110001000000",
        ],
        30,
        False,
    ),
    CorruptionKind.ERODE_BOUNDARY: (
        [
            "000000000000",
            "000000000000",
            "000000000000",
            "000110010000",
            "000111110000",
            "000110000000",
            "000000000000",
            "000000000000",
            "000000000000",
        ],
        30,
        False,
    ),
    CorruptionKind.DILATE_OUTSIDE: (
        [
            "000000000100",
            "001111111110",
            "011111111110",
            "011111111110",
            "011111111110",
            "011111111110",
            "011111111110",
            "001111111100",
            "000110000000",
        ],
        30,
        False,
    ),
    CorruptionKind.SPLIT_HOLE: (
        [
            "000000000000",
            "000000000000",
            "001111111100",
            "001000000100",
            "001000000100",
            "001000000100",
            "001111111100",
            "000000000000",
            "000000000000",
        ],
        18,
        True,
    ),
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_golden_outcome(kind):
    gt = np.zeros((9, 12), dtype=np.uint8)
    gt[2:7, 2:10] = 1
    outcome = corrupt_outcome(gt, CorruptionModel(kind, budget=30, seed=2024))
    rows, hamming_want, clamped_want = GOLDEN_OUTCOMES[kind]
    assert ["".join(map(str, row)) for row in outcome.mask] == rows
    assert outcome.hamming == hamming_want
    assert outcome.clamped is clamped_want


class TestGuaranteeTrial:
    def test_zero_budget_zero_gamma_always_passes(self):
        for seed in range(10):
            record = guarantee_trial(
                8,
                (32, 32),
                0.0,
                CorruptionModel(CorruptionKind.UNIFORM_FLIP, 0, seed=seed),
            )
            assert record.passed
            assert record.within_budget
            assert record.hamming == 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_within_budget_always_covers(self, kind):
        budget = distance_cutoff(0.3, 16)
        for seed in range(50):
            record = guarantee_trial(
                16, (64, 64), 0.3, CorruptionModel(kind, budget, seed=seed)
            )
            assert record.within_budget
            assert record.passed, f"coverage violation at seed {seed}"

    def test_over_budget_is_recorded_not_asserted(self):
        budget = distance_cutoff(0.3, 8) + 1
        records = [
            guarantee_trial(
                8,
                (32, 32),
                0.3,
                CorruptionModel(CorruptionKind.UNIFORM_FLIP, budget, seed=seed),
            )
            for seed in range(30)
        ]
        assert all(not r.within_budget for r in records)
        # no coverage claim over budget; both outcomes are acceptable
        assert {r.passed for r in records} <= {True, False}

    def test_record_fields(self):
        record = guarantee_trial(
            8, (20, 26), 0.25, CorruptionModel(CorruptionKind.SPLIT_HOLE, 16, seed=5)
        )
        assert 0 <= record.patch_row <= 12
        assert 0 <= record.patch_col <= 18
        # a 4x4 hole fits the patch's 6x6 interior: exact, unclamped damage
        assert record.hamming == 16
        assert record.clamped is False
        assert record.within_budget is True  # 16 <= floor(0.25 * 64)
        assert record.passed is True

    def test_record_holds_only_what_the_trial_measured(self):
        record = guarantee_trial(
            8, (20, 26), 0.25, CorruptionModel(CorruptionKind.SPLIT_HOLE, 16, seed=5)
        )
        fields = [f.name for f in dataclasses.fields(record)]
        assert fields == [
            "patch_row", "patch_col", "hamming", "clamped", "within_budget", "passed"
        ]

    def test_outcome_holds_only_the_damage(self):
        outcome = corrupt_outcome(
            square_patch(), CorruptionModel(CorruptionKind.SPLIT_HOLE, 16, seed=5)
        )
        fields = [f.name for f in dataclasses.fields(outcome)]
        assert fields == ["mask", "hamming", "clamped"]

    def test_oversized_patch_raises(self):
        with pytest.raises(ValueError):
            guarantee_trial(
                30, (20, 20), 0.3, CorruptionModel(CorruptionKind.UNIFORM_FLIP, 1, 0)
            )

    @pytest.mark.parametrize("size", [0, -3])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_size_below_one_raises_before_drawing(self, monkeypatch, kind, size):
        def no_draw(*args):
            raise AssertionError("a ground truth was drawn and corrupted")

        monkeypatch.setattr(corruption, "corrupt_outcome", no_draw)
        with pytest.raises(ValueError, match=f"^patch size must be >= 1, got {size}$"):
            guarantee_trial(size, (20, 20), 0.3, CorruptionModel(kind, 1, 0))

    @pytest.mark.parametrize(
        "gamma,error", [(1.0, ValueError), (float("nan"), ValueError), (True, TypeError)]
    )
    def test_gamma_is_checked_before_drawing(self, monkeypatch, gamma, error):
        def no_draw(*args):
            raise AssertionError("a ground truth was drawn and corrupted")

        monkeypatch.setattr(corruption, "corrupt_outcome", no_draw)
        model = CorruptionModel(CorruptionKind.UNIFORM_FLIP, 1, 0)
        with pytest.raises(error, match="^gamma must"):
            guarantee_trial(8, (20, 20), gamma, model)
