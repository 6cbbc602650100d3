"""Completion engine: exact threshold arithmetic, the schedule, single- and
multi-size completion, and the algebraic properties the construction must
satisfy.  Bit-level expectations are checked against the brute-force oracle
module; arithmetic expectations are worked out by hand in the asserts.
"""

import ast
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import planted_patch, random_mask, window_distances
from maskcomplete import (
    CompletionReport,
    GammaSchedule,
    complete_fixed_gamma,
    complete_single_size,
    distance_cutoff,
    gamma_search,
    read_pbm,
    write_pbm,
)
from maskcomplete import completion
from maskcomplete.cli import main as cli_main
from maskcomplete.completion import _cover, _ones, _summed_area
from maskcomplete.masks import normalize_sizes
from maskcomplete.oracle import (
    _window_distances,
    oracle_complete_multi,
    oracle_complete_single,
    oracle_min_distance,
)
from maskcomplete.shapes import generate_shape_mask


class TestDistanceCutoff:
    @pytest.mark.parametrize(
        "gamma,size,expected",
        [
            (0.0, 5, 0),
            (0.3, 8, 19),  # floor(0.3 * 64)
            (0.3, 16, 76),  # floor(0.3 * 256)
            (0.3, 25, 187),  # floor(0.3 * 625)
            (0.25, 2, 1),  # boundary hit exactly: 1/4 == 0.25
            (Fraction(1, 10), 16, 25),  # floor(25.6)
            (Fraction(1, 2), 3, 4),  # floor(4.5)
        ],
    )
    def test_exact_floor(self, gamma, size, expected):
        assert distance_cutoff(gamma, size) == expected

    @pytest.mark.parametrize("gamma", [1.0, 1.5, -0.1, Fraction(1, 1), -1])
    def test_out_of_range(self, gamma):
        with pytest.raises(ValueError):
            distance_cutoff(gamma, 5)

    def test_rejects_non_numbers(self):
        with pytest.raises(TypeError):
            distance_cutoff("0.5", 5)
        with pytest.raises(TypeError):
            distance_cutoff(True, 5)


class TestGammaSchedule:
    def test_default_first_step_is_exactly_one_tenth(self):
        sched = GammaSchedule()
        assert sched.gamma(1) == Fraction(1, 10)
        assert float(sched.gamma(1)) == 0.1

    def test_defaults(self):
        sched = GammaSchedule()
        assert (sched.alpha, sched.beta, sched.t_max) == (0.9, 0.7, 15)

    def test_strictly_increasing_below_one(self):
        gammas = [GammaSchedule().gamma(t) for t in range(1, 16)]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))
        assert all(0 < g < 1 for g in gammas)

    def test_second_step_value(self):
        # 1 - 0.9 * 0.7 = 0.37, exactly, in decimal arithmetic
        assert GammaSchedule().gamma(2) == Fraction(37, 100)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"beta": 0.0},
            {"beta": 1.0},
            {"t_max": 0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            GammaSchedule(**kwargs)

    @pytest.mark.parametrize("t_max", [2.5, 3.0, "3"])
    def test_t_max_must_be_an_integer(self, t_max):
        with pytest.raises(TypeError):
            GammaSchedule(t_max=t_max)

    @pytest.mark.parametrize("t", [2.5, 2.0, "2"])
    def test_step_must_be_an_integer(self, t):
        with pytest.raises(TypeError):
            GammaSchedule().gamma(t)

    def test_step_out_of_range(self):
        sched = GammaSchedule(t_max=3)
        with pytest.raises(ValueError):
            sched.gamma(0)
        with pytest.raises(ValueError):
            sched.gamma(4)

    @pytest.mark.parametrize(
        "alpha,beta", [(0.9, 0.7), (0.5, 0.99), (0.999, 0.1), (0.001, 0.5)]
    )
    def test_first_step_matches_a_walk(self, alpha, beta):
        # rho on, just below and just above each gamma_k puts the float
        # estimate on either side of the stop, so both settle walks run.
        sched = GammaSchedule(alpha=alpha, beta=beta, t_max=30)
        gammas = [sched.gamma(t) for t in range(1, 31)]
        eps = Fraction(1, 10**30)
        for rho in [Fraction(0), *(g + d for g in gammas for d in (-eps, 0, eps))]:
            walk = next(((t, g) for t, g in enumerate(gammas, 1) if g >= rho), None)
            assert sched._first_step(rho) == (walk or (30, None))


class TestNormalizeSizes:
    def test_sorts(self):
        assert normalize_sizes([16, 8, 12]) == (8, 12, 16)

    def test_rejects_duplicates_and_nonpositive(self):
        with pytest.raises(ValueError):
            normalize_sizes([4, 4])
        with pytest.raises(ValueError):
            normalize_sizes([0, 3])

    @pytest.mark.parametrize(
        "wrap", [lambda v: (s for s in v), list, tuple], ids=["generator", "list", "tuple"]
    )
    def test_duplicate_message_names_the_smallest_repeat(self, wrap):
        message = "^duplicate patch sizes: 4 is given more than once$"
        with pytest.raises(ValueError, match=message):
            normalize_sizes(wrap([9, 4, 9, 4]))

    def test_accepts_integer_types(self):
        assert normalize_sizes([np.int64(8), np.uint8(3)]) == (3, 8)

    @pytest.mark.parametrize("size", [3.9, 3.0, "3", True, np.bool_(True), Fraction(3)])
    def test_rejects_non_integers_and_bools(self, size):
        with pytest.raises(TypeError):
            normalize_sizes([size])

    @pytest.mark.parametrize("size", [3.9, True])
    def test_searches_reject_non_integer_sizes(self, size):
        mask = np.ones((8, 8), dtype=np.uint8)
        with pytest.raises(TypeError):
            gamma_search(mask, [size])
        with pytest.raises(TypeError):
            complete_fixed_gamma(mask, [size], 0.5)


class TestCompleteSingleSize:
    def test_exact_patch_gamma_zero_is_identity(self):
        mask = np.zeros((20, 20), dtype=np.uint8)
        mask[7:12, 3:8] = 1
        out = complete_single_size(mask, 5, 0.0)
        assert np.array_equal(out, mask)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.99])
    def test_all_zero_input_stays_zero(self, gamma):
        out = complete_single_size(np.zeros((9, 9), dtype=np.uint8), 3, gamma)
        assert not out.any()

    def test_three_bits_off_matches_oracle(self, rng):
        mask = np.zeros((20, 20), dtype=np.uint8)
        mask[7:12, 3:8] = 1
        on = rng.choice(np.flatnonzero(mask), size=3, replace=False)
        mask.flat[on] = 0
        got = complete_single_size(mask, 5, 0.2)
        want = oracle_complete_single(mask, 5, 0.2)
        assert np.array_equal(got, want)
        assert got.any()  # distance 3 <= floor(0.2 * 25) = 5

    def test_oversized_patch_gives_empty_mask(self):
        mask = np.ones((4, 6), dtype=np.uint8)
        assert not complete_single_size(mask, 5, 0.5).any()
        assert not complete_single_size(mask, 7, 0.5).any()

    def test_oversized_patch_still_validates_gamma(self):
        with pytest.raises(ValueError):
            complete_single_size(np.ones((4, 4), dtype=np.uint8), 9, 1.0)

    @pytest.mark.parametrize("gamma", [1.0, 2.0, -0.5])
    def test_invalid_gamma(self, gamma):
        with pytest.raises(ValueError):
            complete_single_size(np.ones((8, 8), dtype=np.uint8), 3, gamma)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            complete_single_size(np.ones((8, 8), dtype=np.uint8), 0, 0.5)

    @pytest.mark.parametrize("size", [3.9, 3.0, "3", True, np.bool_(False)])
    def test_size_must_be_an_integer(self, size):
        with pytest.raises(TypeError):
            complete_single_size(np.ones((8, 8), dtype=np.uint8), size, 0.5)

    def test_numpy_integer_size(self):
        mask = planted_patch(np.random.default_rng(3), 12, 12, 4)
        assert np.array_equal(
            complete_single_size(mask, np.int64(4), 0.25),
            complete_single_size(mask, 4, 0.25),
        )


class TestCandidateField:
    """The per-size kernels: the window ones plane and its cover."""

    def test_accept_matches_per_candidate_distances(self, rng):
        # The distance minimum is the oracle's, the first row-major argmax
        # of the ones is its argmin, and some window is accepted iff the
        # minimum is within the cutoff.
        for _ in range(60):
            H, W = (int(v) for v in rng.integers(3, 15, 2))
            mask = random_mask(rng, H, W, density=float(rng.random()))
            size = int(rng.integers(1, min(H, W) + 1))
            ones = _ones(_summed_area(mask, size), size)
            best, cand = oracle_min_distance(mask, size)
            assert window_distances(mask, size).min() == best
            assert np.unravel_index(ones.argmax(), ones.shape) == (cand.row, cand.col)
            gamma = float(rng.random())
            _, report = complete_fixed_gamma(mask, [size], gamma)
            assert report.attack_found == (best <= distance_cutoff(gamma, size))

    def test_need_accepts_exactly_the_windows_within_the_cutoff(self, rng):
        # Every cutoff from 0 to past the largest distance, including those
        # whose bound clamps to 0 or to s² + 1.
        for _ in range(40):
            H, W = (int(v) for v in rng.integers(1, 12, 2))
            mask = random_mask(rng, H, W, density=float(rng.random()))
            s = int(rng.integers(1, min(H, W) + 1))
            ones, dist = _ones(_summed_area(mask, s), s), window_distances(mask, s)
            total = int(np.count_nonzero(mask))
            for cutoff in range(s * s + total + 2):
                # gamma = cutoff / s² maps back to exactly this cutoff.
                need = completion._needs([s], total, Fraction(cutoff, s * s))[s]
                assert 0 <= need <= s * s + 1
                assert np.array_equal(ones >= need, dist <= cutoff)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_cover_count_matches_direct_count(self, data):
        # s = 1, powers of two, other sizes and the full canvas side hit
        # every branch of the doubling ORs and both plane edges.
        H, W = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 24))
        s = data.draw(
            st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12, 16, H, W]).filter(
                lambda v: v <= min(H, W)
            )
        )
        accept = data.draw(arrays(np.bool_, (H - s + 1, W - s + 1)))
        cover = _cover(accept, s)
        assert cover.shape == (H, W) and cover.dtype == np.uint8
        for i in range(H):
            for j in range(W):
                direct = sum(
                    int(accept[a, b])
                    for a in range(max(0, i - s + 1), min(i, H - s) + 1)
                    for b in range(max(0, j - s + 1), min(j, W - s) + 1)
                )
                assert cover[i, j] == (direct >= 1)

    def test_output_is_exactly_cover_count_support(self, rng):
        mask = planted_patch(rng, 16, 16, 5, flips=6)
        accept = window_distances(mask, 5) <= distance_cutoff(0.5, 5)
        out = complete_single_size(mask, 5, 0.5)
        assert out.dtype == np.uint8
        assert np.array_equal(out, _cover(accept, 5))
        assert np.array_equal(out, oracle_complete_single(mask, 5, 0.5))

    def test_none_when_size_exceeds_image(self):
        mask = np.ones((4, 4), dtype=np.uint8)
        out, report = complete_fixed_gamma(mask, [5], 0.5)
        assert not out.any()
        assert report.skipped_sizes == (5,)
        assert report.per_size_accepted == {5: 0}


class TestCompleteMultiSize:
    def test_singleton_equals_single(self, rng):
        mask = random_mask(rng, 15, 18, density=0.3)
        assert np.array_equal(
            complete_fixed_gamma(mask, [4], 0.5)[0],
            complete_single_size(mask, 4, 0.5),
        )

    def test_exact_patch_ignores_smaller_size(self):
        mask = np.zeros((16, 16), dtype=np.uint8)
        mask[4:9, 6:11] = 1
        got = complete_fixed_gamma(mask, [3, 5], 0.0)[0]
        assert np.array_equal(got, complete_single_size(mask, 5, 0.0))
        assert np.array_equal(got, oracle_complete_multi(mask, [3, 5], 0.0))

    def test_decomposes_into_union_of_singles(self, rng):
        mask = planted_patch(rng, 64, 64, 12, flips=30)
        sizes = (4, 7, 12)
        want = np.zeros_like(mask)
        for s in sizes:
            want |= complete_single_size(mask, s, 0.35)
        assert np.array_equal(complete_fixed_gamma(mask, sizes, 0.35)[0], want)

    def test_large_canvas_decomposition(self, rng):
        mask = planted_patch(rng, 500, 500, 50, flips=400)
        sizes = (25, 50, 75, 100)
        want = np.zeros_like(mask)
        for s in sizes:
            want |= complete_single_size(mask, s, 0.3)
        assert np.array_equal(complete_fixed_gamma(mask, sizes, 0.3)[0], want)

    def test_search_peak_memory_is_bounded(self, rng):
        # Two bands of 256 window-corner rows: the 356-row uint16 band
        # buffer (1.39 B/px at 512²) beside one band's ones plane, or in
        # the second pass beside the output and a small box table: about
        # 2.48 B/px.  A whole-canvas table read about 4.6 B/px.
        mask = planted_patch(rng, 512, 512, 50, flips=200)
        tracemalloc.start()
        try:
            out, report = gamma_search(mask, (25, 50, 75, 100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.attack_found and out.any()
        assert peak <= 2.75 * 512 * 512

    def test_fixed_peak_memory_is_bounded(self, rng):
        # The band buffer, the first band's ones plane for s=25 and its
        # accept flags, beside the output, which a canvas of two bands makes
        # before the first: about 3.83 B/px.  A whole-canvas table read
        # about 5.3 B/px.
        mask = planted_patch(rng, 512, 512, 50, flips=200)
        tracemalloc.start()
        try:
            out, report = complete_fixed_gamma(mask, (25, 50, 75, 100), 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.attack_found and out.any()
        assert peak <= 4 * 512 * 512

    @pytest.mark.parametrize("where", ["middle", "bottom"])
    def test_search_memory_beyond_the_output_does_not_grow_with_h(self, where):
        # At W = 1024 the first pass holds the band buffer, 356 uint16
        # rows (0.73 MB), beside one band's ones plane, 1.22 MB in
        # all; the second holds the output beside a box table.  Less the
        # output, the peak reads 0.23 MB at H = 1024 and 0.04 MB at
        # H = 4096, in a middle band or the last.  A whole-canvas table
        # alone would be 2 B/px, 8 MB at H = 4096.
        for h in (1024, 4096):
            rng = np.random.default_rng(18)
            mask = np.zeros((h, 1024), dtype=np.uint8)
            top = h // 2 - 37 if where == "middle" else h - 60
            mask[top : top + 50, 300:350] = 1
            mask.flat[rng.choice(mask.size, 400, replace=False)] ^= 1
            tracemalloc.start()
            try:
                out, report = gamma_search(mask, (25, 50, 75, 100))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.per_size_accepted[50] >= 1 and out[top + 25, 325]
            assert peak - out.nbytes <= 1.25 * 2**20

    @pytest.mark.parametrize("entry", ["search", "fixed", "single"])
    def test_peak_memory_does_not_depend_on_the_patch_band(self, entry):
        # A 25×25 patch in the first band, across both, or in the last of a
        # 512² canvas.  Each band holds the same planes wherever the patch
        # is; a search whose second pass kept the last band's rows, or a
        # pass that made the output only at its first cover, moved the peak
        # by 0.26–0.80 B/px with the patch.
        run = {
            "search": lambda m: gamma_search(m, (25, 50, 75, 100))[0],
            "fixed": lambda m: complete_fixed_gamma(m, (25, 50, 75, 100), 0.3)[0],
            "single": lambda m: complete_single_size(m, 25, 0.3),
        }[entry]
        peaks = []
        for top in (10, 254, 480):
            rng = np.random.default_rng(18)
            mask = np.zeros((512, 512), dtype=np.uint8)
            mask[top : top + 25, 200:225] = 1
            mask.flat[rng.choice(mask.size, 50, replace=False)] ^= 1
            tracemalloc.start()
            try:
                out = run(mask)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert out[top + 12, 212]
        assert max(peaks) - min(peaks) <= 0.02 * 512 * 512

    def test_empty_size_set_gives_empty_mask(self, rng):
        mask = random_mask(rng, 8, 8)
        assert not complete_fixed_gamma(mask, [], 0.4)[0].any()

    def test_oversized_sizes_contribute_nothing(self, rng):
        mask = random_mask(rng, 10, 10, density=0.4)
        a = complete_fixed_gamma(mask, [3, 99], 0.5)[0]
        b = complete_single_size(mask, 3, 0.5)
        assert np.array_equal(a, b)


class TestGammaSearch:
    def test_empty_input_reports_no_attack(self):
        out, report = gamma_search(np.zeros((32, 32), dtype=np.uint8), [8, 16])
        assert not out.any()
        assert report == CompletionReport(
            attack_found=False,
            gamma_used=None,
            iterations_run=15,
            per_size_accepted={8: 0, 16: 0},
            skipped_sizes=(),
            output_popcount=0,
        )

    @pytest.mark.parametrize("size", [8, 12, 16])
    def test_exact_patch_stops_at_first_step(self, size):
        mask = np.zeros((48, 48), dtype=np.uint8)
        mask[5 : 5 + size, 9 : 9 + size] = 1
        out, report = gamma_search(mask, [8, 12, 16])
        assert report.attack_found
        assert report.iterations_run == 1
        assert report.gamma_used == 0.1
        assert np.count_nonzero(out) == size * size
        assert report.output_popcount == size * size

    def test_stops_at_first_step_with_nonzero_oracle(self, rng):
        # 30% of the patch bits are off; the search must stop at the first
        # step whose threshold admits the best candidate, which the oracle
        # confirms step by step.
        size = 10
        mask = np.zeros((40, 40), dtype=np.uint8)
        mask[12:22, 8:18] = 1
        off = rng.choice(np.flatnonzero(mask), size=30, replace=False)
        mask.flat[off] = 0

        sched = GammaSchedule()
        out, report = gamma_search(mask, [size], sched)
        assert report.attack_found

        best_dist, _ = oracle_min_distance(mask, size)
        stop = next(
            t
            for t in range(1, sched.t_max + 1)
            if Fraction(best_dist, size * size) <= sched.gamma(t)
        )
        assert report.iterations_run == stop
        for t in range(1, stop):
            assert not oracle_complete_single(mask, size, sched.gamma(t)).any()
        assert np.array_equal(
            out, oracle_complete_single(mask, size, sched.gamma(stop))
        )

    def test_long_schedule_stops_without_computing_later_steps(self):
        # Step t's exact gamma has digits growing with t; a search that
        # stops at step 1 must not evaluate the other 10**5 - 1 steps.
        mask = np.zeros((16, 16), dtype=np.uint8)
        mask[3:11, 4:12] = 1
        _, report = gamma_search(mask, [8], GammaSchedule(t_max=10**5))
        assert report.iterations_run == 1

    @pytest.mark.parametrize(
        "strays", [(), ((0, 0), (0, 23), (23, 0), (23, 23))], ids=["blank", "corners"]
    )
    def test_unreachable_ratio_computes_no_step(self, monkeypatch, strays):
        # Blank, or strays no window holds more than half of: every size's
        # minimum distance is at least s^2, which no gamma < 1 reaches, so
        # the answer needs no threshold at all, however long the schedule.
        def no_step(self, t):
            raise AssertionError(f"gamma({t}) computed")

        monkeypatch.setattr(GammaSchedule, "gamma", no_step)
        mask = np.zeros((24, 24), dtype=np.uint8)
        for r, c in strays:
            mask[r, c] = 1
        out, report = gamma_search(mask, [8, 12, 40], GammaSchedule(t_max=10**6))
        assert not out.any()
        assert report == CompletionReport(
            attack_found=False,
            gamma_used=None,
            iterations_run=10**6,
            per_size_accepted={8: 0, 12: 0, 40: 0},
            skipped_sizes=(40,),
            output_popcount=0,
        )

    @staticmethod
    def _half_patch():
        # six full rows of a 12x12 patch: every window's distance is at least 72,
        # so the ratio is exactly 72 / 144 = 1/2
        mask = np.zeros((40, 40), dtype=np.uint8)
        mask[10:16, 10:22] = 1
        return mask

    def test_beta_near_one_computes_only_the_steps_beside_the_stop(self, monkeypatch):
        # The stop is near step 58,780; walking the schedule there computes
        # every step's exact gamma, each with digits growing with t.  Only
        # the estimated step's power is built; its neighbours are one
        # division or product by beta away.
        calls = []
        gamma = GammaSchedule.gamma

        def counted(self, t):
            calls.append(t)
            return gamma(self, t)

        monkeypatch.setattr(GammaSchedule, "gamma", counted)
        sched = GammaSchedule(beta=0.99999, t_max=10**7)
        mask = self._half_patch()
        out, report = gamma_search(mask, [12], sched)
        assert len(calls) == 1
        t = report.iterations_run
        g = gamma(sched, t)
        assert gamma(sched, t - 1) < Fraction(1, 2) <= g
        assert report.gamma_used == float(g)
        assert np.array_equal(out, oracle_complete_single(mask, 12, g))

    def test_stop_past_t_max_computes_no_step(self, monkeypatch):
        # 1 - 0.9 * beta**(t-1) first reaches 1/2 near t = 6e15, far past t_max.
        def no_step(self, t):
            raise AssertionError(f"gamma({t}) computed")

        monkeypatch.setattr(GammaSchedule, "gamma", no_step)
        sched = GammaSchedule(beta=0.9999999999999999, t_max=10**9)
        out, report = gamma_search(self._half_patch(), [12], sched)
        assert not out.any()
        assert not report.attack_found
        assert report.iterations_run == 10**9

    def test_deterministic(self, rng):
        mask = planted_patch(rng, 30, 30, 7, flips=12)
        out1, rep1 = gamma_search(mask, [5, 7])
        out2, rep2 = gamma_search(mask, [5, 7])
        assert np.array_equal(out1, out2)
        assert rep1 == rep2

    def test_skipped_sizes_recorded(self):
        mask = np.zeros((10, 10), dtype=np.uint8)
        mask[2:7, 2:7] = 1
        out, report = gamma_search(mask, [5, 40])
        assert report.skipped_sizes == (40,)
        assert report.per_size_accepted[40] == 0
        assert report.attack_found

    def test_noise_only_input_reports_no_attack(self):
        # four pixels in the far corners: every 12x12 window covers at most
        # one of them, so each candidate distance is at least 144 + 4 - 2 =
        # 146, above even the last threshold's cutoff floor(gamma_15 * 144)
        # = 143
        mask = np.zeros((24, 24), dtype=np.uint8)
        for r, c in ((0, 0), (0, 23), (23, 0), (23, 23)):
            mask[r, c] = 1
        out, report = gamma_search(mask, [12])
        assert not out.any()
        assert not report.attack_found
        assert report.gamma_used is None
        assert report.iterations_run == 15

    def test_stopping_step_matches_oracle_min_distance(self, rng):
        # The expected stop is the first step whose cutoff reaches some
        # fitting size's oracle minimum distance; the output there is the
        # oracle's multi-size completion.
        for k in range(150):
            H, W = (int(v) for v in rng.integers(3, 13, 2))
            # up to three sizes past the canvas's shorter side
            pool = rng.choice(min(H, W) + 3, 3, replace=False) + 1
            sizes = sorted(int(v) for v in pool)
            sched = GammaSchedule(t_max=int(rng.integers(1, 16)))
            if k % 5 == 0:
                mask = np.zeros((H, W), dtype=np.uint8)
            elif k % 5 in (1, 2):
                size = min(sizes[0], H, W)
                flips = int(rng.integers(0, size * size // 2 + 1))
                mask = planted_patch(rng, H, W, size, flips)
            else:
                mask = random_mask(rng, H, W, density=float(rng.random()))
            fitting = [s for s in sizes if s <= min(H, W)]
            d_min = {s: oracle_min_distance(mask, s)[0] for s in fitting}
            stop = next(
                (
                    t
                    for t in range(1, sched.t_max + 1)
                    if any(d <= int(sched.gamma(t) * s * s) for s, d in d_min.items())
                ),
                None,
            )

            out, report = gamma_search(mask, sizes, sched)
            if stop is None:
                assert not out.any()
                assert report.iterations_run == sched.t_max
                assert report.gamma_used is None
            else:
                g = sched.gamma(stop)
                assert report.iterations_run == stop
                assert report.gamma_used == float(g)
                assert np.array_equal(out, oracle_complete_multi(mask, sizes, g))
            assert report.skipped_sizes == tuple(s for s in sizes if s not in fitting)


class TestCompleteFixedGamma:
    def test_matches_multi_size(self, rng):
        mask = planted_patch(rng, 26, 22, 6, flips=8)
        out, report = complete_fixed_gamma(mask, [4, 6], 0.4)
        assert np.array_equal(out, oracle_complete_multi(mask, [4, 6], 0.4))
        assert report.iterations_run == 1
        assert report.attack_found == bool(out.any())
        assert report.output_popcount == np.count_nonzero(out)

    def test_empty_result_has_no_gamma(self):
        out, report = complete_fixed_gamma(
            np.zeros((10, 10), dtype=np.uint8), [4], 0.5
        )
        assert not out.any()
        assert report.gamma_used is None
        assert not report.attack_found

    @pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, 5.0])
    def test_rejects_invalid_gamma(self, gamma):
        mask = np.ones((6, 6), dtype=np.uint8)
        with pytest.raises(ValueError):
            complete_fixed_gamma(mask, [], gamma)
        with pytest.raises(ValueError):
            complete_single_size(mask, 3, gamma)
        with pytest.raises(ValueError):
            oracle_complete_multi(mask, [3], gamma)


class TestMonotonicityAndSymmetry:
    N = 200

    def test_gamma_monotone(self, rng):
        for _ in range(self.N):
            H = int(rng.integers(6, 25))
            W = int(rng.integers(6, 25))
            mask = random_mask(rng, H, W, density=float(rng.random()))
            size = int(rng.integers(1, 9))
            lo = float(rng.random())
            hi = float(rng.uniform(lo, 1.0))
            if hi >= 1.0:
                hi = lo
            small = complete_single_size(mask, size, lo)
            large = complete_single_size(mask, size, hi)
            assert not (small & ~large).any()

    def test_size_set_monotone(self, rng):
        for _ in range(self.N):
            H = int(rng.integers(8, 25))
            W = int(rng.integers(8, 25))
            mask = random_mask(rng, H, W, density=float(rng.random()))
            pool = rng.choice(np.arange(1, 9), size=3, replace=False)
            sub = sorted(int(v) for v in pool[:2])
            full = sorted(int(v) for v in pool)
            gamma = float(rng.random())
            a = complete_fixed_gamma(mask, sub, gamma)[0]
            b = complete_fixed_gamma(mask, full, gamma)[0]
            assert not (a & ~b).any()

    def test_symmetry_equivariance(self, rng):
        for _ in range(self.N):
            H = int(rng.integers(6, 20))
            W = int(rng.integers(6, 20))
            mask = random_mask(rng, H, W, density=float(rng.random()))
            size = int(rng.integers(1, min(H, W) + 1))
            gamma = float(rng.random())
            out = complete_single_size(mask, size, gamma)
            assert np.array_equal(
                complete_single_size(mask[:, ::-1], size, gamma), out[:, ::-1]
            )
            assert np.array_equal(
                complete_single_size(mask[::-1, :], size, gamma), out[::-1, :]
            )
            assert np.array_equal(
                complete_single_size(mask.T, size, gamma), out.T
            )


class TestFinalAndApply:
    """The final mask is the observation ORed with its completion.

    ``complete --union-ps`` writes ``observed | completed`` with no shape
    check, so every entry point must return the observation's shape.
    """

    def test_final_mask_with_empty_completion(self, rng):
        observed = random_mask(rng, 9, 9, density=0.2)
        completed = complete_single_size(observed, 10, 0.5)  # no 10×10 fits
        assert completed.dtype == np.uint8 and not completed.any()
        assert np.array_equal(observed | completed, observed)

    def test_final_mask_superset_case(self):
        # A 6×6 window holding the 3×3 block lies 36 + 9 - 2 * 9 = 27 from
        # it, exactly the cutoff at 3/4; one that cuts the block lies further.
        observed = np.zeros((12, 12), dtype=np.uint8)
        observed[4:7, 4:7] = 1
        completed = complete_single_size(observed, 6, Fraction(3, 4))
        expected = np.zeros_like(observed)
        expected[1:10, 1:10] = 1
        assert np.array_equal(completed, expected)
        assert np.array_equal(observed | completed, completed)

    def test_final_mask_inclusion_exclusion(self, tmp_path):
        circle = generate_shape_mask("circle", 12, (2, 2), (40, 40))
        square = generate_shape_mask("square", 10, (10, 10), (40, 40))
        observed = circle | square
        path, out, rep = tmp_path / "in.pbm", tmp_path / "out.pbm", tmp_path / "r.json"
        write_pbm(observed, path)
        argv = ["complete", path, "-o", out, "--sizes", "10,12", "--union-ps"]
        argv += ["--report", rep]
        assert cli_main([str(a) for a in argv]) == 0
        completed, _ = gamma_search(observed, (10, 12))
        assert np.array_equal(read_pbm(out), observed | completed)
        overlap = np.count_nonzero(observed & completed)
        assert json.loads(rep.read_text())["written_popcount"] == (
            np.count_nonzero(observed) + np.count_nonzero(completed) - overlap
        )

    def test_dimension_mismatch(self, rng):
        # Canvases of one band and of several, with a size past each side.
        for H, W in ((7, 13), (13, 7), (300, 9)):
            mask = random_mask(rng, H, W, density=0.3)
            sizes = (2, 5, 8, 14)
            outs = [
                gamma_search(mask, sizes)[0],
                complete_fixed_gamma(mask, sizes, 0.4)[0],
                *(complete_single_size(mask, s, 0.4) for s in sizes),
            ]
            for out in outs:
                assert out.dtype == np.uint8 and out.shape == mask.shape


class TestReportInvariants:
    def test_attack_found_iff_nonzero_popcount(self, rng):
        for _ in range(25):
            H = int(rng.integers(5, 20))
            W = int(rng.integers(5, 20))
            mask = random_mask(rng, H, W, density=float(rng.random() * 0.6))
            sizes = [int(s) for s in sorted(rng.choice(np.arange(2, 9), 2, replace=False))]
            out, report = gamma_search(mask, sizes)
            assert report.attack_found == (report.output_popcount > 0)
            assert report.output_popcount == np.count_nonzero(out)
            assert (report.gamma_used is not None) == report.attack_found


class TestPassCounts:
    """Each table row built once, and one ones pass per size, band and use."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Rows summed per :func:`_fill`, each box table's flags and each
        ones pass's size, in call order; box tables have fills of their own."""
        seen = {"fills": [], "tables": [], "sizes": []}
        fill, table, ones = completion._fill, completion._summed_area, completion._ones

        def counted_fill(t, flags):
            seen["fills"].append(len(flags))
            fill(t, flags)

        def counted_table(flags, largest):
            seen["tables"].append(flags.shape)
            return table(flags, largest)

        def counted_ones(t, s):
            seen["sizes"].append(s)
            return ones(t, s)

        monkeypatch.setattr(completion, "_fill", counted_fill)
        monkeypatch.setattr(completion, "_summed_area", counted_table)
        monkeypatch.setattr(completion, "_ones", counted_ones)
        return seen

    def test_single_size_makes_one_pass(self, passes):
        mask = np.zeros((40, 40), dtype=np.uint8)
        mask[5:17, 9:21] = 1
        assert complete_single_size(mask, 12, 0.3).any()
        assert passes == {"fills": [40], "tables": [], "sizes": [12]}

    def test_fixed_gamma_makes_one_pass_per_size_that_can_accept(self, passes):
        # 144 ones: a window of side 4 holds at most 16 of them and one of
        # side 16 at most 144 of its 256, so neither comes within the
        # cutoff at 0.3 (|s² - 144| / s² is 8 and 0.44) and neither runs.
        mask = np.zeros((40, 40), dtype=np.uint8)
        mask[5:17, 9:21] = 1
        _, report = complete_fixed_gamma(mask, (4, 12, 16, 50), 0.3)
        assert report.per_size_accepted == {4: 0, 12: 5, 16: 0, 50: 0}
        assert passes == {"fills": [40], "tables": [], "sizes": [12]}

    def test_search_repeats_only_the_sizes_accepted_at_the_stop(self, passes):
        mask = np.zeros((40, 40), dtype=np.uint8)
        mask[5:17, 9:21] = 1
        mask[30, 30] = 1
        # 145 ones: s=12 runs first, as its bound |s² - 145| / s² is the
        # lowest, and its ratio 1/144 stops the search at gamma_1 = 1/10,
        # where no window of side 16 or 20 can hold the ones it needs.
        _, report = gamma_search(mask, (12, 16, 20, 50))
        assert report.iterations_run == 1
        assert report.per_size_accepted == {12: 1, 16: 0, 20: 0, 50: 0}
        assert passes == {"fills": [40], "tables": [], "sizes": [12, 12]}

    def test_search_on_a_blank_mask_makes_only_the_minimum_passes(self, passes):
        _, report = gamma_search(np.zeros((40, 40), dtype=np.uint8), (12, 16, 50))
        assert not report.attack_found
        assert passes == {"fills": [], "tables": [], "sizes": []}

    @pytest.mark.parametrize("band", [256, 4])
    def test_blank_mask_builds_no_table(self, passes, monkeypatch, band):
        # Every window of a blank mask lies at distance s² from it, a ratio
        # of 1 that no threshold below 1 reaches, so no entry point runs a
        # size, whether the canvas is one band or ten.
        monkeypatch.setattr(completion, "_BAND", band)
        mask = np.zeros((40, 30), dtype=np.uint8)
        none = dict(per_size_accepted={12: 0, 16: 0, 50: 0}, skipped_sizes=(50,))
        out, report = gamma_search(mask, (12, 16, 50))
        assert out.dtype == np.uint8 and out.shape == mask.shape and not out.any()
        assert report == CompletionReport(False, None, 15, **none)
        out, report = complete_fixed_gamma(mask, (12, 16, 50), 0.9)
        assert out.dtype == np.uint8 and out.shape == mask.shape and not out.any()
        assert report == CompletionReport(False, None, 1, **none)
        out = complete_single_size(mask, 12, 0.9)
        assert out.dtype == np.uint8 and out.shape == mask.shape and not out.any()
        assert passes == {"fills": [], "tables": [], "sizes": []}

    def test_no_fitting_size_builds_no_table(self, passes):
        mask = np.zeros((2048, 50), dtype=np.uint8)
        mask[100:140, 5:45] = 1
        none = dict(per_size_accepted={64: 0, 100: 0}, skipped_sizes=(64, 100))
        out, report = gamma_search(mask, (64, 100))
        assert not out.any() and out.shape == mask.shape
        assert report == CompletionReport(False, None, 15, **none)
        out, report = complete_fixed_gamma(mask, (64, 100), 0.5)
        assert not out.any() and out.shape == mask.shape
        assert report == CompletionReport(False, None, 1, **none)
        out = complete_single_size(mask, 64, 0.5)
        assert out.dtype == np.uint8 and out.shape == mask.shape and not out.any()
        assert passes == {"fills": [], "tables": [], "sizes": []}

    def test_bands_build_each_table_row_once(self, passes, monkeypatch):
        # Bands of 4 corner rows, built from the bottom up: s=12 has corners
        # in all 8 bands up to row 28, s=16 in 7 and s=20 in 6, so the last
        # band holds s=12 alone and the one above it s=12 and s=16.  The
        # sizes run in the order of their bound |s² - 145| / s², 12, 16, 20.
        # In the band of rows 8 to 11, 12's ratio 73/144 leaves s=20 out of
        # reach, and in band 1 its ratio 1/144 leaves s=16 out too, so those
        # sizes skip the bands from there up.  The search accepts one 12×12
        # window in band 1, which is not the last: its second pass builds
        # one box table over the rows and cols whose counts could reach the
        # need, here the window alone.  At a fixed 0.3 only s=12 can accept.
        monkeypatch.setattr(completion, "_BAND", 4)
        mask = np.zeros((40, 40), dtype=np.uint8)
        mask[5:17, 9:21] = 1
        mask[30, 30] = 1
        _, report = gamma_search(mask, (12, 16, 20, 50))
        assert report.per_size_accepted == {12: 1, 16: 0, 20: 0, 50: 0}
        band_rows = sum(passes["fills"]) - sum(rows for rows, _ in passes["tables"])
        assert band_rows == 40
        assert passes["tables"] == [(12, 12)]
        assert passes["sizes"] == (
            [12] + [12, 16] + [12, 16, 20] * 3 + [12, 16] + [12] * 2 + [12]
        )
        passes.update(fills=[], tables=[], sizes=[])
        complete_fixed_gamma(mask, (12, 16, 20, 50), 0.3)
        assert sum(passes["fills"]) == 40 and passes["tables"] == []
        assert passes["sizes"] == [12] * 8

    def test_two_sizes_accepted_in_one_band_get_a_box_table_each(
        self, passes, monkeypatch
    ):
        # A 14×14 square stops the search at step 2, where windows of side
        # 12 and 16 are accepted.  In bands of 4 corner rows, the band of
        # rows 8 to 11, which is not the last, holds accepted windows of
        # both sizes and the band above it of side 16 alone: the second
        # pass builds one box table per band and size, each over the rows
        # and cols whose counts could reach that size's need.  With 197
        # ones, s=16 has the lower bound |s² - 197| / s², so it runs first
        # in each band it shares with s=12.
        mask = np.zeros((40, 40), dtype=np.uint8)
        mask[9:23, 9:23] = 1
        mask[30, 30] = 1
        want = gamma_search(mask, (12, 16))
        monkeypatch.setattr(completion, "_BAND", 4)
        passes.update(fills=[], tables=[], sizes=[])
        out, report = gamma_search(mask, (12, 16))
        assert np.array_equal(out, want[0]) and report == want[1]
        assert report.iterations_run == 2
        assert report.per_size_accepted == {12: 9, 16: 21}
        band_rows = sum(passes["fills"]) - sum(rows for rows, _ in passes["tables"])
        assert band_rows == 40
        assert passes["tables"] == [(18, 20), (15, 16), (17, 20)]
        assert passes["sizes"] == [12] + [16, 12] * 7 + [16, 12] + [16]

    @staticmethod
    def widths(monkeypatch):
        """The width of each table :func:`_fill` builds, in call order."""
        widths, fill = [], completion._fill

        def counted_fill(t, flags):
            widths.append(t.shape[1])
            fill(t, flags)

        monkeypatch.setattr(completion, "_fill", counted_fill)
        return widths

    def test_a_localized_search_fills_only_the_crop(self, passes, monkeypatch):
        # A 50×50 patch with two holes, alone on a 512² canvas: every window
        # the search looks at holds a one, so both passes run on the patch's
        # rows and cols grown by 99, the largest live side less 1: rows 101
        # to 348 and cols 201 to 448.  That block is one band of 248 rows,
        # so the second pass reuses its table and builds no box table.  With
        # 2,498 ones s=25 is not live, and s=50's ratio 2/2500 stops the
        # search at gamma_1 before s=75 or s=100 runs.
        widths = self.widths(monkeypatch)
        mask = np.zeros((512, 512), dtype=np.uint8)
        mask[200:250, 300:350] = 1
        mask[210, 310] = mask[240, 330] = 0
        out, report = gamma_search(mask, (25, 50, 75, 100))
        assert passes == {"fills": [248], "tables": [], "sizes": [50, 50]}
        assert widths == [249]
        assert report.iterations_run == 1 and report.per_size_accepted[50] == 13
        want = complete_fixed_gamma(mask, (25, 50, 75, 100), report.gamma_used)
        assert np.array_equal(out, want[0]) and report == want[1]

    def test_a_canvas_spanning_search_fills_the_whole_canvas(self, passes, monkeypatch):
        # Stray pixels in all four corners and a 50×50 patch with two holes:
        # grown by 99 their box is the canvas, so the first pass builds both
        # bands of the whole 512² table.  With 2,503 ones s=25 is not live,
        # and no 75- or 100-col run holds more than the patch's 2,498 ones.
        # s=50's ratio 7/2500 stops the search at gamma_1, where s=75 and
        # s=100 need more ones than that in every band, so only s=50 runs.
        # Its accepted windows lie in the last band, which is not the
        # first: the second pass builds one box table around them.
        widths = self.widths(monkeypatch)
        mask = np.zeros((512, 512), dtype=np.uint8)
        mask[[3, 3, 508, 508], [5, 500, 7, 506]] = 1
        mask[250, 250] = 1
        mask[300:350, 100:150] = 1
        mask[310, 120] = mask[340, 140] = 0
        out, report = gamma_search(mask, (25, 50, 75, 100))
        assert report.iterations_run == 1
        assert report.per_size_accepted == {25: 0, 50: 13, 75: 0, 100: 0}
        assert passes == {"fills": [256, 256, 54], "tables": [(54, 54)], "sizes": [50] * 3}
        assert widths == [513, 513, 55]
        want = complete_fixed_gamma(mask, (25, 50, 75, 100), report.gamma_used)
        assert np.array_equal(out, want[0]) and report == want[1]

    def test_a_strays_only_search_fills_nothing(self, passes, monkeypatch):
        # The corner strays alone: |s² - 5| < s², so every size passes the
        # LB(s) test, but no run of s cols holds more than 2 of the 5 ones,
        # so lb(s) >= 1 and the column counts settle the search: no table.
        widths = self.widths(monkeypatch)
        mask = np.zeros((512, 512), dtype=np.uint8)
        mask[[3, 3, 508, 508], [5, 500, 7, 506]] = 1
        mask[250, 250] = 1
        out, report = gamma_search(mask, (25, 50, 75, 100))
        none = dict.fromkeys((25, 50, 75, 100), 0)
        assert report == CompletionReport(False, None, 15, none)
        assert out.shape == mask.shape and not out.any()
        assert passes == {"fills": [], "tables": [], "sizes": []} and widths == []

    def test_a_blank_search_does_not_scan_for_the_ones(self, monkeypatch):
        def no_scan(mask):
            raise AssertionError("a search with no live size scanned the mask")

        monkeypatch.setattr(completion, "_scan", no_scan)
        _, report = gamma_search(np.zeros((64, 64), dtype=np.uint8), (8, 16))
        assert not report.attack_found

    def test_cover_is_built_at_one_call_site(self):
        sites = []
        for path in sorted(Path(completion.__file__).parent.glob("*.py")):
            finder = _CallSites(path.stem, "_cover")
            finder.visit(ast.parse(path.read_text()))
            sites += finder.sites
        assert sites == ["completion._union_of_covers"]


class TestLinearWork:
    """The engine's work, counted in elements written, so no clock is read.

    A band of m new rows sums the n = m·(W+1) entries of its block along
    the rows, then writes (m + 1 - k)·(W+1) elements in its column add at
    each power of 2 k <= m.  The row pass is a flat doubling that writes
    n - k elements at each power of 2 k < n, or, on a block under
    ``_FLAT_MIN`` entries or with rows longer than ``_FLAT_COLS``, one
    running sum of n.  Each size writes three ones planes of one element
    per window corner, and a cover takes ceil(log2 s) shifted ORs along
    each axis.
    """

    @staticmethod
    def fill_work(m, w):
        n = m * (w + 1)
        if completion._FLAT_MIN <= n and w + 1 <= completion._FLAT_COLS:
            rows = [n - 2**j for j in range((n - 1).bit_length())]
        else:
            rows = [n]
        return rows + [(m + 1 - 2**j) * (w + 1) for j in range(m.bit_length())]

    def table_work_per_pixel(self, s, n):
        """The elements the table passes of one n² call of size s write,
        per table entry, checked pass by pass against :meth:`fill_work`."""
        mask = generate_shape_mask("square", s, None, (n, n))
        want = complete_single_size(mask, s, 0.25)
        got, work = _tally_work(lambda: complete_single_size(mask, s, 0.25))
        assert np.array_equal(got, want)

        # One band up to 256 + s - 1 rows; 256-row bands past that.
        bands = [min(n, completion._BAND)] * max(1, n // completion._BAND)
        assert work["_fill"] == [self.fill_work(m, n) for m in bands]

        assert all(len(p) == 3 for p in work["_ones"])
        ones = sum(map(sum, work["_ones"]))
        assert ones == 3 * (n - s + 1) ** 2 <= 3 * n * n

        # Two running ORs, one per axis, make each cover.
        passes = [len(p) for p in work["_running_or"]]
        assert passes and len(passes) % 2 == 0
        assert passes == [(s - 1).bit_length()] * len(passes)
        return Fraction(sum(map(sum, work["_fill"])), n * (n + 1))

    @pytest.mark.parametrize("s", [25, 50, 100])
    def test_work_is_linear_in_area_and_logarithmic_in_size(self, s):
        # A band's block holds at most (_BAND + s - 1)·_FLAT_COLS entries,
        # so each entry takes a number of adds bounded whatever the canvas.
        rows = completion._BAND + s
        bound = (rows * completion._FLAT_COLS).bit_length() + rows.bit_length()
        per_pixel = {n: self.table_work_per_pixel(s, n) for n in (128, 256, 512, 1024)}
        assert max(per_pixel.values()) <= bound
        # Each doubling of the width takes one more flat add.
        assert per_pixel[128] < per_pixel[256] < per_pixel[512] < per_pixel[1024]
        assert per_pixel[1024] - per_pixel[512] < 1

    def test_rows_past_the_width_cap_do_equal_work_per_pixel(self, monkeypatch):
        # Past the cap each row is one running sum, so less its extra
        # column the table's work per pixel is the same whatever the
        # canvas, once the canvas fills a band.
        monkeypatch.setattr(completion, "_FLAT_COLS", 512)
        per_pixel = {n: self.table_work_per_pixel(25, n) for n in (512, 1024)}
        assert per_pixel[512] == per_pixel[1024] < 9

    @pytest.mark.parametrize(
        "h,w,flat",
        [
            (64, 64, False),  # 64·65 entries, under _FLAT_MIN
            (127, 128, False),  # 16,383 entries
            (128, 128, True),  # 16,512 entries
            (3, 2**15 - 1, True),  # rows of 2^15 entries
            (3, 2**15, False),  # rows of 2^15 + 1 entries
        ],
    )
    def test_the_bounds_pick_the_row_pass(self, h, w, flat):
        mask = np.ones((h, w), dtype=np.uint8)
        _, work = _tally_work(lambda: _summed_area(mask, 2))
        assert work["_fill"] == [self.fill_work(h, w)]
        assert (len(work["_fill"][0]) > 1 + h.bit_length()) == flat


class TestBands:
    """Streaming over row bands changes no output and no report field."""

    @staticmethod
    def runs(mask, sizes, gamma, schedule):
        return (
            gamma_search(mask, sizes, schedule),
            complete_fixed_gamma(mask, sizes, gamma),
            [complete_single_size(mask, s, gamma) for s in sizes],
        )

    def test_every_band_height_matches_the_oracle_and_one_band(self, monkeypatch):
        # Band heights 1, 2, 3 and s - 1, s, s + 1 for each size in the
        # call; a canvas of at most 40 rows is one band at the default
        # height.  Most pairs of size and height leave the size's last
        # corner row partway through the last band.
        one_band, boxes, partial = completion._BAND, [], 0
        table = completion._summed_area
        def counted_table(flags, largest):
            boxes.append(flags.shape)
            return table(flags, largest)

        monkeypatch.setattr(completion, "_summed_area", counted_table)
        for k in range(16):
            rng = np.random.default_rng([18, k])
            H, W = (int(v) for v in rng.integers(6, 41, 2))
            pool = np.arange(1, min(H, W) + 4)  # up to three sizes past the canvas
            sizes = sorted(int(v) for v in rng.choice(pool, 3, replace=False))
            if k % 4 == 0:
                mask = random_mask(rng, H, W, density=float(rng.random()))
            else:
                size = min(sizes[k % 3], H, W)
                flips = int(rng.integers(0, size * size // 4 + 1))
                mask = planted_patch(rng, H, W, size, flips)
                mask.flat[rng.choice(H * W, k % 3, replace=False)] = 1
            gamma = Fraction(int(rng.integers(0, 100)), 100)
            schedule = GammaSchedule(t_max=int(rng.integers(1, 16)))

            monkeypatch.setattr(completion, "_BAND", one_band)
            want = self.runs(mask, sizes, gamma, schedule)
            (out, report), (fixed, _), singles = want
            assert np.array_equal(fixed, oracle_complete_multi(mask, sizes, gamma))
            for s, single in zip(sizes, singles):
                assert np.array_equal(single, oracle_complete_single(mask, s, gamma))
            if report.attack_found:
                stop = schedule.gamma(report.iterations_run)
                assert np.array_equal(out, oracle_complete_multi(mask, sizes, stop))

            heights = {1, 2, 3} | {s + d for s in sizes for d in (-1, 0, 1)}
            for band in sorted(heights - {0}):
                monkeypatch.setattr(completion, "_BAND", band)
                got = self.runs(mask, sizes, gamma, schedule)
                for (a, ra), (b, rb) in zip(got[:2], want[:2]):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                    assert ra == rb
                for a, b in zip(got[2], want[2]):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                partial += any((H - s + 1) % band for s in sizes if s <= H)
        assert boxes, "no second pass ran on a band that was not the last"
        assert partial

    @pytest.mark.parametrize("line", ["row", "col"])
    def test_lines_holding_more_ones_than_a_byte_counts(self, monkeypatch, line):
        # Full lines of over 255 ones run through a patch, and a window one
        # line over holds as many ones as the patch.  A second pass that
        # counted them in uint8 would read each as a few ones and lose the
        # windows a one-band run accepts.  Cols reach past 255 only in a
        # strip that tall, so that patch is 260 wide.
        if line == "row":
            mask, s, band = np.zeros((120, 256), dtype=np.uint8), 40, 8
            mask[40:80, 100:140] = 1
            mask[[50, 80]] = 1
        else:
            mask, s, band = np.zeros((600, 300), dtype=np.uint8), 260, 256
            mask[100:360, 20:280] = 1
            mask[:, 280] = 1
        gamma, schedule = Fraction(3, 10), GammaSchedule()
        monkeypatch.setattr(completion, "_BAND", 1000)
        want = self.runs(mask, (s,), gamma, schedule)
        assert want[0][1].attack_found
        monkeypatch.setattr(completion, "_BAND", band)
        got = self.runs(mask, (s,), gamma, schedule)
        for (a, ra), (b, rb) in zip(got[:2], want[:2]):
            assert np.array_equal(a, b) and ra == rb
        assert np.array_equal(got[2][0], want[2][0])


class TestSizeBound:
    """A window of side s holds at most min(s², total) ones, so its ratio is
    at least |s² - total| / s²; the sizes that bound rules out take no pass,
    and the search's output and report stay the oracle's."""

    @staticmethod
    def oracle_search(mask, sizes, schedule):
        """:func:`gamma_search`'s output and report for sizes that all fit, from
        the oracle alone."""
        bits = mask.tolist()
        d_min = {s: oracle_min_distance(mask, s)[0] for s in sizes}
        for t in range(1, schedule.t_max + 1):
            g = schedule.gamma(t)
            if any(d <= int(g * s * s) for s, d in d_min.items()):
                out = oracle_complete_multi(mask, sizes, g)
                accepted = {
                    s: sum(d <= int(g * s * s) for *_, d in _window_distances(bits, s))
                    for s in sizes
                }
                popcount = int(np.count_nonzero(out))
                return out, CompletionReport(True, float(g), t, accepted, (), popcount)
        accepted = dict.fromkeys(sizes, 0)
        return np.zeros_like(mask), CompletionReport(False, None, t, accepted)

    def test_pruned_searches_match_the_oracle_across_bands(self, monkeypatch):
        # Damaged patches of one of the two larger sizes, with strays, in
        # bands of 4 corner rows.  A size with total >= 2·s² never runs, and
        # once a band's ratio sets a low threshold the sizes it leaves out
        # of reach skip the bands above.
        calls, ones, candidates = [], completion._ones, completion._candidates

        def counted_ones(table, s):
            calls.append(s)
            return ones(table, s)

        def second_pass(*args):
            calls.append(None)
            yield from candidates(*args)

        monkeypatch.setattr(completion, "_ones", counted_ones)
        monkeypatch.setattr(completion, "_candidates", second_pass)
        monkeypatch.setattr(completion, "_BAND", 4)
        dropped = cut = 0
        for k in range(20):
            rng = np.random.default_rng([28, k])
            H, W = (int(v) for v in rng.integers(20, 41, 2))
            pool = rng.choice(np.arange(2, 19), 4, replace=False)
            sizes = sorted(int(v) for v in pool)
            side = sizes[2 + k % 2]
            flips = int(rng.integers(0, side * side // 3))
            mask = planted_patch(rng, H, W, side, flips)
            mask.flat[rng.choice(H * W, k % 4, replace=False)] = 1
            total = int(np.count_nonzero(mask))
            calls.clear()
            out, report = gamma_search(mask, sizes)
            want, want_report = self.oracle_search(mask, sizes, GammaSchedule())
            assert np.array_equal(out, want) and report == want_report
            first = calls[: calls.index(None)]
            for s in sizes:
                bands = len(range(0, H - s + 1, 4))
                assert first.count(s) <= bands
                if total >= 2 * s * s:
                    assert first.count(s) == 0
                    dropped += 1
                cut += 0 < first.count(s) < bands
        assert dropped and cut

    @pytest.mark.parametrize("band", [256, 4])
    def test_a_size_whose_bound_meets_the_threshold_still_runs(self, monkeypatch, band):
        # A clean 12×12 patch: a 16×16 window holds at most its 144 ones, at
        # distance 112 = floor(7/16 · 256), so at gamma 7/16, the first step
        # of alpha = 9/16, the windows that hold the whole patch are
        # accepted.  The need of s=16 equals min(s², total) there.
        monkeypatch.setattr(completion, "_BAND", band)
        mask = np.zeros((40, 40), dtype=np.uint8)
        mask[9:21, 9:21] = 1
        schedule = GammaSchedule(alpha=0.5625)
        out, report = gamma_search(mask, (12, 16), schedule)
        want, want_report = self.oracle_search(mask, (12, 16), schedule)
        assert np.array_equal(out, want) and report == want_report
        assert report.gamma_used == 7 / 16
        assert report.per_size_accepted == {12: 13, 16: 25}
        out, report = complete_fixed_gamma(mask, (12, 16), Fraction(7, 16))
        assert np.array_equal(out, want)
        assert report.per_size_accepted == {12: 13, 16: 25}

    @pytest.fixture
    def ran(self, monkeypatch):
        """The size of each ones pass, in call order."""
        ran, ones = [], completion._ones

        def counted_ones(table, s):
            ran.append(s)
            return ones(table, s)

        monkeypatch.setattr(completion, "_ones", counted_ones)
        return ran

    @staticmethod
    def col_bound(mask, s):
        """b(s) = min(s², total, C(s)), C(s) the most ones in any s cols, by brute force."""
        cols = [int(v) for v in mask.sum(axis=0)]
        runs = max(sum(cols[j : j + s]) for j in range(len(cols) - s + 1))
        return min(s * s, sum(cols), runs)

    @staticmethod
    def bound_masks():
        """Seeded masks whose ones no run of cols holds many of: sparse
        strays, and two clusters of 4 cols at either end of a canvas at
        least 30 wide, one to three ones apart in size, so that no window of
        side 20 or less holds both."""
        for k in range(48):
            rng = np.random.default_rng([31, k])
            H, W = (int(v) for v in rng.integers([20, 30], [41, 45]))
            small = rng.choice(np.arange(3, 16), 2, replace=False)
            sizes = sorted(int(v) for v in (*small, rng.integers(16, 21)))
            mask = np.zeros((H, W), dtype=np.uint8)
            if k % 3 == 0:
                mask.flat[rng.choice(H * W, int(rng.integers(3, 13)), replace=False)] = 1
                yield "strays", mask, sizes
                continue
            big = int(rng.integers(6, 17))
            for left, count in ((0, big), (W - 4, big - int(rng.integers(1, 4)))):
                top = int(rng.integers(0, H - 3))
                box = np.zeros(16, dtype=np.uint8)
                box[rng.choice(16, count, replace=False)] = 1
                mask[top : top + 4, left : left + 4] = box.reshape(4, 4)
            yield "clusters", mask, sizes

    @pytest.mark.parametrize("band", [256, 4])
    def test_the_column_bound_drops_sizes_no_step_accepts(self, ran, monkeypatch, band):
        # Sizes that LB(s) = |s² - total| / s² < 1 keeps, but whose s cols
        # hold too few ones: with b(s) = min(s², total, C(s)), lb(s) = (s² +
        # total - 2·b(s)) / s² lies at or past 1, or past gamma_16, which
        # the float estimate puts more than a step past the last step.  Such
        # a size takes no ones pass, and the search stays the oracle's.
        monkeypatch.setattr(completion, "_BAND", band)
        schedule = GammaSchedule()
        beyond = GammaSchedule(t_max=16).gamma(16)
        drops = {"strays": 0, "clusters": 0, "past the last step": 0}
        for label, mask, sizes in self.bound_masks():
            total = int(np.count_nonzero(mask))
            ran.clear()
            out, report = gamma_search(mask, sizes, schedule)
            want, want_report = self.oracle_search(mask, sizes, schedule)
            assert np.array_equal(out, want) and report == want_report, (label, sizes)
            for s in sizes:
                lb = Fraction(s * s + total - 2 * self.col_bound(mask, s), s * s)
                if abs(s * s - total) < s * s and lb > beyond:
                    assert s not in ran, (label, sizes, s)
                    drops[label] += 1
                    drops["past the last step"] += lb < 1
        assert all(drops.values()), drops

    @pytest.mark.parametrize("band", [256, 4])
    def test_a_size_whose_column_bound_meets_its_need_at_the_last_step_runs(
        self, monkeypatch, band
    ):
        # A 7×7 block and 6 more ones spanning exactly 10 cols, and 5 ones
        # far off: 60 in all.  With alpha 1/2 and one step, gamma is 1/2.
        # s=7 has the lower bound, (49 + 60 - 98) / 49, and stops the search
        # there first.  No 10 cols hold more than the cluster's 55 ones, so
        # b(10) = 55, and that is what s=10 needs at gamma 1/2: ceil((100 +
        # 60 - 50) / 2).  Its 4 windows over the whole cluster, at distance
        # 50, are accepted, so s=10 must run in every band.
        monkeypatch.setattr(completion, "_BAND", band)
        mask = np.zeros((24, 40), dtype=np.uint8)
        mask[3:10, 3:10] = 1
        mask[[4, 6], 10:13] = 1
        mask[[0, 5, 9, 14, 20], [37, 38, 39, 36, 35]] = 1
        assert np.count_nonzero(mask) == 60 and self.col_bound(mask, 10) == 55
        schedule = GammaSchedule(alpha=0.5, t_max=1)
        out, report = gamma_search(mask, (7, 10), schedule)
        want, want_report = self.oracle_search(mask, (7, 10), schedule)
        assert np.array_equal(out, want) and report == want_report
        assert report.gamma_used == 0.5 and report.per_size_accepted[10] == 4

    @pytest.mark.parametrize("band", [256, 4])
    def test_canvases_narrower_than_a_size(self, monkeypatch, band):
        # Canvases 3 to 12 cols wide: a size wider than the canvas is
        # skipped, and one whose s cols span the ones' box takes C(s) =
        # total without summing a run.
        monkeypatch.setattr(completion, "_BAND", band)
        for k in range(30):
            rng = np.random.default_rng([31, 1, k])
            H, W = int(rng.integers(12, 41)), int(rng.integers(3, 13))
            sizes = sorted(int(v) for v in rng.choice(np.arange(2, 16), 3, replace=False))
            if k % 2:
                mask = planted_patch(rng, H, W, min(sizes[0], W), int(rng.integers(0, 4)))
            else:
                mask = random_mask(rng, H, W, density=float(rng.uniform(0.02, 0.3)))
            fitting = [s for s in sizes if s <= W]
            out, report = gamma_search(mask, sizes)
            want, want_report = self.oracle_search(mask, fitting, GammaSchedule())
            assert np.array_equal(out, want)
            assert report == CompletionReport(
                want_report.attack_found,
                want_report.gamma_used,
                want_report.iterations_run,
                {s: want_report.per_size_accepted.get(s, 0) for s in sizes},
                tuple(s for s in sizes if s > W),
                want_report.output_popcount,
            )

    @pytest.mark.parametrize("gap", [12, 11], ids=["s+1 cols", "s cols"])
    def test_two_ones_a_size_apart(self, ran, gap):
        # Two ones in one row, spanning s + 1 or s cols, at s = 12: LB(12)
        # = 142/144 keeps the size.  Across s + 1 cols no window holds both,
        # so b(12) = 1 and lb(12) = 1: no table.  Across s cols one window
        # holds both, at distance 142, which step 13 accepts.
        mask = np.zeros((12, 13), dtype=np.uint8)
        mask[5, [0, gap]] = 1
        out, report = gamma_search(mask, (12,))
        want, want_report = self.oracle_search(mask, (12,), GammaSchedule())
        assert np.array_equal(out, want) and report == want_report
        assert report.iterations_run == (15 if gap == 12 else 13)
        assert ran == ([] if gap == 12 else [12, 12])

    @pytest.mark.parametrize("h", [254, 255, 256, 511, 600])
    def test_column_counts_past_a_byte(self, h):
        # The counts are summed in bytes over every 255 rows, so a col of h
        # ones counts h, whatever h.
        mask = np.zeros((h, 9), dtype=np.uint8)
        mask[:, 2] = mask[1:-1, 6] = mask[h // 2, 7] = 1
        box, counts = completion._scan(mask)
        assert box == (0, h, 2, 8)
        assert counts.tolist() == [h, 0, 0, 0, h - 2, 1]


class TestCrop:
    """A search runs on its ones' box grown by the largest live side less 1,
    clamped to the canvas, and its output and report stay the oracle's."""

    @staticmethod
    def masks():
        """Damaged 6×6 patches on a 30×36 canvas touching each edge and each
        corner, two rows of ones across every col, and two far-apart blobs."""
        rng = np.random.default_rng(30)
        H, W = 30, 36
        for top in (0, 12, H - 6):
            for left in (0, 15, W - 6):
                if (top, left) == (12, 15):
                    continue
                mask = np.zeros((H, W), dtype=np.uint8)
                mask[top : top + 6, left : left + 6] = 1
                mask[top + int(rng.integers(0, 6)), left + int(rng.integers(0, 6))] = 0
                yield f"patch at ({top}, {left})", mask
        mask = np.zeros((H, W), dtype=np.uint8)
        mask[14:16] = 1
        mask[15, rng.choice(W, 5, replace=False)] = 0
        yield "rows across every col", mask
        mask = np.zeros((H, W), dtype=np.uint8)
        mask[10:15, 1:6] = mask[12:17, 30:35] = 1
        mask[13, 3] = 0
        yield "two far-apart blobs", mask

    @pytest.mark.parametrize("band", [256, 4])
    def test_cropped_searches_match_the_oracle(self, monkeypatch, band):
        monkeypatch.setattr(completion, "_BAND", band)
        blocks, crop = {}, completion._crop

        def recorded_crop(mask, *args):
            block, r, c = crop(mask, *args)
            blocks[label] = (block.shape, r, c)
            return block, r, c

        monkeypatch.setattr(completion, "_crop", recorded_crop)
        found = []
        for label, mask in self.masks():
            out, report = gamma_search(mask, (3, 5, 6))
            want, want_report = TestSizeBound.oracle_search(mask, (3, 5, 6), GammaSchedule())
            assert np.array_equal(out, want) and report == want_report, label
            assert blocks[label][0] != mask.shape, label
            found += [label] * report.attack_found
        # Grown by 5 and clamped: each patch's block is 11 rows or cols long
        # at an edge and 16 away from one; the rows and the blobs span every
        # col between them.
        assert blocks["patch at (0, 0)"] == ((11, 11), 0, 0)
        assert blocks["patch at (24, 30)"] == ((11, 11), 19, 25)
        assert blocks["patch at (12, 0)"] == ((16, 11), 7, 0)
        assert blocks["rows across every col"] == ((12, 36), 9, 0)
        assert blocks["two far-apart blobs"] == ((17, 36), 5, 0)
        # A 6×6 window holds at most 12 of the rows' 67 ones: no step accepts.
        assert len(found) == 9 and "rows across every col" not in found

    def test_a_localized_search_peaks_no_higher_than_one_with_corner_strays(self):
        # The same damaged patch on 512², alone and with a stray pixel in each
        # corner: cropped to the patch, the search's tables and planes are
        # the block's, and only its output spans the canvas.
        mask = np.zeros((512, 512), dtype=np.uint8)
        mask[230:280, 200:250] = 1
        mask[[240, 251, 266], [210, 233, 205]] = 0
        strays = mask.copy()
        strays[[0, 0, -1, -1], [0, -1, 0, -1]] = 1
        peaks = []
        for m in (mask, strays):
            tracemalloc.start()
            try:
                out, report = gamma_search(m, (25, 50, 75, 100))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.attack_found and out[255, 225]
        assert peaks[0] <= peaks[1]


_EVERY_4X4 = np.unpackbits(np.arange(65536, dtype=">u2").view(np.uint8)).reshape(-1, 4, 4)


@pytest.fixture(scope="module")
def oracle_4x4():
    """The oracle's completion of every 4×4 mask at sizes 2 and 3, gamma 1/4."""
    return [oracle_complete_multi(m, (2, 3), Fraction(1, 4)) for m in _EVERY_4X4]


@pytest.fixture(scope="module")
def wide_canvas():
    """A canvas whose table rows hold over 2^15 entries, and the oracle's outputs.

    A near-patch at the rows' far end, with a stray at each end, stops the
    search at step 2; in bands of 4 rows its second pass builds a box
    table past col 2^15.
    """
    mask = np.zeros((12, 2**15 + 9), dtype=np.uint8)
    mask[6:11, -7:-2] = 1
    mask[8, -4] = 0
    mask[1, 2] = mask[3, -1] = 1
    sizes, gamma = (2, 3, 5), Fraction(3, 10)
    want = {s: oracle_complete_single(mask, s, gamma) for s in sizes}
    want["fixed"] = oracle_complete_multi(mask, sizes, gamma)
    want["search"] = oracle_complete_multi(mask, sizes, GammaSchedule().gamma(2))
    return mask, sizes, gamma, want


class TestRowPasses:
    """Either row pass builds tables that give every entry point the oracle's output."""

    def test_every_band_height_matches_the_oracle_and_one_band(
        self, monkeypatch, row_pass
    ):
        TestBands().test_every_band_height_matches_the_oracle_and_one_band(monkeypatch)

    def test_every_4x4_mask_matches_the_oracle(self, row_pass, oracle_4x4):
        for mask, want in zip(_EVERY_4X4, oracle_4x4):
            out, _ = complete_fixed_gamma(mask, (2, 3), Fraction(1, 4))
            assert np.array_equal(out, want)

    def test_a_canvas_wider_than_the_cap_matches_the_oracle(
        self, monkeypatch, row_pass, wide_canvas
    ):
        mask, sizes, gamma, want = wide_canvas
        monkeypatch.setattr(completion, "_BAND", 4)
        (out, report), (fixed, _), singles = TestBands.runs(
            mask, sizes, gamma, GammaSchedule()
        )
        assert report.iterations_run == 2
        assert report.per_size_accepted == {2: 0, 3: 0, 5: 1}
        assert np.array_equal(out, want["search"])
        assert np.array_equal(fixed, want["fixed"])
        for s, single in zip(sizes, singles):
            assert np.array_equal(single, want[s])


class _CallSites(ast.NodeVisitor):
    """Functions of one module that call ``name``, once per call."""

    def __init__(self, module, name):
        self.scope, self.sites, self.name = [module], [], name

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called == self.name:
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


class _Tally(np.ndarray):
    """A view that appends the size of each ufunc result made from it to ``sink``."""

    def __array_finalize__(self, obj):
        self.sink = getattr(obj, "sink", None)

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        sink = next(a.sink for a in (*inputs, *out) if isinstance(a, _Tally))

        def plain(arrays):
            return tuple(a.view(np.ndarray) if isinstance(a, _Tally) else a for a in arrays)

        if out:
            kwargs["out"] = plain(out)
        result = getattr(ufunc, method)(*plain(inputs), **kwargs)
        sink.append(result.size)
        return result


def _tally_work(call):
    """``call()``'s result, and for each call it makes of ``_fill``, ``_ones``
    and ``_running_or``, the elements each of its whole-array passes wrote."""
    work = {name: [] for name in ("_fill", "_ones", "_running_or")}
    with pytest.MonkeyPatch.context() as mp:
        for name, calls in work.items():
            def tallied(a, *args, fn=getattr(completion, name), calls=calls):
                view = a.view(_Tally)
                view.sink = []
                calls.append(view.sink)
                return fn(view, *args)

            mp.setattr(completion, name, tallied)
        return call(), work
