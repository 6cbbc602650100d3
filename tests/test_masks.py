"""The mask, integer, pair and gamma readers that every entry point of the
engine and the oracle reads its masks, sizes, canvases, anchors, steps,
counts, budgets, seeds and thresholds through; the engine's summed-area
table, window sums read off it, and the Hamming distance plane built on
it.  Expected values come from independent little oracles written inline
(double loops, XOR popcounts) rather than from the code under test.
"""

import ast
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_mask, window_distances
import maskcomplete
from maskcomplete import (
    GammaSchedule,
    complete_fixed_gamma,
    complete_single_size,
    distance_cutoff,
    gamma_search,
)
from maskcomplete.bench import run_benchmark
from maskcomplete.corruption import CorruptionModel, guarantee_trial
from maskcomplete.masks import as_mask, normalize_sizes
from maskcomplete.oracle import (
    oracle_complete_multi,
    oracle_complete_single,
    oracle_min_distance,
)
from maskcomplete.shapes import generate_shape_mask
from maskcomplete.completion import _fill, _ones, _summed_area, _zero_table

small_masks = arrays(
    np.uint8,
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.integers(0, 1),
)


class TestAsMask:
    def test_accepts_lists_and_bools(self):
        assert as_mask([[0, 1], [1, 0]]).dtype == np.uint8
        out = as_mask(np.array([[True, False]]))
        assert out.dtype == np.uint8 and out.tolist() == [[1, 0]]

    def test_uint8_passthrough_is_not_copied(self):
        m = np.zeros((3, 3), dtype=np.uint8)
        assert as_mask(m) is m

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((2, 2, 2), dtype=np.uint8),
            np.zeros((0, 4), dtype=np.uint8),
            np.array([[0, 2]]),
            np.array([[0.5, 0.5]]),
            np.array([[-1, 1]]),
            np.array([[1, 255]], dtype=np.uint8),
            np.array([[0, -128]], dtype=np.int8),
            np.array([[2**63, 0]], dtype=np.uint64),
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            as_mask(bad)

    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.int8, np.uint16, np.int32, np.uint64, np.int64]
    )
    def test_accepts_zeros_and_ones_of_every_integer_dtype(self, dtype):
        out = as_mask(np.array([[0, 1], [1, 1]], dtype=dtype))
        assert out.dtype == np.uint8 and out.tolist() == [[0, 1], [1, 1]]


def table_of(mask):
    """The engine's summed-area table of a whole mask, for every size that fits."""
    return _summed_area(mask, min(mask.shape))


def reference_table(mask):
    """The table in int64, unwrapped: entry (i, j) counts the ones in mask[i:, j:]."""
    table = np.zeros((mask.shape[0] + 1, mask.shape[1] + 1), dtype=np.int64)
    table[:-1, :-1] = mask[::-1, ::-1].cumsum(axis=0).cumsum(axis=1)[::-1, ::-1]
    return table


def less_row_constants(table):
    """``table`` less each row's last entry, in int64 modulo 2^bits.

    The engine's table may add one constant to each whole row, since a
    window's count is a difference within a row less the same difference s
    rows down.  The reference's last col is zero, so the last entry is that
    constant, and what is left must equal the reference, wrapped.
    """
    wide = table.astype(np.int64)
    return (wide - wide[:, -1:]) % 2 ** (8 * table.itemsize)


_MASK = np.eye(8, dtype=np.uint8)
_MODEL = CorruptionModel("uniform-flip", 1, 0)


def _bench(**kwargs):
    args = {"canvases": (16,), "sizes": (4,), "repeats": 1, "include_oracle": False}
    return run_benchmark(**{**args, **kwargs})


# Every integer argument of the library: (call with the value v, the name its
# errors give, the least value accepted, a valid value).
INTEGER_ARGUMENTS = {
    "normalize_sizes": (lambda v: normalize_sizes([v]), "patch size", 1, 3),
    "gamma_search": (lambda v: gamma_search(_MASK, [v]), "patch size", 1, 3),
    "complete_fixed_gamma": (
        lambda v: complete_fixed_gamma(_MASK, [v], 0.5), "patch size", 1, 3
    ),
    "complete_single_size": (
        lambda v: complete_single_size(_MASK, v, 0.5), "patch size", 1, 3
    ),
    "distance_cutoff": (lambda v: distance_cutoff(0.5, v), "patch size", 1, 3),
    "t_max": (lambda v: GammaSchedule(t_max=v), "t_max", 1, 3),
    "schedule step": (lambda v: GammaSchedule().gamma(v), "step", 1, 3),
    "trial size": (
        lambda v: guarantee_trial(v, (20, 20), 0.3, _MODEL), "patch size", 1, 3
    ),
    "trial canvas": (
        lambda v: guarantee_trial(3, (20, v), 0.3, _MODEL), "canvas", 1, 20
    ),
    "budget": (lambda v: CorruptionModel("uniform-flip", v, 0), "budget", 0, 3),
    "seed": (lambda v: CorruptionModel("uniform-flip", 1, v), "seed", 0, 3),
    "oracle_complete_single": (
        lambda v: oracle_complete_single(_MASK, v, 0.5), "patch size", 1, 3
    ),
    "oracle_min_distance": (
        lambda v: oracle_min_distance(_MASK, v), "patch size", 1, 3
    ),
    "shape size": (
        lambda v: generate_shape_mask("square", v, None, (20, 20)), "shape size", 1, 3
    ),
    "shape canvas": (
        lambda v: generate_shape_mask("square", 3, None, (v, 20)), "canvas", 1, 20
    ),
    "anchor": (
        lambda v: generate_shape_mask("square", 3, (v, 0), (20, 20)), "anchor", 0, 3
    ),
    "canvases": (lambda v: _bench(canvases=(v,)), "canvases", 1, 16),
    "repeats": (lambda v: _bench(repeats=v), "repeats", 1, 1),
}


class TestIntegerArguments:
    """One reader decides every integer argument: no truncation, one message."""

    @pytest.mark.parametrize("value", [3.9, True, np.bool_(True), "3", Fraction(3)])
    @pytest.mark.parametrize("site", INTEGER_ARGUMENTS)
    def test_non_integers_raise_type_error(self, site, value):
        call, name, _, _ = INTEGER_ARGUMENTS[site]
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            call(value)

    @pytest.mark.parametrize(
        "below", [lambda least: least - 1, lambda least: -3], ids=["least-1", "-3"]
    )
    @pytest.mark.parametrize("site", INTEGER_ARGUMENTS)
    def test_values_below_least_raise_value_error(self, site, below):
        call, name, least, _ = INTEGER_ARGUMENTS[site]
        value = below(least)
        with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {value}$"):
            call(value)

    @pytest.mark.parametrize("cast", [np.int64, np.uint8])
    @pytest.mark.parametrize("site", INTEGER_ARGUMENTS)
    def test_numpy_integers_are_accepted(self, site, cast):
        call, _, _, valid = INTEGER_ARGUMENTS[site]
        call(cast(valid))

    @pytest.mark.parametrize(
        "size",
        [3.9, 3.0, True, np.bool_(False), "3", Fraction(3), None, 0, -3, 2**64,
         np.int64(3), np.uint8(1), 3, 8, 9],
    )
    def test_engine_and_oracle_read_sizes_alike(self, size):
        outcomes = []
        for complete in (complete_single_size, oracle_complete_single):
            try:
                outcomes.append(complete(_MASK, size, 0.5).tolist())
            except (TypeError, ValueError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_operator_index_is_called_only_in_as_int(self):
        assert _use_sites("operator", "index", "operator") == ["masks.as_int"]


def _package_sources():
    """(module name, parsed source) of every module of the package."""
    return [
        (path.stem, ast.parse(path.read_text()))
        for path in sorted(Path(maskcomplete.__file__).parent.glob("*.py"))
    ]


def _use_sites(owner, attr, source):
    """Functions of the package that use ``owner.attr`` or import from ``source``."""
    sites = []
    for module, tree in _package_sources():
        finder = _UseSites(module, owner, attr, source)
        finder.visit(tree)
        sites += finder.sites
    return sites


class _UseSites(ast.NodeVisitor):
    """Functions of one module that use ``owner.attr`` or import from ``source``."""

    def __init__(self, module, owner, attr, source):
        self.scope, self.sites = [module], []
        self.target, self.source = (owner, attr), source

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and (node.value.id, node.attr) == self.target:
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == self.source:
            self.sites.append(".".join(self.scope) + f": from {self.source} import")


# Every pair argument of the library: (call with the value v, the name its
# errors give, the least entry accepted, a valid value).
PAIR_ARGUMENTS = {
    "trial canvas": (
        lambda v: guarantee_trial(3, v, 0.3, _MODEL), "canvas", 1, (20, 26)
    ),
    "shape canvas": (
        lambda v: generate_shape_mask("square", 3, None, v), "canvas", 1, (20, 26)
    ),
    "anchor": (
        lambda v: generate_shape_mask("square", 3, v, (20, 20)), "anchor", 0, (2, 5)
    ),
}


class TestPairArguments:
    """Canvases and anchors are read by one reader: exactly two checked integers."""

    @pytest.mark.parametrize(
        "value",
        [(20,), (20, 20, 5), 20, np.int64(20), (), np.array([20, 20, 5]),
         np.array([[20, 20], [20, 20], [20, 20]])],
        ids=["one", "three", "scalar", "numpy-scalar", "empty", "numpy-three",
             "numpy-rows"],
    )
    @pytest.mark.parametrize("site", PAIR_ARGUMENTS)
    def test_not_two_entries_raise_value_error(self, site, value):
        call, name, _, _ = PAIR_ARGUMENTS[site]
        message = f"^{name} must be two integers, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            call(value)

    # INTEGER_ARGUMENTS' rows for these sites cover bool, float, str and
    # Fraction entries; this checks the range of each of the two entries.
    @pytest.mark.parametrize("at", [0, 1])
    @pytest.mark.parametrize("site", PAIR_ARGUMENTS)
    def test_entries_below_least_raise_value_error(self, site, at):
        call, name, least, valid = PAIR_ARGUMENTS[site]
        value = list(valid)
        value[at] = least - 1
        with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
            call(tuple(value))

    @pytest.mark.parametrize(
        "cast",
        [list, np.array, lambda v: np.array(v, dtype=np.uint8)],
        ids=["list", "numpy", "numpy-uint8"],
    )
    @pytest.mark.parametrize("site", PAIR_ARGUMENTS)
    def test_any_two_integers_read_alike(self, site, cast):
        call, _, _, valid = PAIR_ARGUMENTS[site]
        expected = call(valid)
        got = call(cast(valid))
        if isinstance(expected, np.ndarray):
            assert np.array_equal(got, expected)
        else:
            # A trial record: equal, and field by field of the same type.
            assert got == expected
            assert list(map(type, vars(got).values())) == list(
                map(type, vars(expected).values())
            )

    def test_canvas_and_anchor_entries_are_read_only_by_as_pair(self):
        reads = [
            f"{module}:{node.lineno}"
            for module, tree in _package_sources()
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("canvas", "anchor")
        ]
        assert reads == []


# Masks the readers reject, each with the message of as_mask's own error.
MALFORMED_MASKS = {
    "float-0-1": np.array([[0.0, 1.0], [1.0, 1.0]]),
    "float-1.5": np.array([[1.5, 0.0]]),
    "str": [["1", "0"]],
    "empty": np.zeros((0, 3), dtype=np.uint8),
    "1-D": [0, 1, 1],
    "3-D": np.zeros((2, 2, 2), dtype=np.uint8),
    "value-2": [[0, 2]],
    "timedelta": np.array([[0, 1]], dtype="m8[s]"),
}

# Every entry point that reads a mask, called with size 1 and threshold g.
MASK_READERS = {
    "complete_single_size": lambda m, g: complete_single_size(m, 1, g),
    "complete_fixed_gamma": lambda m, g: complete_fixed_gamma(m, [1], g)[0],
    "oracle_complete_single": lambda m, g: oracle_complete_single(m, 1, g),
    "oracle_complete_multi": lambda m, g: oracle_complete_multi(m, [1], g),
    "oracle_min_distance": lambda m, g: oracle_min_distance(m, 1),
}


class TestMaskArgument:
    """The engine and the oracle read masks through as_mask, before anything else."""

    @pytest.mark.parametrize("gamma", [0.5, True], ids=["gamma", "bad-gamma"])
    @pytest.mark.parametrize("mask", MALFORMED_MASKS)
    def test_engine_and_oracle_reject_alike(self, mask, gamma):
        with pytest.raises(ValueError) as expected:
            as_mask(MALFORMED_MASKS[mask])
        for site, call in MASK_READERS.items():
            with pytest.raises(ValueError) as raised:
                call(MALFORMED_MASKS[mask], gamma)
            assert str(raised.value) == str(expected.value), site

    def test_bool_masks_are_accepted(self):
        mask = np.array([[True, False, True], [True, True, False]])
        for site, call in MASK_READERS.items():
            assert repr(call(mask, 0.5)) == repr(call(mask.astype(np.uint8), 0.5)), site

    def test_engine_and_oracle_read_sizes_in_one_order(self):
        # A bad size comes before a bad gamma, for both sides.
        for call in (complete_fixed_gamma, oracle_complete_multi):
            with pytest.raises(ValueError, match="^duplicate patch sizes"):
                call(_MASK, (1, 1), 0.5)
            with pytest.raises(TypeError, match="^patch size must be an integer"):
                call(_MASK, (1.5,), True)
        for call in (complete_single_size, oracle_complete_single):
            with pytest.raises(TypeError, match="^patch size must be an integer"):
                call(_MASK, 1.5, True)

    @pytest.mark.parametrize("gamma", [0.5, True, 1.0, "0.3", None])
    @pytest.mark.parametrize("mask", [None, "float-1.5", "1-D", "value-2"])
    def test_single_size_calls_fail_alike(self, mask, gamma):
        # The single size goes through as_int, the size set through
        # normalize_sizes: both say "patch size ..." for every bad size.
        observed = _MASK if mask is None else MALFORMED_MASKS[mask]
        calls = {
            "complete_single_size": complete_single_size,
            "complete_fixed_gamma": lambda m, s, g: complete_fixed_gamma(m, (s,), g)[0],
            "oracle_complete_single": oracle_complete_single,
        }
        for size in (3, 0, -2, 2.5, True, "3", [3], None, 10**20):
            outcomes = {}
            for site, call in calls.items():
                try:
                    outcomes[site] = repr(call(observed, size, gamma))
                except (TypeError, ValueError) as e:
                    outcomes[site] = f"{type(e).__name__}: {e}"
            assert len(set(outcomes.values())) == 1, (size, outcomes)

    def test_np_asarray_is_called_only_in_masks(self):
        assert _use_sites("np", "asarray", "numpy") == ["masks.as_mask"]

    def test_every_sum_method_names_a_dtype_that_holds_the_count(self):
        # A pixel count is np.count_nonzero, or a sum along an axis in the
        # dtype np.min_scalar_type gives for the entries summed (TestBands
        # checks the counts past 255); the oracle's built-in sum() calls are
        # no method calls.
        calls = [
            f"{module}:{node.lineno}"
            for module, tree in _package_sources()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "sum"
            and not any(
                k.arg == "dtype"
                and ast.unparse(k.value).startswith("np.min_scalar_type(")
                for k in node.keywords
            )
        ]
        assert calls == []


class TestGammaArgument:
    """One reader decides every threshold, for the engine and the oracle alike."""

    @pytest.mark.parametrize(
        "gamma",
        [False, True, np.bool_(True), "0.3", None, Decimal("0.3"),
         np.float32(0.3), np.float32("nan"), Fraction(3, 10), 0, 0.0, 0.999, 1.0,
         -0.1, float("nan"), float("inf")],
    )
    def test_engine_and_oracle_read_gammas_alike(self, gamma):
        outcomes = []
        for complete in (complete_single_size, oracle_complete_single):
            try:
                outcomes.append(complete(_MASK, 3, gamma).tolist())
            except (TypeError, ValueError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


class TestIntegralImage:
    def test_zero_mask(self):
        table = table_of(np.zeros((3, 3), dtype=np.uint8))
        assert table.shape == (4, 4)
        assert not table.any()

    def test_all_ones_2x2(self):
        table = less_row_constants(table_of(np.ones((2, 2), dtype=np.uint8)))
        assert table[0, 0] == 4
        assert table[1, 1] == 1

    def test_zero_border(self, rng):
        # The last row is zero; the last col holds only the row constants.
        mask = random_mask(rng, 6, 9)
        table = table_of(mask)
        assert not table[-1].any()
        assert np.array_equal(less_row_constants(table), reference_table(mask))

    def test_matches_double_sum(self, rng):
        mask = random_mask(rng, 8, 8)
        table = table_of(mask)
        for i in range(9):
            for j in range(9):
                direct = sum(
                    int(mask[r, c]) for r in range(i, 8) for c in range(j, 8)
                )
                extra = int(table[i, j]) - int(table[i, -1])
                assert extra % 2 ** (8 * table.itemsize) == direct
        assert np.array_equal(less_row_constants(table), reference_table(mask))

    def test_total_equals_popcount(self, rng):
        mask = random_mask(rng, 11, 7, density=0.3)
        assert less_row_constants(table_of(mask))[0, 0] == np.count_nonzero(mask)

    @settings(max_examples=50)
    @given(mask=small_masks)
    def test_monotone_rows_and_cols(self, mask):
        # At most 144 ones: no entry wraps, so less its row constants the
        # table falls down the rows and along the cols, and equals the
        # unwrapped reference.
        table = less_row_constants(table_of(mask))
        assert np.array_equal(table, reference_table(mask))
        assert (np.diff(table, axis=0) <= 0).all()
        assert (np.diff(table, axis=1) <= 0).all()

    def test_peak_memory_is_the_table_alone(self):
        # A 2-byte table for sizes up to 255, its rows unpadded.
        mask = np.ones((512, 512), dtype=np.uint8)
        tracemalloc.start()
        try:
            table = _summed_area(mask, 255)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.dtype == np.uint16
        assert np.array_equal(less_row_constants(table), reference_table(mask) % 2**16)
        assert peak <= 2 * 513 * 513 + 4 * 1024

    def test_fill_allocates_no_plane(self, rng):
        # Both passes run in place as adds whose read operand lies ahead of
        # the written one, which numpy takes without copying it: the row
        # pass over the new rows' flat block, the column pass over rows.
        mask = random_mask(rng, 512, 512, density=0.5)
        table = _zero_table(512, 512, 255)
        tracemalloc.start()
        try:
            _fill(table, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.dtype == np.uint16
        assert np.array_equal(less_row_constants(table), reference_table(mask) % 2**16)
        assert peak <= 4 * 1024

    def test_the_new_rows_last_col_may_hold_anything(self, rng, row_pass):
        # Whatever it holds adds one constant to each row, which every
        # window count cancels, so a band buffer's stale col needs no zeros.
        mask = random_mask(rng, 40, 30)
        table = _zero_table(40, 30, 30)
        table[:-1, -1] = rng.integers(0, 2**16, 40)
        _fill(table, mask)
        assert np.array_equal(less_row_constants(table), reference_table(mask))

    def test_fill_refuses_a_table_that_is_not_c_contiguous(self):
        # reshape(-1) would copy such a block, and the row pass sum the copy.
        table = _zero_table(4, 8, 3)[:, :5]
        with pytest.raises(ValueError, match="C-contiguous"):
            _fill(table, np.ones((4, 4), dtype=np.uint8))
        assert not table.any()

    @pytest.mark.parametrize(
        "largest,dtype",
        [
            (0, np.uint8),
            (1, np.uint8),
            (15, np.uint8),
            (16, np.uint16),
            (255, np.uint16),
            (256, np.uint32),
            (65535, np.uint32),
            (65536, np.uint64),
        ],
    )
    def test_smallest_unsigned_dtype_that_holds_the_largest_window(self, largest, dtype):
        # A window of side s holds at most s² ones: 15² = 225 fits a byte,
        # 16² = 256 does not; 255² = 65025 fits two bytes, 256² does not.
        assert _summed_area(np.eye(2, dtype=np.uint8), largest).dtype == dtype

    @pytest.mark.parametrize(
        "side,largest,dtype", [(300, 255, np.uint16), (40, 15, np.uint8)]
    )
    def test_window_sums_are_exact_when_the_table_wraps(self, side, largest, dtype):
        # The corner of an all-ones table, side², wraps past the dtype's
        # range, yet every window up to the largest holds exactly s² ones.
        table = _summed_area(np.ones((side, side), dtype=np.uint8), largest)
        assert table.dtype == dtype
        assert less_row_constants(table)[0, 0] == side * side % 2 ** (8 * table.itemsize)
        for s in sorted({1, 2, largest // 2, largest - 1, largest}):
            ones = _ones(table, s)
            assert ones.dtype == dtype and ones.shape == (side - s + 1,) * 2
            assert (ones == s * s).all()

    @pytest.mark.parametrize("largest", [15, 16, 255])
    def test_wrapped_window_sums_equal_an_int64_reference(self, rng, largest):
        mask = random_mask(rng, 300, 280, density=0.8)
        wide = reference_table(mask)
        table = _summed_area(mask, largest)
        assert np.array_equal(less_row_constants(table), wide % 2 ** (8 * table.itemsize))
        for s in (1, 7, largest):
            want = wide[:-s, :-s] - wide[s:, :-s] - wide[:-s, s:] + wide[s:, s:]
            assert np.array_equal(_ones(table, s), want)


def window_sum(table, s, i, j):
    """Ones inside the s×s window at (i, j), by a four-corner lookup.

    Row i counts the ones from the window's top row down and row i + s
    those below it, each from col j on less from col j + s on; a row's
    constant cancels in each difference.  The table wraps modulo 2^bits,
    so the difference is taken modulo the same; the window's count lies
    below it.
    """
    corners = table[i, j], table[i + s, j], table[i, j + s], table[i + s, j + s]
    a, b, c, d = (int(v) for v in corners)
    return (a - b - c + d) % 2 ** (8 * table.itemsize)


class TestWindowSum:
    def test_all_ones(self):
        table = table_of(np.ones((4, 4), dtype=np.uint8))
        for i in range(3):
            for j in range(3):
                assert window_sum(table, 2, i, j) == 4

    def test_all_zeros(self):
        table = table_of(np.zeros((5, 7), dtype=np.uint8))
        assert window_sum(table, 3, 1, 2) == 0

    @pytest.mark.parametrize("size", [1, 3, 7, 10])
    def test_matches_per_window_popcount(self, rng, size):
        mask = random_mask(rng, 10, 10)
        table, reference = table_of(mask), reference_table(mask)
        for i in range(10 - size + 1):
            for j in range(10 - size + 1):
                direct = int(mask[i : i + size, j : j + size].sum())
                assert window_sum(table, size, i, j) == direct
                assert window_sum(reference, size, i, j) == direct


class TestHammingToCandidate:
    """Distances from the engine's ones plane: one per window top-left corner."""

    def test_identical_patch_is_zero(self):
        mask = np.zeros((9, 9), dtype=np.uint8)
        mask[2:6, 3:7] = 1
        dist = window_distances(mask, 4)
        assert dist.shape == (6, 6)
        assert dist[2, 3] == 0
        assert np.count_nonzero(dist == 0) == 1

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_empty_mask_is_s_squared(self, size):
        mask = np.zeros((6, 6), dtype=np.uint8)
        dist = window_distances(mask, size)
        assert (dist == size * size).all()

    def test_matches_xor_popcount(self, rng):
        mask = random_mask(rng, 12, 12)
        for size in range(1, 13):
            dist = window_distances(mask, size)
            assert dist.shape == (13 - size, 13 - size)
            for row in range(13 - size):
                for col in range(13 - size):
                    patch = np.zeros((12, 12), dtype=np.uint8)
                    patch[row : row + size, col : col + size] = 1
                    assert dist[row, col] == int((mask ^ patch).sum())


class TestFlipEquivariance:
    """Window sums of a flipped mask at flipped candidates match the originals."""

    def test_horizontal_and_vertical(self, rng):
        mask = random_mask(rng, 9, 13)
        table = table_of(mask)
        table_h = table_of(mask[:, ::-1])
        table_v = table_of(mask[::-1, :])
        H, W = mask.shape
        for _ in range(50):
            size = int(rng.integers(1, 9))
            i = int(rng.integers(0, H - size + 1))
            j = int(rng.integers(0, W - size + 1))
            base = window_sum(table, size, i, j)
            assert window_sum(table_h, size, i, W - size - j) == base
            assert window_sum(table_v, size, H - size - i, j) == base
