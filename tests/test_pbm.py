"""PBM codec: golden bytes for both formats, round trips (including the
byte-padding edge cases), permissive header parsing, and strict error
handling on malformed input, arbitrary bytes included.
"""

import operator
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import edit_bytes, random_mask
from maskcomplete import PBMFormatError, decode_pbm, encode_pbm, read_pbm, write_pbm
from maskcomplete.cli import main

PATTERN_3X5 = np.array(
    [
        [1, 0, 1, 0, 1],
        [0, 1, 0, 1, 0],
        [1, 1, 1, 1, 1],
    ],
    dtype=np.uint8,
)


class TestGoldenBytes:
    def test_p1_encoding(self):
        want = b"P1\n5 3\n10101\n01010\n11111\n"
        assert encode_pbm(PATTERN_3X5, "P1") == want

    def test_p4_encoding(self):
        # rows pack MSB-first into one byte each: 10101000, 01010000, 11111000
        want = b"P4\n5 3\n" + bytes([0b10101000, 0b01010000, 0b11111000])
        assert encode_pbm(PATTERN_3X5, "P4") == want

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            encode_pbm(PATTERN_3X5, "P5")


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["P1", "P4"])
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17])
    def test_padding_widths(self, rng, fmt, width):
        mask = random_mask(rng, 5, width)
        assert np.array_equal(decode_pbm(encode_pbm(mask, fmt)), mask)

    def test_p4_raster_length(self, rng):
        mask = random_mask(rng, 3, 13)
        encoded = encode_pbm(mask, "P4")
        raster = encoded.split(b"\n", 2)[2]
        assert len(raster) == 3 * ((13 + 7) // 8)

    @settings(max_examples=150)
    @given(
        mask=arrays(
            np.uint8,
            st.tuples(st.integers(1, 40), st.integers(1, 40)),
            elements=st.integers(0, 1),
        ),
        fmt=st.sampled_from(["P1", "P4"]),
    )
    def test_identity(self, mask, fmt):
        assert np.array_equal(decode_pbm(encode_pbm(mask, fmt)), mask)

    def test_file_round_trip(self, rng, tmp_path):
        mask = random_mask(rng, 11, 19)
        path = tmp_path / "mask.pbm"
        write_pbm(mask, path, fmt="P1")
        assert np.array_equal(read_pbm(path), mask)
        write_pbm(mask, path, fmt="P4")
        assert np.array_equal(read_pbm(path), mask)

    def test_p1_peak_is_two_planes(self, rng):
        # The raster slice beside its digits, then the digits beside the
        # mask: never three planes at once.  A raster with no "#" is not
        # copied by the comment pass.
        mask = random_mask(rng, 512, 512)
        data = encode_pbm(mask, "P1")
        tracemalloc.start()
        try:
            out = decode_pbm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, mask)
        assert peak <= 2.1 * 512 * 512


class TestLenientParsing:
    def test_p1_with_comments_and_odd_whitespace(self):
        data = b"P1 # magic\n# a comment line\n  5\t3 \n1 0 1 0 1\n01010\r\n1#tail\n1111\n"
        assert np.array_equal(decode_pbm(data), PATTERN_3X5)

    def test_p1_fully_packed_digits(self):
        data = b"P1\n5 3\n101010101011111\n"
        assert np.array_equal(decode_pbm(data), PATTERN_3X5)

    def test_p4_with_header_comment(self):
        raster = bytes([0b10101000, 0b01010000, 0b11111000])
        data = b"P4\n# generated for a test\n5 3\n" + raster
        assert np.array_equal(decode_pbm(data), PATTERN_3X5)

    @pytest.mark.parametrize("sep", [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
    def test_p4_header_ends_with_any_header_whitespace(self, sep):
        # The same six bytes the header tokenizer skips.
        raster = bytes([0b10101000, 0b01010000, 0b11111000])
        assert np.array_equal(decode_pbm(b"P4\n5 3" + sep + raster), PATTERN_3X5)
        assert decode_pbm(b"P4\n1 1" + sep + b"\x80").tolist() == [[1]]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"P2\n2 2\n0 1 1 0\n",  # not a bitmap
            b"P6\n1 1\n\x00",
            b"P1\n0 3\n",  # zero dimension
            b"P1\n2\n0 1",  # missing height
            b"P1\n2 2\n0 1 1\n",  # short raster
            b"P1\n2 2\n0 1 1 0 1\n",  # long raster
            b"P1\n2 2\n0 1 1 x\n",  # junk character
            b"P4\n9 2\n\x00\x00\x00",  # short raster (needs 4 bytes)
            b"P4\n9 2\n\x00\x00\x00\x00\x00",  # trailing junk
            b"P1\n-2 2\n0 1 1 0\n",  # negative dimension
        ],
    )
    def test_raises_format_error(self, data):
        with pytest.raises(PBMFormatError):
            decode_pbm(data)

    @pytest.mark.parametrize("data", [b"P4\n1 1", b"P4 1 1#\n\x80"])
    def test_p4_header_must_end_with_one_whitespace_byte(self, data):
        # End of data, and a comment straight after the height: any other
        # byte there would extend the height token.
        with pytest.raises(PBMFormatError, match="P4 header must end with one whitespace"):
            decode_pbm(data)

    def test_format_error_is_a_value_error(self):
        assert issubclass(PBMFormatError, ValueError)

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_pbm(tmp_path / "nope.pbm")


_ENCODED = st.builds(
    encode_pbm,
    arrays(
        np.uint8,
        st.tuples(st.integers(1, 12), st.integers(1, 20)),
        elements=st.integers(0, 1),
    ),
    st.sampled_from(["P1", "P4"]),
)
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "insert", "delete"]),
        st.integers(0, 10**4),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=4,
)
# Arbitrary bytes, a PBM header followed by arbitrary bytes, valid encodings,
# and valid encodings with bytes flipped, inserted or deleted.
ANY_BYTES = st.one_of(
    st.binary(max_size=64),
    st.builds(
        operator.add,
        st.sampled_from([b"P1\n", b"P4\n", b"P1 3 2\n", b"P4 9 2\n", b"P4\n3 1\n"]),
        st.binary(max_size=32),
    ),
    _ENCODED,
    st.builds(edit_bytes, _ENCODED, _EDITS),
)


@pytest.fixture(scope="module")
def bytes_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bytes")


class TestArbitraryBytes:
    """Any byte string decodes to a mask or raises PBMFormatError, never more."""

    @settings(max_examples=400, deadline=None)
    @given(data=ANY_BYTES)
    def test_mask_or_format_error(self, data):
        try:
            mask = decode_pbm(data)
        except PBMFormatError:
            return
        assert mask.dtype == np.uint8 and mask.ndim == 2
        assert mask.flags.c_contiguous
        assert np.all(mask <= 1)

    @settings(max_examples=100, deadline=None)
    @given(data=ANY_BYTES)
    def test_complete_exits_0_or_3(self, bytes_dir, data):
        path = bytes_dir / "in.pbm"
        path.write_bytes(data)
        argv = ["complete", str(path), "-o", str(bytes_dir / "out.pbm"), "--sizes", "2,3"]
        assert main(argv) in (0, 3)


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, rng, tmp_path):
        path = tmp_path / "out.pbm"
        write_pbm(random_mask(rng, 4, 4), path)
        assert [p.name for p in tmp_path.iterdir()] == ["out.pbm"]

    def test_overwrites_existing(self, rng, tmp_path):
        path = tmp_path / "out.pbm"
        first = random_mask(rng, 4, 4)
        second = 1 - first
        write_pbm(first, path)
        write_pbm(second, path)
        assert np.array_equal(read_pbm(path), second)

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_follows_the_umask(self, rng, tmp_path, umask, mode):
        path = tmp_path / "out.pbm"
        old = os.umask(umask)
        try:
            write_pbm(random_mask(rng, 4, 4), path)
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == mode
