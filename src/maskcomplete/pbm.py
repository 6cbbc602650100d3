"""Reading and writing masks as netpbm bitmap files (PBM).

Both the plain-text (P1) and raw (P4) variants are supported.  Bit 1 is a
patch pixel, which PBM renders as black.  P4 rasters pack each row into
ceil(W / 8) bytes, most significant bit first, exactly as ``np.packbits``
does.  Writes go through a temp-file-then-rename so readers never observe
a half-written file.

One regular expression tokenizes the header.  Each raster is decoded by
operations on the whole byte string.  A P1 raster loses its comments and
its newlines; without comments the newlines go from the whole file's
bytes and the pixels are read past the header, so no copy of the raster
is sliced off first.  An XOR with ``0`` maps each digit to its pixel and
any other byte above 1; only a raster left with such a byte has its
other whitespace deleted, and then the first byte that is not ``0`` or
``1`` is reported.  A P4 raster is unpacked to exactly W columns.  Both
return a C-contiguous uint8 array.  The P1 writer fills one buffer in
place: the header, then each row as lines of 64 digits and a tail line,
each digit added to ``0`` and each line ended by a newline through
strided views.
"""

import contextlib
import os
import re

import numpy as np

from .masks import as_mask

__all__ = [
    "PBMFormatError",
    "encode_pbm",
    "decode_pbm",
    "read_pbm",
    "write_pbm",
    "atomic_write_bytes",
]

_WHITESPACE = b" \t\n\r\x0b\x0c"


class PBMFormatError(ValueError):
    """Raised when bytes do not form a well-formed PBM file."""


def encode_pbm(mask, fmt="P4") -> bytes:
    """Serialize a mask as PBM bytes in the requested format (P1 or P4)."""
    m = as_mask(mask)
    H, W = m.shape
    fmt = fmt.upper()
    header = f"{fmt}\n{W} {H}\n".encode("ascii")
    if fmt == "P4":
        return header + np.packbits(m, axis=1).tobytes()
    if fmt == "P1":
        # A newline after every 64 digits and at each row's end keeps
        # plain-format lines within the traditional 70-char limit: a row
        # is k full lines of 65 bytes, then a tail line of 1-64 digits.
        k = (W - 1) // 64
        buf = np.empty(len(header) + H * (W + k + 1), np.uint8)
        buf[: len(header)] = np.frombuffer(header, np.uint8)
        rows = buf[len(header) :].reshape(H, W + k + 1)
        lines = rows[:, : 65 * k].reshape(H, k, 65)
        np.add(m[:, : 64 * k].reshape(H, k, 64), ord("0"), out=lines[:, :, :64])
        lines[:, :, 64] = ord("\n")
        np.add(m[:, 64 * k :], ord("0"), out=rows[:, 65 * k : -1])
        rows[:, -1] = ord("\n")
        return buf.tobytes()
    raise ValueError(f"format must be 'P1' or 'P4', got {fmt!r}")


# Skips whitespace and # comments, then captures one header token.
_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\n]*)*([^ \t\n\r\x0b\x0c#]*)")


def _token(data, pos):
    """The header token after ``pos``, and the position just past it."""
    match = _TOKEN.match(data, pos)
    if not match.group(1):
        raise PBMFormatError("unexpected end of header")
    return match.group(1), match.end()


def _int_token(data, pos):
    tok, pos = _token(data, pos)
    if not tok.isdigit():
        raise PBMFormatError(f"expected an integer in header, got {tok!r}")
    return int(tok), pos


def decode_pbm(data: bytes) -> np.ndarray:
    """Parse PBM bytes (P1 or P4) into an H×W uint8 mask."""
    data = bytes(data)
    magic, pos = _token(data, 0)
    if magic not in (b"P1", b"P4"):
        raise PBMFormatError(f"not a PBM file (magic {magic!r})")
    width, pos = _int_token(data, pos)
    height, pos = _int_token(data, pos)
    if width < 1 or height < 1:
        raise PBMFormatError(f"bad dimensions {width}x{height}")

    if magic == b"P1":
        # One name for every stage, so each copy is freed once the next is
        # made; the comment and whitespace passes run only when needed.  The
        # header before ``pos`` loses its newlines with the raster, so without
        # comments the raster is read from ``data`` at the header's kept
        # length, with no copy of it sliced off first.
        head, digits = data[:pos], data
        if data.find(b"#", pos) >= 0:
            head, digits = b"", re.sub(rb"#[^\n]*", b"", data[pos:])
        digits = digits.replace(b"\n", b"")
        start = len(head) - head.count(b"\n")
        # b"0" is 0x30 and b"1" is 0x31: XOR with 0x30 maps each digit to its
        # pixel and every other byte above 1.
        pixels = np.frombuffer(digits, np.uint8, offset=start) ^ ord("0")
        if pixels.max(initial=0) > 1:
            # Other whitespace, or junk: free these pixels, delete the
            # whitespace, and report the first byte still above 1.
            del pixels
            digits = digits.translate(None, _WHITESPACE)
            start = len(head.translate(None, _WHITESPACE))
            pixels = np.frombuffer(digits, np.uint8, offset=start) ^ ord("0")
            if pixels.max(initial=0) > 1:
                at = start + int(np.argmax(pixels > 1))
                raise PBMFormatError(
                    f"unexpected byte {digits[at : at + 1]!r} in P1 raster"
                )
        if pixels.size != width * height:
            raise PBMFormatError(
                f"P1 raster holds {pixels.size} bits, expected {width * height}"
            )
        return pixels.reshape(height, width)

    # P4: a single whitespace byte, any the tokenizer skips, separates the
    # header from the raster.
    if pos == len(data) or data[pos] not in _WHITESPACE:
        raise PBMFormatError("P4 header must end with one whitespace byte")
    raster = data[pos + 1 :]
    row_bytes = (width + 7) // 8
    expected = row_bytes * height
    if len(raster) != expected:
        raise PBMFormatError(
            f"P4 raster holds {len(raster)} bytes, expected {expected}"
        )
    packed = np.frombuffer(raster, dtype=np.uint8).reshape(height, row_bytes)
    return np.unpackbits(packed, axis=1, count=width)


def atomic_write_bytes(path, data: bytes):
    """Write bytes to ``path`` via a temp file + rename in the same dir.

    The file gets the mode any new file gets, 0o666 less the umask.  A
    failed write leaves no temp file, and its OSError names ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:
        fd = os.open(tmp, flags, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


def read_pbm(path) -> np.ndarray:
    """Load a mask from a PBM file."""
    with open(path, "rb") as fh:
        return decode_pbm(fh.read())


def write_pbm(mask, path, fmt="P4"):
    """Write a mask to a PBM file atomically."""
    atomic_write_bytes(path, encode_pbm(mask, fmt=fmt))
