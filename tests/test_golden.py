"""Golden digests: one SHA-256 per family of outputs.

Each family feeds a few hundred to a few thousand seeded calls into one
hash: every returned array by dtype, shape and bytes, every report field
in order, and every raised error by type and message.  A change that must
keep the outputs bit for bit is checked against the pinned digests; a
change that alters a family's outputs on purpose re-pins that family and
says which one, and why, in CHANGES.md.

Inputs are drawn from SHA-256 of the family name and the case index, not
from numpy's generator, so a numpy upgrade cannot move them.  Only
``guarantee_trial`` draws from numpy (PCG64), so its digest is pinned
beside the numpy version it was computed under.

    PYTHONPATH=src python tests/test_golden.py    # print every digest
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import edit_bytes
from maskcomplete import (
    GammaSchedule,
    complete_fixed_gamma,
    complete_single_size,
    decode_pbm,
    distance_cutoff,
    encode_pbm,
    gamma_search,
)
from maskcomplete.corruption import (
    CorruptionKind,
    CorruptionModel,
    corrupt_outcome,
    guarantee_trial,
)
from maskcomplete.masks import normalize_sizes
from maskcomplete.oracle import (
    oracle_complete_multi,
    oracle_complete_single,
    oracle_min_distance,
)
from maskcomplete.shapes import generate_shape_mask
from maskcomplete.cli import main

DIGESTS = {
    "cli_documents": "311a51bba1c262efebda23c46ffcc477916efabc30411b6672e6400612362028",
    "engine": "c7607484f3a632d8b63b82e15620fd63e67f61c0edb41519ab74b06fe09b1080",
    "invalid_calls": "b3fe3f4d046f48cd3a498aaf600305542940bf99f5e0f8215bbfb61fdccd2723",
    "pbm_decode": "829ed77cd6a69dc504a3250aa258e80d1e1f341aa98235a7a71325075dc474a7",
    "pbm_encode": "1dba0369dda4fb76a50128e952197149f777325f2b72f9de9f01a9e5063d39bf",
}
# (numpy version, digest): guarantee_trial draws its patch and damage from PCG64.
TRIAL_DIGEST = (
    "2.4.6", "3a70329091fc4fccaae05fd73619572a29d261cdfd16e8f1830b52a4c47424b1"
)


class Stream:
    """Deterministic draws: SHA-256 in counter mode over a key."""

    def __init__(self, *key):
        self._key = repr(key).encode()
        self._block = 0
        self._buf = b""

    def take(self, n):
        if len(self._buf) < n:
            blocks = range(self._block, self._block + (n - len(self._buf) + 31) // 32)
            self._buf += b"".join(
                hashlib.sha256(self._key + b.to_bytes(8, "big")).digest() for b in blocks
            )
            self._block = blocks.stop
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def int(self, lo, hi):
        """An integer in [lo, hi]."""
        return lo + int.from_bytes(self.take(4), "big") % (hi - lo + 1)

    def pick(self, options):
        return options[self.int(0, len(options) - 1)]

    def mask(self, h, w, density):
        """h×w uint8 mask whose pixels are 1 with probability density / 256."""
        bytes_ = np.frombuffer(self.take(h * w), np.uint8).reshape(h, w)
        return (bytes_ < density).astype(np.uint8)


def feed(digest, value):
    """Add one value: an array by dtype, shape and bytes, anything else by repr."""
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype}{value.shape}".encode())
        value = value.tobytes()
    else:
        value = repr(value).encode()
    digest.update(value + b"\x00")


def feed_call(digest, fn, *args):
    """Feed ``fn(*args)``'s return value, or the type and message it raised."""
    try:
        result = fn(*args)
    except Exception as exc:
        feed(digest, f"{type(exc).__name__}: {exc}")
        return
    for value in result if isinstance(result, tuple) else (result,):
        if dataclasses.is_dataclass(value):
            for field in dataclasses.fields(value):
                feed(digest, (field.name, getattr(value, field.name)))
        else:
            feed(digest, value)


# --- PBM codec -------------------------------------------------------------

# Whitespace runs and whole comment lines a P1 raster may hold between digits.
_GAPS = (b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"  \r\n", b"# c\n", b"#01 x\n")
# Edit bytes worth trying: digits, separators, a comment start, header-like junk.
_NEAR = b"01 \t\n#9-Px\xff"


def scattered_p1(r, mask):
    """A valid P1 file with whitespace and comments between header tokens and digits."""
    h, w = mask.shape
    seps = (b" ", b"\n", b"\t", b" # note\n", b"\r\n")
    parts = [b"P1", r.pick(seps), str(w).encode(), r.pick(seps), str(h).encode()]
    parts.append(r.pick(seps))
    for digit in (mask.reshape(-1) + ord("0")).tobytes():
        parts.append(bytes([digit]))
        if r.int(0, 3) == 0:
            parts.append(r.pick(_GAPS))
    if r.int(0, 1):
        parts.append(b"# trailing comment")
    return b"".join(parts)


def mutated(r, data):
    """``data`` with one to three bytes flipped, inserted or deleted."""
    edits = [
        (r.pick(("flip", "insert", "delete")), r.int(0, 10**4),
         r.pick(_NEAR) if r.int(0, 1) else r.int(0, 255))
        for _ in range(r.int(1, 3))
    ]
    return edit_bytes(data, edits)


def pbm_case(i):
    """Byte string ``i``: valid, scattered, mutated or arbitrary."""
    r = Stream("pbm_decode", i)
    h, w = r.int(1, 20), r.int(1, 40)
    mask = r.mask(h, w, r.int(0, 256))
    kind = i % 6
    if kind == 0:
        return encode_pbm(mask, "P4")
    if kind == 1:
        return encode_pbm(mask, "P1")
    if kind == 2:
        return scattered_p1(r, mask)
    if kind == 3:
        return mutated(r, encode_pbm(mask, r.pick(("P1", "P4"))))
    if kind == 4:
        return mutated(r, scattered_p1(r, mask))
    head = r.pick((b"", b"P1", b"P4", b"P1\n3 2\n", b"P4\n9 2\n", b"P4 3 1 "))
    return head + r.take(r.int(0, 24))


def family_pbm_decode(digest):
    for i in range(2400):
        feed_call(digest, decode_pbm, pbm_case(i))


def family_pbm_encode(digest):
    for i in range(600):
        r = Stream("pbm_encode", i)
        mask = r.mask(r.int(1, 24), r.int(1, 140), r.int(0, 256))
        feed(digest, encode_pbm(mask, "P1"))
        feed(digest, encode_pbm(mask, "P4"))


# --- engine ----------------------------------------------------------------


def engine_mask(r):
    """A blank, stray, planted or dense H×W mask, H and W in [1, 39]."""
    h, w = r.int(1, 39), r.int(1, 39)
    kind = r.int(0, 3)
    if kind == 0:
        return np.zeros((h, w), np.uint8)
    if kind == 1:
        return r.mask(h, w, r.int(1, 25))
    if kind == 3:
        return r.mask(h, w, r.int(140, 250))
    mask = np.zeros((h, w), np.uint8)
    p = r.int(1, min(h, w))
    top, left = r.int(0, h - p), r.int(0, w - p)
    mask[top : top + p, left : left + p] = 1
    for _ in range(r.int(0, p * p // 3)):
        mask[r.int(0, h - 1), r.int(0, w - 1)] ^= 1
    return mask


def engine_gamma(r):
    return r.pick((
        0, 0.0, 0.1, 0.37, 0.5, 0.9999, Fraction(r.int(0, 11), 12),
        r.int(0, 999) / 1000, np.float32(r.int(0, 99) / 100),
    ))


def engine_schedule(r):
    if r.int(0, 2) == 0:
        return GammaSchedule()
    return GammaSchedule(
        alpha=r.pick((0.5, 0.9, 0.99)),
        beta=r.pick((0.3, 0.7, 0.9, 0.99)),
        t_max=r.int(1, 60),
    )


def family_engine(digest):
    for i in range(1500):
        r = Stream("engine", i)
        mask = engine_mask(r)
        sizes = list(dict.fromkeys(r.int(1, 44) for _ in range(r.int(0, 4))))
        if i % 3 == 0:
            feed_call(digest, complete_single_size, mask, r.int(1, 44), engine_gamma(r))
        elif i % 3 == 1:
            feed_call(digest, complete_fixed_gamma, mask, sizes, engine_gamma(r))
        else:
            feed_call(digest, gamma_search, mask, sizes, engine_schedule(r))


def family_invalid_calls(digest):
    """Every pairing of good and bad masks, sizes and gammas, engine and oracle."""
    good = np.zeros((6, 7), np.uint8)
    good[1:5, 2:6] = 1
    good[2, 3] = 0
    masks = (
        good, [[True, False], [False, True]], np.array([[1, 0]], np.int64),
        [[0, 2]], np.zeros((2, 2, 2)), np.zeros((0, 3)), np.array([[0.0, 1.0]]), "01",
    )
    sizes = (3, np.int64(2), 10**20, 0, -2, 2.5, True, "3")
    size_sets = ((3,), (), (3, 1, 2), (4, 4), (0, 3), (2.5,), [True], "3", 5, None)
    gammas = (
        0.25, 0, Fraction(1, 3), np.float32(0.3), 1, 1.5, -0.1, math.nan, math.inf,
        True, "0.5", None, Decimal("0.5"),
    )
    for m in masks:
        for g in gammas:
            for s in sizes:
                feed_call(digest, complete_single_size, m, s, g)
                feed_call(digest, oracle_complete_single, m, s, g)
            for ss in size_sets:
                feed_call(digest, complete_fixed_gamma, m, ss, g)
                feed_call(digest, oracle_complete_multi, m, ss, g)
        for s in sizes:
            feed_call(digest, oracle_min_distance, m, s)
        for ss in size_sets:
            feed_call(digest, gamma_search, m, ss)
    for g in gammas:
        for s in sizes:
            feed_call(digest, distance_cutoff, g, s)
    for ss in size_sets:
        feed_call(digest, normalize_sizes, ss)
    for args in (
        (0, 0.7, 15), (1, 0.7, 15), (0.9, 1.5, 15), (0.9, 0.7, 0), (0.9, 0.7, 2.5),
        (0.9, 0.7, True), (math.nan, 0.7, 15),
    ):
        feed_call(digest, GammaSchedule, *args)
    for t in (0, 1, 15, 16, True, 2.0):
        feed_call(digest, GammaSchedule().gamma, t)
    for args in (("bogus", 3, 1), ("split-hole", -1, 1), ("split-hole", 3, True)):
        feed_call(digest, CorruptionModel, *args)
    model = CorruptionModel("erode-boundary", 3, 1)
    feed_call(digest, corrupt_outcome, np.zeros((4, 4), np.uint8), model)
    for s, canvas in ((4, (32,)), (9, (8, 8)), (4, (8, 0)), (4, "8x8"), (0, (8, 8))):
        feed_call(digest, guarantee_trial, s, canvas, 0.3, model)
    for args in (
        ("hexagon", 4, None, (8, 8)), ("square", 0, None, (8, 8)),
        ("square", 4, (6, 6), (8, 8)), ("square", 4, (1,), (8, 8)),
        ("circle", 40, None, (8, 8)), ("square", 4, None, (8, -1)),
    ):
        feed_call(digest, generate_shape_mask, *args)
    feed_call(digest, encode_pbm, good, "P5")


# --- corruption trials -----------------------------------------------------


def family_trials(digest):
    kinds = list(CorruptionKind)
    for i in range(1000):
        r = Stream("trials", i)
        s = r.int(1, 10)
        canvas = (r.int(s, 24), r.int(s, 24))
        gamma = r.pick((0.0, 0.1, 0.25, 0.3, 0.5, Fraction(1, 3)))
        model = CorruptionModel(kinds[i % 4], r.int(0, s * s), r.int(0, 2**63))
        feed_call(digest, guarantee_trial, s, canvas, gamma, model)


# --- command line ----------------------------------------------------------

# Report keys whose values are wall-clock measurements.
_TIMING = {"wall_time_ms", "dp_seconds", "oracle_seconds", "dp_area_ratio",
           "dp_size_spread", "oracle_growth"}


def family_cli_documents(digest):
    """Exit code, printed lines, written masks and reports of each subcommand.

    Timing values are dropped from the reports (their keys stay), and the
    working directory reads as ``<tmp>`` everywhere.
    """
    with tempfile.TemporaryDirectory() as workdir:
        cli_documents(digest, Path(workdir))


def cli_documents(digest, work):

    def run(name, *argv, output=True, report=True, printed=True):
        files = [work / f"{name}.pbm"] if output else []
        files += [work / f"{name}.json"] if report else []
        argv = [*argv, *(["-o", files[0]] if output else [])]
        argv += ["--report", files[-1]] if report else []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        feed(digest, (name, code, err.getvalue().replace(str(work), "<tmp>")))
        if printed:
            feed(digest, out.getvalue().replace(str(work), "<tmp>"))
        for path in files:
            if not path.exists():
                feed(digest, None)
            elif path.suffix == ".pbm":
                feed(digest, path.read_bytes())
            else:
                doc = json.loads(path.read_text().replace(str(work), "<tmp>"))
                feed(digest, _untimed(doc))

    run("gen", "gen", "--kind", "square", "--n", 12, "--canvas", "40x36",
        "--anchor", "5,7", report=False)
    run("gen1", "gen", "--kind", "triangle", "--n", 10, "--canvas", "24",
        "--format", "p1", report=False)
    for model, budget, fmt in (("uniform-flip", 20, "P4"), ("split-hole", 30, "P1")):
        run(f"obs-{fmt}", "corrupt", work / "gen.pbm", "--model", model,
            "--budget", budget, "--seed", 7, "--format", fmt)
    modes = (
        ("--sizes", "10,12,50"),
        ("--sizes", "8,12,16,60", "--t-max", 40, "--beta", "0.9"),
        ("--sizes", "12,16", "--fixed-gamma", "0.3"),
    )
    for fmt in ("P4", "P1"):
        for k, mode in enumerate(modes):
            for extra in ((), ("--union-ps", "--format", "P1")):
                run(f"complete-{fmt}-{k}-{len(extra)}", "complete",
                    work / f"obs-{fmt}.pbm", *mode, *extra)
    for model in CorruptionKind:
        run(f"trial-{model.value}", "trial", "--size", 8, "--canvas", "24x20",
            "--gamma", "0.3", "--model", model.value, "--trials", 5, "--seed", 3,
            output=False)
    run("bench", "bench", "--canvases", "16,24", "--sizes", "4,6", "--reps", 1,
        output=False, printed=False)


def _untimed(doc):
    if not isinstance(doc, dict):
        return doc
    return {k: "<time>" if k in _TIMING else _untimed(v) for k, v in doc.items()}


def compute(name):
    digest = hashlib.sha256()
    globals()[f"family_{name}"](digest)
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_family_digest(name):
    assert compute(name) == DIGESTS[name], f"{name} outputs changed"


def test_trial_digest():
    version, want = TRIAL_DIGEST
    assert compute("trials") == want, (
        f"TrialRecord outputs changed: pinned under numpy {version}, "
        f"running numpy {np.__version__}"
    )


if __name__ == "__main__":
    for name in sorted(DIGESTS):
        print(f'    "{name}": "{compute(name)}",')
    print(f'TRIAL_DIGEST = ("{np.__version__}", "{compute("trials")}")')
