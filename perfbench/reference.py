"""Independent reference answers and output checks for the benchmark.

The reference shares no code with the program.  Window sums come from
scipy's running-sum box filter and the cover step from its running-max
filter, both separable, so the algorithm differs from the program's
summed-area tables.  ``test_perfbench.py`` checks this reference against
the program's brute-force oracle on small masks.
"""

import json
import re
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import ndimage

# The CLI's default threshold schedule: gamma_t = 1 - 0.9 * 0.7**(t-1).
T_MAX = 15
_ALPHA = Fraction(9, 10)
_BETA = Fraction(7, 10)

_PBM_HEADER = re.compile(rb"\A(P[14])\s+(\d+)\s+(\d+)\s")


def schedule_gamma(t):
    """Exact threshold of schedule step t (1-based); step 0 is gamma 0."""
    return 1 - _ALPHA * _BETA ** (t - 1) if t > 0 else Fraction(0)


def cutoff(gamma, size):
    """Largest window distance accepted at ``gamma`` for an s-by-s patch."""
    return int(Fraction(gamma) * size * size)


def window_distances(mask, size):
    """Hamming distance from ``mask`` to the filled window at each top-left corner."""
    H, W = mask.shape
    x = mask.astype(np.float64)
    for axis in (0, 1):
        x = ndimage.uniform_filter1d(x, size, axis=axis, mode="constant", origin=-(size // 2))
    inside = np.rint(x[: H - size + 1, : W - size + 1] * (size * size)).astype(np.int64)
    return size * size + int(mask.sum(dtype=np.int64)) - 2 * inside


class Expected(NamedTuple):
    """What one completion must produce, and the threshold of its last pass."""

    mask: np.ndarray
    attack_found: bool
    gamma_used: float | None
    iterations_run: int
    last_gamma: Fraction


class Reference:
    """Completion of one observed mask over a set of patch sizes."""

    def __init__(self, mask, sizes):
        self.shape = mask.shape
        H, W = mask.shape
        self.dist = {s: window_distances(mask, s) for s in sizes if s <= H and s <= W}

    def stop_step(self):
        """First schedule step with an accepted window, or None."""
        for t in range(1, T_MAX + 1):
            g = schedule_gamma(t)
            if any(int(d.min()) <= cutoff(g, s) for s, d in self.dist.items()):
                return t
        return None

    def completion(self, gamma):
        """Union over sizes of every pixel inside an accepted window."""
        out = np.zeros(self.shape, dtype=np.uint8)
        for s, d in self.dist.items():
            plane = np.zeros(self.shape, dtype=np.uint8)
            plane[: d.shape[0], : d.shape[1]] = d <= cutoff(gamma, s)
            for axis in (0, 1):
                plane = ndimage.maximum_filter1d(
                    plane, s, axis=axis, mode="constant", origin=(s - 1) // 2
                )
            out |= plane
        return out

    def search(self):
        """Expected outcome of the default threshold schedule."""
        t = self.stop_step()
        if t is None:
            empty = np.zeros(self.shape, dtype=np.uint8)
            return Expected(empty, False, None, T_MAX, schedule_gamma(T_MAX))
        g = schedule_gamma(t)
        return Expected(self.completion(g), True, float(g), t, g)

    def fixed(self, gamma):
        """Expected outcome of a single pass at ``gamma`` (a float)."""
        g = Fraction(gamma)
        out = self.completion(g)
        found = bool(out.any())
        return Expected(out, found, gamma if found else None, 1, g)


def encode_pbm(mask, fmt):
    """PBM bytes of a mask; P1 rows are cut into 64-digit lines."""
    H, W = mask.shape
    header = f"{fmt}\n{W} {H}\n".encode("ascii")
    if fmt == "P4":
        return header + np.packbits(mask, axis=1).tobytes()
    digits = (mask + ord("0")).astype(np.uint8)
    lines = [row[k : k + 64].tobytes() for row in digits for k in range(0, W, 64)]
    return header + b"\n".join(lines) + b"\n"


def decode_pbm(data):
    """Mask held in PBM bytes without header comments."""
    m = _PBM_HEADER.match(data)
    if m is None:
        raise ValueError("not a PBM file")
    fmt, W, H = m.group(1), int(m.group(2)), int(m.group(3))
    raster = np.frombuffer(data, dtype=np.uint8, offset=m.end())
    if fmt == b"P4":
        return np.unpackbits(raster.reshape(H, -1), axis=1)[:, :W]
    bits = raster[(raster == ord("0")) | (raster == ord("1"))] - ord("0")
    return bits.reshape(H, W)


def check_completion(expected, out_path, report_path, exit_code, gt=None, gt_size=0, damage=0):
    """Problems found in one ``complete`` call's outputs; empty when correct.

    ``gt`` is the ground-truth mask of one ``gt_size`` square patch (or
    None) and ``damage`` its Hamming distance to the observation.  Whenever that damage is within
    the cutoff of the last threshold tried, the written mask must cover the
    ground truth: the coverage guarantee, checked apart from exactness.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    with open(out_path, "rb") as fh:
        out = decode_pbm(fh.read())
    with open(report_path, encoding="utf-8") as fh:
        result = json.load(fh)["result"]
    if out.shape != expected.mask.shape:
        return [f"output shape {out.shape}, expected {expected.mask.shape}"]
    problems = []
    wrong = int(np.count_nonzero(out != expected.mask))
    if wrong:
        problems.append(f"{wrong} output pixels differ from the reference")
    got = (result["attack_found"], result["gamma_used"], result["iterations_run"])
    want = (expected.attack_found, expected.gamma_used, expected.iterations_run)
    if got != want:
        problems.append(f"report (attack_found, gamma_used, iterations_run) = {got}, expected {want}")
    if gt is not None:
        if damage <= cutoff(expected.last_gamma, gt_size) and np.any(gt > out):
            problems.append("coverage guarantee violated: ground truth not covered")
    return problems
