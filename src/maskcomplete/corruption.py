"""Seeded corruption of ground-truth patch masks.

Each model produces an observation at a bounded Hamming distance from the
input, emulating the ways an upstream detector under-segments a patch:
random bit noise, eaten boundaries, spill-over around the edge, or a missed
interior region.  All randomness flows through numpy's PCG64 generator
seeded from the model, so identical inputs give bitwise identical outputs.
"""

import enum
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .completion import complete_single_size, distance_cutoff
from .masks import as_gamma, as_int, as_mask, as_pair

__all__ = [
    "DEFAULT_SEED",
    "CorruptionKind",
    "CorruptionModel",
    "CorruptionOutcome",
    "TrialRecord",
    "corrupt_outcome",
    "guarantee_trial",
]

DEFAULT_SEED = 0xC0FFEE


class CorruptionKind(enum.Enum):
    UNIFORM_FLIP = "uniform-flip"
    ERODE_BOUNDARY = "erode-boundary"
    DILATE_OUTSIDE = "dilate-outside"
    SPLIT_HOLE = "split-hole"


@dataclass(frozen=True)
class CorruptionModel:
    """A corruption kind with its Hamming budget and rng seed."""

    kind: CorruptionKind
    budget: int
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "kind", CorruptionKind(self.kind))
        object.__setattr__(self, "budget", as_int(self.budget, "budget", 0))
        object.__setattr__(self, "seed", as_int(self.seed, "seed", 0))


@dataclass(frozen=True)
class CorruptionOutcome:
    """Corrupted mask plus the exact damage done."""

    mask: np.ndarray
    hamming: int
    clamped: bool


@dataclass(frozen=True)
class TrialRecord:
    """What one coverage-guarantee trial measured (see :func:`guarantee_trial`)."""

    patch_row: int
    patch_col: int
    hamming: int
    clamped: bool
    within_budget: bool
    passed: bool


def _frontier(mask, value):
    """Pixels not equal to ``value`` that are 4-adjacent to one that is.

    The image border reads 0, so with ``value`` 0 the frontier is the
    patch's inner boundary (its 1-pixels next to a 0 or the edge), and with
    ``value`` 1 its outer boundary (the 0-pixels next to a 1).
    """
    p = np.full((mask.shape[0] + 2, mask.shape[1] + 2), value == 0)
    p[1:-1, 1:-1] = mask == value
    near = p[:-2, 1:-1] | p[2:, 1:-1] | p[1:-1, :-2] | p[1:-1, 2:]
    return near & (mask != value)


def _uniform_flip(mask, budget, rng):
    out = mask.copy()
    n = out.size
    take = min(budget, n)
    idx = rng.choice(n, size=take, replace=False)
    out.flat[idx] ^= 1
    return out, take, take < budget


def _peel(mask, budget, rng, value):
    # Set frontier pixels to ``value`` layer by layer until the budget (or
    # the frontier) is exhausted; each one is an exact single-pixel flip.
    out = mask.copy()
    done = 0
    while done < budget:
        candidates = np.flatnonzero(_frontier(out, value))
        if candidates.size == 0:
            break
        take = min(budget - done, candidates.size)
        chosen = rng.choice(candidates, size=take, replace=False)
        out.flat[chosen] = value
        done += take
    return out, done, done < budget


def _split_hole(mask, budget, rng):
    # Clear a rectangle strictly inside the patch bounding box, sized as
    # close to the budget as the interior allows.
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    r0, r1 = int(rows[0]), int(rows[-1])
    c0, c1 = int(cols[0]), int(cols[-1])
    int_h = (r1 - r0 + 1) - 2
    int_w = (c1 - c0 + 1) - 2
    if budget == 0 or int_h < 1 or int_w < 1:
        return mask.copy(), 0, budget > 0

    want_h = math.isqrt(budget)
    want_w = budget // want_h
    hole_h = min(want_h, int_h)
    # after clamping the height, let the width regrow into the leftover budget
    hole_w = min(budget // hole_h, int_w)
    clamped = hole_h * hole_w < want_h * want_w

    top = int(rng.integers(r0 + 1, r1 - hole_h + 1))
    left = int(rng.integers(c0 + 1, c1 - hole_w + 1))
    out = mask.copy()
    region = out[top : top + hole_h, left : left + hole_w]
    cleared = int(np.count_nonzero(region))
    region[...] = 0
    return out, cleared, clamped


_APPLY = {
    CorruptionKind.UNIFORM_FLIP: _uniform_flip,
    CorruptionKind.ERODE_BOUNDARY: partial(_peel, value=0),
    CorruptionKind.DILATE_OUTSIDE: partial(_peel, value=1),
    CorruptionKind.SPLIT_HOLE: _split_hole,
}


def corrupt_outcome(gt_mask, model) -> CorruptionOutcome:
    """Corrupt a ground-truth mask, reporting the exact Hamming damage.

    The output differs from the input in at most ``model.budget`` pixels.
    When the budget exceeds what the relevant region can absorb (e.g.
    eroding more pixels than the patch has), the damage is clamped and
    flagged.
    """
    mask = as_mask(gt_mask)
    if model.kind is not CorruptionKind.UNIFORM_FLIP and not mask.any():
        raise ValueError(f"{model.kind.value} requires a nonzero ground-truth mask")
    rng = np.random.default_rng(model.seed)
    out, hamming, clamped = _APPLY[model.kind](mask, model.budget, rng)
    return CorruptionOutcome(mask=out, hamming=int(hamming), clamped=bool(clamped))


def guarantee_trial(s, canvas, gamma, model) -> TrialRecord:
    """One randomized check of the coverage guarantee.

    Places an s-by-s patch uniformly at random on the canvas, corrupts it
    with the model, completes the corrupted observation at ``gamma``, and
    passes iff the completion covers every ground-truth pixel.  Whenever
    the corruption stayed within floor(gamma * s**2), a failure here means
    the completion itself is broken.  Every argument is checked before the
    patch is drawn.
    """
    s = as_int(s, "patch size", 1)
    H, W = as_pair(canvas, "canvas", 1)
    if s > H or s > W:
        raise ValueError(f"patch size {s} does not fit a {H}x{W} canvas")
    g = as_gamma(gamma)

    rng = np.random.default_rng(model.seed)
    row = int(rng.integers(0, H - s + 1))
    col = int(rng.integers(0, W - s + 1))
    gt = np.zeros((H, W), dtype=np.uint8)
    gt[row : row + s, col : col + s] = 1

    sub_seed = int(rng.integers(0, 2**63))
    outcome = corrupt_outcome(gt, CorruptionModel(model.kind, model.budget, sub_seed))
    completed = complete_single_size(outcome.mask, s, g)
    covered = completed[row : row + s, col : col + s].all()

    return TrialRecord(
        patch_row=row,
        patch_col=col,
        hamming=outcome.hamming,
        clamped=outcome.clamped,
        within_budget=outcome.hamming <= distance_cutoff(g, s),
        passed=bool(covered),
    )
