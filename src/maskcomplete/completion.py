"""Shape completion for binary patch masks.

Given an observed mask, the completion at threshold ``gamma`` is the union
of every fully-contained s-by-s window whose filled square differs from the
observation in at most ``gamma * s**2`` pixels.  Any ground-truth square
patch within that Hamming budget of the observation is therefore covered
entirely by the output, and the output contains nothing outside the union
of qualifying windows.

The implementation runs in time linear in the image area: one summed-area
table turns the ones inside every window into a four-corner lookup, and a
window holding ``ones`` set pixels lies at distance s**2 + total - 2 * ones
from a mask with ``total`` set pixels.  The table is kept modulo 2**bits
in the smallest unsigned dtype that holds the largest fitting s**2 (uint16
for sides 16 to 255), so every window count comes back exact in half the
bytes of int32.  "Is this pixel inside some accepted window" is a
dilation of the accepted window corners by an s-by-s box, about
2 * log2(s) shifted ORs over a plane of bytes.

At a known threshold each fitting size costs one ones plane: its accept
flags (ones at or above the count the cutoff needs), their count and its
cover are built from it in one place, shared by all three entry points,
and the first nonempty cover is the output the later ones are ORed into.
The distance from the observation to each window does not depend on
gamma, so a search over several thresholds first needs only each size's
minimum distance d, from its largest ones count: the first threshold at or
above the smallest d / s**2 is the first with a nonempty completion, and
the sizes it accepts get their second plane and their cover there.  The
geometric schedule is inverted for that ratio in closed form, so finding
the step costs one exact threshold, not a walk over the steps before it.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .masks import as_gamma, as_int, as_mask, normalize_sizes

__all__ = [
    "GammaSchedule",
    "CompletionReport",
    "distance_cutoff",
    "complete_single_size",
    "complete_fixed_gamma",
    "gamma_search",
]


def distance_cutoff(gamma, size) -> int:
    """Largest integer d with d / size**2 <= gamma, computed exactly.

    A candidate window is accepted iff its Hamming distance is <= this
    cutoff; precomputing the integer removes all per-candidate rounding
    concerns.
    """
    s = as_int(size, "patch size", 1)
    return int(as_gamma(gamma) * s * s)


@dataclass(frozen=True)
class GammaSchedule:
    """Geometric threshold schedule gamma_t = 1 - alpha * beta**(t-1).

    The schedule starts tight (t=1) and relaxes toward 1 without ever
    reaching it.  Parameters are interpreted at their shortest decimal
    representation, so the default first step is exactly 1 - 9/10 = 1/10.
    """

    alpha: float = 0.9
    beta: float = 0.7
    t_max: int = 15

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        # iterations_run can be t_max itself, so it must be a true integer.
        object.__setattr__(self, "t_max", as_int(self.t_max, "t_max", 1))

    @cached_property
    def _exact(self):
        return Fraction(str(self.alpha)), Fraction(str(self.beta))

    @staticmethod
    def _log(q: Fraction) -> float:
        # log1p keeps a beta within ulps of 1 accurate; integer logs never overflow.
        if abs(q - 1) < 0.5:
            return math.log1p(float(q - 1))
        return math.log(q.numerator) - math.log(q.denominator)

    def gamma(self, t: int) -> Fraction:
        """Exact threshold for step t (1-based)."""
        t = as_int(t, "step", 1)
        if t > self.t_max:
            raise ValueError(f"step must lie in [1, {self.t_max}], got {t}")
        a, b = self._exact
        return 1 - a * b ** (t - 1)

    def _first_step(self, rho):
        """First step t with gamma_t >= rho, as (t, gamma_t); (t_max, None) if none.

        gamma_t >= rho iff alpha * beta**(t-1) <= 1 - rho, so a float
        logarithm estimates t and exact comparisons beside the estimate
        settle it.  One exact power is computed, with O(t * digits(beta))
        digits, and none when the estimate lies past t_max.
        """
        if rho >= 1:
            return self.t_max, None
        a, b = self._exact
        steps = self._log((1 - rho) / a) / self._log(b)
        if steps > self.t_max:
            return self.t_max, None
        t = min(self.t_max, 1 + max(0, math.ceil(steps)))
        # tail = alpha * beta**(t-1) = 1 - gamma_t; one exact power, then
        # each neighbouring step is one multiplication or division by beta.
        tail, limit = 1 - self.gamma(t), 1 - rho
        while t > 1 and tail / b <= limit:
            t, tail = t - 1, tail / b
        while tail > limit and t < self.t_max:
            t, tail = t + 1, tail * b
        return (t, 1 - tail) if tail <= limit else (self.t_max, None)


@dataclass(frozen=True)
class CompletionReport:
    """Outcome of a completion run."""

    attack_found: bool
    gamma_used: float | None
    iterations_run: int
    per_size_accepted: dict
    skipped_sizes: tuple = ()
    output_popcount: int = 0


def _summed_area(flags, largest) -> np.ndarray:
    """(H+1)×(W+1) summed-area table of ``flags`` at the top-left, wrapped.

    Entry (i, j) counts the ones in ``flags[:i, :j]`` modulo 2^bits, in the
    smallest unsigned dtype that holds ``largest``².  A window of side s <=
    ``largest`` holds at most s² ones, so its four-corner difference, taken
    in the same dtype, wraps back to the exact count.  Row 0 and column 0
    are zero, so any box sum is four lookups with no bounds special cases.
    The running sums are taken in place, rows first, so the table is the
    only plane allocated.  The column pass adds each row into the next, and
    numpy runs it two to four times slower when rows lie about a multiple
    of 4 KiB apart (a 1024-wide canvas); the table is therefore a view into
    rows padded to an odd number of 64-byte cache lines.
    """
    h, w = flags.shape
    dtype = np.min_scalar_type(largest * largest)
    per_line = 64 // dtype.itemsize
    lines = (w + per_line) // per_line | 1
    table = np.zeros((h + 1, lines * per_line), dtype=dtype)[:, : w + 1]
    table[1:, 1:] = flags
    np.cumsum(table, axis=1, out=table)
    np.cumsum(table, axis=0, out=table)
    return table


def _ones(table, s) -> np.ndarray:
    """Ones inside every s×s window, in the table's dtype.

    ``table`` is the mask's :func:`_summed_area` for some largest size >= s;
    entry (i, j) of the result belongs to the window with top-left corner
    (i, j), which must fit: s <= H and s <= W.  The window's Hamming
    distance to the mask is s² + total - 2 * ones, so more ones is closer.
    """
    ones = table[s:, s:] - table[:-s, s:]
    ones -= table[s:, :-s]
    ones += table[:-s, :-s]
    return ones


def _need(s, total, cutoff) -> int:
    """Fewest ones an s×s window needs to lie within ``cutoff`` of the mask.

    With ``total`` ones in the mask, s² + total - 2 * ones <= cutoff iff
    ones >= ceil((s² + total - cutoff) / 2).  The bound is clamped to
    [0, s² + 1], which the table's dtype holds, so it compares in that dtype.
    """
    return min(max(0, (s * s + total - cutoff + 1) // 2), s * s + 1)


def _running_or(flat, s, step):
    """OR into each entry of ``flat`` the s - 1 entries after it, ``step`` apart.

    After the ORs with shifts 1, 2, 4, ..., k (times ``step``) each entry
    holds the OR of the k entries starting at it; one more OR, shifted by
    s - k <= k, extends that to s.  The shifted operand always lies ahead
    of the one written, so numpy ORs in place without a copy.
    """
    k = 1
    while 2 * k <= s:
        flat[: -k * step] |= flat[k * step :]
        k *= 2
    if k < s:
        flat[: (k - s) * step] |= flat[(s - k) * step :]


def _cover(accept, s) -> np.ndarray:
    """H×W uint8 mask of the pixels inside at least one accepted s×s window.

    ``accept`` holds one flag per window top-left corner, as laid out by
    :func:`_ones`.  Pixel (i, j) lies in the windows whose corners are
    in rows [i-s+1, i] and cols [j-s+1, j], so with the flags moved s - 1
    rows down and s - 1 cols right, the cover at (i, j) is the OR of the
    s×s block that starts there: a running OR along each row, then down
    each column.  Both run on the flattened plane.  Along a row, an OR that
    runs past the row's end only reaches the first s - 1 cols of the next
    row, which hold no flags.
    """
    h, w = accept.shape
    H, W = h + s - 1, w + s - 1
    plane = np.zeros((H, W), dtype=bool)
    plane[s - 1 :, s - 1 :] = accept
    flat = plane.reshape(-1)
    _running_or(flat[(s - 1) * W :], s, 1)
    _running_or(flat, s, W)
    return plane.view(np.uint8)


def _union_of_covers(mask, table, cutoffs):
    """Union of the covers at ``cutoffs``, and each size's accepted-window count.

    ``cutoffs`` maps sizes that fit the mask to their distance cutoffs.  A
    size gets one ones plane, its accept flags, their count and, when any
    flag is set, its cover; none of them outlives the size, so the next
    plane is built beside only the table and the output.  The first
    nonempty cover becomes the output and each later one is ORed into it;
    a zero plane is made only when every cover is empty.
    """
    out, accepted = None, {}
    total = int(np.count_nonzero(mask))
    for s, cutoff in cutoffs.items():
        accept = _ones(table, s) >= _need(s, total, cutoff)
        accepted[s] = int(np.count_nonzero(accept))
        if accepted[s]:
            cover = _cover(accept, s)
            out = cover if out is None else np.bitwise_or(out, cover, out=out)
        accept = cover = None
    return (np.zeros(mask.shape, np.uint8) if out is None else out), accepted


def complete_single_size(observed, size, gamma) -> np.ndarray:
    """Minimal mask covering every acceptable placement of one patch size.

    Parameters
    ----------
    observed : array-like
        H×W binary observation.
    size : int
        Candidate patch side length s; a bool or a float raises TypeError.
    gamma : float or Fraction
        Relative Hamming threshold in [0, 1); a window is accepted when its
        distance to the observation is at most gamma * s**2.

    Returns
    -------
    ndarray
        H×W uint8 mask: 1 exactly on pixels inside at least one accepted
        window.  A size larger than the image yields the all-zero mask.
    """
    mask, s, g = as_mask(observed), as_int(size, "patch size", 1), as_gamma(gamma)
    if s > min(mask.shape):
        return np.zeros(mask.shape, dtype=np.uint8)
    return _union_of_covers(mask, _summed_area(mask, s), {s: int(g * (s * s))})[0]


def _complete(mask, sizes, table, cutoffs, step, gamma):
    """Completion over ``cutoffs``, reported as step ``step`` at ``gamma``.

    ``cutoffs`` holds the fitting sizes worth a ones pass, each with its
    cutoff floor(gamma * s**2); every other size of ``sizes`` accepts no
    window.  ``gamma`` is reported as used when some size accepts one.
    """
    out, counts = _union_of_covers(mask, table, cutoffs)
    found = any(counts.values())
    return out, CompletionReport(
        attack_found=found,
        gamma_used=float(gamma) if found else None,
        iterations_run=step,
        per_size_accepted={s: counts.get(s, 0) for s in sizes},
        skipped_sizes=tuple(s for s in sizes if s > min(mask.shape)),
        output_popcount=int(np.count_nonzero(out)),
    )


def complete_fixed_gamma(observed, sizes, gamma):
    """Multi-size completion at a single fixed threshold, with a report.

    The output is the union of :func:`complete_single_size` over the sizes:
    each fitting size gets one ones pass, at the known cutoff.  The
    report has the fields of :func:`gamma_search`'s, with
    ``iterations_run`` always 1 and ``gamma_used`` set only when some size
    accepts a window.

    Returns
    -------
    (ndarray, CompletionReport)
    """
    mask, sizes, g = as_mask(observed), normalize_sizes(sizes), as_gamma(gamma)
    cutoffs = {s: int(g * (s * s)) for s in sizes if s <= min(mask.shape)}
    table = _summed_area(mask, max(cutoffs, default=0))
    return _complete(mask, sizes, table, cutoffs, 1, g)


def gamma_search(observed, sizes, schedule=GammaSchedule()):
    """Complete at the first step of the threshold schedule with a nonempty result.

    Returns the multi-size completion at the first of gamma_1 < gamma_2 <
    ... that yields a nonzero mask, together with a report.  If every step
    comes back empty, the observation is taken to contain no patch at all
    and the empty mask is returned with ``attack_found=False``.  The step
    is found in closed form; its cost is one exact gamma_t, whose digits
    grow as O(t * digits(beta)).

    A window of size s is accepted at threshold gamma iff its distance is
    at most floor(gamma * s**2); distances are integers, so that holds iff
    gamma >= d / s**2.  The smallest ratio rho of a size's minimum window
    distance to s**2 therefore decides the search, and no gamma below 1
    reaches a ratio of 1 (a blank mask, or no size fits).  Only the sizes
    accepted at the chosen threshold get a second ones pass and a cover.

    Returns
    -------
    (ndarray, CompletionReport)
    """
    mask, sizes = as_mask(observed), normalize_sizes(sizes)
    fitting = [s for s in sizes if s <= min(mask.shape)]
    table = _summed_area(mask, max(fitting, default=0))
    total = int(np.count_nonzero(mask))
    # One ones plane alive at a time: only its maximum is kept.
    d_min = {s: s * s + total - 2 * int(_ones(table, s).max()) for s in fitting}
    rho = min((Fraction(d, s * s) for s, d in d_min.items()), default=Fraction(1))
    step, gamma = schedule._first_step(rho)
    cutoffs = {} if gamma is None else {s: int(gamma * (s * s)) for s in d_min}
    cutoffs = {s: c for s, c in cutoffs.items() if d_min[s] <= c}
    return _complete(mask, sizes, table, cutoffs, step, gamma)
