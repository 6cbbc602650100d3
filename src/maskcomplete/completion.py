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
from a mask with ``total`` set pixels.  Table entry (i, j) counts the ones
in mask rows i and below, in col j and the cols right of it, plus one
constant per row: a window's count is a difference within a row less the
same difference s rows down, so the constants cancel.  The zero row is
the last.  The table is kept modulo 2**bits in the smallest unsigned dtype
that holds the largest fitting s**2 (uint16 for sides 16 to 255), so
every window count comes back exact in half the bytes of int32.  It is
summed by doubling, in place: first along the flat block of its rows,
adding to each entry every entry after it, then down the cols, adding to
each row every row below it.  On a small block, or on rows too long for
the flat pass's log2 adds to pay, a running sum along each row from the
right takes the flat pass's place.  "Is this pixel inside some accepted
window" is a dilation of the accepted window corners by an s-by-s box,
about 2 * log2(s) shifted ORs over a plane of bytes.

The mask is streamed in bands of a fixed number of window-corner rows
(``_BAND``), from the bottom band up.  One buffer holds the table rows a
band's windows need, at most ``_BAND`` + s_max of them; the rows the band
above shares are copied from the buffer's top to just below its new rows,
where they seed the new rows' column pass, so each table row is built
once.  A band's column pass costs ceil(log2(rows + 1)) plane adds over at
most ``_BAND`` + s_max rows, so the time stays linear in the area, and the
memory beyond the input and the output is O(W * (_BAND + s_max)), whatever
the canvas height.  A canvas of up to ``_BAND`` + s_min - 1 rows is one
band.  Every pass walks pieces (table, r, c, s): a size s and the table
rows and cols, entry (0, 0) at pixel (r, c), of the s×s windows to look at.

A window of side s holds at most min(s**2, total) ones, so its ratio
d / s**2 is at least LB(s) = |s**2 - total| / s**2, and a size that
needs more ones than that at a threshold takes no pass (a blank mask
builds no table).  On a canvas that is one band, a known threshold costs
each other fitting size one ones plane: its accept flags (ones at or
above the count the cutoff needs), their count and its cover are built
from it in one place, shared by all three entry points, and ORed into
the output; a first cover that spans the canvas is the output.  The
distance from the observation to each window does not depend on gamma,
so a search over several thresholds first needs only each size's minimum
distance d, from its largest ones count per band: the first threshold at
or above the smallest d / s**2 is the first with a nonempty completion.
A search bounds each size by the mask's col counts first: a window of
side s holds at most C(s) ones, the most that any s consecutive cols
hold, so at most b(s) = min(s**2, total, C(s)), and its ratio is at least
lb(s) = (s**2 + total - 2 * b(s)) / s**2, LB(s) being the case C(s) =
total.  The bound is exact: every window's ones lie in s consecutive
cols.  A size whose lb(s) lies past the schedule's last step accepts no
window at any step and takes no pass, so a frame of scattered strays is
settled from its counts, with no table.  C(s) is summed only for a size
it might drop; elsewhere b(s) = min(s**2, total).  The search runs the
other sizes, lowest lb(s) first in each band; the threshold the smallest
ratio so far picks only falls, so a size whose b(s) it puts out of reach
skips every later band.  Only the bands whose largest count reaches what
a size needs at that threshold get a second pass.  The geometric
schedule is inverted for that ratio in closed form, so finding the step
costs one exact threshold, not a walk over the steps before it.

A search runs both passes on a block of the mask, not the canvas.  A live
size has total >= 1, and every need is at least 1, so every window either
pass looks at, each size's best and every accepted one, holds a one and
lies within s_max - 1 of the ones' bounding box, s_max the largest size
with LB(s) below 1.  The block is that box grown by s_max - 1 on every
side and clamped to the canvas: every live size fits it, every window
that holds a one is one of its windows, and each piece's (r, c) is moved
by the block's offset.  A patch's search builds only its block's rows, and a
mask whose ones span the canvas gets the canvas.  A known threshold
keeps the whole canvas.  On a block that is one band the second pass
reuses the table; on a taller one the band buffer is let go first, and
every such band gets a small table over the box of its candidate
windows, bounded by the mask's row and column counts there.  On a taller
block the union makes its output plane once, before it reads a piece:
before the first band at a known threshold, and after the band buffer is
gone in a search.  On a block that is one band its first cover becomes
the output when the block is the canvas, and is otherwise ORed into a
zero plane made then.  Either way a call's peak does not depend on which
bands of its block accept a window.
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
    def _log(num: int, den: int) -> float:
        """log(num / den) for positive integers, as a float."""
        # log1p keeps a beta within ulps of 1 accurate; integer logs never overflow.
        if 2 * abs(num - den) < den:
            return math.log1p((num - den) / den)
        return math.log(num) - math.log(den)

    def _steps(self, num: int, den: int) -> float:
        """Float estimate of t - 1 at the first step t with 1 - gamma_t <= num / den.

        That step is the first with alpha * beta**(t-1) <= num / den, so
        t - 1 is the least integer at or above log(num / (den * alpha)) /
        log(beta), which this estimates from integer logs alone.  An
        estimate past t_max puts every step out of reach.
        """
        a, b = self._exact
        near = self._log(num * a.denominator, den * a.numerator)
        return near / self._log(b.numerator, b.denominator)

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
        steps = self._steps(rho.denominator - rho.numerator, rho.denominator)
        if steps > self.t_max:
            return self.t_max, None
        t = min(self.t_max, 1 + max(0, math.ceil(steps)))
        # tail = alpha * beta**(t-1) = 1 - gamma_t; one exact power, then
        # each neighbouring step is one multiplication or division by beta.
        b = self._exact[1]
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


# Window-corner rows per band.  A canvas of up to _BAND + s - 1 rows, s the
# smallest fitting size, is a single band, so 64² and 256² canvases hold
# their whole table at once and pay nothing for the streaming.
_BAND = 256

# The row pass doubles over a block of at least _FLAT_MIN entries whose
# rows hold at most _FLAT_COLS each: a smaller block sums its rows faster
# one by one, and past _FLAT_COLS the log2 adds per entry of the doubling
# lose to the one add of a running sum, and would grow with the width.
_FLAT_MIN = 2**14
_FLAT_COLS = 2**15


def _zero_table(h, w, largest) -> np.ndarray:
    """(h+1)×(w+1) zeros in the smallest unsigned dtype that holds ``largest``².

    The rows are left unpadded: :func:`_fill`'s passes need them
    contiguous, and rows of exactly 1, 2 or 4 KiB build as fast as rows a
    cache line longer.
    """
    return np.zeros((h + 1, w + 1), dtype=np.min_scalar_type(largest * largest))


def _fill(table, flags):
    """Make every row of ``table`` but the last a table row of ``flags``.

    The last row must already be one (the zero row, or the row the rows of
    ``flags`` continue upward); the new rows' last col may hold anything,
    since it adds one constant to each row.  ``table`` must be
    C-contiguous, or the flat view of its rows would be a copy.  The row
    pass doubles over the new rows' flat block: adding to every entry the
    entry k after it, for k = 1, 2, 4, ..., makes each the sum of every
    entry from it on, its row's from its col rightward plus the rows below
    it, a constant per row.  A block under ``_FLAT_MIN`` entries, or with
    rows longer than ``_FLAT_COLS``, sums each row from the right instead.
    The column pass then adds to every row the row k below it, so
    ceil(log2(rows + 1)) whole-plane adds make each row the sum of the
    rows from it down.  Each doubling reads ahead of what it writes on one
    contiguous block, so numpy adds in place without copying an operand,
    and no plane is allocated.
    """
    if not table.flags.c_contiguous:
        raise ValueError("the table must be C-contiguous")
    rows = table[:-1]
    rows[:, :-1] = flags
    if _FLAT_MIN <= rows.size and rows.shape[1] <= _FLAT_COLS:
        _double(rows.reshape(-1))
    else:
        back = rows[:, ::-1]
        back.cumsum(axis=1, out=back)
    _double(table)


def _double(block):
    """Add to each entry of ``block`` (a row, if 2-D) every one after it, in place."""
    k = 1
    while k < len(block):
        block[:-k] += block[k:]
        k *= 2


def _summed_area(flags, largest) -> np.ndarray:
    """(H+1)×(W+1) summed-area table of ``flags`` toward the bottom-right, wrapped.

    Entry (i, j) counts the ones in ``flags[i:, j:]`` plus a constant of
    row i, modulo 2^bits, in the smallest unsigned dtype that holds
    ``largest``².  A window of side s <= ``largest`` holds at most s² ones,
    so its four-corner difference, taken in the same dtype, cancels the
    constants and wraps back to the exact count.  The last row is zero and
    every row ends one col past the mask, so any box sum is four lookups
    with no bounds special cases.
    """
    table = _zero_table(*flags.shape, largest)
    _fill(table, flags)
    return table


def _bands(mask, sizes):
    """The pieces (table, r0, 0, s) of each band of ``_BAND`` window-corner rows.

    The bands' first corner rows r0 = 0, _BAND, ... run up to the last
    corner row of the smallest size, the last band first, and a band
    yields one piece per size of ``sizes`` with corners in it, in order:
    table[i] is the mask's table row r0 + i, and the table holds that
    size's corner rows in [r0, r0 + _BAND) plus s.  The rows live in one
    buffer of _BAND + max(sizes) rows (fewer on a short canvas) and hold
    until the next band.  A table row sums the mask from its row down, so
    the bands are built upward: the rows two bands share are copied from
    the buffer's top to just below the new rows, where they seed the new
    rows' column pass, and each table row is built once.
    """
    if not sizes:
        return
    h, w = mask.shape
    large = max(sizes)
    buf = _zero_table(min(h, _BAND + large - 1), w, large)
    below = h  # table rows [below, h] are built, from buf[below - r0] on
    for r0 in reversed(range(0, h - min(sizes) + 1, _BAND)):
        end = min(r0 + _BAND + large, h + 1)
        if below < h:
            buf[below - r0 : end - r0] = buf[: end - below]
        _fill(buf[: below - r0 + 1], mask[r0:below])
        below = r0
        for s in sizes:
            if s <= h - r0:
                yield buf[: min(_BAND, h - s + 1 - r0) + s], r0, 0, s


def _ones(table, s) -> np.ndarray:
    """Ones inside every s×s window, in the table's dtype.

    ``table`` is the mask's :func:`_summed_area` for some largest size >= s,
    or any block of its rows and columns; entry (i, j) of the result
    belongs to the window whose top-left corner is at table entry (i, j),
    which must fit: s <= H and s <= W.  Cols j and j + s bound the
    window's cols from left and right, so in each row its cols hold entry
    j less entry j + s, and the row's constant cancels; rows i and i + s
    bound its rows from above and below, so its count is that difference
    in row i less the one in row i + s.  The window's Hamming distance to
    the mask is s² + total - 2 * ones, so more ones is closer.
    """
    ones = table[:-s, :-s] - table[s:, :-s]
    ones -= table[:-s, s:]
    ones += table[s:, s:]
    return ones


def _needs(sizes, total, gamma) -> dict:
    """The fewest ones an s×s window needs at ``gamma``, for each s of ``sizes``.

    A window lies within the cutoff floor(gamma * s²) of a mask with
    ``total`` ones iff s² + total - 2 * ones <= cutoff, that is iff ones >=
    ceil((s² + total - cutoff) / 2).  A cutoff below s², which every gamma
    below 1 gives, needs at least 1; the bound is clamped to s² + 1, which
    the table's dtype holds, so it compares in that dtype.
    """
    needs = {}
    for s in sizes:
        cutoff = int(gamma * (s * s))
        needs[s] = min((s * s + total - cutoff + 1) // 2, s * s + 1)
    return needs


def _one_band(mask, sizes) -> bool:
    """Whether ``sizes`` is empty or its window-corner rows on ``mask`` are one band."""
    return not sizes or mask.shape[0] - min(sizes) + 1 <= _BAND


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
    """(h+s-1)×(w+s-1) uint8 mask of the pixels inside an accepted s×s window.

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


def _union_of_covers(mask, block, needs, pieces):
    """Union of the covers of the windows holding ``needs`` ones, and their counts.

    ``needs`` maps sizes to the ones a window must hold to be accepted.
    ``pieces`` yields (table, r, c, s): summed-area rows and columns of
    ``block``, a block of ``mask``, whose entry (0, 0) sits at pixel (r,
    c) of ``mask``, holding the corners of the s×s windows to look at and
    s rows and cols past them.  Each piece gets one ones plane, its accept
    flags, their count and, when any flag is set, its cover; the flags are
    dropped once the cover is built, and nothing outlives the piece.  When
    ``block`` is several bands tall the zero output plane is made before
    the first piece is read, and every cover is ORed into it, so the peak
    does not depend on which pieces accept a window.  When it is one band
    every cover spans it: the first nonempty one becomes the output when
    ``block`` is the canvas, and is otherwise ORed into a zero plane made
    then.  With every cover empty the output is a zero plane made last.
    """
    out = None if _one_band(block, needs) else np.zeros(mask.shape, np.uint8)
    accepted = dict.fromkeys(needs, 0)
    for table, r, c, s in pieces:
        accept = _ones(table, s) >= needs[s]
        count = int(np.count_nonzero(accept))
        accepted[s] += count
        cover = _cover(accept, s) if count else None
        accept = None
        if cover is None:
            continue
        if out is None:
            if cover.shape == mask.shape:
                out = cover
                continue
            out = np.zeros(mask.shape, np.uint8)
        h, w = cover.shape
        part = out[r : r + h, c : c + w]
        np.bitwise_or(part, cover, out=part)
        cover = None
    return (np.zeros(mask.shape, np.uint8) if out is None else out), accepted


def _prefix(counts):
    """0 and the running sums of ``counts``, in int64: each run's sum is one difference."""
    sums = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=sums[1:])
    return sums


def _runs(counts, s, need):
    """First and past-last start of the s-long runs of ``counts`` reaching ``need``."""
    sums = _prefix(counts)
    starts = np.flatnonzero(sums[s:] - sums[:-s] >= need)
    return int(starts[0]), int(starts[-1]) + 1


def _candidates(mask, r, c, seen, last, needs):
    """The pieces (table, r, c, s) of a search's second pass: accepted windows.

    ``mask`` is the block the search runs on, whose entry (0, 0) sits at
    pixel (r, c) of the canvas, and each piece's (r, c) is a canvas pixel.
    ``seen`` holds a record (r0, s, rows, peak) per first-pass piece: its
    band's first corner row, size, table row count and largest ones
    count.  A record whose size has no need, or whose peak falls short of
    it, is skipped.  ``last`` is the table of a block that is one band,
    used as it is, or None.  On a taller block each accepted record, the
    last band's too, gets a table of its own over the box of its candidate
    windows, whose corners then fill the table: a window holding ``need``
    ones has at least that many in its s rows and in its s cols, so the
    box is bounded by the mask's row counts in the record's rows and its
    col counts in the rows the box keeps.  A band's row counts are summed
    once, over the rows of its tallest record.  A window's count
    depends only on the mask inside it, so that table is exact.  Each
    count is summed in the smallest unsigned dtype that holds the number
    of entries summed.
    """
    band = None
    for r0, s, rows, peak in seen:
        if s not in needs or peak < needs[s]:
            continue
        if last is not None:
            yield last, r + r0, c, s
            continue
        if r0 != band:
            band, tall = r0, max(n for q, _, n, _ in seen if q == r0)
            slab = mask[r0 : r0 + tall - 1]
            counts = slab.sum(axis=1, dtype=np.min_scalar_type(slab.shape[1]))
        i0, i1 = _runs(counts[: rows - 1], s, needs[s])
        strip = slab[i0 : i1 + s - 1]
        cols = strip.sum(axis=0, dtype=np.min_scalar_type(len(strip)))
        j0, j1 = _runs(cols, s, needs[s])
        table = _summed_area(strip[:, j0 : j1 + s - 1], s)
        yield table, r + r0 + i0, c + j0, s
        table = None


def _scan(mask):
    """The ones' bounding box (i0, i1, j0, j1), and the ones in each of its cols.

    ``mask`` must hold a one.  The first and last one of its raster give
    the box's rows [i0, i1); one sum down those rows, in bytes over every
    255 of them, counts each col's ones, and the zero bytes at either end
    of the counts give its cols [j0, j1).
    """
    w = mask.shape[1]
    raster = mask.tobytes()
    i0, i1 = raster.find(1) // w, raster.rfind(1) // w + 1
    rows = mask[i0:i1]
    counts = np.add.reduce(rows[:255], axis=0, dtype=np.uint8)
    if len(rows) > 255:
        counts = counts.astype(np.int64)
        for k in range(255, len(rows), 255):
            counts += np.add.reduce(rows[k : k + 255], axis=0, dtype=np.uint8)
    raw, size = counts.tobytes(), counts.itemsize
    j0 = (len(raw) - len(raw.lstrip(b"\0"))) // size
    j1 = -(-len(raw.rstrip(b"\0")) // size)
    return (i0, i1, j0, j1), counts[j0:j1]


def _reachable(counts, rows, total, sizes, schedule):
    """b(s) for each size of ``sizes`` whose windows some step may accept.

    ``counts`` holds the ones in each col of the ones' box, ``rows``
    tall.  An s×s window holds at most b(s) = min(s², total, C(s)) ones,
    C(s) the largest sum of s consecutive counts, so its ratio is at least
    lb(s) = (s² + total - 2·b(s)) / s², and a size whose lb(s) lies past
    the schedule's last step is dropped: no step accepts one of its
    windows.  That test is the float estimate that
    :meth:`GammaSchedule._first_step` trusts, with no exact power: it
    drops a size only when lb(s) lies more than a step past.  C(s)
    is total when s cols span the box, and at least total less ``rows``
    ones per col past s; it is summed only where that bound leaves it
    below min(s², total) and does not put lb(s) in reach, the only sizes
    it can drop.  Elsewhere b(s) = min(s², total).
    """

    def reached(s, most):
        return 2 * most > total and schedule._steps(2 * most - total, s * s) <= schedule.t_max

    bounds, sums = {}, None
    for s in sizes:
        bounds[s] = min(s * s, total)
        low = total - max(len(counts) - s, 0) * rows
        if low < bounds[s] and not reached(s, low):
            sums = _prefix(counts) if sums is None else sums
            most = int((sums[s:] - sums[:-s]).max())
            if most < bounds[s] and not reached(s, most):
                del bounds[s]
            else:
                bounds[s] = min(bounds[s], most)
    return bounds


def _crop(mask, box, grow):
    """The block of ``mask`` around ``box``, and the pixel (r, c) of its entry (0, 0).

    The block is a view: the box (i0, i1, j0, j1) of rows [i0, i1) and
    cols [j0, j1) grown by ``grow`` on every side and clamped to the canvas.
    """
    h, w = mask.shape
    i0, i1, j0, j1 = box
    r, c = max(i0 - grow, 0), max(j0 - grow, 0)
    return mask[r : min(i1 + grow, h), c : min(j1 + grow, w)], r, c


def _union_at(mask, sizes, gamma):
    """:func:`_union_of_covers` at a known threshold, in one banded pass.

    The sizes of ``sizes`` that fit the mask need the ones the cutoff
    floor(gamma * s**2) leaves them; the others, and those that need more
    than min(s**2, total), take no pass.  Each size's accept flags come
    from the ones plane its band already has, and a canvas of several
    bands has its output plane before the first band.
    """
    fitting = [s for s in sizes if s <= min(mask.shape)]
    total = int(np.count_nonzero(mask))
    needs = _needs(fitting, total, gamma)
    live = [s for s in fitting if needs[s] <= min(s * s, total)]
    return _union_of_covers(mask, mask, needs, _bands(mask, live))


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
    return _union_at(mask, (s,), g)[0]


def _report(mask, sizes, union, step, gamma):
    """``union``'s output and its report as step ``step`` at ``gamma``.

    ``union`` is :func:`_union_of_covers`' result over the fitting sizes
    worth a ones pass; every other size of ``sizes`` accepts no window.
    ``gamma`` is reported as used when some size accepts one.
    """
    out, counts = union
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
    each fitting size gets one ones pass per band, at the known cutoff.
    The report has the fields of :func:`gamma_search`'s, with
    ``iterations_run`` always 1 and ``gamma_used`` set only when some size
    accepts a window.

    Returns
    -------
    (ndarray, CompletionReport)
    """
    mask, sizes, g = as_mask(observed), normalize_sizes(sizes), as_gamma(gamma)
    return _report(mask, sizes, _union_at(mask, sizes, g), 1, g)


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
    reaches a ratio of 1 (a blank mask, or no size fits).  Only the bands
    and sizes some window of which is accepted at the chosen threshold get
    a second ones pass and a cover.  No ratio of size s is below
    LB(s) = |s**2 - total| / s**2, and a size with LB(s) < 1 has total >= 1.

    One scan of such a mask finds the ones' bounding box and counts the
    ones in each of its cols.  An s×s window holds at most b(s) = min(s**2,
    total, C(s)) ones, C(s) the largest sum of s consecutive col counts,
    since the window's s cols hold all of its ones; so no ratio of size s
    is below lb(s) = (s**2 + total - 2 * b(s)) / s**2.  A size whose lb(s)
    lies past the last step, by the float estimate the step search itself
    trusts, is dropped: no step accepts one of its windows, so the output
    and the report are those of the search that ran it.  A mask whose sizes
    all drop returns the empty completion with no table built.  C(s) is
    summed only for a size it might drop; elsewhere b(s) = min(s**2,
    total).  The first
    pass runs the other sizes, lowest lb(s) first in each band, and skips a
    size from the band on where rho's step makes it need more than b(s)
    ones, which no later band undoes.

    Every need is at least 1, so each window either pass looks at holds a
    one.  Both passes therefore run on the block of the mask that holds the
    ones' bounding box grown by s_max - 1 on every side, s_max the largest
    size with LB(s) < 1, clamped to the canvas: the search builds tables
    only around the patch, and a mask whose ones span the canvas searches
    the whole of it, as without the crop.

    Returns
    -------
    (ndarray, CompletionReport)
    """
    mask, sizes = as_mask(observed), normalize_sizes(sizes)
    fitting = [s for s in sizes if s <= min(mask.shape)]
    total = int(np.count_nonzero(mask))
    live = [s for s in fitting if abs(s * s - total) < s * s]
    block, r, c = mask, 0, 0
    if live:
        # Every window either pass looks at holds a one, so it lies in the
        # block of the ones' box grown by the largest live side less 1.
        box, counts = _scan(mask)
        block, r, c = _crop(mask, box, max(live) - 1)
        # b(s) bounds each size's ones; sizes no step can accept are gone.
        most = _reachable(counts, box[1] - box[0], total, live, schedule)
        # The live sizes in lb(s) order, each with b(s); nothing else of the
        # scan outlives it.
        live = {s: most[s] for s in sorted(most, key=lambda s: (s * s + total - 2 * most[s]) / (s * s))}
        del box, counts, most
    # One ones plane alive at a time: only each piece's maximum is kept, and
    # rho = d / area is the smallest ratio so far.
    seen, table, d, area = [], None, 1, 1
    step, gamma, needs = schedule.t_max, None, {}
    for table, r0, _, s in _bands(block, live):
        if needs.get(s, 0) > live[s]:
            continue
        peak = int(_ones(table, s).max())
        seen.append((r0, s, len(table), peak))
        dist = s * s + total - 2 * peak
        if dist * area < d * s * s:
            d, area = dist, s * s
            step, gamma = schedule._first_step(Fraction(d, area))
            needs = {} if gamma is None else _needs(fitting, total, gamma)
    # On one band the last piece holds the block's whole table, which the
    # second pass reuses; a taller block lets the band buffer go before the
    # output plane.
    last, table = (table if _one_band(block, fitting) else None), None
    # A size whose best window lies past the cutoff holds fewer ones than it
    # needs in every band, so _candidates' per-record test drops it.
    pieces = _candidates(block, r, c, seen, last, needs)
    union = _union_of_covers(mask, block, needs, pieces)
    return _report(mask, sizes, union, step, gamma)
