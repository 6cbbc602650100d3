"""Scaling benchmark for the completion engine and the brute-force oracle.

The engine's runtime should track image area and stay flat across patch
sizes; the oracle's should grow with s**2.  Each timed call completes one
centered square, drawn by :func:`~maskcomplete.shapes.generate_shape_mask`,
with one set pixel more in the top-left and bottom-right corners: the
engine crops a call to the block around its ones, and the corners make
that block the canvas, so the work timed is the canvas's.  One timing
loop, :func:`_time_configs`, times the engine and the oracle alike, and
each configuration keeps its fastest call, so the ratios stay stable
enough to assert.
"""

import functools
import math
import statistics
import time

from .completion import complete_single_size
from .masks import as_int, normalize_sizes
from .oracle import oracle_complete_single
from .shapes import generate_shape_mask

__all__ = ["BENCH_GAMMA", "run_benchmark"]

# Threshold used for all timed runs.  Any value works for timing purposes;
# a moderate one keeps the accepted-candidate plane non-trivial.
BENCH_GAMMA = 0.25


def _spanning_square(s, shape):
    """The centered s×s square on ``shape``, plus its first and last pixel."""
    mask = generate_shape_mask("square", s, None, shape)
    mask[0, 0] = mask[-1, -1] = 1
    return mask


def _time_configs(complete, canvases, sizes, repeats, warmup=True):
    """Per-canvas, per-size minimum seconds of ``complete(mask, size, gamma)``.

    Within a canvas the sizes run round-robin: after a warm-up round,
    unless ``warmup`` is false, each of ``repeats`` rounds times every size
    once, in turn, so a slowdown of the host that lasts a while hits all of
    them alike rather than whichever one happened to be running.  The
    canvases run one after the other: a call's speed depends on how much
    memory the call before it left mapped, so mixing canvases in a round
    would bias the size spread.
    """
    seconds = {}
    for canvas in canvases:
        fitting = [s for s in sizes if s <= canvas]
        shape = (canvas, canvas)
        fns = [
            functools.partial(complete, _spanning_square(s, shape), s, BENCH_GAMMA)
            for s in fitting
        ]
        if warmup:
            for fn in fns:
                fn()
        best = [math.inf] * len(fns)
        for _ in range(repeats):
            for k, fn in enumerate(fns):
                start = time.perf_counter()
                fn()
                best[k] = min(best[k], time.perf_counter() - start)
        seconds[str(canvas)] = {str(s): t for s, t in zip(fitting, best)}
    return seconds


def run_benchmark(
    canvases=(512, 1024),
    sizes=(25, 50, 100),
    repeats=3,
    include_oracle=True,
) -> dict:
    """Time the completion engine (and optionally the oracle) per config.

    Returns a JSON-ready dict with per-configuration minimum seconds plus
    the derived ratios: area scaling of the engine between the smallest
    and largest canvas, the engine's spread across patch sizes on the
    largest canvas, and the oracle's growth from the smallest to the
    largest patch size.  The spread is taken where the candidate grid's
    border effect, and the timing noise relative to the work, are
    smallest.  The oracle is timed once, on the smallest canvas only (it is
    slow by design) and without warmup, since the interpreted path has no
    caches to prime.
    """
    sizes = normalize_sizes(sizes)
    canvases = sorted(as_int(c, "canvases", 1) for c in canvases)
    if not canvases:
        raise ValueError("at least one canvas is required")
    if len(set(canvases)) != len(canvases):
        raise ValueError(f"duplicate canvases in {canvases}")
    repeats = as_int(repeats, "repeats", 1)

    dp_seconds = _time_configs(complete_single_size, canvases, sizes, repeats)
    oracle_seconds = {}
    if include_oracle:
        oracle_seconds = _time_configs(
            oracle_complete_single, canvases[:1], sizes, 1, warmup=False
        )

    report = {
        "config": {
            "canvases": list(canvases),
            "sizes": list(sizes),
            "repeats": repeats,
            "gamma": BENCH_GAMMA,
            "include_oracle": bool(include_oracle),
        },
        "dp_seconds": dp_seconds,
        "oracle_seconds": oracle_seconds,
    }

    # Every size that fits the smallest canvas fits each larger one too.
    if len(canvases) >= 2:
        small = dp_seconds[str(canvases[0])]
        large = dp_seconds[str(canvases[-1])]
        if small:
            report["dp_area_ratio"] = statistics.median(
                large[s] / small[s] for s in small
            )
    largest = dp_seconds[str(canvases[-1])]
    if len(largest) >= 2:
        values = list(largest.values())
        report["dp_size_spread"] = max(values) / min(values) - 1.0
    if include_oracle:
        per_size = oracle_seconds[str(canvases[0])]
        if len(per_size) >= 2:
            # The sizes are read in increasing order, and keep it.
            values = list(per_size.values())
            report["oracle_growth"] = values[-1] / values[0]
    return report
