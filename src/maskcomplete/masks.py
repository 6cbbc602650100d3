"""The package's input readers.

All masks are 2-D numpy arrays with values in {0, 1} (dtype uint8 by
convention).  The readers here decide the form every argument must take,
and no other module reads one itself: :func:`as_mask` for every mask,
:func:`as_int` for every integer argument (patch and shape sizes, steps,
counts, budgets and seeds), :func:`as_pair` for canvases and anchors,
:func:`normalize_sizes` for size sets and :func:`as_gamma` for every
threshold.  The engine and the oracle read through the same ones, mask
first, then size(s), then gamma.  An integer argument is never truncated:
a bool, a float, a str or a Fraction raises TypeError.
"""

import math
import operator
from fractions import Fraction

import numpy as np

__all__ = [
    "as_mask",
    "as_int",
    "as_pair",
    "normalize_sizes",
    "as_gamma",
]


def as_mask(a) -> np.ndarray:
    """Validate an array-like as a binary mask and return it as uint8.

    Parameters
    ----------
    a : array-like
        2-D array whose entries are all 0 or 1 (bools are accepted).

    Returns
    -------
    ndarray
        The same data as a uint8 array.  No copy is made when the input
        already is a valid uint8 array.
    """
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("mask must have at least one pixel")
    # By kind, not np.issubdtype, which ranks timedelta64 as an integer.
    kind = arr.dtype.kind
    if kind == "b":
        return arr.astype(np.uint8)
    if kind not in ("i", "u"):
        raise ValueError(f"mask dtype must be integer or bool, got {arr.dtype}")
    # Two reductions, not a boolean plane per comparison; an unsigned
    # dtype needs only the maximum.
    if arr.max() > 1 or (kind == "i" and arr.min() < 0):
        raise ValueError("mask values must be exactly 0 or 1")
    return arr.astype(np.uint8, copy=False)


def as_int(value, name, least) -> int:
    """Read the integer argument ``name``, which must be at least ``least``.

    Any exact integer type is accepted (``operator.index``), numpy's
    included.  A bool, a float, a str or a Fraction raises TypeError: a
    size of 3.9 is never read as 3.
    """
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be an integer, not a bool")
    try:
        v = operator.index(value)
    except TypeError:
        raise TypeError(
            f"{name} must be an integer, got {type(value).__name__}"
        ) from None
    if v < least:
        raise ValueError(f"{name} must be >= {least}, got {v}")
    return v


def as_pair(value, name, least) -> tuple:
    """Read the pair argument ``name``, two integers each at least ``least``.

    Anything that is not exactly two entries raises ValueError naming the
    argument; each entry is read by :func:`as_int`.
    """
    try:
        a, b = value
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be two integers, got {value!r}") from None
    return as_int(a, name, least), as_int(b, name, least)


def normalize_sizes(sizes) -> tuple:
    """Canonicalize a collection of patch sizes: ints >= 1, strictly increasing."""
    out = tuple(sorted(as_int(s, "patch size", 1) for s in sizes))
    for a, b in zip(out, out[1:]):
        if a == b:
            raise ValueError(f"duplicate patch sizes: {a} is given more than once")
    return out


def as_gamma(gamma) -> Fraction:
    """Read the threshold ``gamma`` and return its exact value as a Fraction.

    Floats (numpy's included) are taken at their exact binary value;
    integers and Fractions pass through unchanged.  A bool, a str, a
    Decimal or None raises TypeError.  Anything outside [0, 1) raises
    ValueError -- at gamma >= 1 every placement of the patch would qualify
    and the completion would be the whole image, which is never useful.
    """
    if isinstance(gamma, Fraction):
        g = gamma
    elif isinstance(gamma, (bool, np.bool_)):
        raise TypeError("gamma must be a number, not a bool")
    elif isinstance(gamma, (int, np.integer)):
        g = Fraction(int(gamma))
    elif isinstance(gamma, (float, np.floating)):
        if not math.isfinite(gamma):
            raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
        g = Fraction(float(gamma))
    else:
        raise TypeError(f"gamma must be float or Fraction, got {type(gamma)!r}")
    if not 0 <= g < 1:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    return g
