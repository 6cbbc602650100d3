"""Generation of patch-shaped binary masks (square, circle, rectangle,
diamond, triangle, ellipse) whose pixel count approximates n*n.

Square and Rectangle are constructed exactly.  The curved/angled kinds are
rasterized by center inclusion: a pixel is set iff its center falls inside
the analytic region.  The region scale is searched so that the resulting
popcount lands as close to n*n as the pixel grid allows; for the kinds with
large tie groups along straight edges (diamond, triangle) a small aspect
perturbation widens the set of reachable counts.  One table per kind holds
its gauge, area, extent and aspect ratios.  Every n >= 8 lands within 0.5%
of n*n (checked through n = 150).
"""

import enum
import math

import numpy as np

from .masks import as_int, as_pair

__all__ = ["ShapeKind", "generate_shape_mask"]

# Sub-pixel placements of the shape center relative to the pixel lattice.
# Quarter-pixel steps break grid symmetries, which densifies the set of
# reachable popcounts for the highly symmetric kinds.
_OFFSETS = tuple(
    (oy, ox) for oy in (0.0, 0.25, 0.5) for ox in (0.0, 0.25, 0.5)
)

# Aspect perturbations tried for the straight-edged kinds.
_RATIOS = tuple(np.linspace(0.9, 1.1, 21))


class ShapeKind(enum.Enum):
    """Closed set of supported patch shapes."""

    SQUARE = "square"
    CIRCLE = "circle"
    RECTANGLE = "rectangle"
    DIAMOND = "diamond"
    TRIANGLE = "triangle"
    ELLIPSE = "ellipse"


def _rectangle_dims(n):
    """Rows/cols of the landscape rectangle with area exactly n*n.

    Picks the divisor of n*n closest to n/sqrt(2), which brings the aspect
    ratio as close to 2:1 as an exact-area rectangle allows (degenerates to
    n x n when n is prime).
    """
    target = n / math.sqrt(2.0)
    rows = min(
        (d for d in range(1, n + 1) if (n * n) % d == 0),
        key=lambda d: (abs(d - target), d),
    )
    return rows, (n * n) // rows


def _triangle_gauge(y, x, ratio):
    # Isoceles triangle, apex up, centroid at the origin; height `ratio`,
    # base `1/ratio` (unit area 1/2).  The gauge of a point is the factor by
    # which the triangle must be scaled (about the centroid) to reach it.
    h = ratio
    b = 1.0 / ratio
    apex = (-2.0 * h / 3.0, 0.0)
    left = (h / 3.0, -b / 2.0)
    right = (h / 3.0, b / 2.0)
    g = None
    for (y1, x1), (y2, x2) in ((apex, left), (left, right), (right, apex)):
        a = x2 - x1
        bb = -(y2 - y1)
        c = a * y1 + bb * x1
        ell = (a * y + bb * x) / c
        g = ell if g is None else np.maximum(g, ell)
    return g


# kind -> (gauge(y, x, ratio), unit-scale region area, worst-case
# half-extent per unit scale, aspect ratios tried)
_CURVED = {
    ShapeKind.CIRCLE: (lambda y, x, r: np.hypot(y, x), math.pi, 1.0, (1.0,)),
    # 2:1 ellipse: semi-axis t along x, t/2 along y at scale t.
    ShapeKind.ELLIPSE: (lambda y, x, r: np.hypot(2.0 * y, x), math.pi / 2, 1.0, (1.0,)),
    ShapeKind.DIAMOND: (
        lambda y, x, r: r * np.abs(y) + np.abs(x) / r, 2.0, 1.2, _RATIOS
    ),
    ShapeKind.TRIANGLE: (_triangle_gauge, 0.5, 0.8, _RATIOS),
}


def _rasterize(kind, n):
    """Tight binary tile for the curved/angled kinds, popcount near n*n.

    Keeps the first (ratio, offset, threshold) tile with the smallest error
    and stops after the first ratio that reaches n*n exactly.
    """
    target = n * n
    gauge, area1, extent, ratios = _CURVED[kind]
    radius = int(math.ceil(math.sqrt(target / area1) * extent)) + 2
    coords = np.arange(-radius, radius + 1, dtype=np.float64)

    best_err, keep = math.inf, None
    for ratio in ratios:
        for oy, ox in _OFFSETS:
            g = gauge((coords + oy)[:, None], (coords + ox)[None, :], ratio)
            kth = np.partition(g.ravel(), target - 1)[target - 1]
            for tile in (g <= kth, g < kth):
                count = np.count_nonzero(tile)
                if count and abs(count - target) < best_err:
                    best_err, keep = abs(count - target), tile
        if best_err == 0:
            break

    if keep[0].any() or keep[-1].any() or keep[:, 0].any() or keep[:, -1].any():
        raise RuntimeError(f"rasterization grid too small for {kind} n={n}")
    rows = np.flatnonzero(keep.any(axis=1))
    cols = np.flatnonzero(keep.any(axis=0))
    return keep[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1].astype(np.uint8)


def _tile(kind, n):
    if kind is ShapeKind.SQUARE:
        return np.ones((n, n), dtype=np.uint8)
    if kind is ShapeKind.RECTANGLE:
        rows, cols = _rectangle_dims(n)
        return np.ones((rows, cols), dtype=np.uint8)
    return _rasterize(kind, n)


def generate_shape_mask(kind, n, anchor, canvas) -> np.ndarray:
    """Place a shape of roughly n*n pixels onto an all-zero canvas.

    Parameters
    ----------
    kind : ShapeKind or str
        Which shape to draw.
    n : int
        Nominal side length; the shape holds close to n*n pixels (exactly
        n*n for SQUARE and RECTANGLE, within 0.5% otherwise for n >= 8).
    anchor : (row, col) or None
        Top-left corner of the shape's bounding box, two integers >= 0.
        None centers the shape on the canvas.
    canvas : (H, W)
        Output mask dimensions, two integers >= 1.

    Returns
    -------
    ndarray
        H×W uint8 mask containing exactly one connected shape.

    Raises
    ------
    ValueError
        If the shape does not fit inside the canvas at the given anchor.
    """
    kind = ShapeKind(kind)
    n = as_int(n, "shape size", 1)
    if anchor is not None:
        anchor = as_pair(anchor, "anchor", 0)
    H, W = as_pair(canvas, "canvas", 1)
    # Every kind sets more than n*n/2 pixels, so this rejects only shapes
    # that cannot fit, before their tile is built.
    if n**2 > 2 * H * W:
        raise ValueError(
            f"{kind.value} of size n={n} cannot fit inside a {H}x{W} canvas"
        )

    tile = _tile(kind, n)
    h, w = tile.shape
    r, c = ((H - h) // 2, (W - w) // 2) if anchor is None else anchor
    # A centered tile wider than the canvas starts at a negative offset.
    if r < 0 or c < 0 or r + h > H or c + w > W:
        raise ValueError(
            f"{kind.value} of bounding box {h}x{w} at anchor ({r}, {c}) "
            f"does not fit inside a {H}x{W} canvas"
        )
    out = np.zeros((H, W), dtype=np.uint8)
    out[r : r + h, c : c + w] = tile
    return out
