"""Render every parametric patch shape at a couple of nominal sizes.

All shapes aim for n**2 on-pixels so that different silhouettes are
comparable attack surfaces.  Squares and rectangles hit n**2 exactly;
the curved/angled kinds land within a fraction of a percent.
"""

import numpy as np

from maskcomplete.shapes import ShapeKind, generate_shape_mask


def show(mask):
    for row in mask:
        print("  " + "".join("#" if v else "." for v in row))


for kind in ShapeKind:
    n = 12
    mask = generate_shape_mask(kind, n, anchor=(0, 0), canvas=(30, 40))
    # crop to the occupied rows/cols for a compact printout
    rows = mask.any(axis=1).nonzero()[0]
    cols = mask.any(axis=0).nonzero()[0]
    crop = mask[rows.min() : rows.max() + 1, cols.min() : cols.max() + 1]
    count = np.count_nonzero(mask)
    err = (count - n * n) / (n * n)
    print(f"{kind.value}: n={n}, popcount {count} (target {n * n}, {err:+.2%})")
    show(crop)
    print()

print("popcount accuracy across sizes (square is exact by construction):")
for kind in (ShapeKind.CIRCLE, ShapeKind.DIAMOND, ShapeKind.TRIANGLE, ShapeKind.ELLIPSE):
    errs = []
    for n in (8, 16, 32, 64):
        mask = generate_shape_mask(kind, n, anchor=(0, 0), canvas=(200, 200))
        errs.append(abs(np.count_nonzero(mask) - n * n) / (n * n))
    print(f"  {kind.value:<9} worst {max(errs):.3%} over n in {{8, 16, 32, 64}}")
