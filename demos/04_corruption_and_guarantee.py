"""The four corruption models, and the coverage guarantee they feed.

Each model damages a ground-truth patch in a different way but reports
its exact Hamming damage.  Whenever that damage stays within
floor(gamma * s**2), completing the corrupted observation at gamma must
cover every true patch pixel — that is the guarantee the trial harness
hammers on.
"""

import numpy as np

from maskcomplete import distance_cutoff
from maskcomplete.corruption import (
    CorruptionKind,
    CorruptionModel,
    corrupt_outcome,
    guarantee_trial,
)


def show(mask, title):
    print(title)
    for row in mask:
        print("  " + "".join("#" if v else "." for v in row))
    print()


s = 10
truth = np.zeros((20, 24), dtype=np.uint8)
truth[5:15, 7:17] = 1
show(truth, "ground truth (10x10 patch)")

# 29, not 30: thresholds use the exact value of the float you pass, and
# 0.3 as a double is a hair below 3/10.  Pass Fraction(3, 10) for exact
# decimal semantics.
budget = distance_cutoff(0.3, s)
print(f"budget = {budget} pixels (gamma=0.3, s={s})\n")

for kind in CorruptionKind:
    outcome = corrupt_outcome(truth, CorruptionModel(kind, budget, seed=21))
    show(
        outcome.mask,
        f"{kind.value}: moved {outcome.hamming} pixels"
        + (" [clamped]" if outcome.clamped else ""),
    )

# Now the guarantee itself, 25 seeded trials per model.
print("guarantee trials (gamma=0.3, s=10, 32x32 canvas):")
for kind in CorruptionKind:
    passed = 0
    for seed in range(25):
        record = guarantee_trial(s, (32, 32), 0.3, CorruptionModel(kind, budget, seed))
        assert record.within_budget  # the models never overspend
        passed += record.passed
    print(f"  {kind.value:<15} {passed}/25 covered")
