"""Escalating-threshold search over several candidate patch sizes.

The search tries gamma_t = 1 - 0.9 * 0.7**(t-1) for t = 1..15 and stops
at the first threshold where any candidate placement is accepted.  A
clean observation stops immediately at gamma_1 = 0.1; the more damage,
the later (and looser) the stop.
"""

import numpy as np

from maskcomplete import GammaSchedule, gamma_search
from maskcomplete.corruption import CorruptionKind, CorruptionModel, corrupt_outcome

schedule = GammaSchedule()
print("schedule:", ", ".join(f"g{t}={float(schedule.gamma(t)):.4f}" for t in (1, 2, 3, 4, 15)))
print()

sizes = (8, 12, 16)
truth = np.zeros((40, 40), dtype=np.uint8)
truth[12:24, 14:26] = 1  # a 12x12 patch

for budget in (0, 20, 60):
    model = CorruptionModel(CorruptionKind.UNIFORM_FLIP, budget, seed=5)
    observed = corrupt_outcome(truth, model).mask
    completed, report = gamma_search(observed, sizes, schedule)
    covered = not np.any(truth & ~completed)
    print(
        f"flipped {budget:>2} pixels -> stopped at iteration {report.iterations_run}, "
        f"gamma={report.gamma_used}, output popcount {report.output_popcount}, "
        f"true patch covered: {covered}"
    )
    print(f"    accepted placements per size: {report.per_size_accepted}")

# An all-zero observation never accepts anything: the report says so
# instead of returning a spurious mask.
blank = np.zeros((40, 40), dtype=np.uint8)
_, report = gamma_search(blank, sizes, schedule)
print()
print(
    f"blank observation -> attack_found={report.attack_found}, "
    f"gamma_used={report.gamma_used}, popcount {report.output_popcount}"
)
