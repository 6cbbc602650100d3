"""Complete a damaged square patch at a single threshold.

We draw a 12x12 patch, delete a chunk of it, then ask for every 12x12
placement whose relative Hamming distance to the observation is at most
gamma.  The union of accepted placements is the completed mask.
"""

import numpy as np

from maskcomplete import complete_single_size


def show(mask, title):
    print(title)
    for row in mask:
        print("  " + "".join("#" if v else "." for v in row))
    print()


H = W = 28
s = 12

observed = np.zeros((H, W), dtype=np.uint8)
observed[8 : 8 + s, 9 : 9 + s] = 1
observed[8:13, 9:17] = 0  # tear off the upper-left corner (40 pixels)

show(observed, f"observed ({np.count_nonzero(observed)} pixels on)")

# 40 missing pixels out of 144 is a relative distance of ~0.28,
# so gamma = 0.3 accepts the true placement; gamma = 0.2 does not.
for gamma in (0.2, 0.3):
    completed = complete_single_size(observed, s, gamma)
    show(completed, f"completed at gamma={gamma} ({np.count_nonzero(completed)} pixels on)")

# At 0.3 the completion is a superset of the original patch: every
# placement that could explain the observation is covered.
completed = complete_single_size(observed, s, 0.3)
truth = np.zeros((H, W), dtype=np.uint8)
truth[8 : 8 + s, 9 : 9 + s] = 1
print("true patch fully covered at gamma=0.3:", not np.any(truth & ~completed))
