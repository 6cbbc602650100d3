"""maskcomplete: robust completion of binary patch masks.

Given a partial or corrupted observation of a square adversarial patch,
compute the minimal mask guaranteed to cover any ground-truth placement
within a bounded relative Hamming distance, in time linear in the image
area.

The package root exports the calls a removal pipeline makes: completion
at a known threshold (one size or several), the threshold search, and PBM
mask I/O.  The tooling is imported from its own module:
:mod:`maskcomplete.oracle` (the brute-force reference),
:mod:`maskcomplete.corruption` (seeded corruption models and guarantee
trials), :mod:`maskcomplete.shapes` (parametric shape generators) and
:mod:`maskcomplete.bench` (the scaling benchmark).  Importing the root
loads none of them.
"""

from .completion import (
    CompletionReport,
    GammaSchedule,
    complete_fixed_gamma,
    complete_single_size,
    distance_cutoff,
    gamma_search,
)
from .pbm import PBMFormatError, decode_pbm, encode_pbm, read_pbm, write_pbm

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GammaSchedule",
    "CompletionReport",
    "distance_cutoff",
    "complete_single_size",
    "complete_fixed_gamma",
    "gamma_search",
    "PBMFormatError",
    "encode_pbm",
    "decode_pbm",
    "read_pbm",
    "write_pbm",
]
