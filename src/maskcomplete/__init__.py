"""maskcomplete: robust completion of binary patch masks.

Given a partial or corrupted observation of a square adversarial patch,
compute the minimal mask guaranteed to cover any ground-truth placement
within a bounded relative Hamming distance, in time linear in the image
area.  Ships with a brute-force oracle, seeded corruption models for
guarantee testing, parametric shape generators, PBM mask I/O, and a
scaling benchmark.
"""

from .bench import run_benchmark
from .completion import (
    CompletionReport,
    GammaSchedule,
    complete_fixed_gamma,
    complete_single_size,
    distance_cutoff,
    gamma_search,
)
from .corruption import (
    DEFAULT_SEED,
    CorruptionKind,
    CorruptionModel,
    CorruptionOutcome,
    TrialRecord,
    corrupt_outcome,
    guarantee_trial,
)
from .masks import as_mask, normalize_sizes
from .oracle import (
    PatchCandidate,
    oracle_complete_multi,
    oracle_complete_single,
    oracle_min_distance,
)
from .pbm import PBMFormatError, decode_pbm, encode_pbm, read_pbm, write_pbm
from .shapes import ShapeKind, generate_shape_mask

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "as_mask",
    "ShapeKind",
    "generate_shape_mask",
    "GammaSchedule",
    "CompletionReport",
    "normalize_sizes",
    "distance_cutoff",
    "complete_single_size",
    "complete_fixed_gamma",
    "gamma_search",
    "PatchCandidate",
    "oracle_complete_single",
    "oracle_complete_multi",
    "oracle_min_distance",
    "DEFAULT_SEED",
    "CorruptionKind",
    "CorruptionModel",
    "CorruptionOutcome",
    "TrialRecord",
    "corrupt_outcome",
    "guarantee_trial",
    "PBMFormatError",
    "encode_pbm",
    "decode_pbm",
    "read_pbm",
    "write_pbm",
    "run_benchmark",
]
