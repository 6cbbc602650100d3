"""The public surface: the names the package root exports, and that every
name a module's ``__all__`` lists is one it defines."""

import importlib

import pytest

import maskcomplete

PUBLIC = [
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

# Every module but __main__, which runs the CLI when imported.
MODULES = (
    "bench", "cli", "completion", "corruption", "masks", "oracle", "pbm", "shapes"
)


def test_package_exports_exactly_the_public_calls():
    assert maskcomplete.__all__ == PUBLIC


@pytest.mark.parametrize("name", ("",) + MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"maskcomplete.{name}" if name else "maskcomplete")
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    assert [a for a in listed if not hasattr(module, a)] == []
