"""The public surface: the names the package root exports, that importing
the root loads no tooling module, and that every name a module's
``__all__`` lists is one it defines."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import maskcomplete

PUBLIC = [
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

# Every module but __main__, which runs the CLI when imported.
MODULES = (
    "bench", "cli", "completion", "corruption", "masks", "oracle", "pbm", "shapes"
)


def test_package_exports_exactly_the_public_calls():
    assert maskcomplete.__all__ == PUBLIC


def test_root_import_loads_no_tooling_module():
    # A fresh interpreter, so no other test's imports are in sys.modules.
    src = str(Path(maskcomplete.__file__).resolve().parents[1])
    tooling = [f"maskcomplete.{m}" for m in ("bench", "oracle", "corruption", "shapes")]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import maskcomplete; "
        f"print([m for m in {tooling!r} if m in sys.modules])"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


@pytest.mark.parametrize("name", ("",) + MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"maskcomplete.{name}" if name else "maskcomplete")
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    assert [a for a in listed if not hasattr(module, a)] == []
