"""Tests of the benchmark itself.  Run with ``python -m pytest perfbench``."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import maskcomplete.pbm as pbm  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from maskcomplete.completion import complete_fixed_gamma, gamma_search  # noqa: E402
from maskcomplete.oracle import oracle_complete_multi  # noqa: E402
from reference import Reference, decode_pbm, encode_pbm, schedule_gamma  # noqa: E402
from spans import SpanStats, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("seed", range(12))
def test_reference_matches_oracle_and_engine(seed):
    rng = np.random.default_rng(seed)
    H, W = (int(v) for v in rng.integers(7, 13, size=2))
    mask = np.zeros((H, W), dtype=np.uint8)
    mask[1:6, 2:7] = 1
    mask ^= (rng.random((H, W)) < 0.15).astype(np.uint8)
    sizes = (3, 5)
    ref = Reference(mask, sizes)
    for t in (1, 3, 6, 15):
        g = schedule_gamma(t)
        assert np.array_equal(ref.completion(g), oracle_complete_multi(mask, sizes, g))

    want = ref.search()
    out, report = gamma_search(mask, sizes)
    assert np.array_equal(want.mask, out)
    assert (want.attack_found, want.gamma_used, want.iterations_run) == (
        report.attack_found, report.gamma_used, report.iterations_run)

    want = ref.fixed(0.3)
    out, report = complete_fixed_gamma(mask, sizes, 0.3)
    assert np.array_equal(want.mask, out)
    assert (want.attack_found, want.gamma_used) == (report.attack_found, report.gamma_used)


@pytest.mark.parametrize("fmt", ["P1", "P4"])
def test_pbm_codec_agrees_with_the_program(fmt):
    mask = (np.random.default_rng(1).random((9, 70)) < 0.5).astype(np.uint8)
    assert np.array_equal(pbm.decode_pbm(encode_pbm(mask, fmt)), mask)
    assert np.array_equal(decode_pbm(pbm.encode_pbm(mask, fmt)), mask)


@pytest.fixture
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run(name, trace, one_setup, capsys):
    result = run.run_workload(name, seed=7, seconds=0.05, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert "failed_frac" in capsys.readouterr().out


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _first_frame(workload, tmp_path, label=None, seed=3):
    frames = workload.generate(seed)
    frame = next(f for f in frames if label is None or f.label == label)
    workload.write([frame], tmp_path)
    workload.prepare_check(frame)
    return frame


def test_flipped_output_pixel_counts_as_failure(tmp_path, monkeypatch):
    workload = WORKLOADS["patch-frames"]
    frame = _first_frame(workload, tmp_path)
    clean_run = workload.run

    def run_then_flip(f):
        code = clean_run(f)
        out = decode_pbm(Path(f.paths[1]).read_bytes()).copy()
        out[0, 0] ^= 1
        Path(f.paths[1]).write_bytes(encode_pbm(out, "P4"))
        return code

    assert run.closed_loop(workload, [frame], 1e-9)[0][-1] == ()
    monkeypatch.setattr(workload, "run", run_then_flip)
    ops = run.closed_loop(workload, [frame], 1e-9)
    assert ops[0][-1] == ("1 output pixels differ from the reference",)


def test_altered_trial_record_counts_as_failure(tmp_path, monkeypatch):
    workload = WORKLOADS["guarantee-trials"]
    frame = _first_frame(workload, tmp_path)
    clean_run = workload.run
    monkeypatch.setattr(workload, "run", lambda f: dataclasses.replace(clean_run(f), passed=False))
    assert run.closed_loop(workload, [frame], 1e-9)[0][-1]


def _pass_counts(workload, frame):
    tracer = Tracer()
    with tracer.installed():
        tracer.op = 0
        workload.run(frame)
    st = SpanStats(tracer.spans, {0})
    return st.calls("completion.candidate_field"), st.calls("masks.integral_image")


@pytest.mark.parametrize("name,label,passes", [
    ("clean-frames", "stray", 60),
    ("clean-frames", "zero", 0),
    ("clean-frames", "t=4", 16),
    ("clean-frames", "t=5", 20),
    ("patch-frames", "t=1", 4),
    ("patch-frames", "t=2", 8),
    ("patch-frames", "t=3", 12),
    ("plain-codec", None, 1),
    ("guarantee-trials", None, 1),
])
def test_traced_pass_counts_are_exact(name, label, passes, tmp_path):
    workload = WORKLOADS[name]
    frame = _first_frame(workload, tmp_path, label)
    assert _pass_counts(workload, frame) == (passes, passes)
    assert _pass_counts(workload, frame) == (passes, passes)


def test_missing_wrapped_name_reads_zero(monkeypatch, tmp_path):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("masks.gone", "maskcomplete.masks", "no_such_function"),))
    workload = WORKLOADS["guarantee-trials"]
    frame = _first_frame(workload, tmp_path)
    tracer = Tracer()
    with tracer.installed():
        tracer.op = 0
        workload.run(frame)
    st = SpanStats(tracer.spans, {0})
    assert st.calls("masks.gone") == 0 and st.ms("masks.gone") == 0.0
    assert st.calls("corruption.guarantee_trial") == 1


def test_generation_is_seeded_and_keeps_its_class_mix():
    workload = WORKLOADS["clean-frames"]
    first, again, other = workload.generate(5), workload.generate(5), workload.generate(6)
    assert all(np.array_equal(a.observed, b.observed) for a, b in zip(first, again))
    assert not all(np.array_equal(a.observed, b.observed) for a, b in zip(first, other))
    assert [f.label for f in first] == [f.label for f in other]
    assert sorted(f.label for f in first) == ["stray"] * 8 + ["t=4", "t=5", "zero", "zero"]


def test_exits_nonzero_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "patch-frames", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_host_speed_scales_by_the_readings_around_an_instant():
    half = 2 * run.CAL_WINDOW
    speed = run.HostSpeed(workloads.SMALL)
    speed.starts = [float(i) for i in range(2 * half)]
    speed.seconds = [0.001] * half + [0.004] * half
    fast, slow = speed.reference_s / 0.001, speed.reference_s / 0.004
    assert speed.scale(0.5) == pytest.approx(fast)
    assert speed.scale(2 * half - 0.5) == pytest.approx(slow)
    ops = [(0, 0.5, 0.2, ()), (0, 2 * half - 0.5, 1.2, ())]
    assert run.rescaled(ops, speed) == pytest.approx([0.2 * fast, 1.2 * slow])
