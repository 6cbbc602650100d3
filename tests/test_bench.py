"""Benchmark harness structure checks.

Timing *values* are asserted in the acceptance tests with realistic
canvases; here we only verify report shape, on tiny inputs.
"""

import pytest

from maskcomplete.bench import BENCH_GAMMA, _time_configs, run_benchmark


def test_report_structure():
    report = run_benchmark(canvases=(32, 48), sizes=(4, 8), repeats=1)
    assert report["config"]["gamma"] == BENCH_GAMMA
    assert set(report["dp_seconds"]) == {"32", "48"}
    assert set(report["dp_seconds"]["32"]) == {"4", "8"}
    assert set(report["oracle_seconds"]) == {"32"}  # smallest canvas only
    assert "dp_area_ratio" in report
    assert "dp_size_spread" in report
    assert "oracle_growth" in report
    for per_size in report["dp_seconds"].values():
        for seconds in per_size.values():
            assert seconds > 0


def test_single_canvas_has_no_area_ratio():
    report = run_benchmark(canvases=(32,), sizes=(4,), repeats=1, include_oracle=False)
    assert "dp_area_ratio" not in report
    assert "dp_size_spread" not in report
    assert "oracle_growth" not in report
    assert report["oracle_seconds"] == {}


def test_oversized_patch_skipped():
    report = run_benchmark(canvases=(16,), sizes=(8, 64), repeats=1)
    assert set(report["dp_seconds"]["16"]) == {"8"}
    assert set(report["oracle_seconds"]["16"]) == {"8"}


def test_bad_repeat_counts():
    with pytest.raises(ValueError):
        run_benchmark(canvases=(16,), sizes=(4,), repeats=0)


def test_duplicate_sizes_rejected():
    with pytest.raises(ValueError, match="duplicate patch sizes"):
        run_benchmark(canvases=(16,), sizes=(4, 4), repeats=1, include_oracle=False)


def test_empty_canvas_set_rejected():
    with pytest.raises(ValueError, match="^at least one canvas is required$"):
        run_benchmark(canvases=(), sizes=(4,), repeats=1, include_oracle=False)


def test_duplicate_canvases_rejected():
    # a repeated canvas would be built and timed twice but reported once
    with pytest.raises(ValueError, match="duplicate canvases"):
        run_benchmark(canvases=(16, 16), sizes=(4,), repeats=1, include_oracle=False)


def test_time_configs_counts_calls():
    calls = []

    def complete(mask, size, gamma):
        calls.append((mask.shape, size, gamma))

    seconds = _time_configs(complete, (16, 8), (4, 12), repeats=3)
    assert set(seconds) == {"16", "8"} and set(seconds["8"]) == {"4"}
    assert all(t >= 0 for per_size in seconds.values() for t in per_size.values())
    # per canvas, in turn: one warmup round + three timed rounds, round-robin
    big = [((16, 16), 4, BENCH_GAMMA), ((16, 16), 12, BENCH_GAMMA)]
    assert calls == big * 4 + [((8, 8), 4, BENCH_GAMMA)] * 4
    calls.clear()
    _time_configs(complete, (16,), (4, 12), repeats=2, warmup=False)
    assert calls == big * 2
