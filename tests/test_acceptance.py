"""Release gate: one test per headline contract of the package.

Each test prints a single PASS/FAIL verdict line on the live terminal
(bypassing pytest capture) so a full run yields a six-line scorecard:

    1. engine == oracle, exhaustively on tiny masks and on 10k random ones
    2. zero coverage violations over 12,000 seeded corruption trials
    3. exact-patch observations recovered at the first threshold, exactly
    4. monotonicity in gamma and size set; symmetry equivariance
    5. runtime scales with image area, flat in patch size; oracle does not
    6. PBM round-trip identity and byte-identical CLI reruns
"""

import json
import time

import numpy as np

from conftest import planted_patch, random_mask
from maskcomplete import (
    GammaSchedule,
    complete_fixed_gamma,
    complete_single_size,
    decode_pbm,
    distance_cutoff,
    encode_pbm,
    gamma_search,
    read_pbm,
    write_pbm,
)
from maskcomplete.bench import run_benchmark
from maskcomplete.corruption import (
    CorruptionKind,
    CorruptionModel,
    corrupt_outcome,
    guarantee_trial,
)
from maskcomplete.oracle import oracle_complete_single
from maskcomplete.shapes import generate_shape_mask
from maskcomplete.cli import main as cli_main


def _verdict(capfd, number, label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}{tail}"
    with capfd.disabled():  # write through pytest capture to the terminal
        print(line, flush=True)
    return line


def test_criterion_1_engine_matches_oracle(capfd):
    start = time.perf_counter()
    mismatches = 0

    # (a) every 4x4 mask, both fitting sizes, four thresholds
    masks = np.unpackbits(
        np.arange(65536, dtype=">u2").view(np.uint8)
    ).reshape(65536, 4, 4)
    grid = [(s, g) for s in (2, 3) for g in (0.0, 0.25, 0.5, 0.75)]
    exhaustive = 0
    for mask in masks:
        for s, g in grid:
            exhaustive += 1
            if not np.array_equal(
                complete_single_size(mask, s, g), oracle_complete_single(mask, s, g)
            ):
                mismatches += 1

    # (b) 10,000 randomized instances, H,W <= 24, s <= 8 (oversized included)
    rng = np.random.default_rng(0xACCE9701)
    tenths = np.arange(10) / 10.0
    randomized = 10_000
    for _ in range(randomized):
        h = int(rng.integers(1, 25))
        w = int(rng.integers(1, 25))
        s = int(rng.integers(1, 9))
        if s <= min(h, w) and rng.random() < 0.25:
            mask = planted_patch(rng, h, w, s, int(rng.integers(0, s * s // 2 + 1)))
        else:
            mask = random_mask(rng, h, w, rng.uniform(0.0, 1.0))
        g = float(rng.choice(tenths)) if rng.random() < 0.5 else float(rng.random())
        if not np.array_equal(
            complete_single_size(mask, s, g), oracle_complete_single(mask, s, g)
        ):
            mismatches += 1

    elapsed = time.perf_counter() - start
    line = _verdict(
        capfd,
        1,
        "engine matches brute-force oracle",
        mismatches == 0 and elapsed < 120,
        f"{exhaustive} exhaustive + {randomized} randomized comparisons, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0, line
    assert elapsed < 120, line


def test_criterion_2_coverage_guarantee(capfd):
    start = time.perf_counter()
    gamma = 0.3
    sizes = (8, 16, 25)
    budgets = [distance_cutoff(gamma, s) for s in sizes]
    assert budgets == [19, 76, 187]  # floor(0.3 * s^2) by hand

    seeds = np.random.SeedSequence(0xACCE9702).generate_state(12_000, dtype=np.uint64)
    violations = 0
    k = 0
    for s, budget in zip(sizes, budgets):
        for kind in CorruptionKind:
            for _ in range(1000):
                record = guarantee_trial(
                    s, (64, 64), gamma, CorruptionModel(kind, budget, int(seeds[k]))
                )
                k += 1
                if not (record.within_budget and record.passed):
                    violations += 1

    elapsed = time.perf_counter() - start
    line = _verdict(
        capfd,
        2,
        "coverage guarantee over seeded corruption",
        violations == 0,
        f"{k} trials across sizes {sizes} x 4 models, "
        f"{violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0, line


def test_criterion_3_exact_patch_recovery(capfd):
    sizes = (8, 12, 16)
    schedule = GammaSchedule()
    failures = []
    for s in sizes:
        observed = np.zeros((48, 48), dtype=np.uint8)
        observed[16 : 16 + s, 10 : 10 + s] = 1
        out, report = gamma_search(observed, sizes, schedule)
        if not (
            report.attack_found
            and report.iterations_run == 1
            and report.gamma_used == 0.1  # exact: schedule arithmetic is rational
            and np.count_nonzero(out) == s * s
        ):
            failures.append((s, report))

    line = _verdict(
        capfd,
        3,
        "exact patch recovered at first threshold",
        not failures,
        f"sizes {sizes}, gamma_1 == 0.1 exactly, popcount == s^2",
    )
    assert not failures, f"{line}: {failures}"


def test_criterion_4_monotonicity_and_symmetry(capfd):
    start = time.perf_counter()
    rng = np.random.default_rng(0xACCE9704)
    gamma_bad = size_bad = sym_bad = 0

    for _ in range(1000):  # larger threshold never shrinks the output
        h, w = (int(v) for v in rng.integers(6, 28, 2))
        mask = random_mask(rng, h, w, rng.uniform(0.05, 0.6))
        s = int(rng.integers(1, min(h, w, 8) + 1))
        lo, hi = np.sort(rng.random(2))
        small = complete_single_size(mask, s, float(lo))
        big = complete_single_size(mask, s, float(hi))
        if np.any(small & ~big):
            gamma_bad += 1

    for _ in range(1000):  # more candidate sizes never shrink the output
        h, w = (int(v) for v in rng.integers(8, 28, 2))
        mask = random_mask(rng, h, w, rng.uniform(0.05, 0.6))
        all_sizes = sorted(rng.choice(np.arange(1, 9), size=3, replace=False).tolist())
        subset = all_sizes[: int(rng.integers(1, 3))]
        g = float(rng.random())
        small = complete_fixed_gamma(mask, subset, g)[0]
        big = complete_fixed_gamma(mask, all_sizes, g)[0]
        if np.any(small & ~big):
            size_bad += 1

    for _ in range(1000):  # completion commutes with flips and transpose
        h, w = (int(v) for v in rng.integers(6, 28, 2))
        mask = random_mask(rng, h, w, rng.uniform(0.05, 0.6))
        s = int(rng.integers(1, min(h, w, 8) + 1))
        g = float(rng.random())
        out = complete_single_size(mask, s, g)
        if not (
            np.array_equal(complete_single_size(mask[::-1], s, g), out[::-1])
            and np.array_equal(complete_single_size(mask[:, ::-1], s, g), out[:, ::-1])
            and np.array_equal(complete_single_size(mask.T, s, g), out.T)
        ):
            sym_bad += 1

    elapsed = time.perf_counter() - start
    ok = gamma_bad == size_bad == sym_bad == 0
    line = _verdict(
        capfd,
        4,
        "monotonicity and symmetry equivariance",
        ok,
        f"1000 instances each; violations: gamma={gamma_bad}, "
        f"sizes={size_bad}, symmetry={sym_bad}; {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_5_scaling_contract(capfd):
    start = time.perf_counter()
    # Each call takes a few ms, so a burst of load on a shared host can move
    # one size's best of a few rounds by a fifth; its best of 40 holds steady.
    report = run_benchmark(canvases=(512, 1024), sizes=(25, 50, 100), repeats=40)
    area_ratio = report["dp_area_ratio"]
    size_spread = report["dp_size_spread"]
    oracle_growth = report["oracle_growth"]
    ok = 2.5 <= area_ratio <= 6.0 and size_spread < 0.20 and oracle_growth >= 4.0

    elapsed = time.perf_counter() - start
    line = _verdict(
        capfd,
        5,
        "runtime scales with area, flat in patch size",
        ok,
        f"area ratio {area_ratio:.2f} (want 2.5-6), size spread "
        f"{size_spread * 100:.1f}% (want <20%), oracle growth "
        f"{oracle_growth:.1f}x (want >=4x); {elapsed:.1f}s",
    )
    assert 2.5 <= area_ratio <= 6.0, line
    assert size_spread < 0.20, line
    assert oracle_growth >= 4.0, line


def test_criterion_6_determinism_and_round_trip(tmp_path, capfd):
    rng = np.random.default_rng(0xACCE9706)
    bad_round_trips = 0
    for _ in range(1000):
        h, w = (int(v) for v in rng.integers(1, 40, 2))
        mask = random_mask(rng, h, w, rng.uniform(0.0, 1.0))
        for fmt in ("P1", "P4"):
            if not np.array_equal(decode_pbm(encode_pbm(mask, fmt)), mask):
                bad_round_trips += 1

    gt = generate_shape_mask("square", 16, (10, 12), (48, 48))
    model = CorruptionModel(CorruptionKind.UNIFORM_FLIP, 19, seed=7)
    observed = corrupt_outcome(gt, model).mask
    src = tmp_path / "observed.pbm"
    write_pbm(observed, src)
    out = tmp_path / "completed.pbm"
    rep = tmp_path / "report.json"
    argv = [
        "complete", str(src), "-o", str(out),
        "--sizes", "8,12,16", "--report", str(rep),
    ]
    outputs, reports = [], []
    for _ in range(2):  # the same invocation, twice
        assert cli_main(list(argv)) == 0
        outputs.append(out.read_bytes())
        doc = json.loads(rep.read_text())
        doc.pop("wall_time_ms")
        reports.append(doc)
    identical = outputs[0] == outputs[1] and reports[0] == reports[1]
    sane = np.count_nonzero(read_pbm(out)) == reports[0]["written_popcount"] > 0

    ok = bad_round_trips == 0 and identical and sane
    line = _verdict(
        capfd,
        6,
        "file round-trip and run-to-run determinism",
        ok,
        f"1000 masks x 2 formats, {bad_round_trips} bad round-trips; "
        f"reruns byte-identical: {identical}",
    )
    assert ok, line
