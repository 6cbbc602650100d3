"""End-to-end exercises of the command-line interface.

Most tests drive ``main(argv)`` in-process against tmp_path files; one
subprocess test checks the ``python -m`` entry point.  Exit codes follow
the documented contract: 0 success, 1 verification mismatch, 2 usage
error, 3 I/O error.
"""

import errno
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskcomplete import GammaSchedule, gamma_search, read_pbm, write_pbm
from maskcomplete.bench import run_benchmark
from maskcomplete.corruption import CorruptionKind, CorruptionModel, corrupt_outcome
from maskcomplete.shapes import generate_shape_mask
import maskcomplete.cli as cli
import maskcomplete.corruption as corruption
from maskcomplete.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def corrupted_fixture(tmp_path):
    """A 16-pixel square patch on 48x48 with 19 pixels flipped, on disk."""
    gt = generate_shape_mask("square", 16, (10, 12), (48, 48))
    model = CorruptionModel(CorruptionKind.UNIFORM_FLIP, budget=19, seed=42)
    observed = corrupt_outcome(gt, model).mask
    path = tmp_path / "observed.pbm"
    write_pbm(observed, path)
    return path, observed


class TestComplete:
    def test_matches_library_search(self, tmp_path, corrupted_fixture):
        path, observed = corrupted_fixture
        out = tmp_path / "completed.pbm"
        report = tmp_path / "report.json"
        code = run_cli(
            "complete", path, "-o", out, "--sizes", "8,12,16", "--report", report
        )
        assert code == 0
        expected, lib_report = gamma_search(observed, (8, 12, 16), GammaSchedule())
        assert np.array_equal(read_pbm(out), expected)

        doc = json.loads(report.read_text())
        assert doc["schema_version"] == 1
        assert doc["command"] == "complete"
        assert doc["config"] == {
            "sizes": [8, 12, 16],
            "alpha": 0.9,
            "beta": 0.7,
            "t_max": 15,
            "union_ps": False,
            "format": "P4",
        }
        assert doc["input"]["popcount"] == int(observed.sum())
        assert doc["result"]["attack_found"] == lib_report.attack_found
        assert doc["result"]["gamma_used"] == lib_report.gamma_used
        assert doc["result"]["iterations_run"] == lib_report.iterations_run
        assert doc["result"]["output_popcount"] == lib_report.output_popcount
        assert list(doc)[-1] == "wall_time_ms"

    def test_empty_input_reports_no_attack(self, tmp_path, capsys):
        path = tmp_path / "blank.pbm"
        write_pbm(np.zeros((32, 32), dtype=np.uint8), path)
        out = tmp_path / "completed.pbm"
        report = tmp_path / "report.json"
        code = run_cli("complete", path, "-o", out, "--sizes", "8", "--report", report)
        assert code == 0
        assert "no attack found" in capsys.readouterr().out
        assert not read_pbm(out).any()
        doc = json.loads(report.read_text())
        assert doc["result"]["attack_found"] is False
        assert doc["result"]["gamma_used"] is None

    def test_fixed_gamma_path(self, tmp_path, corrupted_fixture):
        path, observed = corrupted_fixture
        out = tmp_path / "fixed.pbm"
        report = tmp_path / "report.json"
        code = run_cli(
            "complete", path, "-o", out,
            "--sizes", "16", "--fixed-gamma", "0.37", "--report", report,
        )
        assert code == 0
        from maskcomplete import complete_fixed_gamma

        want = complete_fixed_gamma(observed, (16,), 0.37)[0]
        assert np.array_equal(read_pbm(out), want)
        doc = json.loads(report.read_text())
        assert doc["config"]["fixed_gamma"] == 0.37
        assert "alpha" not in doc["config"]
        assert doc["result"]["iterations_run"] == 1

    def test_union_ps_keeps_observed_pixels(self, tmp_path, corrupted_fixture):
        path, observed = corrupted_fixture
        out = tmp_path / "unioned.pbm"
        code = run_cli(
            "complete", path, "-o", out, "--sizes", "16", "--union-ps"
        )
        assert code == 0
        got = read_pbm(out)
        assert np.array_equal(got & observed, observed)  # superset of observed

    def test_byte_identical_reruns(self, tmp_path, corrupted_fixture):
        path, _ = corrupted_fixture
        out = tmp_path / "out.pbm"
        rep = tmp_path / "rep.json"
        outs, reports = [], []
        for _ in range(2):  # identical invocation, twice
            assert run_cli(
                "complete", path, "-o", out, "--sizes", "8,12,16", "--report", rep
            ) == 0
            outs.append(out.read_bytes())
            doc = json.loads(rep.read_text())
            doc.pop("wall_time_ms")
            reports.append(doc)
        assert outs[0] == outs[1]
        assert reports[0] == reports[1]

    def test_p1_output_round_trips(self, tmp_path, corrupted_fixture):
        path, _ = corrupted_fixture
        p1 = tmp_path / "out1.pbm"
        p4 = tmp_path / "out4.pbm"
        run_cli("complete", path, "-o", p1, "--sizes", "16", "--format", "p1")
        run_cli("complete", path, "-o", p4, "--sizes", "16", "--format", "p4")
        assert p1.read_bytes().startswith(b"P1\n")
        assert np.array_equal(read_pbm(p1), read_pbm(p4))

    @pytest.mark.parametrize("fmt", ["P1", "p1", "P4", "p4"])
    def test_format_takes_either_case(self, tmp_path, corrupted_fixture, fmt):
        path, _ = corrupted_fixture
        out, gen, report = tmp_path / "out.pbm", tmp_path / "gen.pbm", tmp_path / "r.json"
        assert run_cli(
            "complete", path, "-o", out, "--sizes", "16", "--format", fmt,
            "--report", report,
        ) == 0
        assert run_cli(
            "gen", "--kind", "square", "--n", 4, "--canvas", "8x8", "-o", gen,
            "--format", fmt,
        ) == 0
        magic = fmt.upper().encode()
        assert out.read_bytes().startswith(magic) and gen.read_bytes().startswith(magic)
        assert json.loads(report.read_text())["config"]["format"] == fmt.upper()


def _ordered(value):
    """A JSON value with every object turned into its list of (key, value)
    pairs, so that comparing two of them also compares key order."""
    if isinstance(value, dict):
        return [(k, _ordered(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [_ordered(v) for v in value]
    return value


class TestReportDocuments:
    """Golden reports: every key, its order and its value (bar wall time)."""

    def run(self, capsys, report, *argv):
        assert run_cli(*argv, "--report", report) == 0
        doc = json.loads(report.read_text())
        doc.pop("wall_time_ms", None)
        return capsys.readouterr().out, _ordered(doc)

    def complete_doc(self, path, out, config, result, written):
        return _ordered({
            "schema_version": 1,
            "command": "complete",
            "mask_convention": "1 = patch pixel (PBM black)",
            "input": {"path": str(path), "height": 48, "width": 48, "popcount": 275},
            "config": config,
            "result": {**result, "output_path": str(out)},
            "written_popcount": written,
        })

    def test_complete_schedule(self, tmp_path, corrupted_fixture, capsys):
        path, _ = corrupted_fixture
        out, report = tmp_path / "o.pbm", tmp_path / "r.json"
        printed, doc = self.run(
            capsys, report, "complete", path, "-o", out, "--sizes", "8,12,16,60"
        )
        assert printed == (
            f"wrote {out}: attack found at gamma=0.1 (iteration 1), popcount 256\n"
        )
        assert doc == self.complete_doc(
            path, out,
            {"sizes": [8, 12, 16, 60], "alpha": 0.9, "beta": 0.7, "t_max": 15,
             "union_ps": False, "format": "P4"},
            {"attack_found": True, "gamma_used": 0.1, "iterations_run": 1,
             "per_size_accepted": {"8": 0, "12": 0, "16": 1, "60": 0},
             "skipped_sizes": [60], "output_popcount": 256},
            256,
        )

    def test_complete_fixed_gamma(self, tmp_path, corrupted_fixture, capsys):
        path, _ = corrupted_fixture
        out, report = tmp_path / "o.pbm", tmp_path / "r.json"
        printed, doc = self.run(
            capsys, report, "complete", path, "-o", out,
            "--sizes", "12,16", "--fixed-gamma", "0.37",
        )
        assert printed == (
            f"wrote {out}: attack found at gamma=0.37 (iteration 1), popcount 388\n"
        )
        assert doc == self.complete_doc(
            path, out,
            {"sizes": [12, 16], "fixed_gamma": 0.37, "union_ps": False,
             "format": "P4"},
            {"attack_found": True, "gamma_used": 0.37, "iterations_run": 1,
             "per_size_accepted": {"12": 0, "16": 13}, "skipped_sizes": [],
             "output_popcount": 388},
            388,
        )

    def test_complete_union_ps(self, tmp_path, corrupted_fixture, capsys):
        path, _ = corrupted_fixture
        out, report = tmp_path / "o.pbm", tmp_path / "r.json"
        printed, doc = self.run(
            capsys, report, "complete", path, "-o", out,
            "--sizes", "16", "--union-ps", "--format", "p1",
        )
        assert printed == (
            f"wrote {out}: attack found at gamma=0.1 (iteration 1), popcount 275\n"
        )
        assert doc == self.complete_doc(
            path, out,
            {"sizes": [16], "alpha": 0.9, "beta": 0.7, "t_max": 15,
             "union_ps": True, "format": "P1"},
            {"attack_found": True, "gamma_used": 0.1, "iterations_run": 1,
             "per_size_accepted": {"16": 1}, "skipped_sizes": [],
             "output_popcount": 256},
            275,
        )

    def test_corrupt(self, tmp_path, capsys):
        gt_path, out = tmp_path / "gt.pbm", tmp_path / "o.pbm"
        write_pbm(generate_shape_mask("square", 16, (10, 12), (48, 48)), gt_path)
        printed, doc = self.run(
            capsys, tmp_path / "r.json", "corrupt", gt_path, "--model", "split-hole",
            "--budget", 30, "--seed", 5, "-o", out,
        )
        assert printed == f"wrote {out}: split-hole moved 30 pixels\n"
        assert doc == _ordered({
            "schema_version": 1,
            "command": "corrupt",
            "mask_convention": "1 = patch pixel (PBM black)",
            "input": {"path": str(gt_path), "height": 48, "width": 48, "popcount": 256},
            "model": {"kind": "split-hole", "budget": 30, "seed": 5,
                      "generator": "pcg64"},
            "hamming": 30,
            "clamped": False,
            "output_path": str(out),
            "output_popcount": 226,
        })

    def test_trial(self, tmp_path, capsys):
        printed, doc = self.run(
            capsys, tmp_path / "r.json", "trial", "--size", 8, "--gamma", "0.3",
            "--model", "erode-boundary", "--trials", 3, "--canvas", "24x20",
            "--seed", 3,
        )
        assert printed == (
            "3/3 trials covered the ground truth "
            "(3 within budget, 0 guarantee violations)\n"
        )
        assert doc == _ordered({
            "schema_version": 1,
            "command": "trial",
            "config": {"size": 8, "canvas": [24, 20], "gamma": 0.3,
                       "model": "erode-boundary", "budget": 19, "trials": 3,
                       "seed": 3, "generator": "pcg64"},
            "passed": 3,
            "within_budget": 3,
            "within_budget_failures": [],
            "cover_rate": 1.0,
        })


class TestOracle:
    def test_diff_match_and_mismatch(self, tmp_path, corrupted_fixture, capsys):
        path, _ = corrupted_fixture
        completed = tmp_path / "completed.pbm"
        run_cli(
            "complete", path, "-o", completed, "--sizes", "16", "--fixed-gamma", "0.37"
        )
        assert run_cli(
            "oracle", path, "--sizes", "16", "--gamma", "0.37", "--diff", completed
        ) == 0
        assert "match" in capsys.readouterr().out

        code = run_cli(
            "oracle", path, "--sizes", "16", "--gamma", "0.8", "--diff", completed
        )
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_diff_shape_mismatch(self, tmp_path, corrupted_fixture, capsys):
        path, _ = corrupted_fixture
        small = tmp_path / "small.pbm"
        write_pbm(np.zeros((3, 3), dtype=np.uint8), small)
        code = run_cli(
            "oracle", path, "--sizes", "16", "--gamma", "0.37", "--diff", small
        )
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().err

    @pytest.fixture
    def no_run(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the brute force ran")

        monkeypatch.setattr(cli, "oracle_complete_multi", fail)

    def test_nothing_to_do_is_usage_error_before_the_run(
        self, corrupted_fixture, capsys, no_run
    ):
        path, _ = corrupted_fixture
        assert run_cli("oracle", path, "--sizes", "16", "--gamma", "0.37") == 2
        assert capsys.readouterr().err == "error: oracle needs -o/--output or --diff\n"

    def test_missing_diff_is_io_error_before_the_run(
        self, tmp_path, corrupted_fixture, capsys, no_run
    ):
        path, _ = corrupted_fixture
        missing = tmp_path / "missing.pbm"
        code = run_cli(
            "oracle", path, "--sizes", "16", "--gamma", "0.37", "--diff", missing
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    def test_diff_shape_mismatch_before_the_run(
        self, tmp_path, corrupted_fixture, capsys, no_run
    ):
        path, _ = corrupted_fixture
        small, out = tmp_path / "small.pbm", tmp_path / "o.pbm"
        write_pbm(np.zeros((3, 3), dtype=np.uint8), small)
        code = run_cli(
            "oracle", path, "--sizes", "16", "--gamma", "0.37", "-o", out, "--diff", small
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"MISMATCH: {small} is 3x3, oracle output is 48x48\n"
        )
        assert not out.exists()

    def test_diff_reads_the_file_as_it_was_before_the_run(
        self, tmp_path, corrupted_fixture, capsys
    ):
        path, _ = corrupted_fixture
        out = tmp_path / "o.pbm"
        write_pbm(np.zeros((48, 48), dtype=np.uint8), out)
        code = run_cli(
            "oracle", path, "--sizes", "16", "--gamma", "0.37", "-o", out, "--diff", out
        )
        assert code == 1 and read_pbm(out).any()
        assert "MISMATCH" in capsys.readouterr().err

    def test_output_file(self, tmp_path, corrupted_fixture):
        path, observed = corrupted_fixture
        out = tmp_path / "oracle.pbm"
        assert run_cli(
            "oracle", path, "--sizes", "16", "--gamma", "0.37", "-o", out
        ) == 0
        from maskcomplete.oracle import oracle_complete_multi

        assert np.array_equal(read_pbm(out), oracle_complete_multi(observed, (16,), 0.37))


class TestGen:
    def test_square_popcount_exact(self, tmp_path):
        out = tmp_path / "sq.pbm"
        assert run_cli(
            "gen", "--kind", "square", "--n", 100, "--canvas", "500x500", "-o", out
        ) == 0
        assert int(read_pbm(out).sum()) == 100 * 100

    def test_ellipse_popcount_close(self, tmp_path):
        out = tmp_path / "el.pbm"
        assert run_cli(
            "gen", "--kind", "ellipse", "--n", 100, "--canvas", "500x500", "-o", out
        ) == 0
        assert abs(int(read_pbm(out).sum()) - 10000) <= 200

    def test_anchor_placement(self, tmp_path):
        out = tmp_path / "sq.pbm"
        run_cli(
            "gen", "--kind", "square", "--n", 5, "--canvas", "20x30",
            "--anchor", "2,4", "-o", out,
        )
        mask = read_pbm(out)
        assert mask.shape == (20, 30)
        assert mask[2:7, 4:9].all() and int(mask.sum()) == 25

    def test_shape_too_big_is_usage_error(self, tmp_path):
        code = run_cli(
            "gen", "--kind", "square", "--n", 100, "--canvas", "50x50",
            "-o", tmp_path / "x.pbm",
        )
        assert code == 2

    @pytest.mark.parametrize("kind", ["square", "circle", "rectangle"])
    def test_oversized_shape_rejected_before_drawing(self, tmp_path, capsys, kind):
        code = run_cli(
            "gen", "--kind", kind, "--n", 10**6, "--canvas", "8x8",
            "-o", tmp_path / "x.pbm",
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {kind} of size n=1000000 cannot fit inside a 8x8 canvas\n"
        )

    @pytest.mark.parametrize(
        "canvas,shape",
        [("64", (64, 64)), ("64x48", (64, 48)), ("64X48", (64, 48)),
         ("64,48", (64, 48)), (" 8 x 9 ", (8, 9)), ("5x", (5, 5)), ("x5", (5, 5))],
    )
    def test_canvas_spellings(self, tmp_path, canvas, shape):
        out = tmp_path / "sq.pbm"
        assert run_cli(
            "gen", "--kind", "square", "--n", 1, f"--canvas={canvas}", "-o", out
        ) == 0
        assert read_pbm(out).shape == shape

    @pytest.mark.parametrize("command", ["gen", "trial"])
    def test_canvas_below_one_is_the_library_message(self, tmp_path, capsys, command):
        argv = {
            "gen": ["gen", "--kind", "square", "--n", 1, "--canvas", "0x5",
                    "-o", tmp_path / "x.pbm"],
            "trial": ["trial", "--size", 4, "--canvas", "0x8", "--gamma", "0.3",
                      "--model", "uniform-flip"],
        }[command]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == "error: canvas must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "flag,text,form",
        [("canvas", "1x2x3", "HxW or a single size"),
         ("canvas", "8xa", "HxW or a single size"),
         ("anchor", "1,2,3", "ROW,COL"),
         ("anchor", "", "ROW,COL")],
    )
    def test_malformed_pair_is_usage_error(self, tmp_path, capsys, flag, text, form):
        pairs = {"canvas": "16x16", "anchor": "0,0", flag: text}
        code = run_cli(
            "gen", "--kind", "square", "--n", 1, f"--canvas={pairs['canvas']}",
            f"--anchor={pairs['anchor']}", "-o", tmp_path / "x.pbm",
        )
        assert code == 2
        # Three integers are spelled well; the library rejects their count.
        message = {
            "1x2x3": "canvas must be two integers, got [1, 2, 3]",
            "1,2,3": "anchor must be two integers, got [1, 2, 3]",
        }.get(text, f"{flag} must look like {form}, got {text!r}")
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCorruptAndTrial:
    def test_corrupt_flip_budget(self, tmp_path):
        gt_path = tmp_path / "gt.pbm"
        out = tmp_path / "bad.pbm"
        report = tmp_path / "report.json"
        run_cli("gen", "--kind", "square", "--n", 10, "--canvas", "32x32", "-o", gt_path)
        code = run_cli(
            "corrupt", gt_path, "--model", "uniform-flip", "--budget", 10,
            "--seed", 7, "-o", out, "--report", report,
        )
        assert code == 0
        gt, bad = read_pbm(gt_path), read_pbm(out)
        assert int((gt ^ bad).sum()) == 10
        doc = json.loads(report.read_text())
        assert doc["hamming"] == 10
        assert doc["clamped"] is False
        assert doc["model"] == {
            "kind": "uniform-flip", "budget": 10, "seed": 7, "generator": "pcg64",
        }

    @pytest.mark.parametrize("size", [0, -3])
    @pytest.mark.parametrize(
        "model", ["uniform-flip", "erode-boundary", "dilate-outside", "split-hole"]
    )
    def test_trial_size_below_one_is_usage_error(self, capsys, model, size):
        code = run_cli(
            "trial", f"--size={size}", "--gamma", "0.3", "--model", model, "--trials", 1
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: patch size must be >= 1, got {size}\n"

    @pytest.mark.parametrize("command", ["corrupt", "trial"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        gt_path = tmp_path / "gt.pbm"
        write_pbm(generate_shape_mask("square", 8, None, (16, 16)), gt_path)
        argv = {
            "corrupt": ["corrupt", gt_path, "--budget", 3, "-o", tmp_path / "o.pbm"],
            "trial": ["trial", "--size", 4, "--canvas", "16x16", "--gamma", "0.3"],
        }[command]
        assert run_cli(*argv, "--model", "uniform-flip", "--seed", -1) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_trial_within_budget_all_covered(self, tmp_path, capsys):
        report = tmp_path / "trials.json"
        code = run_cli(
            "trial", "--size", 8, "--gamma", "0.3", "--model", "erode-boundary",
            "--trials", 20, "--canvas", "48x48", "--seed", 3, "--report", report,
        )
        assert code == 0
        assert "20/20" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["cover_rate"] == 1.0
        assert doc["within_budget"] == 20
        assert doc["within_budget_failures"] == []
        assert doc["config"]["budget"] == 19  # floor(0.3 * 64)

    def test_trial_reports_each_violation_by_its_seed(self, tmp_path, capsys, monkeypatch):
        # An engine that covers nothing fails every trial within budget.
        monkeypatch.setattr(
            corruption, "complete_single_size", lambda mask, s, gamma: np.zeros_like(mask)
        )
        report = tmp_path / "trials.json"
        code = run_cli(
            "trial", "--size", 8, "--gamma", "0.3", "--model", "erode-boundary",
            "--trials", 3, "--canvas", "24x20", "--seed", 3, "--report", report,
        )
        assert code == 1
        assert "3 guarantee violations" in capsys.readouterr().out
        seeds = np.random.SeedSequence(3).generate_state(3, dtype=np.uint64)
        doc = json.loads(report.read_text())
        assert doc["within_budget_failures"] == [int(x) for x in seeds]


class TestBench:
    def test_no_flags_run_the_benchmark_on_its_own_defaults(self, monkeypatch):
        calls = []

        def record(**options):
            calls.append(options)
            return {"dp_seconds": {}, "oracle_seconds": {}}

        monkeypatch.setattr(cli, "run_benchmark", record)
        assert run_cli("bench") == 0
        signature = inspect.signature(run_benchmark)
        called = signature.bind(**calls[0])
        called.apply_defaults()
        assert called.arguments == {n: p.default for n, p in signature.parameters.items()}

    def test_tiny_benchmark_runs(self, tmp_path, capsys):
        report = tmp_path / "bench.json"
        code = run_cli(
            "bench", "--canvases", "48,,64,", "--sizes", "8,12", "--reps", 1,
            "--report", report,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dp " in out and "oracle " in out
        doc = json.loads(report.read_text())
        assert doc["schema_version"] == 1 and doc["command"] == "bench"
        assert set(doc["dp_seconds"]) == {"48", "64"}
        assert "dp_area_ratio" in doc and "oracle_growth" in doc

    def test_no_oracle_flag(self, capsys):
        code = run_cli(
            "bench", "--canvases", "48", "--sizes", "8", "--reps", 1, "--no-oracle"
        )
        assert code == 0
        assert "oracle " not in capsys.readouterr().out

    @pytest.mark.parametrize("canvases", ["0", "-5", "48,0"])
    def test_canvas_below_one_is_usage_error(self, capsys, canvases):
        code = run_cli("bench", f"--canvases={canvases}", "--sizes", "8", "--no-oracle")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: canvases must be >= 1")

    @pytest.mark.parametrize(
        "sizes,message",
        [
            ("4,4", "duplicate patch sizes"),
            ("8,4,8,4", "duplicate patch sizes: 4 is given more than once\n"),
            ("", "at least one patch size is required"),
        ],
    )
    def test_bad_sizes_are_usage_errors(self, capsys, sizes, message):
        code = run_cli("bench", "--canvases", "16", f"--sizes={sizes}", "--no-oracle")
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "canvases,message",
        [
            ("16,16", "duplicate canvases"),
            ("", "at least one canvas is required"),
            (" , ", "at least one canvas is required"),
            ("16,x", "canvases must be comma-separated integers"),
        ],
    )
    def test_bad_canvases_are_usage_errors(self, capsys, canvases, message):
        code = run_cli("bench", f"--canvases={canvases}", "--sizes", "8", "--no-oracle")
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestErrorHandling:
    def test_missing_input_is_io_error(self, tmp_path):
        code = run_cli(
            "complete", tmp_path / "nope.pbm", "-o", tmp_path / "o.pbm", "--sizes", "8"
        )
        assert code == 3

    @pytest.mark.parametrize("flag", ["-o", "--report"])
    @pytest.mark.parametrize(
        "target,err",
        [("missing/o", errno.ENOENT), ("dir", errno.EISDIR)],
        ids=["missing-dir", "is-dir"],
    )
    def test_unwritable_output_names_the_requested_path(
        self, tmp_path, corrupted_fixture, capsys, flag, target, err
    ):
        path, _ = corrupted_fixture
        (tmp_path / "dir").mkdir()
        dest = {"-o": tmp_path / "o.pbm", "--report": tmp_path / "r.json"}
        dest[flag] = tmp_path / target
        code = run_cli(
            "complete", path, "-o", dest["-o"], "--report", dest["--report"],
            "--sizes", "8",
        )
        assert code == 3
        message = f"[Errno {err}] {os.strerror(err)}: '{tmp_path / target}'"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.glob(".tmp-*")) == []

    def test_corrupt_pbm_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.pbm"
        bad.write_bytes(b"P4\n8 8\n\x00\x00")  # truncated raster
        code = run_cli("complete", bad, "-o", tmp_path / "o.pbm", "--sizes", "8")
        assert code == 3

    def test_bad_gamma_is_usage_error(self, tmp_path, corrupted_fixture):
        path, _ = corrupted_fixture
        code = run_cli(
            "oracle", path, "--sizes", "8", "--gamma", "1.5",
            "--diff", path,
        )
        assert code == 2

    @pytest.mark.parametrize("gamma", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("command", ["complete", "oracle", "trial"])
    def test_non_finite_gamma_is_usage_error(
        self, tmp_path, corrupted_fixture, capsys, command, gamma
    ):
        path, _ = corrupted_fixture
        argv = {
            "complete": ["complete", path, "-o", tmp_path / "o.pbm", "--sizes", "8",
                         f"--fixed-gamma={gamma}"],
            "oracle": ["oracle", path, "--sizes", "8", f"--gamma={gamma}"],
            "trial": ["trial", "--size", "4", "--canvas", "16x16", f"--gamma={gamma}",
                      "--model", "uniform-flip", "--trials", "1"],
        }[command]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("error: gamma must lie in [0, 1)")

    @pytest.mark.parametrize(
        "flag,message",
        [
            ("--alpha=5", "alpha must lie in (0, 1), got 5.0"),
            ("--beta=0", "beta must lie in (0, 1), got 0.0"),
            ("--t-max=-3", "t_max must be >= 1, got -3"),
        ],
    )
    def test_fixed_gamma_checks_the_schedule_flags(
        self, tmp_path, corrupted_fixture, capsys, flag, message
    ):
        # The schedule is unused at a fixed gamma, but its flags are still checked.
        path, _ = corrupted_fixture
        out = tmp_path / "o.pbm"
        code = run_cli(
            "complete", path, "-o", out, "--sizes", "15", "--fixed-gamma", "0.3", flag
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bad_sizes_is_usage_error(self, tmp_path, corrupted_fixture):
        path, _ = corrupted_fixture
        code = run_cli("complete", path, "-o", tmp_path / "o.pbm", "--sizes", "8,oops")
        assert code == 2

    @pytest.mark.parametrize(
        "argv,target,exc,message",
        [
            (["bench", "--canvases", "100000", "--sizes", "8", "--no-oracle"],
             "run_benchmark", MemoryError("Unable to allocate 74.5 GiB"),
             "Unable to allocate 74.5 GiB"),
            (["gen", "--kind", "square", "--n", "10", "--canvas", "100000x100000",
              "-o", "unwritten.pbm"],
             "generate_shape_mask", MemoryError(), "out of memory"),
        ],
        ids=["bench", "gen"],
    )
    def test_out_of_memory_is_usage_error(
        self, monkeypatch, capsys, argv, target, exc, message
    ):
        # The command's allocation fails without being made.
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, target, fail)
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["complete", "in.pbm", "-o", "o.pbm", "--sizes", "-1,3"],
             "maskcomplete complete: error: argument --sizes: expected one argument\n"),
            (["bench", "--canvases", "-4,8", "--sizes", "8", "--no-oracle"],
             "maskcomplete bench: error: argument --canvases: expected one argument\n"),
        ],
        ids=["complete", "bench"],
    )
    def test_value_after_space_starting_with_dash_is_argparse_error(
        self, capsys, argv, message
    ):
        # argparse reads "-1,3" as an option, so it never reaches the library.
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and err.endswith(message)

    @pytest.mark.parametrize(
        "command,message",
        [
            ("complete", "patch size must be >= 1, got -1"),
            ("bench", "canvases must be >= 1, got -4"),
        ],
    )
    def test_value_after_equals_sign_reaches_the_library(
        self, tmp_path, corrupted_fixture, capsys, command, message
    ):
        path, _ = corrupted_fixture
        argv = {
            "complete": ["complete", path, "-o", tmp_path / "o.pbm", "--sizes=-1,3"],
            "bench": ["bench", "--canvases=-4,8", "--sizes", "8", "--no-oracle"],
        }[command]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2


# Numeric CLI arguments: small values, zero, negatives and huge ints; floats
# include nan and +-inf.  Canvases stay <= 256 and --trials <= 3, so that no
# example allocates more than a few MB; bench canvases stay <= 64 and its
# repetition counts <= 2, so that no example takes long.  A blank input is
# answered without walking the schedule and a patch's stopping step is found
# in closed form, so --t-max goes up to 10**9 on both inputs.
INTS = st.one_of(
    st.integers(-3, 40), st.sampled_from([-(10**20), 2**63, 10**20, 2**64 + 1])
)
FLOATS = st.one_of(
    st.floats(), st.sampled_from([0.0, 0.5, 1.0, -0.0, 5e-324, 1e300])
)
CANVAS = st.builds("{}x{}".format, st.integers(-2, 256), st.integers(-2, 256))
# Exit code 1 means a verification mismatch, which only ``oracle --diff`` and
# ``trial`` verify; every other command exits 0, 2 or 3.
EXIT_CODES = {0, 2, 3}
VERIFY_EXIT_CODES = {0, 1, 2, 3}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    write_pbm(generate_shape_mask("square", 12, (5, 7), (32, 32)), d / "patch.pbm")
    write_pbm(np.zeros((32, 32), dtype=np.uint8), d / "blank.pbm")
    return d


class TestNumericArguments:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["square", "circle", "rectangle", "diamond",
                              "triangle", "ellipse"]),
        n=INTS, canvas=CANVAS, anchor=st.none() | st.tuples(INTS, INTS),
    )
    def test_gen(self, fuzz_dir, kind, n, canvas, anchor):
        argv = ["gen", f"--kind={kind}", f"--n={n}", f"--canvas={canvas}",
                "-o", fuzz_dir / "gen.pbm"]
        if anchor is not None:
            argv.append(f"--anchor={anchor[0]},{anchor[1]}")
        assert run_cli(*argv) in EXIT_CODES

    @settings(max_examples=60, deadline=None)
    @given(
        source=st.sampled_from(["patch.pbm", "blank.pbm"]),
        model=st.sampled_from([k.value for k in CorruptionKind]),
        budget=INTS, seed=INTS,
    )
    def test_corrupt(self, fuzz_dir, source, model, budget, seed):
        code = run_cli(
            "corrupt", fuzz_dir / source, f"--model={model}", f"--budget={budget}",
            f"--seed={seed}", "-o", fuzz_dir / "corrupt.pbm",
            "--report", fuzz_dir / "corrupt.json",
        )
        assert code in EXIT_CODES

    @settings(max_examples=60, deadline=None)
    @given(
        size=INTS, canvas=CANVAS, gamma=FLOATS,
        model=st.sampled_from([k.value for k in CorruptionKind]),
        budget=st.none() | INTS, trials=st.integers(-2, 3), seed=INTS,
    )
    def test_trial(self, fuzz_dir, size, canvas, gamma, model, budget, trials, seed):
        argv = ["trial", f"--size={size}", f"--canvas={canvas}", f"--gamma={gamma}",
                f"--model={model}", f"--trials={trials}", f"--seed={seed}",
                "--report", fuzz_dir / "trial.json"]
        if budget is not None:
            argv.append(f"--budget={budget}")
        assert run_cli(*argv) in VERIFY_EXIT_CODES

    @settings(max_examples=60, deadline=None)
    @given(
        source=st.sampled_from(["patch.pbm", "blank.pbm"]),
        t_max=st.integers(-2, 10**9),
        sizes=st.lists(INTS, min_size=1, max_size=4),
        alpha=FLOATS, beta=FLOATS,
        fixed_gamma=st.none() | FLOATS, union_ps=st.booleans(),
    )
    def test_complete(
        self, fuzz_dir, source, t_max, sizes, alpha, beta, fixed_gamma, union_ps
    ):
        argv = ["complete", fuzz_dir / source, "-o", fuzz_dir / "complete.pbm",
                f"--sizes={','.join(map(str, sizes))}", f"--alpha={alpha}",
                f"--beta={beta}", f"--t-max={t_max}",
                "--report", fuzz_dir / "complete.json"]
        if fixed_gamma is not None:
            argv.append(f"--fixed-gamma={fixed_gamma}")
        if union_ps:
            argv.append("--union-ps")
        assert run_cli(*argv) in EXIT_CODES

    @settings(max_examples=60, deadline=None)
    @given(
        source=st.sampled_from(["patch.pbm", "blank.pbm"]),
        sizes=st.lists(INTS, min_size=1, max_size=4),
        gamma=FLOATS, diff=st.booleans(),
    )
    def test_oracle(self, fuzz_dir, source, sizes, gamma, diff):
        argv = ["oracle", fuzz_dir / source, f"--sizes={','.join(map(str, sizes))}",
                f"--gamma={gamma}", "-o", fuzz_dir / "oracle.pbm"]
        if diff:
            argv.append(f"--diff={fuzz_dir / 'patch.pbm'}")
        assert run_cli(*argv) in (VERIFY_EXIT_CODES if diff else EXIT_CODES)

    @settings(max_examples=60, deadline=None)
    @given(
        canvases=st.lists(st.integers(-2, 64), max_size=3),
        sizes=st.lists(INTS, min_size=1, max_size=3),
        reps=st.integers(-2, 2), no_oracle=st.booleans(),
    )
    def test_bench(self, fuzz_dir, canvases, sizes, reps, no_oracle):
        argv = ["bench", f"--canvases={','.join(map(str, canvases))}",
                f"--sizes={','.join(map(str, sizes))}", f"--reps={reps}",
                "--report", fuzz_dir / "bench.json"]
        if no_oracle:
            argv.append("--no-oracle")
        assert run_cli(*argv) in EXIT_CODES


def test_module_entry_point(tmp_path):
    out = tmp_path / "sq.pbm"
    proc = subprocess.run(
        [
            sys.executable, "-m", "maskcomplete",
            "gen", "--kind", "square", "--n", "4", "--canvas", "8x8", "-o", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(read_pbm(out).sum()) == 16


def test_parser_built_once_per_process():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
