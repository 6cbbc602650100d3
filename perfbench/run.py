"""Benchmark of the maskcomplete sources in this checkout, one workload per run.

    python3 perfbench/run.py --workload patch-frames --seed 1 --seconds 20 --trace 0

One client, in one process and one thread, calls the program in a closed
loop: each operation starts once the previous one has returned and its
output has been checked.  Checks run outside the timed region.  An
operation is one in-process ``maskcomplete.cli.main(["complete", ...])``
call (PBM read, search, PBM write, JSON report) or one ``guarantee_trial``
call.

``--trace 0`` reports the end-to-end metrics: latency median and tail,
operations per second, peak bytes per pixel (from a separate tracemalloc
pass) and set-up time.  Timings are rescaled to a fixed host speed, read
from a calibration kernel timed between operations (see ``HostSpeed``).
``--trace 1`` times the loop untraced and then traced, for the same
number of seconds each, and reports per-layer
metrics from spans recorded around the program's public functions, plus
the tracing overhead.  The last line of standard output is one JSON
object; the lines before it give the same numbers for a reader.
"""

import argparse
import bisect
import contextlib
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from reference import Reference
from spans import SpanStats, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
# The tail is the highest percentile, up to TAIL_CAP, with TAIL_SAMPLES
# samples beyond it.  Past p90 the samples are mostly operations that a
# brief stall of the shared host hit, whose count varies several-fold
# between runs.
TAIL_SAMPLES = 10
TAIL_CAP = 90.0
# Wall-clock seconds between calibration readings, kernel runs per
# reading, and readings on each side of an instant that its speed
# estimate takes the median of.
CAL_EVERY = 0.5
CAL_RUNS = 3
CAL_WINDOW = 4


class _Discard:
    """Sink for the program's progress lines, so they stay off our stdout."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


class HostSpeed:
    """Readings of a fixed calibration kernel, taken all through a run.

    The host is shared with other guests' work, and its speed drifts by
    up to a factor of two over seconds to minutes, for the program and for
    any fixed code alike.  A timing taken at instant ``t`` is multiplied by
    the workload's reference kernel time over the median kernel time of
    the readings around ``t``, which gives it as it would read on a host
    whose kernel takes the reference time.  The kernel is the benchmark's
    own reference completion of a fixed frame (scipy and numpy, no program
    code), so a change to the program moves the timings and not the scale.

    How much a drift slows code depends on whether its data fit in a
    core's L2 cache, so each workload names a kernel like itself (see
    ``workloads.Calibration``).
    """

    def __init__(self, calibration):
        rng = np.random.default_rng(0)
        side = calibration.side
        self._frame = (rng.random((side, side)) < 0.1).astype(np.uint8)
        self._frame[10:26, 10:26] = 1
        self._repeats = calibration.repeats
        self.reference_s = calibration.reference_s
        self.starts = []
        self.seconds = []
        self._kernel()

    def _kernel(self):
        for _ in range(self._repeats):
            Reference(self._frame, (16,)).fixed(0.3)

    def read(self):
        """One reading: the median of a few kernel runs."""
        self.starts.append(time.perf_counter())
        runs = []
        for _ in range(CAL_RUNS):
            start = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - start)
        self.seconds.append(statistics.median(runs))

    def due(self):
        return not self.starts or time.perf_counter() - self.starts[-1] >= CAL_EVERY

    def scale(self, t):
        """Factor that takes a timing made at instant ``t`` to the reference speed."""
        i = bisect.bisect(self.starts, t)
        near = self.seconds[max(0, i - CAL_WINDOW):i + CAL_WINDOW]
        return self.reference_s / statistics.median(near)


def import_seconds():
    """Seconds a fresh interpreter takes to import the program's CLI."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import maskcomplete.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, timeout=120,
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def set_up(workload, seed, workdir):
    """Generate the inputs, write them, make one warm-up call; returns (frames, seconds)."""
    start = time.perf_counter()
    frames = workload.generate(seed)
    workload.write(frames, workdir)
    workload.run(frames[0])
    return frames, time.perf_counter() - start


def run_op(workload, frames, index, tracer=None):
    """One timed operation and its untimed check.

    Returns ``(index, start, seconds, problems)``, a tuple of plain values that the
    garbage collector stops tracking, so thousands of them add nothing to
    the collection pauses the program sees.
    """
    frame = frames[index]
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(frame)
        else:
            with tracer.span("op"):
                result = workload.run(frame)
    except (Exception, SystemExit) as exc:
        return index, start, time.perf_counter() - start, (f"raised {exc!r}",)
    elapsed = time.perf_counter() - start
    try:
        return index, start, elapsed, tuple(workload.check(frame, result))
    except Exception as exc:
        return index, start, elapsed, (f"check raised {exc!r}",)


def closed_loop(workload, frames, seconds, tracer=None, speed=None):
    """Cycle through the frames until ``seconds`` of operation time have passed.

    A traced loop also finishes its last cycle, so per-operation counts
    average over whole pools and repeat exactly from run to run.  Objects
    made during set-up are frozen out of garbage collection meanwhile.
    ``speed``, if given, takes its readings between operations and once
    more at the end, outside the operation time.
    """
    ops = []
    busy = 0.0
    gc.collect()
    gc.freeze()
    try:
        while busy < seconds or (tracer is not None and len(ops) % len(frames)):
            if speed is not None and speed.due():
                speed.read()
            if tracer is not None:
                tracer.op = len(ops)
            ops.append(run_op(workload, frames, len(ops) % len(frames), tracer))
            busy += ops[-1][2]
        if speed is not None:
            speed.read()
    finally:
        gc.unfreeze()
    return ops


def memory_pass(workload, frames, tracer):
    """One operation per frame class under tracemalloc; returns the operations."""
    first = {}
    for index, frame in enumerate(frames):
        first.setdefault(frame.label, index)
    ops = []
    tracemalloc.start()
    try:
        for op, index in enumerate(first.values()):
            tracer.op = op
            ops.append(run_op(workload, frames, index, tracer))
    finally:
        tracemalloc.stop()
    return ops


def rescaled(ops, speed):
    """Each operation's seconds at the reference host speed."""
    return [elapsed * speed.scale(start) for _, start, elapsed, _ in ops]


def latency_summary(seconds):
    """(median ms, tail ms, tail percentile, samples beyond the tail)."""
    ms = sorted(1e3 * s for s in seconds)
    n = len(ms)
    beyond = 0 if n <= TAIL_SAMPLES else max(TAIL_SAMPLES, math.ceil(n * (1 - TAIL_CAP / 100)))
    return statistics.median(ms), ms[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def end_to_end(workload, seed, seconds, workdir):
    speed = HostSpeed(workload.calibration)
    setups = []
    for _ in range(SETUP_REPEATS):
        speed.read()
        start = time.perf_counter()
        imported = import_seconds()
        frames, generated = set_up(workload, seed, workdir)
        setups.append((start, imported + generated))
    speed.read()
    for frame in frames:
        workload.prepare_check(frame)
    timed = closed_loop(workload, frames, seconds, speed=speed)
    memory = Tracer(memory=True)
    memory_ops = memory_pass(workload, frames, memory)

    latencies = rescaled(timed, speed)
    p50, tail, pct, beyond = latency_summary(latencies)
    raw_p50 = latency_summary(elapsed for _, _, elapsed, _ in timed)[0]
    peak = max(s.peak for s in memory.spans if s.name == "op") / workload.pixels
    metrics = {
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_bytes_per_pixel": (peak, "B/px"),
        "setup_s": (statistics.median(s * speed.scale(t) for t, s in setups), "s"),
    }
    notes = [f"closed loop, 1 client, 1 thread: {len(timed)} timed ops",
             f"latency_tail_ms is p{pct:.2f} of {len(timed)} samples ({beyond} beyond it)",
             f"setup_s is the median of {SETUP_REPEATS} set-ups",
             f"timings are at the reference host speed; unscaled latency_p50_ms is "
             f"{raw_p50:.6g} ms, and the calibration kernel took "
             f"{1e3 * statistics.median(speed.seconds):.4g} ms (median of "
             f"{len(speed.seconds)} readings) against {1e3 * speed.reference_s:.4g} ms"]
    return frames, timed + memory_ops, metrics, notes


def per_layer(workload, seed, seconds, workdir):
    tracer = Tracer()
    with tracer.installed():
        tracer.op = "setup"
        frames, _ = set_up(workload, seed, workdir)
    for frame in frames:
        workload.prepare_check(frame)
    speed = HostSpeed(workload.calibration)
    untraced = closed_loop(workload, frames, seconds / 2, speed=speed)
    with tracer.installed():
        traced = closed_loop(workload, frames, seconds / 2, tracer, speed)
    memory = Tracer(memory=True)
    with memory.installed():
        memory_ops = memory_pass(workload, frames, memory)
    tracer.write(WORK / f"spans-{workload.name}.jsonl")

    st = SpanStats(tracer.spans, set(range(len(traced))))
    setup = SpanStats(tracer.spans, {"setup"})
    mem = SpanStats(memory.spans, set(range(len(memory_ops))))
    px = workload.pixels
    untraced_p50 = latency_summary(rescaled(untraced, speed))[0]
    steps = statistics.fmean(workload.schedule_steps(frames[i]) for i, *_ in traced)
    metrics = {
        "completion.candidate_field.calls": (st.calls("completion.candidate_field"), "count"),
        "masks.integral_image.calls": (st.calls("masks.integral_image"), "count"),
        "completion.useful_pass_frac": (st.note_mean("completion.candidate_field"), "frac"),
        "completion.candidate_field.self_ms": (st.self_ms("completion.candidate_field"), "ms"),
        "masks.integral_image.ms": (st.ms("masks.integral_image"), "ms"),
        "completion.candidate_field.peak_bytes_per_pixel": (
            mem.peak_per_pixel("completion.candidate_field", px), "B/px"),
        "completion.search.ms": (
            st.ms_per_op("completion.gamma_search", "completion.complete_fixed_gamma"), "ms"),
        "completion.schedule_steps": (steps, "count"),
        "pbm.read_pbm.ms": (st.ms("pbm.read_pbm"), "ms"),
        "pbm.write_pbm.ms": (st.ms("pbm.write_pbm"), "ms"),
        "pbm.read_pbm.bytes": (st.note_mean("pbm.read_pbm"), "B"),
        "pbm.write_pbm.bytes": (st.note_mean("pbm.write_pbm"), "B"),
        "pbm.read_pbm.peak_bytes_per_pixel": (mem.peak_per_pixel("pbm.read_pbm", px), "B/px"),
        "cli.main.self_ms": (st.self_ms("cli.main"), "ms"),
        "masks.popcount.calls": (st.calls("masks.popcount"), "count"),
        "corruption.corrupt_outcome.ms": (st.ms("corruption.corrupt_outcome"), "ms"),
        "completion.complete_single_size.ms": (st.ms("completion.complete_single_size"), "ms"),
        "masks.as_mask.ms": (st.ms("masks.as_mask"), "ms"),
        "corruption.guarantee_trial.self_ms": (st.self_ms("corruption.guarantee_trial"), "ms"),
        "shapes.generate_shape_mask.ms": (setup.ms("shapes.generate_shape_mask"), "ms"),
        "trace.overhead_frac": (
            (latency_summary(rescaled(traced, speed))[0] - untraced_p50) / untraced_p50, "frac"),
    }
    notes = [f"closed loop, 1 client, 1 thread: {len(untraced)} untraced and "
             f"{len(traced)} traced ops ({len(traced) // len(frames)} whole pools)",
             "counts are per op; .ms and .self_ms are per call, except "
             "completion.search.ms, which is per op"]
    return frames, untraced + traced + memory_ops, metrics, notes


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns the result object printed as the last line."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with contextlib.redirect_stdout(_Discard()):
            measure = per_layer if trace else end_to_end
            frames, ops, metrics, notes = measure(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [(i, problems) for i, _, _, problems in ops if problems]
    for i, problems in failed[:5]:
        print(f"FAILED {name} frame {i} ({frames[i].label}): {'; '.join(problems)}",
              file=sys.stderr)
    print(f"== {name} (seed {seed}, {seconds} s, trace {trace})")
    for line in notes:
        print(f"   {line}")
    print(f"   {'failed_frac':<50} {len(failed) / len(ops):.6g}  "
          f"({len(failed)} of {len(ops)} ops attempted)")
    for key, (value, unit) in metrics.items():
        print(f"   {key:<50} {value:.6g} {unit}")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["patch-frames", "clean-frames", "plain-codec",
                                 "guarantee-trials", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "maskcomplete" / "__init__.py").is_file():
        print(f"error: no maskcomplete sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import maskcomplete

    if Path(maskcomplete.__file__).resolve().parent != SRC / "maskcomplete":
        print(f"error: imported maskcomplete from {maskcomplete.__file__}", file=sys.stderr)
        return 2

    names = (["patch-frames", "clean-frames", "plain-codec", "guarantee-trials"]
             if args.workload == "all" else [args.workload])
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
