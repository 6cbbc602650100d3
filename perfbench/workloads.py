"""The benchmark's workloads: seeded inputs, one operation, and its check.

Each workload turns a seed into a fixed-size pool of frames whose mix of
cost classes is the same for every seed: the seed moves patches, sizes,
damage and stray pixels, never how many frames of each class there are.
Frames of different classes are interleaved, so a run that stops part-way
through the pool keeps close to the same mix, and the median and the tail
each fall inside one class instead of on a boundary between two.

Inputs are drawn with the program's own shape and corruption models and
then filtered with the independent reference until each frame stops at
its class's schedule step.  The program only sees the written files (or,
for ``guarantee-trials``, the trial arguments).
"""

import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

import maskcomplete.cli as cli
import maskcomplete.corruption as corruption
import maskcomplete.shapes as shapes
from maskcomplete.corruption import CorruptionModel
from maskcomplete.oracle import oracle_complete_single

from reference import Reference, check_completion, cutoff, encode_pbm, schedule_gamma

SIZES = (25, 50, 75, 100)
MODELS = ("uniform-flip", "erode-boundary", "dilate-outside", "split-hole")
_ATTEMPTS = 200


class Calibration(NamedTuple):
    """The host-speed kernel of a workload: ``repeats`` reference completions
    of a fixed ``side`` x ``side`` frame, and the kernel time that timings
    are rescaled to (about its time on the host in ``baseline.json``)."""

    side: int
    repeats: int
    reference_s: float


# A kernel whose data fit in a core's 2 MiB L2 cache, like the 0.3 MB
# that guarantee-trials works on, and one whose data do not, like the 4 to
# 16 MB of the complete workloads (baseline.json lists each working set).
SMALL = Calibration(64, 10, 0.0018)
LARGE = Calibration(512, 1, 0.016)


@dataclass
class Frame:
    """One input of a workload, with what its check needs."""

    label: str
    observed: np.ndarray = None
    sizes: tuple = SIZES
    fixed_gamma: float = None
    gt: np.ndarray = None
    gt_size: int = 0
    damage: int = 0
    model: CorruptionModel = None
    paths: tuple = ()
    expected: object = None
    problems: list = field(default_factory=list)


def _seed(rng):
    return int(rng.integers(0, 2**63))


def _damaged_patch(rng, canvas, step, first_model):
    """A square patch damaged so that the schedule stops exactly at ``step``.

    The damage is drawn from the middle half of the band of relative
    Hamming distances that step ``step`` accepts and step ``step - 1`` does
    not; draws that some other window would accept earlier are redrawn.
    """
    H, W = canvas
    lo, hi = float(schedule_gamma(step - 1)), float(schedule_gamma(step))
    for attempt in range(_ATTEMPTS):
        s = int(rng.choice(SIZES))
        anchor = (int(rng.integers(0, H - s + 1)), int(rng.integers(0, W - s + 1)))
        gt = shapes.generate_shape_mask("square", s, anchor, canvas)
        budget = int((lo + (hi - lo) * rng.uniform(0.25, 0.75)) * s * s)
        kind = MODELS[(first_model + attempt) % len(MODELS)]
        obs = corruption.corrupt_outcome(gt, CorruptionModel(kind, budget, _seed(rng))).mask
        if Reference(obs, SIZES).stop_step() == step:
            return Frame(f"t={step}", obs, gt=gt, gt_size=s,
                         damage=int(np.count_nonzero(gt != obs)))
    raise RuntimeError(f"no damaged patch stopping at step {step} in {_ATTEMPTS} draws")


def _stray_pixels(rng, canvas):
    """Sparse false-positive pixels that no schedule step accepts."""
    H, W = canvas
    for _ in range(_ATTEMPTS):
        obs = np.zeros(canvas, dtype=np.uint8)
        obs.flat[rng.choice(H * W, size=int(rng.integers(4, 41)), replace=False)] = 1
        if Reference(obs, SIZES).stop_step() is None:
            return Frame("stray", obs)
    raise RuntimeError(f"no stray-pixel frame without an attack in {_ATTEMPTS} draws")


def _patch_frames(rng):
    # 4 x (t=1, t=2, t=3): the median lands in the t=2 class, the tail in t=3.
    return [_damaged_patch(rng, (512, 512), 1 + i % 3, i) for i in range(12)]


def _clean_frames(rng):
    # 8 stray, 2 all-zero, 2 heavy (t=4, t=5): stray frames run all 60
    # passes and make up two thirds of the pool, so median and tail both
    # measure the full schedule.
    canvas = (256, 256)
    frames = []
    for i, kind in enumerate(("stray", "stray", "heavy", "stray", "zero", "stray") * 2):
        if kind == "stray":
            frames.append(_stray_pixels(rng, canvas))
        elif kind == "zero":
            frames.append(Frame("zero", np.zeros(canvas, dtype=np.uint8)))
        else:
            frames.append(_damaged_patch(rng, canvas, 4 if i < 6 else 5, i))
    return frames


def _plain_frames(rng):
    # Three frames per size, damaged within the fixed threshold's cutoff.  All
    # cost the same P1 decode, but the rest varies by some 10% with the
    # damage, so one frame per size would leave the median to the seed.  The
    # memory pass runs the first, whose s=25 gives the largest candidate plane.
    frames = []
    for i in range(3 * len(SIZES)):
        s = SIZES[i % len(SIZES)]
        gamma = (0.15, 0.25, 0.35, 0.45)[i % len(SIZES)]
        anchor = (int(rng.integers(0, 512 - s + 1)), int(rng.integers(0, 512 - s + 1)))
        gt = shapes.generate_shape_mask("square", s, anchor, (512, 512))
        budget = int(rng.uniform(0.3, 0.9) * cutoff(gamma, s))
        model = CorruptionModel(MODELS[(i + i // len(SIZES)) % len(MODELS)], budget, _seed(rng))
        obs = corruption.corrupt_outcome(gt, model).mask
        frames.append(Frame("p1", obs, (s,), gamma, gt=gt, gt_size=s,
                            damage=int(np.count_nonzero(gt != obs))))
    return frames


class CliWorkload:
    """``maskcomplete complete`` on PBM files, called in process."""

    calibration = LARGE

    def __init__(self, name, canvas, fmt, make_frames):
        self.name = name
        self.canvas = canvas
        self.pixels = canvas[0] * canvas[1]
        self.fmt = fmt
        self._make_frames = make_frames

    def generate(self, seed):
        return self._make_frames(np.random.default_rng([seed, *self.name.encode()]))

    def write(self, frames, workdir):
        for i, frame in enumerate(frames):
            base = os.path.join(workdir, f"{self.name}-{i}")
            frame.paths = (base + ".pbm", base + ".out.pbm", base + ".json")
            with open(frame.paths[0], "wb") as fh:
                fh.write(encode_pbm(frame.observed, self.fmt))

    def run(self, frame):
        src, out, report = frame.paths
        argv = ["complete", src, "-o", out, "--report", report,
                "--sizes", ",".join(map(str, frame.sizes)), "--format", self.fmt.lower()]
        if frame.fixed_gamma is not None:
            argv += ["--fixed-gamma", repr(frame.fixed_gamma)]
        return cli.main(argv)

    def prepare_check(self, frame):
        reference = Reference(frame.observed, frame.sizes)
        if frame.fixed_gamma is None:
            frame.expected = reference.search()
        else:
            frame.expected = reference.fixed(frame.fixed_gamma)

    def check(self, frame, exit_code):
        return check_completion(frame.expected, frame.paths[1], frame.paths[2], exit_code,
                                frame.gt, frame.gt_size, frame.damage)

    def schedule_steps(self, frame):
        return frame.expected.iterations_run


class TrialWorkload:
    """``guarantee_trial`` calls on a small canvas, with budget = cutoff."""

    name = "guarantee-trials"
    calibration = SMALL
    size, canvas, gamma = 16, (64, 64), 0.3
    pixels = canvas[0] * canvas[1]
    # Uniform flip twice per cycle: the two cheaper models then make up 60%
    # of the calls, so the median falls inside their cost band, not between bands.
    cycle = ("uniform-flip", "erode-boundary", "split-hole", "dilate-outside", "uniform-flip")

    def generate(self, seed):
        rng = np.random.default_rng([seed, *self.name.encode()])
        budget = cutoff(self.gamma, self.size)
        return [Frame(kind, model=CorruptionModel(kind, budget, _seed(rng)))
                for _ in range(8) for kind in self.cycle]

    def write(self, frames, workdir):
        pass

    def run(self, frame):
        return corruption.guarantee_trial(self.size, self.canvas, self.gamma, frame.model)

    def prepare_check(self, frame):
        """Run the trial once more, capturing its completion, and check it with the oracle.

        Should ``guarantee_trial`` stop calling ``complete_single_size``
        through its module, nothing is captured and only the checks on the
        returned record remain.
        """
        captured = []
        engine = corruption.complete_single_size

        def capture(*args, **kwargs):
            out = engine(*args, **kwargs)
            captured.append((np.array(args[0], dtype=np.uint8), out))
            return out

        corruption.complete_single_size = capture
        try:
            record = self.run(frame)
        finally:
            corruption.complete_single_size = engine
        s = self.size
        gt = np.zeros(self.canvas, dtype=np.uint8)
        gt[record.patch_row : record.patch_row + s, record.patch_col : record.patch_col + s] = 1
        if captured:
            obs, out = captured[0]
            oracle = oracle_complete_single(obs, s, self.gamma)
            if not np.array_equal(out, oracle):
                frame.problems.append("completion differs from the oracle")
            if record.hamming != int(np.count_nonzero(gt != obs)):
                frame.problems.append("reported hamming differs from the observation")
            if record.passed != (not np.any(gt > oracle)):
                frame.problems.append("passed differs from the oracle's coverage")
        if record.within_budget != (record.hamming <= cutoff(self.gamma, s)):
            frame.problems.append("within_budget differs from the cutoff")
        if record.within_budget and not record.passed:
            frame.problems.append("coverage guarantee violated")
        frame.expected = record

    def check(self, frame, record):
        if record != frame.expected:
            return ["trial record differs from the checked one"]
        return list(frame.problems)

    def schedule_steps(self, frame):
        return 0


WORKLOADS = {
    "patch-frames": CliWorkload("patch-frames", (512, 512), "P4", _patch_frames),
    "clean-frames": CliWorkload("clean-frames", (256, 256), "P4", _clean_frames),
    "plain-codec": CliWorkload("plain-codec", (512, 512), "P1", _plain_frames),
    "guarantee-trials": TrialWorkload(),
}
