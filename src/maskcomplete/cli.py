"""Command-line front end.

Subcommands::

    complete   complete an observed mask (threshold schedule or fixed gamma)
    oracle     brute-force completion, optionally diffed against another mask
    gen        draw a parametric patch shape
    corrupt    damage a ground-truth mask with a seeded corruption model
    trial      randomized coverage-guarantee trials
    bench      scaling benchmark (engine vs. oracle)

Masks travel as PBM files (P1 plain or P4 raw); bit 1 means "patch pixel"
and renders black.  Exit codes: 0 success, 1 verification mismatch, 2 usage
error, 3 I/O or file-format error.
"""

import argparse
import functools
import json
import sys
import time
from dataclasses import fields

import numpy as np

from .bench import run_benchmark
from .completion import (
    GammaSchedule,
    complete_fixed_gamma,
    distance_cutoff,
    gamma_search,
)
from .corruption import (
    DEFAULT_SEED,
    CorruptionKind,
    CorruptionModel,
    corrupt_outcome,
    guarantee_trial,
)
from .masks import as_gamma, as_int, normalize_sizes
from .oracle import oracle_complete_multi
from .pbm import PBMFormatError, atomic_write_bytes, read_pbm, write_pbm
from .shapes import ShapeKind, generate_shape_mask

SCHEMA_VERSION = 1
MASK_CONVENTION = "1 = patch pixel (PBM black)"

__all__ = ["build_parser", "main", "entrypoint"]


def _parse_ints(text, plural, singular):
    """Comma-separated integers, blank parts skipped, at least one."""
    try:
        parts = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"{plural} must be comma-separated integers, got {text!r}")
    if not parts:
        raise ValueError(f"at least one {singular} is required")
    return parts


def _parse_sizes(text):
    return normalize_sizes(_parse_ints(text, "sizes", "patch size"))


def _parse_pair(text, name, form):
    """Integers split by "x" or ","; a single one stands for both.

    Only the spelling is checked here; the library checks the count and
    the range.
    """
    try:
        pair = _parse_ints(text.lower().replace("x", ","), name, name)
    except ValueError:
        raise ValueError(f"{name} must look like {form}, got {text!r}") from None
    return pair * 2 if len(pair) == 1 else pair


def _write_report(path, command, **sections):
    doc = {"schema_version": SCHEMA_VERSION, "command": command, **sections}
    atomic_write_bytes(path, (json.dumps(doc, indent=2) + "\n").encode("utf-8"))


def _fields(record):
    """A dataclass's fields as a dict that shares their values.

    ``dataclasses.asdict`` deep-copies every value; a report only reads them.
    """
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _input_descriptor(path, mask):
    return {
        "path": str(path),
        "height": int(mask.shape[0]),
        "width": int(mask.shape[1]),
        "popcount": int(np.count_nonzero(mask)),
    }


def _cmd_complete(args):
    start = time.perf_counter()
    observed = read_pbm(args.input)
    sizes = _parse_sizes(args.sizes)
    schedule = GammaSchedule(alpha=args.alpha, beta=args.beta, t_max=args.t_max)

    if args.fixed_gamma is not None:
        completed, report = complete_fixed_gamma(observed, sizes, args.fixed_gamma)
        params = {"fixed_gamma": args.fixed_gamma}
    else:
        completed, report = gamma_search(observed, sizes, schedule)
        params = _fields(schedule)

    out, written = completed, report.output_popcount
    if args.union_ps:
        out = observed | completed
        written = int(np.count_nonzero(out))
    write_pbm(out, args.output, fmt=args.format)

    if args.report:
        _write_report(
            args.report,
            "complete",
            mask_convention=MASK_CONVENTION,
            input=_input_descriptor(args.input, observed),
            config={
                "sizes": list(sizes),
                **params,
                "union_ps": args.union_ps,
                "format": args.format,
            },
            result={**_fields(report), "output_path": str(args.output)},
            written_popcount=written,
            wall_time_ms=round((time.perf_counter() - start) * 1e3, 3),
        )

    if report.attack_found:
        outcome = (
            f"attack found at gamma={report.gamma_used:g} "
            f"(iteration {report.iterations_run})"
        )
    else:
        outcome = "no attack found"
    print(f"wrote {args.output}: {outcome}, popcount {written}")
    return 0


def _cmd_oracle(args):
    # Everything that can fail is checked before the brute force, the slow part.
    sizes, gamma = _parse_sizes(args.sizes), as_gamma(args.gamma)
    if not (args.output or args.diff):
        raise ValueError("oracle needs -o/--output or --diff")
    observed = read_pbm(args.input)
    other = read_pbm(args.diff) if args.diff else None
    if other is not None and other.shape != observed.shape:
        print(
            f"MISMATCH: {args.diff} is {other.shape[0]}x{other.shape[1]}, "
            f"oracle output is {observed.shape[0]}x{observed.shape[1]}",
            file=sys.stderr,
        )
        return 1
    out = oracle_complete_multi(observed, sizes, gamma)
    if args.output:
        write_pbm(out, args.output, fmt=args.format)
        print(f"wrote {args.output}: popcount {int(np.count_nonzero(out))}")
    if other is not None:
        differing = int(np.count_nonzero(other != out))
        if differing:
            print(f"MISMATCH: {differing} differing pixels", file=sys.stderr)
            return 1
        print(f"match: {args.diff} equals the oracle completion")
    return 0


def _cmd_gen(args):
    anchor = None if args.anchor is None else _parse_pair(args.anchor, "anchor", "ROW,COL")
    canvas = _parse_pair(args.canvas, "canvas", "HxW or a single size")
    mask = generate_shape_mask(ShapeKind(args.kind), args.n, anchor, canvas)
    write_pbm(mask, args.output, fmt=args.format)
    popcount = int(np.count_nonzero(mask))
    print(f"wrote {args.output}: {args.kind} n={args.n}, popcount {popcount}")
    return 0


def _cmd_corrupt(args):
    observed = read_pbm(args.input)
    model = CorruptionModel(kind=args.model, budget=args.budget, seed=args.seed)
    outcome = corrupt_outcome(observed, model)
    write_pbm(outcome.mask, args.output, fmt=args.format)
    if args.report:
        _write_report(
            args.report,
            "corrupt",
            mask_convention=MASK_CONVENTION,
            input=_input_descriptor(args.input, observed),
            model={**_fields(model), "kind": model.kind.value, "generator": "pcg64"},
            hamming=outcome.hamming,
            clamped=outcome.clamped,
            output_path=str(args.output),
            output_popcount=int(np.count_nonzero(outcome.mask)),
        )
    print(
        f"wrote {args.output}: {args.model} moved {outcome.hamming} pixels"
        + (" (budget clamped)" if outcome.clamped else "")
    )
    return 0


def _cmd_trial(args):
    trials = as_int(args.trials, "trials", 1)
    canvas = _parse_pair(args.canvas, "canvas", "HxW or a single size")
    budget = args.budget
    if budget is None:
        budget = distance_cutoff(args.gamma, args.size)
    seeds = np.random.SeedSequence(as_int(args.seed, "seed", 0)).generate_state(
        trials, dtype=np.uint64
    )
    records = [
        guarantee_trial(
            args.size,
            canvas,
            args.gamma,
            CorruptionModel(args.model, budget, int(seed)),
        )
        for seed in seeds
    ]
    passed = sum(r.passed for r in records)
    within = sum(r.within_budget for r in records)
    failures_within = [
        int(seed) for seed, r in zip(seeds, records) if r.within_budget and not r.passed
    ]

    if args.report:
        _write_report(
            args.report,
            "trial",
            config={
                "size": args.size,
                "canvas": canvas,
                "gamma": args.gamma,
                "model": args.model,
                "budget": budget,
                "trials": args.trials,
                "seed": args.seed,
                "generator": "pcg64",
            },
            passed=passed,
            within_budget=within,
            within_budget_failures=failures_within,
            cover_rate=passed / len(records),
        )

    print(
        f"{passed}/{len(records)} trials covered the ground truth "
        f"({within} within budget, {len(failures_within)} guarantee violations)"
    )
    return 1 if failures_within else 0


def _cmd_bench(args):
    # A flag left out leaves run_benchmark's own default in force.
    options = {"include_oracle": not args.no_oracle}
    if args.canvases is not None:
        options["canvases"] = _parse_ints(args.canvases, "canvases", "canvas")
    if args.sizes is not None:
        options["sizes"] = _parse_sizes(args.sizes)
    if args.reps is not None:
        options["repeats"] = args.reps
    report = run_benchmark(**options)
    for engine in ("dp", "oracle"):
        for canvas, per_size in report[f"{engine}_seconds"].items():
            for size, seconds in per_size.items():
                print(f"{engine:<8}{canvas:>6}px s={size:>4}  {seconds * 1e3:9.2f} ms")
    for key in ("dp_area_ratio", "dp_size_spread", "oracle_growth"):
        if key in report:
            print(f"{key} = {report[key]:.3f}")
    if args.report:
        _write_report(args.report, "bench", **report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskcomplete",
        description=(
            "Robust completion of binary patch masks: recover the minimal mask "
            "covering every square-patch placement within a relative Hamming "
            "threshold of the observation."
        ),
        epilog=(
            f"Mask files are PBM (P1/P4); {MASK_CONVENTION}. Exit codes: "
            "0 success, 1 verification mismatch, 2 usage error, 3 I/O error."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_format(p):
        p.add_argument(
            "--format",
            type=str.upper,
            choices=["P1", "P4"],
            default="P4",
            help="output PBM flavor (default raw P4)",
        )

    p = sub.add_parser("complete", help="complete an observed mask")
    p.add_argument("input", help="observed mask (PBM)")
    p.add_argument("-o", "--output", required=True, help="completed mask (PBM)")
    p.add_argument("--report", help="write a JSON run report here")
    p.add_argument("--sizes", default="25,50,75,100", help="candidate patch sizes")
    p.add_argument(
        "--alpha", type=float, default=GammaSchedule.alpha, help="schedule alpha"
    )
    p.add_argument(
        "--beta", type=float, default=GammaSchedule.beta, help="schedule beta"
    )
    p.add_argument(
        "--t-max", type=int, default=GammaSchedule.t_max, help="schedule iteration cap"
    )
    p.add_argument(
        "--fixed-gamma",
        type=float,
        default=None,
        help="skip the schedule and complete at this single threshold",
    )
    p.add_argument(
        "--union-ps",
        action="store_true",
        help="OR the observed mask into the written output (final-mask rule)",
    )
    _add_format(p)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("oracle", help="brute-force completion / verification")
    p.add_argument("input", help="observed mask (PBM)")
    p.add_argument("--sizes", required=True, help="patch size(s), comma separated")
    p.add_argument("--gamma", type=float, required=True, help="threshold in [0,1)")
    p.add_argument("-o", "--output", help="write the oracle completion here")
    p.add_argument("--diff", help="compare against this mask; exit 1 on mismatch")
    _add_format(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="draw a parametric patch shape")
    p.add_argument("--kind", required=True, choices=[k.value for k in ShapeKind])
    p.add_argument("--n", type=int, required=True, help="nominal side length")
    p.add_argument("--canvas", required=True, help="canvas as HxW")
    p.add_argument("--anchor", help="top-left ROW,COL (default: centered)")
    p.add_argument("-o", "--output", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("corrupt", help="corrupt a ground-truth mask")
    p.add_argument("input", help="ground-truth mask (PBM)")
    p.add_argument(
        "--model", required=True, choices=[k.value for k in CorruptionKind]
    )
    p.add_argument("--budget", type=int, required=True, help="max pixels changed")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report", help="write a JSON report here")
    _add_format(p)
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("trial", help="randomized coverage-guarantee trials")
    p.add_argument("--size", type=int, required=True, help="patch side length")
    p.add_argument("--canvas", default="64x64", help="canvas as HxW")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument(
        "--model", required=True, choices=[k.value for k in CorruptionKind]
    )
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="corruption budget (default floor(gamma * size^2))",
    )
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=_cmd_trial)

    p = sub.add_parser("bench", help="scaling benchmark")
    p.add_argument("--canvases", help="square canvas sizes")
    p.add_argument("--sizes", help="patch sizes")
    p.add_argument("--reps", type=int, help="engine repetitions")
    p.add_argument("--no-oracle", action="store_true", help="skip the oracle path")
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=_cmd_bench)

    return parser


# A parser holds no state between parse_args calls, so one serves every
# main() call of the process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (PBMFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())
