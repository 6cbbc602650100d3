"""A small version of the scaling benchmark.

The engine's runtime should roughly quadruple when the canvas side
doubles (it is linear in pixel count) and stay flat across patch sizes.
The brute-force oracle pays for every candidate window separately, so
its runtime climbs with s**2.  Full-size numbers come from
``maskcomplete bench``; this uses smaller canvases to finish quickly.
"""

from maskcomplete.bench import run_benchmark

report = run_benchmark(canvases=(128, 256), sizes=(8, 16, 32), repeats=3)

print(f"gamma = {report['config']['gamma']}, repeats = {report['config']['repeats']}")
print()
print("engine (fastest of 3, seconds):")
for canvas, per_size in report["dp_seconds"].items():
    row = "  ".join(f"s={s}: {sec * 1e3:7.2f}ms" for s, sec in per_size.items())
    print(f"  {canvas:>4}x{canvas:<4} {row}")

print("oracle (seconds, smallest canvas only):")
for canvas, per_size in report["oracle_seconds"].items():
    row = "  ".join(f"s={s}: {sec * 1e3:7.2f}ms" for s, sec in per_size.items())
    print(f"  {canvas:>4}x{canvas:<4} {row}")

print()
print(f"engine time ratio, 256^2 vs 128^2 canvas: {report['dp_area_ratio']:.2f}x")
print(f"engine spread across patch sizes:         {report['dp_size_spread']:.1%}")
print(f"oracle growth from s=8 to s=32:           {report['oracle_growth']:.1f}x")
