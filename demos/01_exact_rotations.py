#!/usr/bin/env python3
"""Exact arithmetic on the circle and torus.

Angles are 128-bit fixed-point fractions, so orbits never drift: the
10^6-th orbit point is as exact as the first.  This script walks a golden
rotation, evaluates an interval partition, and probes a ball on T^2.
"""

from tamelab import (
    BallRegion,
    CutPartition,
    RotationSpec,
    TorusPoint,
    ball_contains,
    rotate_add,
)
from tamelab.torus import GOLDEN, SCALE, format_fraction

spec = RotationSpec.circle(GOLDEN)
z = TorusPoint.zero()

print("golden angle, truncated to 128 bits:")
print("  alpha =", format_fraction(GOLDEN, 30), "...")

print("\norbit points z + n*alpha:")
for n in (1, 2, 3, 1000, 10**6):
    p = rotate_add(z, spec, (n,))
    print(f"  n={n:>7}: {p.coords[0] / SCALE:.12f}")

# the classical two-cell coding: [0, 1-alpha) -> 0, [1-alpha, 1) -> 1
cut = CutPartition((0, SCALE - GOLDEN))
symbols = [cut.cell_of(rotate_add(z, spec, (n,)).coords[0])
           for n in range(20)]
print("\nfirst 20 symbols of the golden coding:", "".join(map(str, symbols)))

# boundary behavior is pinned: cells close on the left
print("\ncell of t=0:", cut.cell_of(0),
      "| cell of t=1-alpha:", cut.cell_of(SCALE - GOLDEN))

# a closed ball on T^2, membership decided on a 2^-48 grid
region = BallRegion(TorusPoint((SCALE // 2, SCALE // 2)), SCALE // 4)
on_boundary = TorusPoint((SCALE // 2, 3 * SCALE // 4))
through_seam = TorusPoint((SCALE - SCALE // 100, SCALE // 2))
print("\nball at (1/2,1/2) with radius 1/4:")
print("  boundary point in ball:", ball_contains(region, on_boundary))
print("  point 0.99 across the seam:",
      ball_contains(BallRegion(TorusPoint((0, SCALE // 2)), SCALE // 4), through_seam))
