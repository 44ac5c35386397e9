#!/usr/bin/env python3
"""Searching for free (interpolation) coordinate sets.

A window is free on A when the patterns on A + t exhaust every symbol
assignment.  Freeness is downward closed, so the searcher joins free
sets level by level, exactly like frequent-itemset mining.  Rich
sources shatter large sets; rotation codings stop at pairs.
"""

import warnings

from tamelab import (
    CoordSet,
    FreeSearchBudget,
    SeqSource,
    is_free,
    materialize,
    max_free_set,
)

warnings.simplefilter("ignore")

# the de Bruijn word of order 8 is free on any 8 contiguous coordinates
db = materialize(SeqSource.de_bruijn(8), (0, 2000))
result = max_free_set(db, FreeSearchBudget.interval(0, 11, 8))
print("de Bruijn order 8, pool {0..11}:")
print("  max free set:", result.best.coordset.coords,
      "coverage", result.best.coverage)
print("  density profile:", result.density_rows())

# the golden coding never frees a triple: patterns on s coordinates
# cannot exceed 2s, but a free triple would need 8
fib = materialize(SeqSource.fibonacci(), (0, 50_000))
result = max_free_set(fib, FreeSearchBudget.interval(0, 499, 6))
print("\ngolden coding, pool {0..499}:")
for entry in result.profile:
    print(f"  size {entry.size}: best coverage {entry.best_coverage}, "
          f"{entry.free_count} free sets")

# the powers-of-ten indicator interpolates freely on its generators
ip = materialize(SeqSource.ip_indicator(10, 7), (-1_000_000, 1_000_000))
cert = is_free(ip, CoordSet.of([10, 100, 1000]))
print("\npowers-of-ten indicator on {10, 100, 1000}:")
print("  coverage", cert.coverage, "over", cert.horizon, "shifts")
print("  witness shifts:", dict(sorted(cert.witnesses.items())))
