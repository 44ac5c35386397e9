"""Topological entropy estimators from window pattern counts.

For a subshift the clopen partition by the symbol at coordinate zero is
generating, so refining it along coordinates a_0 < ... < a_{n-1} counts
exactly the patterns on that coordinate set.  The rate log2(count)/n is
reported per n together with a tail slope over the last quartile of the
series; no limit is extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .language import complexity, extend_classes
from .sources import SeqWindow


@dataclass(frozen=True)
class EntropySeries:
    """Pattern counts and rates per prefix length, in bits per coordinate.

    ``mode`` is "contiguous" for ordinary entropy (a_i = i) or
    "along_sequence" for an arbitrary increasing coordinate sequence.
    """

    mode: str
    points: tuple[tuple[int, int, float], ...]
    coord_sequence: tuple[int, ...] | None = None

    @property
    def n_max(self) -> int:
        return self.points[-1][0]

    def rate(self, n: int) -> float:
        for pn, _, r in self.points:
            if pn == n:
                return r
        raise ArgumentError(f"no series point at n={n}")

    @property
    def headline(self) -> float:
        """Tail slope of log2(count) over the last quartile of the n range."""
        if len(self.points) < 2:
            return 0.0
        cut = self.points[-1][0] * 3 / 4
        tail = [p for p in self.points if p[0] >= cut]
        if len(tail) < 2:
            tail = list(self.points[-2:])
        ns = np.array([p[0] for p in tail], dtype=float)
        logs = np.array([np.log2(max(p[1], 1)) for p in tail])
        return float(np.polyfit(ns, logs, 1)[0])

    def csv_rows(self) -> list[str]:
        rows = ["n,count,rate"]
        for n, count, rate in self.points:
            rows.append(f"{n},{count},{rate:.9f}")
        return rows


def entropy_estimate(win: SeqWindow, n_max: int) -> EntropySeries:
    """Contiguous-window entropy series: rate(n) = log2 p(n) / n."""
    lang = complexity(win, n_max)
    points = tuple((n, c, float(np.log2(c)) / n)
                   for n, c in enumerate(lang.counts, start=1))
    return EntropySeries("contiguous", points)


def sequence_entropy_estimate(win: SeqWindow, A, n_max: int | None = None) -> EntropySeries:
    """Entropy along a coordinate sequence: patterns on its first n entries.

    ``A`` is an increasing sequence of coordinates; for contiguous A this
    coincides with ``entropy_estimate``.  Rank-1 windows only.
    """
    coords = [int(a) for a in A]
    if any(a >= b for a, b in zip(coords, coords[1:])):
        raise ArgumentError("coordinate sequence must be strictly increasing")
    if n_max is None:
        n_max = len(coords)
    if n_max < 1 or n_max > len(coords):
        raise ArgumentError("n_max outside the coordinate sequence length")
    points = []
    classes = None
    for n, a in enumerate(coords[:n_max], start=1):
        classes = extend_classes(win, a - coords[0], classes)
        points.append((n, classes[1], float(np.log2(classes[1])) / n))
    return EntropySeries("along_sequence", tuple(points), tuple(coords[:n_max]))
