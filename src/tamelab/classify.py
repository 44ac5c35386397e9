"""Evidence reports combining entropy, free-set, and projection probes.

A report maps finite-scale measurements onto three verdict flags:

* ``nonnull_evidence``   -- the largest free set found keeps growing as the
  search pool widens across diameter brackets;
* ``positive_entropy_evidence`` -- additionally the densest free set and the
  tail entropy slope clear their thresholds;
* ``tame_consistent``    -- no free set beats log2(span) + slack anywhere
  probed and every projection probe grows sub-exponentially.

Flags are evidence at the stated scale, never theorem-level claims; all
thresholds are conventions with documented defaults, and every report
embeds the scale parameters it was computed at.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entropy import EntropySeries, entropy_estimate
from .errors import ArgumentError
from .freeset import FreeSearchBudget, max_free_set
from .language import extend_classes
from .sources import SeqSource, SeqWindow, materialize


@dataclass(frozen=True)
class ClassifyParams:
    """Scale parameters and thresholds; defaults are conventions."""

    horizon: int = 100_000
    window: tuple[int, int] | None = None
    entropy_n_max: int = 200
    free_brackets: tuple[int, ...] = (8, 12, 16, 20, 24)
    free_max_size: int = 16
    free_horizon: int | None = None
    beam: int | None = 4096
    projection_prefix: int = 12
    density_threshold: float = 0.05
    entropy_threshold: float = 0.05
    free_slack: float = 1.0
    slope_bounded: float = 0.1

    def window_box(self) -> tuple[int, int]:
        if self.window is not None:
            return self.window
        return (-(self.horizon // 2), self.horizon - self.horizon // 2)


@dataclass(frozen=True)
class ProjectionProbe:
    """Greedy projection growth along one candidate coordinate family."""

    name: str
    kept: tuple[int, ...]
    counts: tuple[int, ...]
    growth: str
    slope: float


@dataclass(frozen=True)
class EvidenceReport:
    source_digest: str
    scale: dict = field(compare=False)
    entropy: EntropySeries
    max_free_by_bracket: tuple[tuple[int, int], ...]
    density_rows: tuple[tuple[int, int, float], ...]
    projections: tuple[ProjectionProbe, ...]
    positive_entropy_evidence: bool
    nonnull_evidence: bool
    tame_consistent: bool

    def __post_init__(self):
        if self.positive_entropy_evidence and not self.nonnull_evidence:
            raise ArgumentError("positive entropy evidence implies nonnull evidence")

    @property
    def entropy_headline(self) -> float:
        return self.entropy.headline

    def to_text(self) -> str:
        lines = ["TAMELAB-REPORT v1", f"source = {self.source_digest}"]
        for key in sorted(self.scale):
            lines.append(f"scale.{key} = {self.scale[key]}")
        lines.append(f"entropy_headline = {self.entropy_headline:.6f}")
        for n, count, rate in self.entropy.points:
            lines.append(f"entropy {n} = {count} {rate:.6f}")
        for bracket, size in self.max_free_by_bracket:
            lines.append(f"max_free bracket={bracket} size={size}")
        for size, diam, ratio in self.density_rows:
            lines.append(f"density size={size} diameter={diam} ratio={ratio:.6f}")
        for probe in self.projections:
            lines.append(
                f"projection {probe.name} growth={probe.growth} "
                f"slope={probe.slope:.3f} counts={','.join(map(str, probe.counts))}")
        lines.append(f"flag positive_entropy_evidence = {self.positive_entropy_evidence}")
        lines.append(f"flag nonnull_evidence = {self.nonnull_evidence}")
        lines.append(f"flag tame_consistent = {self.tame_consistent}")
        return "\n".join(lines) + "\n"

    def csv_row_header(self) -> str:
        return ("source,entropy_headline,max_free,best_density,"
                "positive_entropy_evidence,nonnull_evidence,tame_consistent")

    def to_csv_row(self) -> str:
        max_free = max((s for _, s in self.max_free_by_bracket), default=0)
        best_density = max((r for _, _, r in self.density_rows), default=0.0)
        return (f"{self.source_digest},{self.entropy_headline:.6f},{max_free},"
                f"{best_density:.6f},{self.positive_entropy_evidence},"
                f"{self.nonnull_evidence},{self.tame_consistent}")


def _entropy_probe(win: SeqWindow, n_max: int) -> EntropySeries:
    """Contiguous-window series: p(n) at every n with m**n < 2**62, then at
    eight evenly spaced lengths up to n_max, all from one ``entropy_estimate``.
    """
    n_max = min(n_max, min(win.extents) - 1)
    wide = 1
    while win.alphabet_size ** (wide + 1) < (1 << 62):
        wide += 1
    ns = list(range(1, min(n_max, wide) + 1))
    if n_max > wide:
        ns += sorted({int(v) for v in np.linspace(wide, n_max, 9)[1:]})
    points = entropy_estimate(win, n_max).points
    return EntropySeries("contiguous", tuple(points[n - 1] for n in ns))


def default_projection_families(win: SeqWindow, prefix: int) -> dict[str, list[int]]:
    """Arithmetic, lacunary, and power-of-ten families inside the window."""
    lo, hi = win.origin[0], win.origin[0] + win.extents[0] - 1
    reach = max(0, hi - max(lo, 0))
    start = max(lo, 0)
    fams = {
        "evens": [start + 2 * i for i in range(prefix * 4) if 2 * i <= reach],
        "lacunary": [start + (1 << i) for i in range(prefix * 2) if (1 << i) <= reach],
        "powers10": [start + 10 ** i for i in range(1, prefix) if 10 ** i <= reach],
    }
    return {name: coords for name, coords in fams.items() if len(coords) >= 3}


def probe_projection_growth(win: SeqWindow, L, max_prefix: int,
                            name: str = "L",
                            slope_bounded: float = 0.1) -> ProjectionProbe:
    """Greedy projection counts along L with growth classification.

    Elements of L are taken in increasing order; one whose inclusion more
    than doubles the observed pattern count is dropped.  The kept prefix
    counts are classified by their log-log slope: below ``slope_bounded``
    is bounded, below rank + 1 polynomial, anything steeper exponential.
    """
    coords = [int(v) for v in L]
    if any(a >= b for a, b in zip(coords, coords[1:])):
        raise ArgumentError("projection family must be strictly increasing")
    kept: list[int] = []
    counts: list[int] = []
    classes = None
    for l in coords:
        offset = l - kept[0] if kept else 0
        if len(kept) >= max_prefix or offset >= win.extents[0]:
            break
        trial = extend_classes(win, offset, classes)
        if kept and trial[1] > 2 * classes[1]:
            continue
        kept.append(l)
        classes = trial
        counts.append(trial[1])
    if len(counts) >= 2:
        slope = float(np.polyfit(np.log(np.arange(1, len(counts) + 1)),
                                 np.log(counts), 1)[0])
    else:
        slope = 0.0
    if slope < slope_bounded:
        growth = "bounded"
    elif slope < win.rank + 1:
        growth = "polynomial"
    else:
        growth = "exponential"
    return ProjectionProbe(name, tuple(kept), tuple(counts), growth, slope)


def classify(source: SeqSource, params: ClassifyParams = ClassifyParams()) -> EvidenceReport:
    """Run the full probe battery on a source and assemble the report."""
    win = materialize(source, params.window_box())
    entropy = _entropy_probe(win, params.entropy_n_max)

    max_free_by_bracket: list[tuple[int, int]] = []
    density: dict[int, tuple[int, float]] = {}
    length = win.extents[0]
    m = win.alphabet_size
    shifts = params.free_horizon or length
    info_cap = max(1, int(np.log(shifts) / np.log(m)))
    for bracket in params.free_brackets:
        if bracket >= length:
            break
        budget = FreeSearchBudget.interval(
            0, bracket - 1, min(params.free_max_size, bracket, info_cap),
            horizon=params.free_horizon, beam=params.beam)
        result = max_free_set(win, budget)
        max_free_by_bracket.append((bracket, result.max_free_size))
        for size, diam, rate in result.density_rows():
            if size not in density or diam < density[size][0]:
                density[size] = (diam, rate)
    density_rows = tuple((s, d, r) for s, (d, r) in sorted(density.items()))

    projections = tuple(
        probe_projection_growth(win, coords, params.projection_prefix, name,
                                params.slope_bounded)
        for name, coords in sorted(default_projection_families(
            win, params.projection_prefix).items()))

    sizes = [s for _, s in max_free_by_bracket]
    growing = (len(sizes) >= 2 and all(a <= b for a, b in zip(sizes, sizes[1:]))
               and sizes[-1] > sizes[0])
    best_density = max((r for _, _, r in density_rows), default=0.0)
    headline = entropy.headline
    nonnull = growing
    positive = (nonnull and best_density >= params.density_threshold
                and headline >= params.entropy_threshold)
    beaten = any(s > np.log2(d + 1) + params.free_slack for s, d, _ in density_rows)
    subexp = all(p.growth != "exponential" for p in projections)
    tame = (not beaten) and subexp

    scale = {
        "window": params.window_box(),
        "entropy_n_max": params.entropy_n_max,
        "free_brackets": params.free_brackets,
        "free_max_size": params.free_max_size,
        "beam": params.beam,
        "projection_prefix": params.projection_prefix,
        "density_threshold": params.density_threshold,
        "entropy_threshold": params.entropy_threshold,
        "free_slack": params.free_slack,
    }
    return EvidenceReport(
        source_digest=source.digest,
        scale=scale,
        entropy=entropy,
        max_free_by_bracket=tuple(max_free_by_bracket),
        density_rows=density_rows,
        projections=projections,
        positive_entropy_evidence=positive,
        nonnull_evidence=nonnull,
        tame_consistent=tame,
    )
