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

``classify`` reads a materialized rank-1 window, as the other analyses
do; the window is the caller's choice (the CLI passes the run's
``[window] box``), and the report's ``scale.window`` is that window.
Every bracket is read from one free-set search, on the interval pool of
the widest bracket below the window length from the window's origin:
bracket b's size is the largest whose least free diameter is below b.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from numbers import Integral

import numpy as np

from .entropy import EntropySeries, entropy_estimate
from .errors import ArgumentError
from .freeset import FreeSearchBudget, max_free_set
from .language import extend_classes
from .sources import SeqWindow


@dataclass(frozen=True)
class ClassifyParams:
    """Scale parameters and thresholds; defaults are conventions.  The
    thresholds and the slack are finite, the brackets are strictly
    increasing positive integers, the sizes and the beam are at least 1,
    and the projection prefix is at least 2, as a slope needs two counts."""

    entropy_n_max: int = 200
    free_brackets: tuple[int, ...] = (8, 12, 16, 20, 24)
    free_max_size: int = 16
    beam: int | None = 4096
    projection_prefix: int = 12
    density_threshold: float = 0.05
    entropy_threshold: float = 0.05
    free_slack: float = 1.0

    def __post_init__(self):
        for name in ("density_threshold", "entropy_threshold", "free_slack"):
            if not math.isfinite(getattr(self, name)):
                raise ArgumentError(f"{name} must be finite")
        for name, least in (("entropy_n_max", 1), ("free_max_size", 1), ("beam", 1),
                            ("projection_prefix", 2)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ArgumentError(f"{name} must be >= {least}")
        # nonnull_evidence reads the brackets as widening pools
        brackets = self.free_brackets
        if not all(isinstance(b, Integral) and b >= 1 for b in brackets) or any(
                a >= b for a, b in zip(brackets, brackets[1:])):
            raise ArgumentError("free_brackets must be strictly increasing positive integers")


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
    """``entropy`` holds the series points the report prints, sampled from
    ``entropy_series``, the full p(1..n_max) series."""

    source_digest: str
    scale: dict = field(compare=False)
    entropy: EntropySeries
    entropy_series: EntropySeries
    max_free_by_bracket: tuple[tuple[int, int], ...]
    density_rows: tuple[tuple[int, int, float], ...]
    beam_limited: bool
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
        """``entropy_headline`` is the tail slope over the printed points (``_entropy_probe``),
        not ``entropy.csv``'s headline row, which fits every n; ``free_search beam_limited =
        True`` says a level of the search below its max_size held more free sets than the beam."""
        lines = ["TAMELAB-REPORT v1", f"source = {self.source_digest}"]
        for key in sorted(self.scale):
            lines.append(f"scale.{key} = {self.scale[key]}")
        lines.append(f"entropy_headline = {self.entropy_headline:.6f}")
        for n, count, rate in self.entropy.points:
            lines.append(f"entropy {n} = {count} {rate:.6f}")
        for bracket, size in self.max_free_by_bracket:
            lines.append(f"max_free bracket={bracket} size={size}")
        if self.beam_limited:
            lines.append("free_search beam_limited = True")
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


def _entropy_probe(series: EntropySeries, alphabet: int) -> EntropySeries:
    """The report's points of a contiguous-window series: p(n) at every n
    with m**n < 2**62, then at eight evenly spaced lengths up to n_max.
    """
    n_max = series.n_max
    wide = 1
    while alphabet ** (wide + 1) < (1 << 62):
        wide += 1
    ns = list(range(1, min(n_max, wide) + 1))
    if n_max > wide:
        ns += sorted({int(v) for v in np.linspace(wide, n_max, 9)[1:]})
    return EntropySeries(tuple(series.points[n - 1] for n in ns))


def default_projection_families(win: SeqWindow, prefix: int) -> dict[str, list[int]]:
    """Arithmetic, lacunary, and power-of-ten families inside the window:
    start + 2i for i < 4 * prefix, start + 2**i for i < 2 * prefix and
    start + 10**i for 0 < i < prefix, each stopped at the window's reach.
    They start at 0, or at the window's origin when it lies past 0 or
    wholly before it."""
    lo, hi = win.origin[0], win.origin[0] + win.extents[0] - 1
    start = max(lo, 0) if hi >= 0 else lo
    reach = hi - start
    # 2**i <= reach exactly for i below its bit length, 10**i for i below its digits
    fams = {
        "evens": [start + 2 * i for i in range(min(prefix * 4, reach // 2 + 1))],
        "lacunary": [start + (1 << i) for i in range(min(prefix * 2, reach.bit_length()))],
        "powers10": [start + 10 ** i for i in range(1, min(prefix, len(str(reach))))],
    }
    return {name: coords for name, coords in fams.items() if len(coords) >= 3}


def probe_projection_growth(win: SeqWindow, L, max_prefix: int,
                            name: str = "L") -> ProjectionProbe:
    """Greedy projection counts along L with growth classification.

    Elements of L are taken in increasing order; one whose inclusion more
    than doubles the observed pattern count is dropped.  The kept prefix
    counts are classified by their log-log slope: below 0.1 is bounded,
    below rank + 1 polynomial, anything steeper exponential.
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
    if slope < 0.1:
        growth = "bounded"
    elif slope < win.rank + 1:
        growth = "polynomial"
    else:
        growth = "exponential"
    return ProjectionProbe(name, tuple(kept), tuple(counts), growth, slope)


def classify(win: SeqWindow, params: ClassifyParams = ClassifyParams()) -> EvidenceReport:
    """Run the full probe battery on a materialized rank-1 window and
    assemble the report; one free-set search serves every bracket."""
    origin, length = win.origin[0], win.line().size
    series = entropy_estimate(win, min(params.entropy_n_max, length - 1))
    entropy = _entropy_probe(series, win.alphabet_size)

    brackets = [b for b in params.free_brackets if b < length]
    max_free_by_bracket, density_rows, beam_limited = (), (), False
    if brackets:
        info_cap = max(1, int(np.log(length) / np.log(win.alphabet_size)))
        result = max_free_set(win, FreeSearchBudget.interval(
            origin, origin + brackets[-1] - 1,
            min(params.free_max_size, brackets[-1], info_cap), beam=params.beam))
        density_rows, beam_limited = tuple(result.density_rows()), result.beam_limited
        # a free set of diameter below b, translated to the origin, lies in b's
        # pool, and coverage over every shift depends only on gaps
        max_free_by_bracket = tuple(
            (b, max((s for s, d, _ in density_rows if d < b), default=0)) for b in brackets)

    projections = tuple(
        probe_projection_growth(win, coords, params.projection_prefix, name)
        for name, coords in sorted(default_projection_families(
            win, params.projection_prefix).items()))

    sizes = [s for _, s in max_free_by_bracket]  # nondecreasing, read from one profile
    nonnull = len(sizes) >= 2 and sizes[-1] > sizes[0]
    best_density = max((r for _, _, r in density_rows), default=0.0)
    headline = entropy.headline
    positive = (nonnull and best_density >= params.density_threshold
                and headline >= params.entropy_threshold)
    beaten = any(s > np.log2(d + 1) + params.free_slack for s, d, _ in density_rows)
    subexp = all(p.growth != "exponential" for p in projections)
    tame = (not beaten) and subexp

    return EvidenceReport(
        source_digest=win.source_digest,
        scale={**asdict(params), "window": (origin, origin + length)},
        entropy=entropy,
        entropy_series=series,
        max_free_by_bracket=max_free_by_bracket,
        density_rows=density_rows,
        beam_limited=beam_limited,
        projections=projections,
        positive_entropy_evidence=positive,
        nonnull_evidence=nonnull,
        tame_consistent=tame,
    )
