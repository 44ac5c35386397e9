"""Finite-sample diagnostics for bounded real-valued function families.

A family is sampled as a matrix: one row per member, one column per
sample point.  The tools here decide, at sample scale only:

* independence -- thresholds a < b such that every low/high constraint
  pattern over a subsequence of rows is met by some column;
* the l1 lower bound such a witness certifies, (b - a) / 2, next to an
  exhaustive empirical estimate over sign vectors;
* epsilon-non-sensitivity over an explicit grid cover (a necessary-
  condition probe, not fragmentability proper);
* total-variation lower bounds for sampled functions on ordered points.

Absence of an independence witness is always a statement about THIS
sample at THIS depth, never a tameness claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, WitnessIntegrityError
from .sources import SeqSource, materialize

MAX_FAMILY_ROWS = 64
MAX_WITNESS_LEN = 12


@dataclass(frozen=True)
class FunctionSample:
    """A bounded family on sample points: rows = members, columns = points.

    ``labels`` optionally attaches a coordinate to every column (floats,
    or tuples for grid-structured points); covers and variation tools
    order columns by label.
    """

    values: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.size == 0:
            raise ArgumentError("sample must be a nonempty 2-D matrix")
        if not np.isfinite(v).all():
            raise ArgumentError("sample values must be finite")
        object.__setattr__(self, "values", v)
        if self.labels is not None and len(self.labels) != v.shape[1]:
            raise ArgumentError("one label per sample column required")

    @property
    def n_members(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.values.shape[1]

    @property
    def bound(self) -> float:
        return float(np.abs(self.values).max())

    def csv_rows(self) -> list[str]:
        header = ",".join(str(l) for l in self.labels) if self.labels else \
            ",".join(str(j) for j in range(self.n_points))
        rows = [header]
        for row in self.values:
            rows.append(",".join(format(v, ".12g") for v in row))
        return rows

    @classmethod
    def from_csv_rows(cls, rows: list[str]) -> "FunctionSample":
        labels = tuple(_parse_label(tok) for tok in rows[0].split(","))
        values = np.array([[float(tok) for tok in row.split(",")]
                           for row in rows[1:]], dtype=float)
        return cls(values, labels)


def _parse_label(tok: str):
    try:
        return int(tok)
    except ValueError:
        try:
            return float(tok)
        except ValueError:
            return tok


@dataclass(frozen=True)
class IndependenceWitness:
    """Thresholds a < b, row indices, and one column per low/high split.

    ``columns[mask]`` witnesses the split where member ``indices[i]`` is
    constrained high (value > b) when bit i of ``mask`` is set and low
    (value < a) otherwise.  All 2**m complementary splits are stored;
    partial splits follow by dropping constraints.
    """

    a: float
    b: float
    indices: tuple[int, ...]
    columns: dict[int, int] = field(compare=False)

    def __post_init__(self):
        if not self.a < self.b:
            raise ArgumentError("independence thresholds require a < b")
        if len(self.indices) < 2:
            raise ArgumentError("an independence witness needs at least 2 members")
        if set(self.columns) != set(range(1 << len(self.indices))):
            raise ArgumentError("a witness column is required for every split")

    @property
    def length(self) -> int:
        return len(self.indices)

    def verify(self, fs: FunctionSample) -> bool:
        """Re-check every stored inequality against the sample."""
        for mask, col in self.columns.items():
            for i, row in enumerate(self.indices):
                v = fs.values[row, col]
                if mask >> i & 1:
                    if not v > self.b:
                        return False
                elif not v < self.a:
                    return False
        return True

    def dump(self) -> str:
        lines = [
            "TAMELAB-WITNESS v1",
            f"a = {self.a!r}",
            f"b = {self.b!r}",
            "members = " + ",".join(str(i) for i in self.indices),
        ]
        for mask in sorted(self.columns):
            pattern = format(mask, f"0{self.length}b")[::-1]
            lines.append(f"split {pattern} = column {self.columns[mask]}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GridCover:
    """Axis-aligned cells partitioning the sample columns by their labels."""

    cells: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for cell in self.cells:
            if seen & set(cell):
                raise ArgumentError("cover cells must be disjoint")
            seen |= set(cell)
        if not self.cells:
            raise ArgumentError("cover must have at least one cell")

    @classmethod
    def from_labels(cls, labels, width: float) -> "GridCover":
        """Partition columns into axis-aligned cells of the given width."""
        if not width > 0:  # NaN too
            raise ArgumentError("cell width must be positive")
        buckets: dict[tuple, list[int]] = {}
        for j, label in enumerate(labels):
            coords = label if isinstance(label, tuple) else (label,)
            key = tuple(int(np.floor(float(c) / width)) for c in coords)
            buckets.setdefault(key, []).append(j)
        keys = sorted(buckets)
        return cls(tuple(tuple(buckets[k]) for k in keys),
                   tuple(str(k) for k in keys))


def find_independent_subfamily(fs: FunctionSample, a: float, b: float,
                               max_len: int = 6) -> IndependenceWitness | None:
    """Longest independent subsequence of rows at thresholds a < b, up to max_len.

    Depth-first over increasing row indices: a subsequence qualifies when
    every complementary low/high split is met by some column, which the
    search maintains as packed column sets intersected per extension.
    Returns the lexicographically first witness of maximal length, or
    None when no subsequence of length >= 2 qualifies over this sample.
    """
    if not a < b:
        raise ArgumentError("thresholds require a < b")
    if not 2 <= max_len <= MAX_WITNESS_LEN:
        raise ArgumentError(f"witness depth must lie in 2..{MAX_WITNESS_LEN}: "
                            "a witness needs 2 members")
    if fs.n_members > MAX_FAMILY_ROWS:
        raise ArgumentError(f"independence search capped at {MAX_FAMILY_ROWS} rows")
    low = np.packbits(fs.values < a, axis=1)
    high = np.packbits(fs.values > b, axis=1)
    n = fs.n_members
    best: tuple[tuple[int, ...], list[np.ndarray]] | None = None

    def extend(indices: tuple[int, ...], splits: list[np.ndarray], start: int):
        nonlocal best
        if len(indices) == max_len:
            return
        for row in range(start, n):
            new_splits = []
            ok = True
            for s in splits:
                lo_set = s & low[row]
                hi_set = s & high[row]
                if not (lo_set.any() and hi_set.any()):
                    ok = False
                    break
                new_splits.append(lo_set)
                new_splits.append(hi_set)
            if not ok:
                continue
            cand = indices + (row,)
            if len(cand) >= 2 and (best is None or len(cand) > len(best[0])):
                best = (cand, new_splits)
            extend(cand, new_splits, row + 1)
            if best is not None and len(best[0]) == max_len:
                return

    full = np.packbits(np.ones(fs.n_points, dtype=bool))
    extend((), [full], 0)
    if best is None:
        return None
    indices, splits = best
    columns = {}
    for pos, s in enumerate(splits):
        # splits are ordered by successive low/high branching: position bit
        # i holds the side chosen for indices[i], low=0 appended first
        mask = 0
        p = pos
        for i in range(len(indices)):
            shift = len(indices) - 1 - i
            if p >> shift & 1:
                mask |= 1 << i
        col = int(np.flatnonzero(np.unpackbits(s, count=fs.n_points))[0])
        columns[mask] = col
    witness = IndependenceWitness(a, b, indices, columns)
    if not witness.verify(fs):
        raise WitnessIntegrityError("independence witness failed re-verification")
    return witness


def l1_lower_bound(fs: FunctionSample, w: IndependenceWitness) -> tuple[float, float]:
    """(certified, empirical) lower bounds for the l1 constant of the subfamily.

    The witness certifies (b - a) / 2.  The empirical value minimizes,
    over all sign vectors c, max_j |sum_i c_i v_i(j)| / m on the sample;
    it can never fall below the certified constant on a valid witness.
    """
    if not w.verify(fs):
        raise WitnessIntegrityError("witness does not match the sample")
    m = w.length
    certified = (w.b - w.a) / 2
    signs = np.where((np.arange(1 << m)[:, None] >> np.arange(m)[None, :]) & 1,
                     1.0, -1.0)
    sums = signs @ fs.values[list(w.indices), :]
    empirical = float(np.abs(sums).max(axis=1).min()) / m
    return certified, empirical


def epsilon_ns(fs: FunctionSample, cover: GridCover, eps: float):
    """First cover cell on which every member oscillates by at most eps.

    Returns (True, cell_name) for the first such cell in deterministic
    cell order, else (False, None).
    """
    if not eps > 0:  # NaN too
        raise ArgumentError("epsilon must be positive")
    covered = sorted(j for cell in cover.cells for j in cell)
    if covered != list(range(fs.n_points)):
        raise ArgumentError("cover must partition the sample columns")
    for cell, name in zip(cover.cells, cover.names):
        block = fs.values[:, list(cell)]
        if float((block.max(axis=1) - block.min(axis=1)).max()) <= eps:
            return True, name
    return False, None


def total_variation(samples) -> float:
    """Sum of |successive differences| over strictly increasing positions.

    A lower bound for the true variation; exact for step or monotone
    functions sampled at every breakpoint.
    """
    pts = list(samples)
    if len(pts) < 2:
        return 0.0
    positions = [p for p, _ in pts]
    if any(x >= y for x, y in zip(positions, positions[1:])):
        raise ArgumentError("positions must be strictly increasing")
    values = np.array([v for _, v in pts], dtype=float)
    return float(np.abs(np.diff(values)).sum())


def orbit_family_sample(source: SeqSource, shifts, points) -> FunctionSample:
    """Sample the translate family of a sequence observable.

    Row i evaluates the observable translated by ``shifts[i]`` at every
    point: value = source at coordinate shifts[i] + points[j].  For
    rotation codings the column labels carry the circle position of each
    orbit point, so covers and variation read the family on the circle.
    """
    shifts = [int(s) for s in shifts]
    points = [int(p) for p in points]
    if not shifts or not points:
        raise ArgumentError("shifts and points must be nonempty")
    lo = min(s + p for s in shifts for p in points)
    hi = max(s + p for s in shifts for p in points)
    win = materialize(source, (lo, hi + 1))
    line, origin = win.line(), win.origin[0]
    values = np.empty((len(shifts), len(points)), dtype=float)
    for i, s in enumerate(shifts):
        values[i] = line[[s + p - origin for p in points]]
    labels: tuple | None = tuple(points)
    if source.kind == "sturmian" and source.group_rank == 1:
        from .torus import SCALE, rotate_add
        labels = tuple(
            rotate_add(source.base_point, source.rotation, (p,)).coords[0] / SCALE
            for p in points)
    return FunctionSample(values, labels)
