"""Finite-sample diagnostics for bounded real-valued function families.

A family is sampled as a matrix: one row per member, one column per
sample point.  The tools here decide, at sample scale only:

* independence -- thresholds a < b such that every low/high constraint
  pattern over a subsequence of rows is met by some column, counted by
  the free-set engine;
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
from .freeset import _GapEvaluator
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
        header = ",".join(map(str, self.labels or range(self.n_points)))
        # each distinct value is formatted once, keyed by its bit pattern:
        # 0.0 and -0.0 are equal but format differently
        keys, inverse = np.unique(np.ascontiguousarray(self.values).view(np.uint64),
                                  return_inverse=True)
        text = np.array([format(v, ".12g") for v in keys.view(float).tolist()], dtype=object)
        return [header] + [",".join(row) for row in text[inverse.reshape(self.values.shape)]]

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
        masks = np.array(list(self.columns))
        values = fs.values[np.ix_(self.indices, list(self.columns.values()))]
        high = masks >> np.arange(self.length)[:, None] & 1 == 1
        return bool(np.where(high, values > self.b, values < self.a).all())

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

    Thresholded, the distinct columns form a table for
    ``freeset._GapEvaluator``: 0 below a, 1 above b, and the non-symbol 2
    between.  Depth-first over increasing row indices, each node counts
    its extensions in one call; a subsequence qualifies when it shows all
    its low/high splits.  Returns the lexicographically first witness of
    maximal length, with the first column of each split, or None when no
    subsequence of length >= 2 qualifies over this sample.
    """
    if not a < b:
        raise ArgumentError("thresholds require a < b")
    if not 2 <= max_len <= MAX_WITNESS_LEN:
        raise ArgumentError(f"witness depth must lie in 2..{MAX_WITNESS_LEN}: "
                            "a witness needs 2 members")
    if fs.n_members > MAX_FAMILY_ROWS:
        raise ArgumentError(f"independence search capped at {MAX_FAMILY_ROWS} rows")
    symbols = np.where(fs.values < a, 0, np.where(fs.values > b, 1, 2)).astype(np.uint8)
    first: dict[bytes, int] = {}
    for j, column in enumerate(symbols.T):
        first.setdefault(column.tobytes(), j)
    keep = list(first.values())
    table = np.take(symbols, keep, axis=1)
    ev = _GapEvaluator(table, 2)
    n = fs.n_members
    best: tuple[int, ...] = ()

    def extend(indices: tuple[int, ...], rows: list[int]):
        nonlocal best
        for row in rows:
            cand = indices + (row,)
            if len(cand) > max(len(best), 1):
                best = cand
            if len(cand) < max_len and row + 1 < n:
                exts = list(range(row + 1, n))
                counts = ev.evaluate_extensions(cand, exts)
                extend(cand, [e for e in exts if counts[e] == 2 << len(cand)])
            if len(best) == max_len:
                return

    extend((), [g for g in range(n) if ev.singleton_count(g) == 2])
    if not best:
        return None
    # bit i of a code is "member i high", the witness's split mask
    members = table[list(best)]
    codes = np.where((members < 2).all(axis=0), (1 << np.arange(len(best))) @ members, -1)
    splits, at = np.unique(codes, return_index=True)
    columns = {int(c): keep[j] for c, j in zip(splits, at) if c >= 0}
    witness = IndependenceWitness(a, b, best, columns)
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
    win = materialize(source, (min(shifts) + min(points), max(shifts) + max(points) + 1))
    values = win.line()[np.add.outer(shifts, points) - win.origin[0]]
    labels: tuple | None = tuple(points)
    if source.kind == "sturmian" and source.group_rank == 1:
        from .torus import SCALE, rotate_add
        labels = tuple(
            rotate_add(source.base_point, source.rotation, (p,)).coords[0] / SCALE
            for p in points)
    return FunctionSample(values, labels)
