"""Window languages: patterns on coordinate sets, complexity, projections.

A pattern on a coordinate set A is the tuple of symbols a window shows on
A + t for some shift t; it is encoded as one integer in mixed radix with
the first coordinate least significant.  ``patterns_on`` collects the set
of codes observed over a shift range, ``complexity`` counts patterns on
contiguous windows (boxes for rank > 1), and ``project`` pushes a pattern
set down to a subset of its coordinates.

Exact counting never hashes: code spaces up to 2**24 use integer codes
directly; contiguous counting beyond that packs each window into a single
64-bit code while the alphabet allows, and otherwise deduplicates the raw
symbol rows.  Both fallbacks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, CapacityError, ShiftRangeError
from .sources import SeqWindow

DENSE_CAP = 1 << 24


def _as_coord(c, rank: int):
    if rank == 1:
        return int(c) if isinstance(c, (int, np.integer)) else int(c[0])
    return tuple(int(v) for v in c)


@dataclass(frozen=True)
class CoordSet:
    """Strictly increasing coordinates in Z^k (lexicographic for k > 1)."""

    coords: tuple

    def __post_init__(self):
        if not self.coords:
            raise ArgumentError("coordinate set must be nonempty")
        if any(a >= b for a, b in zip(self.coords, self.coords[1:])):
            raise ArgumentError("coordinates must be strictly increasing")

    @classmethod
    def of(cls, coords, rank: int = 1) -> "CoordSet":
        return cls(tuple(sorted(_as_coord(c, rank) for c in coords)))

    @property
    def rank(self) -> int:
        return 1 if isinstance(self.coords[0], int) else len(self.coords[0])

    @property
    def size(self) -> int:
        return len(self.coords)

    def axis_values(self, axis: int) -> list[int]:
        if self.rank == 1:
            return [c for c in self.coords]
        return [c[axis] for c in self.coords]

    @property
    def diameter(self):
        """max - min per axis; an int for rank 1."""
        if self.rank == 1:
            return self.coords[-1] - self.coords[0]
        return tuple(max(v) - min(v) for v in
                     (self.axis_values(a) for a in range(self.rank)))

    def translate(self, offset) -> "CoordSet":
        if self.rank == 1:
            return CoordSet(tuple(c + offset for c in self.coords))
        return CoordSet(tuple(tuple(ci + oi for ci, oi in zip(c, offset))
                              for c in self.coords))

    def issubset(self, other: "CoordSet") -> bool:
        return set(self.coords) <= set(other.coords)

    def __str__(self):
        if self.rank == 1:
            return ",".join(str(c) for c in self.coords)
        return ";".join("(" + ",".join(str(v) for v in c) + ")" for c in self.coords)


@dataclass(frozen=True)
class PatternSet:
    """The set of pattern codes observed on a coordinate set.

    ``codes`` is sorted ascending; ``witness`` optionally maps each code to
    one shift at which it was observed (the smallest sampled shift).
    """

    coordset: CoordSet
    alphabet_size: int
    codes: np.ndarray
    shift_count: int
    shift_range: str
    witness: dict | None = field(default=None, compare=False)

    @property
    def count(self) -> int:
        return int(self.codes.size)

    @property
    def coverage(self) -> Fraction:
        return Fraction(self.count, self.alphabet_size ** self.coordset.size)

    def decode(self, code: int) -> tuple[int, ...]:
        """Symbols of a code, first coordinate first."""
        out = []
        for _ in range(self.coordset.size):
            out.append(code % self.alphabet_size)
            code //= self.alphabet_size
        return tuple(out)

    def dump(self) -> str:
        """Structured-text rendering: coordset, count, codes in hex, witnesses."""
        lines = [
            "TAMELAB-PATTERNS v1",
            f"coords = {self.coordset}",
            f"alphabet = {self.alphabet_size}",
            f"shifts = {self.shift_range}",
            f"shift_count = {self.shift_count}",
            f"count = {self.count}",
        ]
        hexcodes = [format(int(c), "x") for c in self.codes]
        for i in range(0, len(hexcodes), 16):
            lines.append("codes = " + " ".join(hexcodes[i:i + 16]))
        if self.witness is not None:
            for code in sorted(self.witness):
                lines.append(f"witness {format(code, 'x')} = {self.witness[code]}")
        return "\n".join(lines) + "\n"


def _check_capacity(alphabet: int, size: int) -> None:
    if alphabet ** size > DENSE_CAP:
        raise CapacityError(
            f"pattern space {alphabet}**{size} exceeds the 2**24 exact-code cap")


def _valid_shift_bounds(win: SeqWindow, A: CoordSet) -> list[tuple[int, int]]:
    """Per-axis inclusive bounds of shifts keeping A + t inside the window."""
    bounds = []
    for axis in range(win.rank):
        values = A.axis_values(axis)
        lo = win.origin[axis] - min(values)
        hi = win.origin[axis] + win.extents[axis] - 1 - max(values)
        if hi < lo:
            raise ShiftRangeError(
                f"coordinate set spans more than the window along axis {axis}")
        bounds.append((lo, hi))
    return bounds


def _codes_rank1(win: SeqWindow, A: CoordSet, shifts: np.ndarray) -> np.ndarray:
    line = win.line()
    origin = win.origin[0]
    m = win.alphabet_size
    codes = np.zeros(shifts.size, dtype=np.int64)
    weight = 1
    for a in A.coords:
        codes += line[shifts + (a - origin)].astype(np.int64) * weight
        weight *= m
    return codes


def _codes_rankk(win: SeqWindow, A: CoordSet, shifts: np.ndarray) -> np.ndarray:
    flat = win.symbols.reshape(-1)
    strides = np.array([int(s) // win.symbols.itemsize for s in win.symbols.strides],
                       dtype=np.int64)
    origin = np.array(win.origin, dtype=np.int64)
    m = win.alphabet_size
    codes = np.zeros(shifts.shape[0], dtype=np.int64)
    weight = 1
    for a in A.coords:
        offs = (shifts + (np.array(a, dtype=np.int64) - origin)) @ strides
        codes += flat[offs].astype(np.int64) * weight
        weight *= m
    return codes


def patterns_on(win: SeqWindow, A: CoordSet, shifts="all",
                want_witness: bool = False) -> PatternSet:
    """Collect the pattern codes of ``win`` on ``A + t`` over sampled shifts.

    ``shifts`` is either "all" (every shift keeping A + t inside the
    window) or an explicit iterable of shifts (ints for rank 1, tuples
    otherwise).  Shifts are processed in ascending order, so the optional
    witness per code is the smallest shift showing it.
    """
    _check_capacity(win.alphabet_size, A.size)
    bounds = _valid_shift_bounds(win, A)
    if win.rank == 1:
        (lo, hi), = bounds
        if isinstance(shifts, str) and shifts == "all":
            tarr = np.arange(lo, hi + 1, dtype=np.int64)
            desc = f"{lo}:{hi}"
        else:
            tarr = np.array(sorted(int(t) for t in shifts), dtype=np.int64)
            if tarr.size == 0:
                raise ArgumentError("empty shift set")
            if tarr[0] < lo or tarr[-1] > hi:
                raise ShiftRangeError("shift places the coordinate set outside the window")
            desc = "explicit"
        codes = _codes_rank1(win, A, tarr)
    else:
        if isinstance(shifts, str) and shifts == "all":
            axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in bounds]
            grid = np.meshgrid(*axes, indexing="ij")
            tarr = np.stack([g.reshape(-1) for g in grid], axis=1)
            desc = " ".join(f"{lo}:{hi}" for lo, hi in bounds)
        else:
            rows = sorted(tuple(int(v) for v in t) for t in shifts)
            if not rows:
                raise ArgumentError("empty shift set")
            tarr = np.array(rows, dtype=np.int64)
            for axis, (lo, hi) in enumerate(bounds):
                if tarr[:, axis].min() < lo or tarr[:, axis].max() > hi:
                    raise ShiftRangeError(
                        "shift places the coordinate set outside the window")
            desc = "explicit"
        codes = _codes_rankk(win, A, tarr)
    if want_witness:
        uniq, first = np.unique(codes, return_index=True)
        if win.rank == 1:
            witness = {int(c): int(tarr[i]) for c, i in zip(uniq, first)}
        else:
            witness = {int(c): tuple(int(v) for v in tarr[i])
                       for c, i in zip(uniq, first)}
    else:
        uniq = np.unique(codes)
        witness = None
    return PatternSet(A, win.alphabet_size, uniq, int(len(tarr)), desc, witness)


@dataclass(frozen=True)
class WindowLanguage:
    """Per-length pattern counts on contiguous windows (boxes for rank > 1).

    ``counts[i]`` is p(i+1).  Near the window edge (lengths comparable to
    the window itself) the sample is too short for the usual monotonicity
    of p, so keep n_max well below the window length.
    """

    alphabet_size: int
    rank: int
    counts: tuple[int, ...]
    methods: tuple[str, ...]

    @property
    def n_max(self) -> int:
        return len(self.counts)

    def p(self, n: int) -> int:
        return self.counts[n - 1]

    def rates(self) -> list[float]:
        return [float(np.log2(c)) / n for n, c in enumerate(self.counts, start=1)]

    def csv_rows(self) -> list[str]:
        rows = ["n,count,rate"]
        for n, c in enumerate(self.counts, start=1):
            rows.append(f"{n},{c},{float(np.log2(c)) / n:.9f}")
        return rows


def _contiguous_counts_rank1(line: np.ndarray, m: int, n_max: int) -> tuple[list[int], list[str]]:
    length = line.size
    counts: list[int] = []
    methods: list[str] = []
    wide_max = 1
    while m ** (wide_max + 1) < (1 << 63):
        wide_max += 1
    vals = line.astype(np.int64)
    codes = np.zeros(length, dtype=np.int64)
    weight = 1
    for n in range(1, min(n_max, wide_max) + 1):
        codes = codes[: length - n + 1]
        codes += vals[n - 1: length] * weight
        weight *= m
        counts.append(int(np.unique(codes).size))
        methods.append("dense" if m ** n <= DENSE_CAP else "wide")
    for n in range(wide_max + 1, n_max + 1):
        view = np.lib.stride_tricks.sliding_window_view(line, n)
        counts.append(int(np.unique(view, axis=0).shape[0]))
        methods.append("rows")
    return counts, methods


def _contiguous_counts_rankk(sym: np.ndarray, m: int, n_max: int) -> tuple[list[int], list[str]]:
    counts: list[int] = []
    methods: list[str] = []
    for n in range(1, n_max + 1):
        view = np.lib.stride_tricks.sliding_window_view(sym, (n,) * sym.ndim)
        rows = view.reshape(-1, n ** sym.ndim)
        counts.append(int(np.unique(rows, axis=0).shape[0]))
        methods.append("rows")
    return counts, methods


def window_classes(symbols: np.ndarray, width: int,
                   limit: int | None = None) -> np.ndarray | None:
    """Class ids of the length-``width`` windows of a symbol row.

    Entry j names ``symbols[j:j + width]``: two entries are equal exactly
    when their windows are.  Karp-Miller-Rosenberg doubling names the
    windows of length k + d as pairs of length-k names d apart (d <= k),
    ranked densely in pair order at each step; once every window is
    distinct, longer windows are too and the names stop being refined.
    With a ``limit``, returns None as soon as more than ``limit`` distinct
    length-``width`` windows are certain: refining only splits classes, so
    the windows of length k already give width - k fewer than that count.
    """
    if not 1 <= width <= symbols.size:
        raise ArgumentError("window width must lie in 1..len(symbols)")
    ids = np.unique(symbols, return_inverse=True)[1].reshape(-1)
    k = 1
    while k < width:
        n_cls = int(ids.max()) + 1
        if limit is not None and n_cls - (width - k) > limit:
            return None
        if n_cls == ids.size:
            return ids[: symbols.size - width + 1]
        d = min(k, width - k)
        keys = ids[:-d].astype(np.int64) * n_cls + ids[d:]
        if n_cls * n_cls <= 2 * keys.size:  # small key space: rank without sorting
            seen = np.zeros(n_cls * n_cls, dtype=bool)
            seen[keys] = True
            ids = (np.cumsum(seen, dtype=np.int32) - 1)[keys]
        else:
            ids = np.unique(keys, return_inverse=True)[1]
        k += d
    return ids


def count_contiguous(win: SeqWindow, n: int) -> int:
    """Distinct contiguous length-n patterns, counted exactly (rank 1).

    Packs each window into one 64-bit code while the alphabet allows and
    falls back to deduplicating raw symbol rows beyond that.
    """
    if win.rank != 1:
        raise ArgumentError("count_contiguous requires a rank-1 window")
    line = win.line()
    if not 1 <= n <= line.size - 1:
        raise ArgumentError("window length must exceed n")
    m = win.alphabet_size
    view = np.lib.stride_tricks.sliding_window_view(line, n)
    if m ** n < (1 << 62):
        weights = (m ** np.arange(n, dtype=np.int64))
        codes = view.astype(np.int64) @ weights
        return int(np.unique(codes).size)
    if m == 2:
        packed = np.packbits(view, axis=1)
        rows = np.ascontiguousarray(packed).view(
            np.dtype((np.void, packed.shape[1])))
        return int(np.unique(rows).size)
    return int(np.unique(view, axis=0).shape[0])


def complexity(win: SeqWindow, n_max: int) -> WindowLanguage:
    """p(n) for n = 1..n_max on contiguous windows, counted exactly."""
    if n_max < 1:
        raise ArgumentError("n_max must be >= 1")
    if win.rank == 1:
        if n_max > win.extents[0] - 1:
            raise CapacityError("n_max must stay below the window length")
        counts, methods = _contiguous_counts_rank1(win.line(), win.alphabet_size, n_max)
    else:
        if any(n_max > e - 1 for e in win.extents):
            raise CapacityError("n_max must stay below every window extent")
        counts, methods = _contiguous_counts_rankk(win.symbols, win.alphabet_size, n_max)
    return WindowLanguage(win.alphabet_size, win.rank, tuple(counts), tuple(methods))


def project(ps: PatternSet, A_sub: CoordSet) -> PatternSet:
    """Image of a pattern set under dropping the coordinates outside A_sub."""
    positions = {c: i for i, c in enumerate(ps.coordset.coords)}
    try:
        keep = [positions[c] for c in A_sub.coords]
    except KeyError:
        raise ArgumentError("projection target is not a subset of the coordinate set")
    m = ps.alphabet_size
    codes = ps.codes.astype(np.int64)
    new_codes = np.zeros_like(codes)
    weight = 1
    for i in keep:
        new_codes += (codes // (m ** i)) % m * weight
        weight *= m
    uniq, first = np.unique(new_codes, return_index=True)
    witness = None
    if ps.witness is not None:
        witness = {int(c): ps.witness[int(ps.codes[i])] for c, i in zip(uniq, first)}
    return PatternSet(A_sub, m, uniq, ps.shift_count, ps.shift_range, witness)
