"""Window languages: patterns on coordinate sets, complexity, projections.

A pattern on a coordinate set A is the tuple of symbols a window shows on
A + t for some shift t.  ``patterns_on`` collects them as mixed-radix codes
(first coordinate least significant, at most 2**24 of them), which
certificates, dumps and ``project`` need.  One path serves every rank, a
rank-1 window being the case k = 1: shifts are rows of an (N, k) array,
and ``pattern_codes`` reads each coordinate a of A from the flattened
symbols at (t - origin + a) . strides.  A coordinate set whose rank differs
from the window's raises DimensionError.  Counting needs no codes: every
count names patterns by int32 class ids, the dense ranks of the pairs
(id of a smaller pattern, id of the part it adds) -- Karp-Miller-Rosenberg
naming.  ``complexity`` grows windows by one symbol and n-boxes by one
face per axis at each step, ``extend_classes`` grows a pattern along a
coordinate sequence, and ``window_classes`` doubles window lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, CapacityError, DimensionError, ShiftRangeError
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


def valid_shift_bounds(win: SeqWindow, A: CoordSet) -> list[tuple[int, int]]:
    """Per-axis inclusive bounds of shifts keeping A + t inside the window."""
    if A.rank != win.rank:
        raise DimensionError(f"coordinate set has rank {A.rank}, window has rank {win.rank}")
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


def pattern_codes(win: SeqWindow, A: CoordSet, shifts: np.ndarray) -> np.ndarray:
    """Mixed-radix codes of the patterns on A + t, one per row t of an
    (N, k) int64 shift array; raises ShiftRangeError when some A + t
    leaves the window."""
    bounds = np.array(valid_shift_bounds(win, A), dtype=np.int64)
    if shifts.ndim != 2 or shifts.shape[1] != win.rank:
        raise DimensionError(f"shifts must be rank-{win.rank} vectors")
    if (shifts.min(axis=0) < bounds[:, 0]).any() or (shifts.max(axis=0) > bounds[:, 1]).any():
        raise ShiftRangeError("shift places the coordinate set outside the window")
    flat = np.ascontiguousarray(win.symbols).reshape(-1)
    strides = np.array([math.prod(win.extents[axis + 1:]) for axis in range(win.rank)],
                       dtype=np.int64)
    index = (shifts - np.array(win.origin, dtype=np.int64)) @ strides
    offsets = np.array(A.coords, dtype=np.int64).reshape(A.size, win.rank) @ strides
    codes = np.zeros(shifts.shape[0], dtype=np.int64)
    at = 0
    for off in reversed(offsets.tolist()):  # Horner's rule, in place: last digit first
        index += off - at
        at = off
        codes *= win.alphabet_size
        codes += flat[index]
    return codes


def patterns_on(win: SeqWindow, A: CoordSet, shifts="all",
                want_witness: bool = False) -> PatternSet:
    """Collect the pattern codes of ``win`` on ``A + t`` over sampled shifts.

    ``shifts`` is either "all" (every shift keeping A + t inside the
    window) or an explicit iterable of shifts (ints for rank 1, tuples
    otherwise).  Shifts are processed in ascending order, so the optional
    witness per code is the smallest shift showing it.  A coordinate set
    whose rank differs from the window's raises DimensionError.
    """
    _check_capacity(win.alphabet_size, A.size)
    bounds = valid_shift_bounds(win, A)
    if isinstance(shifts, str) and shifts == "all":
        axes = (np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in bounds)
        tarr = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        desc = " ".join(f"{lo}:{hi}" for lo, hi in bounds)
    else:
        tarr = np.array(list(shifts), dtype=np.int64)
        if tarr.size == 0:
            raise ArgumentError("empty shift set")
        if tarr.ndim == 1:
            tarr = tarr[:, None]
        tarr = tarr[np.lexsort(tarr.T[::-1])]
        desc = "explicit"
    codes = pattern_codes(win, A, tarr)
    if want_witness:
        uniq, first = np.unique(codes, return_index=True)
        witness = {int(c): _as_coord(tarr[i], win.rank) for c, i in zip(uniq, first)}
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

    def p(self, n: int) -> int:
        return self.counts[n - 1]


def _pair_classes(left: np.ndarray, n_left: int, right: np.ndarray,
                  n_right: int) -> tuple[np.ndarray, int]:
    """Dense int32 ranks of the pairs (left[j], right[j]), and their count.

    ``left`` and ``right`` share a shape and hold ids below ``n_left`` and
    ``n_right``; the empty pattern is one class, ``np.zeros``, of count 1.
    """
    space = n_left * n_right
    keys = left.astype(np.int32 if space <= np.iinfo(np.int32).max else np.int64)
    keys *= n_right
    keys += right
    if space <= 2 * keys.size:  # small pair space: rank without sorting
        seen = np.zeros(space, dtype=bool)
        seen[keys] = True
        rank = np.cumsum(seen, dtype=np.int32)
        rank -= 1
        return rank[keys], int(rank[-1]) + 1
    uniq, inverse = np.unique(keys, return_inverse=True)
    return inverse.reshape(keys.shape).astype(np.int32), int(uniq.size)


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
    ids, n_cls = _pair_classes(np.zeros(symbols.size, np.int32), 1, symbols,
                               int(symbols.max()) + 1)
    k = 1
    while k < width:
        if limit is not None and n_cls - (width - k) > limit:
            return None
        if n_cls == ids.size:
            return ids[: symbols.size - width + 1]
        d = min(k, width - k)
        ids, n_cls = _pair_classes(ids[:-d], n_cls, ids[d:], n_cls)
        k += d
    return ids


def extend_classes(win: SeqWindow, offset: int,
                   classes: tuple[np.ndarray, int] | None = None
                   ) -> tuple[np.ndarray, int]:
    """Classes of the patterns on A + {a0 + offset} from those on A (rank 1).

    ``classes`` is ``(ids, count)`` for A, or None for the empty set; A's
    coordinates lie in [a0, a0 + offset).  ``ids[j]`` names the pattern on
    A + t with a0 + t the j-th cell of the window, for every shift keeping
    the coordinates inside it; ``count`` is the number of patterns.
    """
    line = win.line()
    size = line.size - offset
    if size < 1:
        raise ShiftRangeError("coordinate set spans more than the window")
    ids, count = classes if classes is not None else (np.zeros(size, np.int32), 1)
    if count == ids.size:  # every pattern is distinct, so every extension is
        return np.arange(size, dtype=np.int32), size
    return _pair_classes(ids[:size], count, line[offset:], win.alphabet_size)


def _box_counts(symbols: np.ndarray, alphabet: int, n_max: int) -> list[int]:
    """p(1..n_max) on the n x ... x n boxes of a symbol array.

    A box pairs the box one shorter along its first longest axis with the
    one-thick face it adds there, itself a box.  Step n keeps only the
    shapes it read, so two steps of classes are held at once.
    """
    def classes(shape):  # (ids of the boxes of this shape at every position, count)
        if shape in before:
            step[shape] = before[shape]
        if shape not in step:
            axis = shape.index(max(shape))
            side = shape[axis]
            shorter, count = classes(shape[:axis] + (side - 1,) + shape[axis + 1:])
            out = tuple(e - s + 1 for e, s in zip(symbols.shape, shape))
            if count == shorter.size:  # every shorter box is distinct, so every box is
                size = math.prod(out)
                step[shape] = np.arange(size, dtype=np.int32).reshape(out), size
            else:
                face, face_count = classes(shape[:axis] + (1,) + shape[axis + 1:])
                at = (slice(None),) * axis + (slice(side - 1, None),)
                step[shape] = _pair_classes(shorter[tuple(slice(o) for o in out)], count,
                                            face[at], face_count)
        return step[shape]

    step = {(1,) * symbols.ndim: _pair_classes(np.zeros(symbols.shape, np.int32), 1,
                                               symbols, alphabet)}
    counts = []
    for n in range(1, n_max + 1):
        before, step = step, {}
        counts.append(classes((n,) * symbols.ndim)[1])
    return counts


def count_contiguous(win: SeqWindow, n: int) -> int:
    """Distinct contiguous length-n patterns, counted exactly (rank 1)."""
    if win.rank != 1:
        raise ArgumentError("count_contiguous requires a rank-1 window")
    if not 1 <= n <= win.extents[0] - 1:
        raise ArgumentError("window length must exceed n")
    return _box_counts(win.line(), win.alphabet_size, n)[-1]


def complexity(win: SeqWindow, n_max: int) -> WindowLanguage:
    """p(n) for n = 1..n_max on contiguous windows, counted exactly."""
    if n_max < 1:
        raise ArgumentError("n_max must be >= 1")
    if n_max > min(win.extents) - 1:
        raise CapacityError("n_max must stay below every window extent")
    counts = _box_counts(win.symbols, win.alphabet_size, n_max)
    return WindowLanguage(win.alphabet_size, win.rank, tuple(counts))


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
