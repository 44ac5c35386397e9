"""Window languages: patterns on coordinate sets, complexity, projections.

A pattern on a coordinate set A is the tuple of symbols a window shows on
A + t for some shift t.  ``patterns_on`` collects them as mixed-radix codes
(first coordinate least significant, at most 2**24 of them), which
certificates, dumps and ``project`` need.  One path serves every rank, a
rank-1 window being the case k = 1: listed shifts are rows of an (N, k)
array, and ``pattern_codes`` reads each coordinate a of A from the
flattened symbols at (t - origin + a) . strides; every valid shift at once
is the box of the shift bounds, read from one slice of the symbols per
coordinate, with no shift array.  A coordinate set whose rank differs from
the window's raises DimensionError.  Counting needs no codes: every count
names patterns by int32 class ids, the dense ranks of the pairs (id of a
smaller pattern, id of the part it adds) -- Karp-Miller-Rosenberg naming.
A pair space at most twice the pairs is ranked by a table over it, the
keys widened to intp one block at a time and ranked in place, and a larger
one by one sort of packed int64 words.  ``complexity`` grows n-boxes of
rank >= 2 by one layer along each axis in turn, ``extend_classes`` grows a
pattern along a coordinate sequence, and ``window_classes`` doubles window
lengths, ranking only where the key space would outgrow the table.

``ranked_windows`` pads a line with the non-symbol m and keeps the first
position of each distinct window, in lexicographic order.  A line of
length L is counted from that one ranking (``_line_counts``), the
suffix-array argument of Manber-Myers prefix doubling and Kasai's common
prefixes: compare each distinct length-n_max window at j < L with its
neighbour in that order.  The distinct length-k windows are the distinct
length-k prefixes, which change exactly where neighbours share fewer than
k symbols, less the k - 1 prefixes at j > L - k that hold m, so one
histogram of the common prefix lengths gives every p(k).  The free-set
table (``freeset._line_table``) takes its sample from the same routine.

Distinct codes and their first positions, for ``patterns_on``, ``project``
and ``ranked_windows``, come from ``_first_positions``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, CapacityError, DimensionError, ShiftRangeError
from .sources import SeqWindow

DENSE_CAP = 1 << 24
_LCP_ROWS = 1 << 15  # rank neighbours compared per block in _line_counts
# Positions per np.minimum.at call in _first_positions: a 64 KiB index block
# stays below glibc's 128 KiB mmap threshold, which freeing a larger block
# raises, leaving later arrays of that size on the heap.
_FIRST_BLOCK = 1 << 14
# Keys widened to intp per block in _pair_classes' rank table: 64 KiB, below
# that threshold too.
_RANK_BLOCK = 1 << 13
_LOW_HALF = 0 if sys.byteorder == "little" else 1  # uint32 index of an int64's low bits


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
            lines += [f"witness {code:x} = {self.witness[code]}" for code in sorted(self.witness)]
        return "\n".join(lines) + "\n"


def _check_capacity(alphabet: int, size: int) -> None:
    """CapacityError past 2**24 patterns, raised before a power past it is
    built: m**25 > 2**24 for every m >= 2."""
    if size > 24 and alphabet > 1 or alphabet ** size > DENSE_CAP:
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
    witness per code, its first position, is the smallest shift showing
    it.  A coordinate set whose rank differs from the window's raises
    DimensionError.
    """
    _check_capacity(win.alphabet_size, A.size)
    bounds = valid_shift_bounds(win, A)
    tarr = None
    if isinstance(shifts, str) and shifts == "all":
        lows = [lo for lo, _ in bounds]
        shape = tuple(hi - lo + 1 for lo, hi in bounds)
        codes = _box_codes(win, A, lows, shape)
        desc = " ".join(f"{lo}:{hi}" for lo, hi in bounds)
    else:
        tarr = np.array(list(shifts), dtype=np.int64)
        if tarr.size == 0:
            raise ArgumentError("empty shift set")
        if tarr.ndim == 1:
            tarr = tarr[:, None]
        tarr = tarr[np.lexsort(tarr.T[::-1])]
        codes = pattern_codes(win, A, tarr)
        desc = "explicit"
    uniq, first = _first_positions(codes, win.alphabet_size ** A.size)
    witness = None
    if want_witness:
        # a box's codes run over its shifts in C order
        t = tarr[first] if tarr is not None else (
            np.stack(np.unravel_index(first, shape), axis=1) + lows)
        at = t[:, 0].tolist() if win.rank == 1 else map(tuple, t.tolist())
        witness = dict(zip(uniq.tolist(), at))
    return PatternSet(A, win.alphabet_size, uniq, int(codes.size), desc, witness)


def _first_positions(codes: np.ndarray, space: int, tail: int = 0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes in [0, space), ascending as int64, and the first
    position of each: a table of the space when it is at most twice the
    codes, lowered ``_FIRST_BLOCK`` positions at a time (no further once a
    table within one block is full), else one sort of the words
    code << b | j, in which each code's run starts at its first position.
    The last ``tail`` codes must each occur nowhere else: the table takes
    them by their codes first, so that a full table can stop the lowering
    before it reaches them."""
    size = codes.size
    if space <= 2 * size:
        first = np.full(space, size, dtype=np.int32)  # positions below 2**31, as ids
        first[codes[size - tail:]] = np.arange(size - tail, size, dtype=np.int32)
        for lo in range(0, size - tail, _FIRST_BLOCK):
            hi = min(lo + _FIRST_BLOCK, size - tail)
            np.minimum.at(first, codes[lo:hi], np.arange(lo, hi, dtype=np.int32))
            if space <= _FIRST_BLOCK and first.max() < size:
                break  # every code is seen, and later positions come after
        uniq = np.flatnonzero(first < size)
        return uniq, first[uniq]
    words, order = _sort_positions(codes.astype(np.int64))
    start = np.ones(size, dtype=bool)
    np.not_equal(words[1:], words[:-1], out=start[1:])
    return words[start], order[start]


def _box_codes(win: SeqWindow, A: CoordSet, lows: list[int], shape: tuple) -> np.ndarray:
    """Codes of the patterns on A + t for every shift t of the box with
    lower corner ``lows`` and that shape, in C order: Horner's rule over
    one slice of the symbols per coordinate, in int32 (the codes lie below
    DENSE_CAP), with no shift or index array."""
    codes = np.zeros(shape, dtype=np.int32)
    for a in reversed(A.coords):  # last digit first
        corner = (a,) if win.rank == 1 else a
        codes *= win.alphabet_size
        codes += win.symbols[tuple(slice(lo + c - o, lo + c - o + n) for lo, c, o, n
                                   in zip(lows, corner, win.origin, shape))]
    return codes.reshape(-1)


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
    """Dense int32 ranks of the pairs (left[j], right[j]) in pair order, and
    their count.

    ``left`` and ``right`` share a shape and hold ids below ``n_left`` and
    ``n_right``; the empty pattern is one class, ``np.zeros``, of count 1.
    The keys are left * n_right + right.  A pair space at most twice the
    pairs is ranked by a table over it: the int32 keys are widened to intp
    ``_RANK_BLOCK`` at a time to mark the table and then replaced by their
    ranks in place, so no intp array or second output as long as the keys
    is built.  Otherwise the keys are sorted with their positions in their
    low bits, or, where key and position do not fit one int64 word, in two
    stable passes: by right, then by left.
    """
    space = n_left * n_right
    if space <= 2 * left.size:  # small pair space: rank without sorting
        # Under CELL_CAP there are at most 2**28 + width pairs, a line and
        # its padding, so the space stays below 2**31 and the keys in int32.
        flat = _pair_keys(left, n_right, right, np.int32).reshape(-1)
        seen = np.zeros(space, dtype=bool)
        for _, wide in _wide_blocks(flat):
            seen[wide] = True
        rank = np.cumsum(seen, dtype=np.int32)
        rank -= 1
        for block, wide in _wide_blocks(flat):  # each key becomes its rank
            rank.take(wide, out=block)
        return flat.reshape(left.shape), int(rank[-1]) + 1
    if (space - 1).bit_length() + _position_bits(left.size) <= 63:
        keys, order = _sort_positions(_pair_keys(left, n_right, right, np.int64).reshape(-1))
        step = keys[1:] != keys[:-1]
        del keys  # the words go before the ranks are built
    else:
        right = right.reshape(-1)
        _, by_right = _sort_positions(right.astype(np.int64))
        lefts, order = _sort_positions(left.reshape(-1)[by_right].astype(np.int64))
        order = by_right[order]
        rights = right[order]
        step = (lefts[1:] != lefts[:-1]) | (rights[1:] != rights[:-1])
    sorted_rank = np.zeros(step.size + 1, dtype=np.int32)
    np.cumsum(step, out=sorted_rank[1:])
    rank = np.empty(sorted_rank.size, dtype=np.int32)
    rank[order] = sorted_rank
    return rank.reshape(left.shape), int(sorted_rank[-1]) + 1


def _wide_blocks(flat: np.ndarray):
    """Each ``_RANK_BLOCK`` of a flat key array with its copy as intp, the
    copies sharing one buffer, so that indexing by them converts nothing."""
    index = np.empty(min(flat.size, _RANK_BLOCK), dtype=np.intp)
    for lo in range(0, flat.size, _RANK_BLOCK):
        block = flat[lo: lo + _RANK_BLOCK]
        wide = index[: block.size]
        wide[...] = block
        yield block, wide


def _pair_keys(left: np.ndarray, n_right: int, right: np.ndarray, dtype) -> np.ndarray:
    """left * n_right + right in a new array of that dtype."""
    keys = left.astype(dtype)
    keys *= n_right
    keys += right
    return keys


def _position_bits(size: int) -> int:
    return max(1, (size - 1).bit_length())


def _sort_positions(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort nonnegative int64 keys in place, ties by position, and return
    them with the positions they came from: one sort of the words
    key << b | j, b bits holding every position j (fewer than 2**32 keys,
    each below 2**(63 - b)), whose low halves are read as uint32."""
    b = _position_bits(keys.size)
    keys <<= b
    keys |= np.arange(keys.size, dtype=np.uint32)
    keys.sort()
    order = keys.view(np.uint32)[_LOW_HALF::2] & np.uint32((1 << b) - 1)
    keys >>= b
    return keys, order


def window_classes(symbols: np.ndarray, width: int) -> np.ndarray:
    """Class ids of the length-``width`` windows of a symbol row.

    Entry j names ``symbols[j:j + width]``: two entries are equal exactly
    when their windows are, and name order is lexicographic window order.
    Karp-Miller-Rosenberg doubling names the windows of length k + d as
    pairs of length-k names d apart (d <= k).  The length-1 names are the
    symbols themselves, in a key space of ``symbols.max() + 1``.  While n
    names square to a key space whose own pairs still fit the rank table
    (n**4 <= twice the windows), a doubling keeps the unranked key
    name * n + name, below sqrt(2 * windows), so int32; the last pair of
    each such run, and every other step, is ranked densely in pair order
    (``_pair_classes``).  Once a ranked step finds every window distinct,
    longer windows are too and the names stop being refined.
    """
    if not 1 <= width <= symbols.size:
        raise ArgumentError("window width must lie in 1..len(symbols)")
    ids, n_cls = symbols.astype(np.int32), int(symbols.max()) + 1
    k = 1
    while k < width:
        while 2 * k < width and n_cls ** 4 <= 2 * ids.size:  # unranked doubling
            ids, n_cls, k = _pair_keys(ids[:-k], n_cls, ids[k:], np.int32), n_cls * n_cls, 2 * k
        d = min(k, width - k)
        ids, n_cls = _pair_classes(ids[:-d], n_cls, ids[d:], n_cls)
        k += d
        if n_cls == ids.size:  # n_cls is an exact count only after a ranked step
            return ids[: symbols.size - width + 1]
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


def ranked_windows(line: np.ndarray, m: int, width: int, count: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The line's first count + width - 1 cells, padded to that length with
    the non-symbol m, and the first position j < count of each distinct
    width-window, in lexicographic window order.  ``window_classes``'
    names are not dense at width 1, or when every window was distinct
    before ``width`` and it stopped refining, so the positions span
    ``ids.max() + 1`` codes.  The windows that hold m each hold it first
    at their own offset, so each is distinct and occurs once, at the end:
    they are ``_first_positions``' tail.
    """
    padded = np.full(count + width - 1, m, dtype=np.uint8)
    live = min(line.size, padded.size)
    padded[:live] = line[:live]
    ids = window_classes(padded, width)
    return padded, _first_positions(ids, int(ids.max()) + 1, count - max(0, live - width + 1))[1]


def _line_counts(line: np.ndarray, alphabet: int, n_max: int) -> list[int]:
    """p(1..n_max) of a line from its ``ranked_windows`` at j < L (see the
    module docstring): p(k) is 1 + #{neighbours with LCP < k}, less the
    k - 1 windows at j > L - k, each holding m at its own offset.
    Neighbours are compared in blocks of ``_LCP_ROWS`` rows.
    """
    padded, ranked = ranked_windows(line, alphabet, n_max, line.size)
    windows = np.lib.stride_tricks.sliding_window_view(padded, n_max)
    lcps = np.zeros(n_max, dtype=np.int64)  # neighbours per common prefix length
    for lo in range(0, ranked.size - 1, _LCP_ROWS):
        rows = windows[ranked[lo: lo + _LCP_ROWS + 1]]
        lcps += np.bincount((rows[1:] != rows[:-1]).argmax(axis=1), minlength=n_max)
    below = np.cumsum(lcps)  # below[k - 1] = #{LCP < k}
    return (below + 1 - np.arange(n_max)).tolist()


def _box_counts(symbols: np.ndarray, alphabet: int, n_max: int) -> list[int]:
    """p(1..n_max) on the n x ... x n boxes of a symbol array.

    A line is counted from one ranking of its windows (``_line_counts``).  In
    rank k >= 2 the box of shape s + e_i at t is the union of the boxes of
    shape s at t and at t + e_i, so each step pairs the ids of the current
    boxes with their neighbours' along each axis in turn.
    """
    if symbols.ndim == 1:
        return _line_counts(symbols, alphabet, n_max)
    ids, count = _pair_classes(np.zeros(symbols.shape, np.int32), 1, symbols, alphabet)
    counts = [count]
    for _ in range(n_max - 1):
        for axis in range(symbols.ndim):
            lower = (slice(None),) * axis + (slice(None, -1),)
            if count == ids.size:  # every box is distinct, so every larger one is
                ids = ids[lower]
                count = ids.size
            else:
                upper = (slice(None),) * axis + (slice(1, None),)
                ids, count = _pair_classes(ids[lower], count, ids[upper], count)
        counts.append(count)
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
    uniq, first = _first_positions(new_codes, weight)
    witness = None
    if ps.witness is not None:
        witness = {c: ps.witness[int(ps.codes[i])] for c, i in zip(uniq.tolist(), first)}
    return PatternSet(A_sub, m, uniq, ps.shift_count, ps.shift_range, witness)
