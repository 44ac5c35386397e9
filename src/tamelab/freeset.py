"""Search for free (interpolation) coordinate sets in a symbol window.

A window is free on a coordinate set A at a given horizon when the
patterns observed on A + t, over the sampled shifts t, exhaust every
possible symbol assignment on A.  Freeness is downward closed: every
subset of a free set is free.  The searcher exploits this with a
level-wise join and subset prune, exactly like frequent-itemset mining
(Apriori), and certifies results with per-pattern witness shifts that
re-verify against the window.

Coverage over the full valid shift range of a window depends only on the
gap vector of A, not its placement: translating A by c translates its
valid shift range by -c and reproduces the same pattern multiset.  One
generator, ``_levels``, yields the levels of both kinds of pool with
their counts, and ``max_free_set`` builds the profile and the best set
from them.  Each set of a level carries the index, in the level below, of
each of its subsets one point smaller, so the join pairs rows by parent
index and the prune looks subsets up by int64 (parent index, last point)
keys.  An interval pool holds every translate of a set that fits in it,
so it keeps only the sets containing its first point and reports that
leftmost placement; an explicit pool keeps every placement.  A level's
distinct gap tuples are counted by one call of ``count`` on their
(parent, extension) pairs, the only counting method of the engine
``_GapEvaluator``, which also serves the independence search of
``families``.  The free-set table (``_line_table``), from the symbols
alone, is the first occurrences of the line's pool-span windows or every
shift, and it is full when its windows are all m**W words, none padded,
as de Bruijn windows and concatenation slots over a short pool are.  A
full table is answered by ``_FullEvaluator`` without counting; the
choice changes no result.

All claims are finite-scale: a certificate states the shift count it was
computed over, and absence of a free set means absence at that horizon.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd

import numpy as np

from .errors import (
    ArgumentError,
    CapacityError,
    DimensionError,
    ShiftRangeError,
    WitnessIntegrityError,
)
from .language import (
    CoordSet,
    _check_capacity,
    pattern_codes,
    patterns_on,
    ranked_windows,
    valid_shift_bounds,
)
from .sources import SeqWindow

# The first epoch covers a multiple of the candidate pattern space
# (coupon-collection scale); later epochs grow geometrically, by at most
# _EPOCH_MAX samples.
_QUICK_MIN = 1 << 10
_QUICK_MAX = 1 << 16
_EPOCH_MAX = 1 << 14
# Up to this pattern-space size, epochs are marked with packed-bit
# intersections in place of the byte scan, which makes non-coverage proofs
# over long horizons cheap.
_BITSET_SPACE_MAX = 64
# Cell cap for one scan batch or block of hit flags, and byte cap for the
# gathered window table and for the bit table.
_BATCH_CELLS = 1 << 21
_TABLE_BYTES = 1 << 26
# Parent codes from here on hold the non-symbol at some digit.  Adding the
# digits of a code below 2**25 (2**24 codes, times m + 1) keeps them there
# and within int32.
_NON_PATTERN = 1 << 30
# Cell cap for one joined level of candidates, positions times columns.
_LEVEL_CELLS = 1 << 24


@dataclass(frozen=True)
class FreeSetCertificate:
    """Coverage of a coordinate set at a stated horizon.

    ``coverage`` is exact; at 1 the certificate holds one witness shift per
    pattern code, each re-verifiable with ``verify``, and below 1 none.
    """

    coordset: CoordSet
    alphabet_size: int
    horizon: int
    coverage: Fraction
    witnesses: dict | None = None

    @property
    def is_free(self) -> bool:
        return self.coverage == 1

    @property
    def size(self) -> int:
        return self.coordset.size

    def verify(self, win: SeqWindow) -> bool:
        """Whether the window re-shows a complete certificate: below coverage
        1 no witness; at 1 a witness for each code 0..m**s - 1, whose shift
        stays in the window and shows that code."""
        if self.coverage != 1 or len(self.witnesses or ()) != self.alphabet_size ** self.size:
            return self.coverage < 1 and not self.witnesses
        codes = np.fromiter(self.witnesses, dtype=np.int64, count=len(self.witnesses))
        shifts = np.array(list(self.witnesses.values()), dtype=np.int64)
        try:
            found = pattern_codes(win, self.coordset, shifts.reshape(codes.size, -1))
        except ShiftRangeError:
            return False
        # m**s distinct codes, each re-shown and so below m**s, are every code
        return bool(np.array_equal(found, codes))

    def dump(self) -> str:
        lines = [
            "TAMELAB-CERT v1",
            f"coords = {self.coordset}",
            f"alphabet = {self.alphabet_size}",
            f"horizon = {self.horizon}",
            f"coverage = {self.coverage.numerator}/{self.coverage.denominator}",
        ]
        if self.witnesses is not None:
            lines += [f"witness {code:x} = {self.witnesses[code]}"
                      for code in sorted(self.witnesses)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FreeSearchBudget:
    """Search limits: size cap, candidate pool, shift horizon, optional beam.

    ``pool`` is a tuple of explicit coordinates or a range: ``(0, 7)`` is
    the two-point pool {0, 7}, and ``FreeSearchBudget.interval(0, 7, ...)``
    the pool ``range(0, 8)``, 0..7.  A pool whose points are contiguous is
    searched as an interval pool, each set translated to start at its
    first point.
    ``horizon`` caps the number of shifts sampled per candidate (default:
    all shifts valid in the window).  ``beam`` caps the free sets kept per
    level for joining; leaving it unset makes the search exhaustive over
    the downward closure.
    """

    max_size: int
    pool: tuple | range
    horizon: int | None = None
    beam: int | None = None

    def __post_init__(self):
        if self.max_size < 1:
            raise ArgumentError("max_size must be >= 1")
        if self.horizon is not None and self.horizon < 1:
            raise ArgumentError("horizon must be >= 1")
        if self.beam is not None and self.beam < 1:
            raise ArgumentError("beam must be >= 1")
        if len(self.pool) == 0:
            raise ArgumentError("candidate pool must be nonempty")

    @classmethod
    def interval(cls, lo: int, hi: int, max_size: int, horizon: int | None = None,
                 beam: int | None = None) -> "FreeSearchBudget":
        return cls(max_size, range(lo, hi + 1), horizon, beam)


@dataclass(frozen=True)
class SizeProfile:
    """Best candidate seen at one size level."""

    size: int
    best_coverage: Fraction
    best_set: CoordSet
    free_count: int
    min_free_diameter: int | None


@dataclass(frozen=True)
class FreeSearchResult:
    """Search outcome.  ``stats`` holds deterministic engine counters: the
    evaluator that ran (``"full"`` when the kept first occurrences of the
    pool-span windows are all m**W words and none is padded, in either
    table form, else ``"scan"``), their count (``windows``, None exactly
    when the table is the view of every shift), the table's samples
    (``table_rows``), and per candidate size the candidates evaluated, the
    samples byte-scanned for them (``rows``; bit epochs add none), and how
    many were settled by scan, by bits and by the full table (``by_scan +
    by_bits + by_full`` is the candidates)."""

    best: FreeSetCertificate | None
    profile: tuple[SizeProfile, ...]
    horizon: int
    beam_limited: bool
    stats: dict = field(default_factory=dict)

    @property
    def max_free_size(self) -> int:
        return self.best.size if self.best is not None else 0

    def density_rows(self) -> list[tuple[int, int, float]]:
        """(size, minimal diameter of a free set found, size/span density)
        for each level holding a free set.

        The density proxy divides the size by the occupied span (diameter
        + 1), so a free set of s contiguous coordinates scores exactly 1.
        """
        return [(e.size, e.min_free_diameter, e.size / (e.min_free_diameter + 1))
                for e in self.profile if e.free_count]


def is_free(win: SeqWindow, A: CoordSet, horizon: int | None = None) -> FreeSetCertificate:
    """Exact coverage of A over (up to ``horizon``) valid shifts, with witnesses;
    a horizon reads the window's first horizon + diameter cells in place."""
    if horizon is not None:
        if win.rank != 1:
            raise ArgumentError("a shift horizon applies to rank-1 windows only")
        valid_shift_bounds(win, A)  # its errors, before the prefix is cut
        win = replace(win, symbols=win.symbols[: horizon + A.diameter])
    ps = patterns_on(win, A, want_witness=True)
    return FreeSetCertificate(A, win.alphabet_size, ps.shift_count, ps.coverage,
                              ps.witness if ps.coverage == 1 else None)


# ---------------------------------------------------------------------------
# evaluation engine
# ---------------------------------------------------------------------------


class _GapEvaluator:
    """Exact pattern counts of row tuples of a (rows x samples) table.

    A tuple (g1 < ... < gs) of rows shows at sample j the code
    sum_i table[g_i, j] * m**i, or no pattern when a digit is the
    non-symbol m.  ``count`` settles a whole level of tuples together, as
    (parent, extension) pairs: the parent is all but the last row, and
    pairs of one parent, adjacent, share their parent's codes.  Each block of
    pairs runs one loop of epochs over the samples in table order into a
    code-major (codes, digits, pairs) hit table, which a pair leaves once
    it has shown every pattern.  For pattern spaces up to _BITSET_SPACE_MAX
    an epoch ANDs a word-major packed bit table over its words.  Otherwise
    it scans bytes: it takes its live pairs in chunks, plans each chunk's
    parents once by their distinct prefixes, and builds their int32 codes
    one digit at a time over pieces of the epoch's samples, so a piece's
    cells stay within _BATCH_CELLS / 8.  Rows are read whole: keep them
    contiguous.
    """

    name = "scan"

    def __init__(self, table: np.ndarray, alphabet: int):
        self.m = int(alphabet)
        self.table = table
        self.levels: dict[int, dict[str, int]] = {}

    @cached_property
    def bits(self) -> np.ndarray | None:
        """uint64 words, word-major: [w, s, g] holds, at the bit of each
        sample j of word w, whether table[g, j] == s; None when they would
        outgrow the table budget."""
        width, n = self.table.shape
        words = -(-n // 64)
        if self.m * width * words * 8 > _TABLE_BYTES:
            return None
        bits = np.zeros((words, self.m, width, 8), dtype=np.uint8)
        step = max(1, _BATCH_CELLS // n)
        for g in range(0, width, step):
            rows = self.table[g: g + step]
            equal = np.zeros((len(rows), words * 64), dtype=bool)
            for s in range(self.m):
                np.equal(rows, s, out=equal[:, :n])
                bits[:, s, g: g + step] = np.packbits(equal, axis=1).reshape(
                    len(rows), words, 8).swapaxes(0, 1)
        return bits.view(np.uint64)[..., 0]

    def count(self, parents: np.ndarray, parent_of: np.ndarray, exts: np.ndarray) -> np.ndarray:
        """Exact pattern counts of the row tuples parents[parent_of[i]] +
        (exts[i],) of s >= 2 rows, aligned with ``exts``: ``parent_of`` is
        nondecreasing, and a parent may be in no pair."""
        size = parents.shape[1] + 1
        level = _level_stats(self.levels, size, exts.size)
        space = self.m ** size
        block = max(1, _BATCH_CELLS // (2 * space + 1))
        out = np.full(exts.size, space, dtype=np.int64)
        for lo in range(0, exts.size, block):
            self._settle(parents, parent_of[lo: lo + block], exts[lo: lo + block], space,
                         level, out[lo: lo + block])
        return out

    def _settle(self, parents: np.ndarray, parent_of: np.ndarray, exts: np.ndarray,
                space: int, level: dict, out: np.ndarray) -> None:
        """Epochs over a block of pairs in table order, marked by the bit table
        or by a byte scan; after each epoch the pairs that showed every
        pattern settle, keeping the count ``out`` holds, and the last epoch
        writes the counts of the rest."""
        m, n = self.m, self.table.shape[1]
        space_par = space // m
        # hits[c, d, i]: live pair i shows parent code c with extension digit
        # d; a code holding the non-symbol is clamped to c = space_par, and an
        # extension's non-symbol is d = m: both are no patterns.  A block's
        # hits hold about _BATCH_CELLS cells, so int32 indexes them.
        hits = np.zeros((space_par + 1, m + 1, exts.size), dtype=bool)
        live = np.arange(exts.size)
        j0, j1 = 0, min(max(16 * space, _QUICK_MIN), _QUICK_MAX, n)
        bitwise = space <= _BITSET_SPACE_MAX and self.bits is not None
        settled_by = "by_bits" if bitwise else "by_scan"
        while live.size:
            if bitwise:
                self._settle_bits(j0, j1, parents, parent_of, exts, live, hits)
            else:
                flat = hits.reshape(-1)
                step = max(1, _BATCH_CELLS // (2 * (j1 - j0)))
                for b in range(0, live.size, step):
                    idx = live[b: b + step]
                    ids, local = _owners(parent_of[idx])
                    plan = self._prefix_plan(parents[ids])
                    rows, pair = exts[idx], np.arange(b, b + idx.size, dtype=np.int32)[:, None]
                    span = max(1, _BATCH_CELLS // (8 * idx.size))
                    for s0 in range(j0, j1, span):
                        s1 = min(s0 + span, j1)
                        cells = self._parent_cells(plan, s0, s1, space_par)
                        if 1 < len(ids) < idx.size:
                            cells = cells[local]
                        # in place, unless one parent's row broadcasts over its pairs
                        cells = np.add(cells, self.table[rows, s0:s1],
                                       out=cells if len(cells) == idx.size else None)
                        cells *= live.size
                        cells += pair
                        flat[cells.ravel()] = True
                level["rows"] += live.size * (j1 - j0)
            if j1 == n:
                level[settled_by] += int(live.size)
                out[live] = hits[:space_par, :m].sum(axis=(0, 1))
                break
            done = hits[:space_par, :m].all(axis=(0, 1))
            level[settled_by] += int(done.sum())
            if done.any():
                live, hits = live[~done], np.compress(~done, hits, axis=2)
            j0, j1 = j1, min(j1 + min(3 * j1, _EPOCH_MAX), n)

    def _prefix_plan(self, parents: np.ndarray) -> list:
        """Per depth d, the table rows of the parents' distinct d-prefixes,
        no two neighbours equal, and the index of each one's (d-1)-prefix,
        None where they are the same prefixes."""
        plan, node = [], None
        new = np.zeros(len(parents), dtype=bool)
        for d in range(parents.shape[1]):
            new |= _run_starts(parents[:, d])
            at = np.flatnonzero(new)
            up = node[at] if d and at.size > len(plan[-1][0]) else None
            plan.append((parents[at, d], up))
            node = np.cumsum(new) - 1
        return plan

    def _parent_cells(self, plan: list, j0: int, j1: int, space_par: int) -> np.ndarray:
        """int32 codes of the planned parents over samples [j0, j1), times
        m + 1, clamped to space_par * (m + 1) where a digit is the
        non-symbol; each depth adds one digit row to its prefix's codes."""
        m, codes = self.m, None
        for d, (rows, up) in enumerate(plan):
            digits = self.table[rows, j0:j1]
            deeper = np.multiply(digits, m ** d * (m + 1), dtype=np.int32)
            if d:
                deeper += codes if up is None else codes[up]
            deeper[digits == m] = _NON_PATTERN
            codes = deeper
        return np.minimum(codes, space_par * (m + 1), out=codes)

    def _settle_bits(self, j0, j1, parents, parent_of, exts, live, hits) -> None:
        """Mark the codes the live pairs (hits' pairs, in order) show over the
        bit table's words of samples [j0, j1), each pair's m extension rows
        ANDed against its parent's code masks, in chunks of at most
        _BATCH_CELLS bytes of words; the first epoch overwrites zero hits."""
        m, bits = self.m, self.bits[j0 // 64: -(-j1 // 64)]
        space_par = m ** parents.shape[1]
        step = max(1, _BATCH_CELLS // (8 * space_par * m * len(bits)))
        for b in range(0, live.size, step):
            idx = live[b: b + step]
            ids, local = _owners(parent_of[idx])
            masks = _parent_masks(bits, parents[ids])
            if len(ids) > 1:
                masks = np.take(masks, local, axis=2)
            rows = np.take(bits, exts[idx], axis=2)[:, None]
            seen = (rows & masks[:, :, None]).any(axis=0)
            if j0:
                seen |= hits[:space_par, :m, b: b + step]
            hits[:space_par, :m, b: b + step] = seen


def _parent_masks(bits: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """(words, m**k, P) masks whose bit of sample j at [w, c, p] is set iff
    parent p shows code c at j."""
    masks = np.take(bits, parents[:, 0], axis=2)
    for g in parents.T[1:]:
        masks = (np.take(bits, g, axis=2)[:, :, None] & masks[:, None]).reshape(
            len(bits), -1, len(parents))
    return masks


class _FullEvaluator:
    """Pattern counts of a full table: each s-word extends to a W-word, so
    every tuple of s rows shows all m**s patterns."""

    name = "full"

    def __init__(self, alphabet: int):
        self.m = int(alphabet)
        self.levels: dict[int, dict[str, int]] = {}

    def count(self, parents: np.ndarray, parent_of: np.ndarray, exts: np.ndarray) -> np.ndarray:
        """m**s for each pair of ``_GapEvaluator.count``'s form."""
        size = parents.shape[1] + 1
        _level_stats(self.levels, size, exts.size)["by_full"] += exts.size
        return np.full(exts.size, self.m ** size, dtype=np.int64)


def _owners(owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids of a nondecreasing id array, and the index of each
    entry's id among them."""
    if owner[0] == owner[-1]:
        return owner[:1], np.zeros(owner.size, dtype=np.intp)
    new = _run_starts(owner)
    return owner[new], np.cumsum(new) - 1


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """True at row 0 and at each row that differs from the one before it."""
    new = np.ones(len(rows), dtype=bool)
    differs = rows[1:] != rows[:-1]
    new[1:] = differs.any(axis=1) if rows.ndim == 2 else differs
    return new


def _level_stats(levels: dict, size: int, candidates: int) -> dict[str, int]:
    """The counters of one candidate size, with ``candidates`` added."""
    level = levels.setdefault(size, {"candidates": 0, "rows": 0, "by_scan": 0,
                                     "by_bits": 0, "by_full": 0})
    level["candidates"] += candidates
    return level


# ---------------------------------------------------------------------------
# level-wise search
# ---------------------------------------------------------------------------


def max_free_set(win: SeqWindow, budget: FreeSearchBudget) -> FreeSearchResult:
    """Largest fully-covered coordinate set in the pool, plus a size profile
    of one entry per level of ``_levels``.  A level's best set, its first of
    highest count, is its first free set when it has one; the last such is
    certified.  Without a beam the search is exhaustive over the downward
    closure: the result is the maximum free subset of the pool at this
    horizon.  A beam can only miss sets, never fabricate them; it cut a
    level iff one below ``max_size`` held more free sets than it.
    """
    if win.rank != 1:
        raise DimensionError("free-set search operates on rank-1 windows")
    m = win.alphabet_size
    _check_capacity(m, budget.max_size)
    origin, length = win.origin[0], win.extents[0]
    ends = (budget.pool[0], budget.pool[-1]) if isinstance(budget.pool, range) else budget.pool
    if min(ends) < origin or max(ends) >= origin + length:  # before the pool is built
        raise ArgumentError("pool extends outside the window")
    pool = tuple(sorted(set(int(p) for p in budget.pool)))
    width = pool[-1] - pool[0] + 1
    shifts = min(length, budget.horizon) if budget.horizon else length
    table, windows, full = _line_table(win.line(), m, shifts, width)
    ev = _FullEvaluator(m) if full else _GapEvaluator(table, m)
    if m ** budget.max_size > shifts:
        warnings.warn("shift horizon below m**max_size: top sizes cannot reach "
                      "coverage 1", stacklevel=2)

    singles = int(np.count_nonzero(np.bincount(table[0], minlength=m + 1)[:m]))
    profile = []
    for level, counts in _levels(ev, pool, budget, singles):
        size, space = level.shape[1], m ** level.shape[1]
        rows = level[counts == space]
        top = CoordSet.of([pool[0] + p for p in level[counts.argmax()].tolist()])
        diam = int((rows[:, -1] - rows[:, 0]).min()) if len(rows) else None
        profile.append(SizeProfile(size, Fraction(int(counts.max()), space), top, len(rows), diam))
    beam_limited = budget.beam is not None and any(
        e.free_count > budget.beam for e in profile if e.size < budget.max_size)
    best = next((is_free(win, e.best_set, budget.horizon) for e in reversed(profile)
                 if e.free_count), None)
    if best is not None and not (best.is_free and best.verify(win)):
        raise WitnessIntegrityError("search result failed re-verification against the window")
    stats = {"evaluator": ev.name, "windows": windows, "table_rows": int(table.shape[1]),
             "levels": dict(sorted(ev.levels.items()))}
    return FreeSearchResult(best, tuple(profile), shifts, beam_limited, stats)


def _line_table(line: np.ndarray, m: int, shifts: int,
                width: int) -> tuple[np.ndarray, int | None, bool]:
    """The (width x samples) table of a line's windows of that width, its
    sample count, None when the table is every shift, and whether it is
    full, all from one ranking of the windows by ``ranked_windows``.

    A gap tuple (0, g2, ..., gs) with gs < width stands for any placement
    of the set.  It scans the shifts j < T(gs) = min(L - gs, horizon), and
    its code at j depends only on the window at j, which it shares with
    that window's first occurrence f <= j.  Windows running
    past the line's end are padded with the non-symbol m.  A padded first
    occurrence j whose live part, the line from j on, also occurs at some
    f < j adds no pattern: a pattern fitting in that live part shows at f
    too, and any other shows m at j.  Those j form a suffix of the padded
    ones, since the live part at j + 1 then occurs at f + 1, so one binary
    search (``_repeat_cut``) drops them.  The kept first occurrences are
    the table, gathered once, when they at least halve T(0) and fit the
    table budget; else the table is the zero-copy view of every shift
    j < T(0), in line order.  At a sample beyond a gap's last shift
    (f >= L - g, the only samples below T(0) that are not below T(g)) the
    gap shows m, so every gap scans every sample, with no per-gap masking.
    No period is read: the later windows of a periodic line, and the live
    parts of its padded ones, repeat its first period's, which ranking keeps.

    Both forms show the same patterns, so either is full when the kept
    windows are all m**W words and none is padded.
    """
    padded, first = ranked_windows(line, m, width, shifts)
    first.sort()
    live = min(line.size, padded.size)
    first = first[: np.searchsorted(first, _repeat_cut(padded[:live], live - width + 1, shifts))]
    n = first.size
    # past n's bit length m**W > n for m >= 2: the power is never built
    full = (bool(first[-1] <= live - width) and (m == 1 or width < n.bit_length())
            and n == m ** width)
    if 2 * n > shifts or width * n > _TABLE_BYTES:
        return np.lib.stride_tricks.sliding_window_view(padded, shifts), None, full
    # A golden-ratio stride spreads the samples over the line, so a scan
    # that stops once every pattern is seen stops early.
    stride = round(n * 0.6180339887) or 1
    while gcd(stride, n) != 1:
        stride += 1
    order = first[np.arange(n) * stride % n]
    # one gather per gap, so that every gap row is contiguous
    table = np.empty((width, n), dtype=np.uint8)
    for g in range(width):
        np.take(padded[g:], order, out=table[g])
    return table, n, full


def _repeat_cut(line: np.ndarray, lo: int, hi: int) -> int:
    """The least j in [lo, hi) whose tail line[j:] also occurs at some
    f < j, or hi; the tails past the line are empty and occur at 0."""
    lo, text = min(max(lo, 1), hi), line.tobytes()
    while lo < hi:
        mid = (lo + hi) // 2
        # an occurrence ending before the line's last symbol starts before mid
        if text.find(text[mid:], 0, len(text) - 1) != -1:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _levels(ev: _GapEvaluator, pool: tuple, budget: FreeSearchBudget, singles: int):
    """Level-wise search over positioned sets, yielding each level, an (N, s)
    int32 array of sets in lexicographic order as offsets from pool[0], with
    its counts.  A level carries an int32 array of drop ids per column k:
    the index among the kept rows below of the row less column k, translated
    back to pool[0] on an interval pool.  The kept rows, the free ones, are
    cut to the first ``budget.beam``; the last drop id is the parent, and
    once a beam cuts a level no other is read.  Every level-1 set shows the
    ``singles`` symbols of table row 0; an interval pool's (pool[0],) joins
    every pool point.
    """
    span = pool[-1] - pool[0] + 1
    interval = span == len(pool)
    points = np.array([p - pool[0] for p in pool], dtype=np.int32)[:, None]
    level = points[:1] if interval else points
    counts, drops, cut = np.full(len(level), singles), [], False
    while True:
        yield level, counts
        size = level.shape[1]
        free = counts == ev.m ** size
        rows = level[free]
        if size == budget.max_size or not len(rows):
            return
        drops = [d[free] for d in drops]
        if budget.beam is not None and len(rows) > budget.beam:
            rows, drops, cut = rows[: budget.beam], [d[: budget.beam] for d in drops], True
        sibs = points if interval and size == 1 else rows
        parent = drops[-1] if drops else np.zeros(len(sibs), dtype=np.int32)
        i, j = _join(parent, len(rows), size + 1)
        # the subset prune is sound only on a complete level
        i, j, found = (_prune(i, j, rows, drops, span, interval)
                       if size > 1 and not cut else (i, j, []))
        if not i.size:
            return
        level = np.empty((i.size, size + 1), dtype=np.int32)
        level[:, :-1], level[:, -1] = rows[i], sibs[j, -1]
        drops = [i, i] if interval and size == 1 else found + [j, i]
        counts = ev.count(rows, i, level[:, -1]) if interval else _count(ev, level)


def _join(parent: np.ndarray, n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 index pairs (i, j) of each row i < n and each later row j of its
    (nondecreasing) parent id, in the joined level's order.  Past
    _LEVEL_CELLS cells the level is a capacity error, raised before a pair."""
    width = np.searchsorted(parent, parent[:n], side="right") - np.arange(1, n + 1)
    total = int(width.sum())
    if total * size > _LEVEL_CELLS:
        raise CapacityError(f"free-set level {size} would hold {total} candidates, past "
                            "the 2**24-cell cap: set or lower [freeset] beam")
    # the t-th pair joins row i to sibling t + i + 1 - (pairs before i)
    skip = np.arange(1, n + 1) - np.cumsum(width) + width
    return (np.repeat(np.arange(n, dtype=np.int32), width),
            np.arange(total, dtype=np.int32) + np.repeat(skip.astype(np.int32), width))


def _prune(i: np.ndarray, j: np.ndarray, rows: np.ndarray, drops: list, span: int,
           interval: bool) -> tuple[np.ndarray, np.ndarray, list]:
    """The pairs whose set less column k, for each k below the rows' last, is
    a row of the complete level ``rows``, with those rows' indices: a lookup
    per k of the ascending key parent * span + last, parent drops[k][i] and
    last rows[j, -1], less rows[i, 1] at k = 0 on an interval pool."""
    keys, found = np.multiply(drops[-1], span, dtype=np.int64) + rows[:, -1], []
    for k in range(rows.shape[1] - 1):
        want = np.multiply(drops[k][i], span, dtype=np.int64)
        want += rows[j, -1]
        if interval and k == 0:
            want -= rows[i, 1]
        at = np.searchsorted(keys, want)
        keep = keys.take(at, mode="clip") == want
        i, j, found = i[keep], j[keep], [f[keep] for f in found] + [at[keep].astype(np.int32)]
    return i, j, found


def _count(ev: _GapEvaluator, level: np.ndarray) -> np.ndarray:
    """Pattern counts of an explicit pool's candidates, from one evaluator
    call on their distinct gap tuples in sorted order, each paired with its
    run of equal parents."""
    gaps = level - level[:, :1]
    order = np.lexsort(gaps.T[:0:-1])
    new = _run_starts(gaps[order])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    tuples = gaps[order[new]]
    runs = _run_starts(tuples[:, :-1])
    return ev.count(tuples[runs, :-1], np.cumsum(runs) - 1, tuples[:, -1])[inverse]


def brute_force_free_oracle(win: SeqWindow, pool, max_size: int = 4,
                            horizon: int = 64) -> list[CoordSet]:
    """Every free subset of the pool, by direct enumeration (tiny instances).

    Independent of the search path: pure-Python tuple sets, no shared
    evaluation code.  Caps: window length <= 64 shifts sampled per set,
    |pool| <= 8, max_size <= 4.
    """
    if max_size > 4:
        raise ArgumentError("oracle caps subset size at 4")
    pool = tuple(sorted(set(int(p) for p in pool)))
    if len(pool) > 8:
        raise ArgumentError("oracle caps the pool at 8 coordinates")
    if horizon > 64:
        raise ArgumentError("oracle caps the horizon at 64 shifts")
    line = win.line().tolist()
    origin, length = win.origin[0], win.extents[0]
    m = win.alphabet_size
    out = []
    for size in range(1, max_size + 1):
        for subset in combinations(pool, size):
            lo = origin - subset[0]
            hi = origin + length - 1 - subset[-1]
            if hi < lo:
                continue
            hi = min(hi, lo + horizon - 1)
            # the pattern at shift t reads line[a + t - origin] for each a
            seen = set(zip(*(line[a + lo - origin: a + hi + 1 - origin] for a in subset)))
            if len(seen) == m ** size:
                out.append(CoordSet.of(subset))
    return out
