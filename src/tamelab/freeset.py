"""Search for free (interpolation) coordinate sets in a symbol window.

A window is free on a coordinate set A at a given horizon when the
patterns observed on A + t, over the sampled shifts t, exhaust every
possible symbol assignment on A.  Freeness is downward closed: every
subset of a free set is free.  The searcher exploits this with a
level-wise sorted-prefix join, exactly like frequent-itemset mining, and
certifies results with per-pattern witness shifts that re-verify against
the window.

Coverage over the full valid shift range of a window depends only on the
gap vector of A, not its placement: translating A by c translates its
valid shift range by -c and reproduces the same pattern multiset.  One
level-wise loop serves both kinds of pool and stores positioned sets.
An interval pool holds every translate of a set that fits in it, so it
keeps only the sets containing its first point and reports that leftmost
placement; an explicit pool keeps every placement.  Parents sharing a gap
tuple are evaluated once, on the union of their extensions.

The evaluation engine, ``_GapEvaluator``, counts the patterns that tuples
of rows show in a (rows x samples) uint8 table, where the non-symbol m
marks a sample at which a row shows no symbol; the independence search of
``families`` counts through it too.  The free-set search's table
(``_line_table``) holds the first occurrence of each distinct pool-span
window, found by Karp-Miller-Rosenberg naming (``language.window_classes``);
for the low-complexity codings studied here they are far fewer than the
shifts.

All claims are finite-scale: a certificate states the shift count it was
computed over, and absence of a free set means absence at that horizon.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
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
    DENSE_CAP,
    CoordSet,
    pattern_codes,
    patterns_on,
    valid_shift_bounds,
    window_classes,
)
from .sources import SeqWindow

# The first scan epoch covers a multiple of the candidate pattern space
# (coupon-collection scale); later epochs grow geometrically, by at most
# _EPOCH_MAX rows.
_QUICK_MIN = 1 << 10
_QUICK_MAX = 1 << 16
_EPOCH_MAX = 1 << 14
# Up to this pattern-space size, candidates the first epoch leaves open are
# settled with packed-bit intersections, which makes non-coverage proofs
# over long horizons cheap.
_BITSET_SPACE_MAX = 64
# Cell cap for one scan batch or block of hit flags, and byte cap for the
# gathered window table and for the bit table.
_BATCH_CELLS = 1 << 21
_TABLE_BYTES = 1 << 26
# Parent codes from here on hold the non-symbol at some digit.  Adding the
# digits of a code below 2**24 keeps them there and within int32.
_NON_PATTERN = 1 << 30


@dataclass(frozen=True)
class FreeSetCertificate:
    """Coverage of a coordinate set at a stated horizon.

    ``coverage`` is exact; when it equals 1 the certificate carries one
    witness shift per pattern code, each re-verifiable with ``verify``.
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
        """Re-evaluate every stored witness against the window: False when
        a witness shift leaves the window or shows another pattern."""
        if not self.witnesses:
            return True
        codes = np.fromiter(self.witnesses, dtype=np.int64, count=len(self.witnesses))
        shifts = np.array(list(self.witnesses.values()), dtype=np.int64)
        try:
            found = pattern_codes(win, self.coordset, shifts.reshape(codes.size, -1))
        except ShiftRangeError:
            return False
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
            for code in sorted(self.witnesses):
                lines.append(f"witness {format(code, 'x')} = {self.witnesses[code]}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FreeSearchBudget:
    """Search limits: size cap, candidate pool, shift horizon, optional beam.

    ``pool`` is an inclusive interval (lo, hi) or an explicit coordinate
    list.  ``horizon`` caps the number of shifts sampled per candidate
    (default: all shifts valid in the window).  ``beam`` caps the free
    sets kept per level for joining; leaving it unset makes the search
    exhaustive over the downward closure.
    """

    max_size: int
    pool: tuple
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
        return cls(max_size, tuple(range(lo, hi + 1)), horizon, beam)


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
    distinct pool-span windows (None once they exceed half the shifts), the
    table's samples (``table_rows``), and per candidate size the candidates
    evaluated, the samples scanned for them (``rows``), and how many were
    settled by scan and by bits."""

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
    """Exact coverage of A over (up to ``horizon``) valid shifts, with witnesses."""
    ps = patterns_on(win, A, shifts=_shift_sample(win, A, horizon), want_witness=True)
    coverage = ps.coverage
    witnesses = ps.witness if coverage == 1 else None
    return FreeSetCertificate(A, win.alphabet_size, ps.shift_count, coverage, witnesses)


def _shift_sample(win: SeqWindow, A: CoordSet, horizon: int | None):
    if horizon is None:
        return "all"
    if win.rank != 1:
        raise ArgumentError("a shift horizon applies to rank-1 windows only")
    (lo, hi), = valid_shift_bounds(win, A)
    return range(lo, min(hi, lo + horizon - 1) + 1)


# ---------------------------------------------------------------------------
# evaluation engine
# ---------------------------------------------------------------------------


class _GapEvaluator:
    """Exact pattern counts of row tuples of a (rows x samples) table.

    A tuple (g1 < ... < gs) of rows shows at sample j the code
    sum_i table[g_i, j] * m**i, or no pattern when a digit is the
    non-symbol m.  All extensions of a parent are settled together, by scan
    epochs over the samples in table order and, for pattern spaces up to
    64, by a packed bit table.  Rows are read whole: keep them contiguous.
    """

    def __init__(self, table: np.ndarray, alphabet: int):
        self.m = int(alphabet)
        self.table = table
        self.levels: dict[int, dict[str, int]] = {}
        # prefix chain of the current parent: [row, samples filled] per depth,
        # the codes of depth i in _bufs[i]
        self._chain: list[list[int]] = []
        self._bufs: list[np.ndarray] = []

    def singleton_count(self, g: int) -> int:
        """Distinct symbols in row g."""
        return int(np.setdiff1d(self.table[g], (self.m,)).size)

    def _codes(self, parent: tuple, upto: int) -> np.ndarray:
        """Pattern codes of the parent over samples [0, upto), at least
        _NON_PATTERN where a digit is the non-symbol.  The codes of the
        parent's prefixes, filled as far as a scan has needed them, are the
        only cache: sibling parents share them."""
        chain, bufs = self._chain, self._bufs
        k = 0
        while k < min(len(chain), len(parent)) and chain[k][0] == parent[k]:
            k += 1
        del chain[k:]
        chain += [[g, 0] for g in parent[k:]]
        bufs += [np.empty(self.table.shape[1], dtype=np.int32)
                 for _ in range(len(chain) - len(bufs))]
        for i, (g, filled) in enumerate(chain):
            if filled < upto:
                digits = self.table[g, filled:upto]
                seg = bufs[i][filled:upto]
                np.multiply(digits, self.m ** i, out=seg, dtype=np.int32)
                if i:
                    seg += bufs[i - 1][filled:upto]
                seg[digits == self.m] = _NON_PATTERN
                chain[i][1] = upto
        return bufs[len(chain) - 1][:upto]

    @cached_property
    def bits(self) -> np.ndarray | None:
        """uint64 words whose bit j of [s, g] is table[g, j] == s; None
        when they would outgrow the table budget."""
        width, n = self.table.shape
        nbytes = -(-n // 64) * 8
        if self.m * width * nbytes > _TABLE_BYTES:
            return None
        bits = np.zeros((self.m, width, nbytes), dtype=np.uint8)
        step = max(1, _BATCH_CELLS // n)
        for g in range(0, width, step):
            for s in range(self.m):
                bits[s, g: g + step, : (n + 7) >> 3] = np.packbits(
                    self.table[g: g + step] == s, axis=1)
        return bits.view(np.uint64)

    # -- batched evaluation ----------------------------------------------

    def evaluate_extensions(self, parent: tuple, exts: list[int]) -> dict[int, int]:
        """Exact pattern counts of parent + (e,) for each extension row e > parent[-1]."""
        level = self.levels.setdefault(
            len(parent) + 1, {"candidates": 0, "rows": 0, "by_scan": 0, "by_bits": 0})
        level["candidates"] += len(exts)
        todo = np.array(exts, dtype=np.int64)
        space = self.m ** (len(parent) + 1)
        block = max(1, _BATCH_CELLS // (2 * space + 1))
        out = {}
        for lo in range(0, todo.size, block):
            gaps = todo[lo: lo + block]
            out.update(zip(gaps.tolist(), self._settle(parent, gaps, space, level).tolist()))
        return out

    def _settle(self, parent: tuple, gaps: np.ndarray, space: int, level: dict) -> np.ndarray:
        """Scan epochs over all extensions at once; for small pattern spaces
        the bit table settles what the first epoch leaves open, or settles
        everything when one bit pass costs less than that epoch."""
        space_par = space // self.m
        n = self.table.shape[1]
        # cells from `space` on are no patterns: a parent code holding the non-symbol
        # is clamped to `space`, and an extension digit m lands at `space` or beyond
        width = 2 * space + 1
        hits = np.zeros((gaps.size, width), dtype=bool)
        flat = hits.reshape(-1)
        live = np.arange(gaps.size)
        j0, j1 = 0, min(max(16 * space, _QUICK_MIN), _QUICK_MAX, n)
        bits = self.bits if space <= _BITSET_SPACE_MAX else None
        scan = bits is None or space * bits.shape[2] > j1
        while scan and live.size:
            pcodes = np.minimum(self._codes(parent, j1)[j0:j1], space)
            step = max(1, _BATCH_CELLS // (j1 - j0))
            for b in range(0, live.size, step):
                idx = live[b: b + step]
                cells = np.multiply(self.table[gaps[idx], j0:j1], space_par, dtype=np.intp)
                cells += pcodes
                cells += idx[:, None] * width
                flat[cells.ravel()] = True
            level["rows"] += live.size * (j1 - j0)
            done = hits[live, :space].all(axis=1) | (j1 == n)
            level["by_scan"] += int(done.sum())
            live = live[~done]
            scan = bits is None
            j0, j1 = j1, min(j1 + min(3 * j1, _EPOCH_MAX), n)
        if live.size:
            self._settle_bits(bits, parent, gaps, live, hits)
            level["by_bits"] += int(live.size)
        return hits[:, :space].sum(axis=1)

    def _settle_bits(self, bits, parent, gaps, live, hits) -> None:
        """Settle the codes still missing after the scan: one gathered
        AND/any per open (extension, parent code) pair."""
        masks = bits[:, parent[0]]
        for g in parent[1:]:
            masks = (bits[:, g, None, :] & masks).reshape(-1, bits.shape[2])
        # bit j of masks[c] is set iff the parent shows code c at row j
        space_par = masks.shape[0]
        cols = np.arange(space_par)[:, None] + np.arange(self.m) * space_par
        ext, code = np.nonzero(~hits[live[:, None, None], cols].all(axis=2))
        step = max(1, _BATCH_CELLS // (self.m * bits.shape[2]))
        for b in range(0, code.size, step):
            i, c = live[ext[b: b + step]], code[b: b + step]
            seen = (bits[:, gaps[i]] & masks[c]).any(axis=2)
            hits[i[:, None], cols[c]] |= seen.T


# ---------------------------------------------------------------------------
# level-wise search
# ---------------------------------------------------------------------------


def max_free_set(win: SeqWindow, budget: FreeSearchBudget) -> FreeSearchResult:
    """Largest fully-covered coordinate set in the pool, plus a size profile.

    Level s+1 candidates are unions of level-s free sets sharing their
    first s-1 coordinates; every subset of a candidate must already be
    free (downward closure).  Without a beam the search is exhaustive
    over that closure and the result is exactly the maximum free subset
    of the pool at this horizon.  With a beam, returned certificates are
    still valid; the beam can only miss sets, never fabricate them.
    """
    if win.rank != 1:
        raise DimensionError("free-set search operates on rank-1 windows")
    m = win.alphabet_size
    if m ** budget.max_size > DENSE_CAP:
        raise CapacityError(
            f"pattern space {m}**{budget.max_size} exceeds the 2**24 cap")
    horizon = budget.horizon
    pool = tuple(sorted(set(int(p) for p in budget.pool)))
    origin, length = win.origin[0], win.extents[0]
    if pool[0] < origin or pool[-1] >= origin + length:
        raise ArgumentError("pool extends outside the window")
    width = pool[-1] - pool[0] + 1
    shifts = min(length, horizon) if horizon else length
    table, windows = _line_table(win.line(), m, shifts, win.meta.get("period"), width)
    ev = _GapEvaluator(table, m)
    if m ** budget.max_size > shifts:
        warnings.warn("shift horizon below m**max_size: top sizes cannot reach "
                      "coverage 1", stacklevel=2)

    levels = _search(ev, pool, budget)

    profile = tuple(levels["profile"])
    best_coords = levels["best"]
    best = None
    if best_coords is not None:
        best = is_free(win, CoordSet.of(best_coords), horizon)
        if not best.is_free or not best.verify(win):
            raise WitnessIntegrityError(
                "search result failed re-verification against the window")
    stats = {"windows": windows, "table_rows": int(table.shape[1]),
             "levels": dict(sorted(ev.levels.items()))}
    return FreeSearchResult(best, profile, shifts, levels["beam_limited"], stats)


def _line_table(line: np.ndarray, m: int, shifts: int, period: int | None,
                width: int) -> tuple[np.ndarray, int | None]:
    """The (width x samples) table of a line's windows of that width, and
    the number of distinct windows (None once they exceed half the shifts
    scanned).

    A gap tuple (0, g2, ..., gs) with gs < width stands for any placement
    of the set.  It scans the shifts j < T(gs) = min(L - gs, horizon,
    period), and its code at j depends only on the window at j, which it
    shares with that window's first occurrence f <= j.  So the samples are
    the first occurrences when that at least halves them, else every shift
    j < T(0); past the table budget the table is the zero-copy view of
    every shift.  Windows running past the line's end are padded with the
    non-symbol m.  At a sample beyond a gap's last shift (f >= L - g, the
    only samples below T(0) that are not below T(g)) the gap shows m, so
    every gap scans every sample, with no per-gap masking.
    """
    t = min(shifts, period) if period else shifts
    padded = np.full(t + width - 1, m, dtype=np.uint8)
    padded[: min(line.size, padded.size)] = line[: padded.size]
    ids = window_classes(padded, width, limit=t // 2)
    first = None if ids is None else np.unique(ids, return_index=True)[1]
    windows = None if first is None else int(first.size)
    samples = np.sort(first) if first is not None and 2 * first.size <= t else np.arange(t)
    if width * samples.size > _TABLE_BYTES:
        return np.lib.stride_tricks.sliding_window_view(padded, t), windows
    # A golden-ratio stride spreads the samples over the line, so a scan
    # that stops once every pattern is seen stops early.
    n = samples.size
    stride = round(n * 0.6180339887) or 1
    while gcd(stride, n) != 1:
        stride += 1
    order = samples[np.arange(n) * stride % n]
    # one gather per gap, so that every gap row is contiguous
    table = np.empty((width, n), dtype=np.uint8)
    for g in range(width):
        np.take(padded[g:], order, out=table[g])
    return table, windows


def _profile_entry(size: int, stats: dict, m: int) -> SizeProfile:
    return SizeProfile(
        size=size,
        best_coverage=Fraction(stats["best_count"], m ** size),
        best_set=CoordSet.of(stats["best_set"]),
        free_count=stats["free_count"],
        min_free_diameter=stats["min_diam"],
    )


def _track(stats: dict, coords: tuple, count: int, space: int) -> None:
    if count > stats["best_count"] or (count == stats["best_count"]
                                       and coords < stats["best_set"]):
        stats["best_count"] = count
        stats["best_set"] = coords
    if count == space:
        stats["free_count"] += 1
        diam = coords[-1] - coords[0]
        if stats["min_diam"] is None or diam < stats["min_diam"]:
            stats["min_diam"] = diam


def _new_stats() -> dict:
    return {"best_count": -1, "best_set": None, "free_count": 0, "min_diam": None}


def _search(ev: _GapEvaluator, pool: tuple, budget: FreeSearchBudget) -> dict:
    """Level-wise search over positioned sets.

    An interval pool holds every translate of a set that fits in it, so it
    keeps only the sets containing pool[0]: its singleton (pool[0],) has
    every pool point as a sibling, and a subset is looked up translated to
    pool[0].  An explicit pool keeps every placement.  Parents sharing a
    gap tuple are evaluated together, on the union of their extensions.
    """
    m = ev.m
    base = pool[0]
    interval = pool[-1] - base + 1 == len(pool)
    anchor = base if interval else None
    profile = []
    beam_limited = False
    best = None

    stats = _new_stats()
    count1 = ev.singleton_count(0)
    singletons = [(base,)] if interval else [(a,) for a in pool]
    for single in singletons:
        _track(stats, single, count1, m)
    profile.append(_profile_entry(1, stats, m))
    free = singletons if count1 == m else []
    if free:
        best = free[0]

    size = 1
    while size < budget.max_size and free:
        if budget.beam is not None and len(free) > budget.beam:
            free = free[: budget.beam]
            beam_limited = True
        by_prefix: dict[tuple, list[int]] = {}
        for f in free:
            by_prefix.setdefault(f[:-1], []).append(f[-1])
        if interval and size == 1:
            by_prefix[()] = list(pool)
        # the full subset prune is sound only while the free list is complete
        lasts_of = None if beam_limited else {p: set(v) for p, v in by_prefix.items()}
        groups: dict[tuple, list[tuple]] = {}
        for parent in free:
            lasts = by_prefix[parent[:-1]]
            exts = lasts[bisect_right(lasts, parent[-1]):]
            if lasts_of is not None:
                exts = _closed_exts(parent, exts, lasts_of, anchor)
            if exts:
                gaps = tuple(g - parent[0] for g in parent)
                groups.setdefault(gaps, []).append((parent, exts))
        if not groups:
            break
        size += 1
        space = m ** size
        stats = _new_stats()
        next_free: list[tuple] = []
        for gaps in sorted(groups):
            members = groups[gaps]
            union = sorted({y - parent[0] for parent, exts in members for y in exts})
            counts = ev.evaluate_extensions(gaps, union)
            for parent, exts in members:
                for y in exts:
                    cand, count = parent + (y,), counts[y - parent[0]]
                    _track(stats, cand, count, space)
                    if count == space:
                        next_free.append(cand)
        profile.append(_profile_entry(size, stats, m))
        if next_free:
            next_free.sort()
            best = next_free[0]
        free = next_free
    return {"best": best, "profile": profile, "beam_limited": beam_limited}


def _closed_exts(parent: tuple, exts: list[int], lasts_of: dict,
                 anchor: int | None) -> list[int]:
    """Extensions y whose candidate parent + (y,) has only free subsets.

    Dropping y or the parent's last coordinate leaves a free set by
    construction; dropping parent[i] leaves sub + (y,), which is free
    exactly when y, translated with sub by d, is a free last of that
    prefix.  d moves sub[0] to ``anchor``, an interval pool's first point,
    and is 0 in an explicit pool (``anchor`` None).
    """
    for i in range(len(parent) - 1):
        sub = parent[:i] + parent[i + 1:]
        d = 0 if anchor is None else sub[0] - anchor
        lasts = lasts_of.get(tuple(g - d for g in sub) if d else sub, ())
        exts = [y for y in exts if y - d in lasts]
        if not exts:
            break
    return exts


def free_density_profile(win: SeqWindow, budget: FreeSearchBudget) -> list[tuple[int, int, float]]:
    """(size, minimal free diameter, size/span density) rows of one search;
    see ``FreeSearchResult.density_rows``."""
    return max_free_set(win, budget).density_rows()


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
    line = win.line()
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
            seen = set()
            for t in range(lo, hi + 1):
                seen.add(tuple(int(line[a + t - origin]) for a in subset))
            if len(seen) == m ** size:
                out.append(CoordSet.of(subset))
    return out
