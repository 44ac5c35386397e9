"""Sequence sources and materialized symbol windows.

Every concrete family lives behind one abstraction: a ``SeqSource`` is an
immutable recipe, ``materialize`` turns it into a ``SeqWindow`` holding the
symbols over a requested box of coordinates.  Evaluation at a coordinate is
deterministic and stateless, so identical parameters produce bit-identical
windows on every run and platform.

Families
--------
sturmian        rotation coding f(z + n1*a1 + ... + nk*ak) on the circle
sphere          hitting indicator of a closed ball under a torus rotation
ip_indicator    sums of distinct powers of a base (an IP set's indicator)
morse           digit-sum parity with mirrored negative half
concat_nonnull  block concatenation exhausting all words of each length
char_halfline   indicator of the nonnegative half-line
de_bruijn       cyclic binary de Bruijn word (greedy, prefer-one)
random          seeded hash noise, for statistical experiments only
explicit        symbols loaded from a TAMELAB-SEQ v1 file
"""

from __future__ import annotations

import hashlib
import mmap
import os
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import (
    ArgumentError,
    CapacityError,
    ConfigError,
    DataIOError,
    DimensionError,
    ShiftRangeError,
)
from .torus import (
    BALL_SCALE,
    BALL_SHIFT,
    LIMB_MASK,
    MASK,
    NEAR_CUT_EPS,
    SCALE,
    BallRegion,
    CutPartition,
    RotationSpec,
    TorusPoint,
    orbit_words,
    rotate_add,
    sub_words,
    words,
)

CELL_CAP = 1 << 28
# Window coordinates lie in [-COORD_LIMIT, COORD_LIMIT), so that every
# coordinate is an int64.
COORD_LIMIT = 1 << 63
# Orbit builders work in blocks of at most this many cells, so that their
# uint64 temporaries stay a few MB.
BLOCK_CELLS = 1 << 16
# The noise builder hashes this many cells at a time, in each part of its
# window.  A block's message and digest bytes objects live until the block
# is written, and the interpreter keeps the small-object pages they touched,
# so blocks stay small.
_HASH_BLOCK_CELLS = 1 << 10
# The noise builder splits a window into one part per available core, each
# of at least this many cells: a fork and its wait cost about as much as
# hashing a few thousand cells.
_HASH_PART_CELLS = 1 << 15
MAX_ALPHABET = 16
MAX_RANK = 3
MAX_DE_BRUIJN_ORDER = 24

# Ball membership is decided at 2**-96 squared resolution; a margin below
# 2**8 quanta means the orbit point sits within ~2**-88 of the sphere.
NEAR_SPHERE_MARGIN = 1 << 8

Box = tuple[tuple[int, int], ...]


def normalize_box(window, rank: int) -> Box:
    """Accept (lo, hi) for one axis or a tuple of per-axis (lo, hi) pairs.

    Every coordinate must lie in [-2**63, 2**63), so that builders can hold
    coordinates as int64.
    """
    if len(window) == 2 and all(isinstance(v, int) for v in window):
        window = (tuple(window),)
    box = tuple((int(lo), int(hi)) for lo, hi in window)
    if len(box) != rank:
        raise DimensionError(f"window has {len(box)} axes, source has rank {rank}")
    if any(hi <= lo for lo, hi in box):
        raise ArgumentError("window extents must be positive")
    if any(lo < -COORD_LIMIT or hi > COORD_LIMIT for lo, hi in box):
        raise ArgumentError(f"window {box} leaves the coordinate range [-2**63, 2**63)")
    cells = 1
    for lo, hi in box:
        cells *= hi - lo
    if cells > CELL_CAP:
        raise CapacityError(f"window holds {cells} cells, cap is {CELL_CAP}")
    return box


@dataclass(frozen=True)
class SeqWindow:
    """A materialized block of symbols over a box in Z^k.

    ``symbols[idx]`` is the source value at ``origin + idx`` (row-major,
    last axis fastest).  ``meta`` holds generation statistics that ``generate``
    reports and no analysis reads; equality and digests exclude it.
    """

    origin: tuple[int, ...]
    symbols: np.ndarray
    alphabet_size: int
    source_digest: str
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def rank(self) -> int:
        return len(self.origin)

    @property
    def extents(self) -> tuple[int, ...]:
        return self.symbols.shape

    def line(self) -> np.ndarray:
        """The 1-D symbol array (rank-1 windows only)."""
        if self.rank != 1:
            raise DimensionError("line() requires a rank-1 window")
        return self.symbols

    def value_at(self, coord) -> int:
        if isinstance(coord, int):
            coord = (coord,)
        idx = tuple(c - o for c, o in zip(coord, self.origin))
        if any(not 0 <= i < e for i, e in zip(idx, self.extents)):
            raise ArgumentError(f"coordinate {coord} outside the window")
        return int(self.symbols[idx])


@dataclass(frozen=True)
class SeqSource:
    """Immutable recipe for a symbolic sequence over Z^k."""

    kind: str
    alphabet_size: int
    group_rank: int
    rotation: RotationSpec | None = None
    partition: CutPartition | None = None
    base_point: TorusPoint | None = None
    region: BallRegion | None = None
    base: int | None = None
    exponent_cap: int | None = None
    order: int | None = None
    seed: int | None = None
    data: SeqWindow | None = None

    def __post_init__(self):
        if not 2 <= self.alphabet_size <= MAX_ALPHABET:
            raise ArgumentError(f"alphabet size {self.alphabet_size} outside 2..{MAX_ALPHABET}")
        if not 1 <= self.group_rank <= MAX_RANK:
            raise ArgumentError(f"group rank {self.group_rank} outside 1..{MAX_RANK}")

    # -- constructors ------------------------------------------------

    @classmethod
    def sturmian(cls, rotation: RotationSpec, partition: CutPartition,
                 base_point: TorusPoint) -> "SeqSource":
        if rotation.dim != 1 or base_point.dim != 1:
            raise DimensionError("sturmian codings live on the circle")
        return cls("sturmian", partition.n_cells, rotation.rank,
                   rotation=rotation, partition=partition, base_point=base_point)

    @classmethod
    def fibonacci(cls) -> "SeqSource":
        """The golden-angle coding with cut 1 - alpha from base point 0."""
        from .torus import GOLDEN
        return cls.sturmian(RotationSpec.circle(GOLDEN),
                            CutPartition((0, SCALE - GOLDEN)),
                            TorusPoint.zero())

    @classmethod
    def sphere(cls, region: BallRegion, rotation: RotationSpec,
               base_point: TorusPoint) -> "SeqSource":
        if rotation.rank != 1:
            raise DimensionError("sphere codings use a single rotation direction")
        if rotation.dim != region.dim or base_point.dim != region.dim:
            raise DimensionError("sphere coding dimensions disagree")
        return cls("sphere", 2, 1, rotation=rotation, region=region, base_point=base_point)

    @classmethod
    def ip_indicator(cls, base: int, exponent_cap: int) -> "SeqSource":
        if base < 2:
            raise ArgumentError("ip base must be >= 2")
        if exponent_cap < 1:
            raise ArgumentError("exponent cap must be >= 1")
        return cls("ip_indicator", 2, 1, base=base, exponent_cap=exponent_cap)

    @classmethod
    def morse(cls) -> "SeqSource":
        return cls("morse", 2, 1)

    @classmethod
    def concat_nonnull(cls) -> "SeqSource":
        return cls("concat_nonnull", 2, 1)

    @classmethod
    def char_halfline(cls) -> "SeqSource":
        return cls("char_halfline", 2, 1)

    @classmethod
    def de_bruijn(cls, order: int) -> "SeqSource":
        if not 1 <= order <= MAX_DE_BRUIJN_ORDER:
            raise ArgumentError(f"de Bruijn order {order} outside 1..{MAX_DE_BRUIJN_ORDER}")
        return cls("de_bruijn", 2, 1, order=order)

    @classmethod
    def random(cls, seed: int, alphabet_size: int = 2) -> "SeqSource":
        if not -(1 << 127) <= seed < 1 << 127:
            raise ArgumentError(f"random seed {seed} outside the range [-2**127, 2**127)")
        return cls("random", alphabet_size, 1, seed=seed)

    @classmethod
    def explicit(cls, window: SeqWindow) -> "SeqSource":
        return cls("explicit", window.alphabet_size, window.rank, data=window)

    # -- identity ----------------------------------------------------

    def describe(self) -> str:
        """Canonical one-line parameter description (digest input)."""
        parts = [f"kind={self.kind}", f"m={self.alphabet_size}", f"k={self.group_rank}"]
        if self.rotation is not None:
            alphas = ";".join(",".join(str(c) for c in a.coords) for a in self.rotation.alphas)
            parts.append(f"alphas={alphas}")
        if self.partition is not None:
            parts.append("cuts=" + ",".join(str(c) for c in self.partition.cuts))
        if self.base_point is not None:
            parts.append("z=" + ",".join(str(c) for c in self.base_point.coords))
        if self.region is not None:
            parts.append("center=" + ",".join(str(c) for c in self.region.center.coords))
            parts.append(f"radius={self.region.radius}")
        for name in ("base", "exponent_cap", "order", "seed"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        if self.data is not None:
            digest = hashlib.blake2b(self.data.symbols.tobytes(), digest_size=16).hexdigest()
            parts.append(f"data={digest}")
        return " ".join(parts)

    @property
    def digest(self) -> str:
        return hashlib.blake2b(self.describe().encode(), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def materialize(source: SeqSource, window) -> SeqWindow:
    """Evaluate a source over a box; bit-identical for identical parameters."""
    box = normalize_box(window, source.group_rank)
    try:
        builder = _BUILDERS[source.kind]
    except KeyError:
        raise ConfigError(f"unknown source kind {source.kind!r}") from None
    # coordinates lie below 2**63 <= base**63, so a cap of 63 or more always
    # reaches past the window, and no huge power is built to say so
    if (source.kind == "ip_indicator" and source.exponent_cap < 63
            and source.base ** source.exponent_cap < box[0][1]):
        raise ArgumentError("exponent cap too small: base**cap must reach past the window")
    return builder(source, box)


# -- sturmian ---------------------------------------------------------------


def _build_sturmian(source: SeqSource, box: Box) -> SeqWindow:
    """Rotation coding over a box: symbol at n is the cell of z + n.alpha.

    ``orbit_words`` builds one table, j * alpha for the offsets j of a
    block, and each block's start (a column of row starts for rank k); a
    block's words are its start plus the table, one low-word add and one
    carry.
    ``meta['near_cut_hits']`` counts orbit points within 2**-88 of a cut,
    where the truncated coding may disagree with the true irrational one.
    Such a point has a high word within 1 of the cut's, so the exact check
    reads cut words for those candidates only.
    """
    spec, part, z = source.rotation, source.partition, source.base_point
    extents = tuple(hi - lo for lo, hi in box)
    origin = tuple(lo for lo, _ in box)
    t0 = rotate_add(z, spec, origin).coords[0]
    if len(box) > 1:
        # every row start is held to the orbit index bound, not only the first
        rotate_add(z, spec, tuple(hi - 1 for _, hi in box[:-1]) + origin[-1:])
    out = np.empty(extents, dtype=np.uint8)
    rows = out.reshape(-1, extents[-1])
    alphas = [a.coords[0] for a in spec.alphas]
    step = alphas[-1]
    # word pairs of each cell's lower and upper cut; the last cell's upper
    # cut, SCALE, wraps to the pair of cut 0
    lower = np.array([words(c) for c in part.cuts], dtype=np.uint64).T
    upper = np.roll(lower, -1, axis=1)
    # a point within 2**40 of a cut has a high word within 1 of the cut's,
    # counting the wrap at 0: hi - (c_hi - 1) <= 2 in uint64
    below = lower[0] - np.uint64(1)
    width = min(extents[-1], BLOCK_CELLS)
    height = max(1, BLOCK_CELLS // width)
    offset_hi, offset_lo = orbit_words(0, [(np.arange(width, dtype=np.uint64), step)])
    near = 0
    for r in range(0, len(rows), height):
        rows_at = np.arange(r, min(r + height, len(rows)))
        outer = np.unravel_index(rows_at, extents[:-1]) if len(extents) > 1 else ()
        row_terms = [(n.astype(np.uint64)[:, None], a) for n, a in zip(outer, alphas)]
        for col in range(0, extents[-1], width):
            w = min(width, extents[-1] - col)
            s_hi, s_lo = orbit_words((t0 + col * step) & MASK, row_terms)
            lo = s_lo + offset_lo[:w]
            hi = s_hi + offset_hi[:w] + (lo < s_lo)
            cell = np.zeros(hi.shape, dtype=np.uint8)
            for c_hi, c_lo in lower.T[1:]:
                cell += (hi > c_hi) | ((hi == c_hi) & (lo >= c_lo))
            rows[r:r + len(rows_at), col:col + w] = cell
            candidate = np.zeros(hi.shape, dtype=bool)
            for b in below:
                candidate |= hi - b <= 2
            hi, lo, cell = hi[candidate], lo[candidate], cell[candidate]
            d_hi, d_lo = sub_words(hi, lo, *lower[:, cell])
            u_hi, u_lo = sub_words(*upper[:, cell], hi, lo)
            near += int(np.count_nonzero(((d_hi == 0) & (d_lo < NEAR_CUT_EPS))
                                         | ((u_hi == 0) & (u_lo < NEAR_CUT_EPS))))
    return SeqWindow(origin, out, source.alphabet_size, source.digest,
                     {"near_cut_hits": near})


# -- sphere -----------------------------------------------------------------


def _build_sphere(source: SeqSource, box: Box) -> SeqWindow:
    """Binary coding: symbol 1 exactly when z + n*alpha lies in the ball.

    ``meta['near_sphere_hits']`` counts orbit points whose squared distance
    is within ``NEAR_SPHERE_MARGIN`` quanta of the squared radius.
    """
    region, spec, z = source.region, source.rotation, source.base_point
    (lo, hi), = box
    out = np.empty(hi - lo, dtype=np.uint8)
    start = rotate_add(z, spec, (lo,)).coords
    alpha = spec.alphas[0].coords
    centers = [c >> BALL_SHIFT for c in region.center.coords]
    r_words = words(region.radius_sq)
    # |d_sq - r_sq| < margin exactly when d_sq - (r_sq - margin + 1) < 2 margin - 1
    near_words = words((region.radius_sq - NEAR_SPHERE_MARGIN + 1) & MASK)
    offsets = np.arange(min(len(out), BLOCK_CELLS), dtype=np.uint64)
    near = 0
    for s in range(0, len(out), BLOCK_CELLS):
        j = offsets[:len(out) - s]
        sq_hi = np.zeros(len(j), dtype=np.uint64)
        sq_lo = np.zeros(len(j), dtype=np.uint64)
        for t, a, center in zip(start, alpha, centers):
            x = orbit_words((t + s * a) & MASK, [(j, a)])[0] >> (BALL_SHIFT - 64)
            d = (x - center) & (BALL_SCALE - 1)
            d = np.minimum(d, BALL_SCALE - d)
            # d**2 = dh**2 2**64 + 2 dh dl 2**32 + dl**2, with d = dh 2**32 + dl
            dh, dl = d >> 32, d & LIMB_MASK
            mid = 2 * dh * dl
            low = dl * dl
            part_lo = low + (mid << 32)
            part_hi = dh * dh + (mid >> 32) + (part_lo < low)
            sq_lo += part_lo
            sq_hi += part_hi + (sq_lo < part_lo)
        out[s:s + len(j)] = (sq_hi < r_words[0]) | ((sq_hi == r_words[0])
                                                    & (sq_lo <= r_words[1]))
        m_hi, m_lo = sub_words(sq_hi, sq_lo, *near_words)
        near += int(np.count_nonzero((m_hi == 0) & (m_lo < 2 * NEAR_SPHERE_MARGIN - 1)))
    return SeqWindow((lo,), out, 2, source.digest, {"near_sphere_hits": near})


# -- arithmetic families ----------------------------------------------------


def _build_ip(source: SeqSource, box: Box) -> SeqWindow:
    """Indicator of sums of distinct powers base**a, 1 <= a <= exponent_cap.

    For base 10 these are the positive integers whose decimal digits are
    all 0/1 with a zero units digit.  Coordinates n <= 0 carry symbol 0.
    """
    (lo, hi), = box
    base = source.base
    out = np.zeros(hi - lo, dtype=np.uint8)
    # the units digit must be zero, higher digits 0/1; the exponent-cap
    # precondition keeps every admissible n below base**cap.  Only the
    # positive multiples n = q * base are enumerated: cells and rest are
    # those still admissible and their undivided digits, first q itself.
    rest = np.arange(-(-max(lo, 1) // base), -(-max(hi, 1) // base), dtype=np.int64)
    cells = rest * base - lo
    while rest.any():
        rest, digit = np.divmod(rest, base)
        keep = digit <= 1
        cells, rest = cells[keep], rest[keep]
    out[cells] = 1
    return SeqWindow((lo,), out, 2, source.digest, {})


def _build_morse(source: SeqSource, box: Box) -> SeqWindow:
    """Digit-sum parity sequence with the mirror extension x(-n-1) = x(n)."""
    (lo, hi), = box
    n = np.arange(lo, hi, dtype=np.int64)
    np.invert(n, out=n, where=n < 0)  # in place: ~n = -n - 1 >= 0
    return SeqWindow((lo,), np.bitwise_count(n) & 1, 2, source.digest, {})


def _build_halfline(source: SeqSource, box: Box) -> SeqWindow:
    (lo, hi), = box
    out = np.zeros(hi - lo, dtype=np.uint8)
    out[max(0, -lo):] = 1
    return SeqWindow((lo,), out, 2, source.digest, {})


def concat_block_bounds(n_max: int) -> list[tuple[int, int]]:
    """1-based [start, end] coordinates of blocks w1..w_n_max inside w."""
    bounds = []
    pos = 1
    for n in range(1, n_max + 1):
        size = 4 * n * (1 << n)
        bounds.append((pos, pos + size - 1))
        pos += size
    return bounds


def concat_slot_coordinates(n: int) -> list[int]:
    """Coordinates (1-based in w) where the length-n words start inside u_n."""
    start = concat_block_bounds(n)[-1][0]
    return [start + i * 2 * n for i in range(1 << n)]


def _build_concat(source: SeqSource, box: Box) -> SeqWindow:
    """Block concatenation w = w1 w2 w3 ... on the positive half-line.

    Block n is u_n v_n where u_n concatenates, over all 2**n binary words
    a of length n in ascending binary order, the word a followed by n
    zeros, and v_n is a zero run of the same length as u_n.  Coordinates
    n <= 0 carry symbol 0.
    """
    (lo, hi), = box
    out = np.zeros(hi - lo, dtype=np.uint8)
    start, n = 1, 1
    while start < hi:
        # row i of u_n is the bits of i, most significant first, then n zeros;
        # only the rows that meet the window are built
        width = 2 * n
        a, b = max(lo, start), min(hi, start + (width << n))
        if a < b:
            r0, r1 = (a - start) // width, (b - start - 1) // width + 1
            rows = np.zeros((r1 - r0, width), dtype=np.uint8)
            rows[:, :n] = np.arange(r0, r1)[:, None] >> np.arange(n - 1, -1, -1) & 1
            at = start + r0 * width
            out[a - lo:b - lo] = rows.ravel()[a - at:b - at]
        start += 2 * width << n
        n += 1
    return SeqWindow((lo,), out, 2, source.digest, {})


@lru_cache(maxsize=8)
def de_bruijn_period(order: int) -> np.ndarray:
    """Greedy prefer-one binary de Bruijn word of the given order."""
    if order == 1:
        return np.array([0, 1], dtype=np.uint8)
    size = 1 << order
    mask = size - 1
    seen = bytearray(size)
    seen[0] = 1
    seq = bytearray(order)
    state = 0
    while True:
        nxt = ((state << 1) | 1) & mask
        if seen[nxt]:
            nxt = (state << 1) & mask
            if seen[nxt]:
                break
        seen[nxt] = 1
        seq.append(nxt & 1)
        state = nxt
    return np.frombuffer(bytes(seq[:size]), dtype=np.uint8).copy()


def _build_de_bruijn(source: SeqSource, box: Box) -> SeqWindow:
    """Cyclic repetition of the greedy (prefer-one) binary de Bruijn word:
    every binary word of length <= order occurs in any window of length
    >= 2**order + order."""
    (lo, hi), = box
    period = de_bruijn_period(source.order)
    n = np.arange(lo, hi, dtype=np.int64)
    out = period[n % period.size]
    return SeqWindow((lo,), out, 2, source.digest, {"period": int(period.size)})


def _build_random(source: SeqSource, box: Box) -> SeqWindow:
    """Seeded hash noise: symbol(n) is the little-endian uint64 of
    blake2b(n as 16 signed little-endian bytes, key = seed as 16 signed
    little-endian bytes, digest_size = 8), mod m.

    The window is cut into contiguous parts, one per available core
    (``_core_count``), each of at least ``_HASH_PART_CELLS`` cells.  The
    process hashes the first part itself; each other part is hashed by a
    forked child into a shared anonymous map, and every child is waited for
    before the builder returns.  A part whose fork fails, or whose child
    does not exit 0, is hashed again here.  Every part runs ``_hash_cells``,
    so the symbols do not depend on the split.
    """
    (lo, hi), = box
    m = source.alphabet_size
    keyed = hashlib.blake2b(key=source.seed.to_bytes(16, "little", signed=True),
                            digest_size=8)
    out = np.empty(hi - lo, dtype=np.uint8)
    parts = max(1, min(_core_count(), out.size // _HASH_PART_CELLS))
    cuts = [out.size * i // parts for i in range(parts + 1)]
    children = []  # (start, stop, pid or None), in the parts' order
    with mmap.mmap(-1, out.size) as shared:
        try:
            for a, b in zip(cuts[1:-1], cuts[2:]):
                children.append((a, b, _fork_part(keyed, lo, m, shared, a, b)))
            _hash_cells(keyed, lo, m, out[:cuts[1]])
        finally:
            exited = [_reap(pid) for _, _, pid in children]
        for (a, b, _), ok in zip(children, exited):
            if ok:
                out[a:b] = np.frombuffer(shared[a:b], dtype=np.uint8)
            else:
                _hash_cells(keyed, lo + a, m, out[a:b])
    return SeqWindow((lo,), out, m, source.digest, {})


def _hash_cells(keyed, start: int, m: int, out: np.ndarray) -> None:
    """Write the noise symbols of cells start, start + 1, ... into ``out``.

    The keyed state is made once and copied per cell.  Cells are hashed in
    blocks of ``_HASH_BLOCK_CELLS``; a block's messages are n's int64 word
    followed by its sign word n >> 63, which is n's 16-byte encoding for
    every coordinate ``normalize_box`` admits.
    """
    for s in range(0, out.size, _HASH_BLOCK_CELLS):
        n = np.arange(start + s, start + min(s + _HASH_BLOCK_CELLS, out.size), dtype=np.int64)
        digests = []
        words = np.stack([n, n >> 63], axis=1, dtype="<i8")
        for message in words.view("V16").ravel().tolist():
            h = keyed.copy()
            h.update(message)
            digests.append(h.digest())
        out[s:s + len(n)] = np.frombuffer(b"".join(digests), dtype="<u8") % m


def _core_count() -> int:
    """The cores this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_part(keyed, lo: int, m: int, shared: mmap.mmap, a: int, b: int) -> int | None:
    """Fork a child that hashes cells lo + a .. lo + b - 1 into bytes a..b
    of ``shared`` and exits 0; its pid, or None when the fork fails.  The
    child leaves through ``os._exit`` whatever happens, so it runs none of
    the parent's exit handlers and never returns into the caller."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        status = 1
        try:
            _hash_cells(keyed, lo + a, m, np.frombuffer(shared, dtype=np.uint8)[a:b])
            status = 0
        finally:
            os._exit(status)
    return pid


def _reap(pid: int | None) -> bool:
    """Wait for a part's child; whether it exited 0."""
    if pid is None:
        return False
    try:
        _, status = os.waitpid(pid, 0)
    except ChildProcessError:  # reaped elsewhere: its part is hashed again
        return False
    return os.waitstatus_to_exitcode(status) == 0


def _build_explicit(source: SeqSource, box: Box) -> SeqWindow:
    data = source.data
    idx = []
    for (lo, hi), o, e in zip(box, data.origin, data.extents):
        if lo < o or hi > o + e:
            raise ShiftRangeError(
                f"window {box} outside stored data at origin {data.origin}, "
                f"extents {data.extents}")
        idx.append(slice(lo - o, hi - o))
    return SeqWindow(tuple(lo for lo, _ in box), data.symbols[tuple(idx)].copy(),
                     data.alphabet_size, source.digest, {})


_BUILDERS = {
    "sturmian": _build_sturmian,
    "sphere": _build_sphere,
    "ip_indicator": _build_ip,
    "morse": _build_morse,
    "concat_nonnull": _build_concat,
    "char_halfline": _build_halfline,
    "de_bruijn": _build_de_bruijn,
    "random": _build_random,
    "explicit": _build_explicit,
}


# ---------------------------------------------------------------------------
# TAMELAB-SEQ v1 text format
# ---------------------------------------------------------------------------

_HEX = b"0123456789abcdef"
# Body byte -> symbol: a hex digit in either case gives its value, ASCII
# whitespace gives _SKIP and every other byte gives _BAD.
_SKIP, _BAD = 16, 17
_SYMBOL_OF = np.full(256, _BAD, dtype=np.uint8)
_SYMBOL_OF[list(_HEX)] = _SYMBOL_OF[list(_HEX.upper())] = np.arange(16)
_SYMBOL_OF[list(b" \t\n\r\v\f")] = _SKIP


def write_window(win: SeqWindow, path) -> None:
    """Write the TAMELAB-SEQ v1 text format: header, then symbols as
    hex digits row-major, 64 per line."""
    header = ("TAMELAB-SEQ v1 k={k} alphabet={m} origin={o} extents={e}\n".format(
        k=win.rank, m=win.alphabet_size,
        o=",".join(str(v) for v in win.origin),
        e=",".join(str(v) for v in win.extents)))
    digits = np.frombuffer(_HEX, dtype=np.uint8)[win.symbols.reshape(-1)].tobytes()
    lines = [digits[i:i + 64] for i in range(0, len(digits), 64)]
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode())
            fh.write(b"\n".join(lines))
            fh.write(b"\n")
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc


def read_window(path) -> SeqWindow:
    """Read a TAMELAB-SEQ v1 file back into a SeqWindow."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            body = fh.read()
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    try:
        header = header.decode("ascii")
    except UnicodeDecodeError:
        raise DataIOError(f"{path}: not a TAMELAB-SEQ v1 file") from None
    fields = header.split()
    if len(fields) != 6 or fields[0] != "TAMELAB-SEQ" or fields[1] != "v1":
        raise DataIOError(f"{path}: not a TAMELAB-SEQ v1 file")
    try:
        kv = dict(f.split("=", 1) for f in fields[2:])
        rank = int(kv["k"])
        alphabet = int(kv["alphabet"])
        origin = tuple(int(v) for v in kv["origin"].split(","))
        extents = tuple(int(v) for v in kv["extents"].split(","))
    except (KeyError, ValueError) as exc:
        raise DataIOError(f"{path}: malformed header") from exc
    if len(origin) != rank or len(extents) != rank or min(extents) < 1:
        raise DataIOError(f"{path}: header rank, origin and extents disagree")
    codes = _SYMBOL_OF[np.frombuffer(body, dtype=np.uint8)]
    if (codes == _BAD).any():
        raise DataIOError(f"{path}: body holds a byte that is neither a hex digit "
                          "nor whitespace")
    symbols = codes[codes != _SKIP]
    expected = int(np.prod(extents))
    if symbols.size != expected:
        raise DataIOError(f"{path}: expected {expected} symbols, found {symbols.size}")
    if symbols.size and symbols.max() >= alphabet:
        raise DataIOError(f"{path}: symbol exceeds alphabet size {alphabet}")
    win = SeqWindow(origin, symbols.reshape(extents), alphabet, "")
    digest = hashlib.blake2b(win.symbols.tobytes(), digest_size=16).hexdigest()
    return replace(win, source_digest=f"explicit:{digest}")
