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
from bisect import bisect_right
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
    MASK,
    NEAR_CUT_EPS,
    SCALE,
    BallRegion,
    CutPartition,
    RotationSpec,
    TorusPoint,
    ball_distance_sq,
    rotate_add,
)

CELL_CAP = 1 << 28
MAX_ALPHABET = 16
MAX_RANK = 3
MAX_DE_BRUIJN_ORDER = 24

# Ball membership is decided at 2**-96 squared resolution; a margin below
# 2**8 quanta means the orbit point sits within ~2**-88 of the sphere.
NEAR_SPHERE_MARGIN = 1 << 8

Box = tuple[tuple[int, int], ...]


def normalize_box(window, rank: int) -> Box:
    """Accept (lo, hi) for one axis or a tuple of per-axis (lo, hi) pairs."""
    if len(window) == 2 and all(isinstance(v, int) for v in window):
        window = (tuple(window),)
    box = tuple((int(lo), int(hi)) for lo, hi in window)
    if len(box) != rank:
        raise DimensionError(f"window has {len(box)} axes, source has rank {rank}")
    if any(hi <= lo for lo, hi in box):
        raise ArgumentError("window extents must be positive")
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
    last axis fastest).  ``meta`` carries generation statistics such as
    near-boundary hit counts; it is excluded from equality and digests.
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
    if source.kind == "ip_indicator" and source.base ** source.exponent_cap < box[0][1]:
        raise ArgumentError("exponent cap too small: base**cap must reach past the window")
    return builder(source, box)


# -- sturmian ---------------------------------------------------------------


def _build_sturmian(source: SeqSource, box: Box) -> SeqWindow:
    """Rotation coding over a box: symbol at n is the cell of z + n.alpha.

    ``meta['near_cut_hits']`` counts orbit points within 2**-88 of a cut,
    where the truncated coding may disagree with the true irrational one.
    """
    spec, part, z = source.rotation, source.partition, source.base_point
    extents = tuple(hi - lo for lo, hi in box)
    origin = tuple(lo for lo, _ in box)
    out = np.empty(extents, dtype=np.uint8)
    flat = out.reshape(-1)
    step = spec.alphas[-1].coords[0]
    inner = extents[-1]
    cuts = part.cuts
    ncells = len(cuts)
    eps = NEAR_CUT_EPS
    near = 0
    start = 0
    for outer in (np.ndindex(*extents[:-1]) if len(extents) > 1 else ((),)):
        n = tuple(o + i for o, i in zip(origin, outer)) + (origin[-1],)
        t = rotate_add(z, spec, n).coords[0]
        for i in range(inner):
            c = bisect_right(cuts, t) - 1
            flat[start + i] = c
            upper = cuts[c + 1] if c + 1 < ncells else SCALE
            if t - cuts[c] < eps or upper - t < eps:
                near += 1
            t = (t + step) & MASK
        start += inner
    return SeqWindow(origin, out, source.alphabet_size, source.digest,
                     {"near_cut_hits": near})


# -- sphere -----------------------------------------------------------------


def _build_sphere(source: SeqSource, box: Box) -> SeqWindow:
    """Binary coding: symbol 1 exactly when z + n*alpha lies in the ball."""
    region, spec, z = source.region, source.rotation, source.base_point
    (lo, hi), = box
    length = hi - lo
    out = np.empty(length, dtype=np.uint8)
    point = rotate_add(z, spec, (lo,))
    alpha = spec.alphas[0].coords
    coords = list(point.coords)
    r_sq = region.radius_sq
    near = 0
    for i in range(length):
        d_sq = ball_distance_sq(region, TorusPoint(tuple(coords)))
        out[i] = d_sq <= r_sq
        if abs(d_sq - r_sq) < NEAR_SPHERE_MARGIN:
            near += 1
        for j, a in enumerate(alpha):
            coords[j] = (coords[j] + a) & MASK
    return SeqWindow((lo,), out, 2, source.digest, {"near_sphere_hits": near})


# -- arithmetic families ----------------------------------------------------


def _build_ip(source: SeqSource, box: Box) -> SeqWindow:
    """Indicator of sums of distinct powers base**a, 1 <= a <= exponent_cap.

    For base 10 these are the positive integers whose decimal digits are
    all 0/1 with a zero units digit.  Coordinates n <= 0 carry symbol 0.
    """
    (lo, hi), = box
    base, cap = source.base, source.exponent_cap
    n = np.arange(lo, hi, dtype=np.int64)
    ok = n > 0
    rest = np.where(ok, n, 0)
    # units digit must be zero, higher digits 0/1; the exponent-cap
    # precondition keeps every admissible n below base**cap.
    ok &= rest % base == 0
    rest //= base
    while rest.any():
        ok &= rest % base <= 1
        rest //= base
    return SeqWindow((lo,), ok.astype(np.uint8), 2, source.digest, {})


def _build_morse(source: SeqSource, box: Box) -> SeqWindow:
    """Digit-sum parity sequence with the mirror extension x(-n-1) = x(n)."""
    (lo, hi), = box
    n = np.arange(lo, hi, dtype=np.int64)
    mirrored = np.where(n >= 0, n, -n - 1).astype(np.uint64)
    out = (np.bitwise_count(mirrored) & 1).astype(np.uint8)
    return SeqWindow((lo,), out, 2, source.digest, {})


def _build_halfline(source: SeqSource, box: Box) -> SeqWindow:
    (lo, hi), = box
    n = np.arange(lo, hi, dtype=np.int64)
    return SeqWindow((lo,), (n >= 0).astype(np.uint8), 2, source.digest, {})


@lru_cache(maxsize=4)
def _concat_prefix(length: int) -> np.ndarray:
    """First ``length`` symbols of w1 w2 w3 ... (1-indexed stream)."""
    pieces = []
    total = 0
    n = 1
    while total < length:
        u = np.zeros(2 * n * (1 << n), dtype=np.uint8)
        for i in range(1 << n):
            word = (i >> np.arange(n - 1, -1, -1)) & 1
            u[i * 2 * n: i * 2 * n + n] = word
        block = np.concatenate([u, np.zeros_like(u)])
        pieces.append(block)
        total += block.size
        n += 1
    return np.concatenate(pieces)[:length]


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
    if hi > 1:
        prefix = _concat_prefix(hi - 1)
        first = max(lo, 1)
        out[first - lo:] = prefix[first - 1: hi - 1]
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
    (lo, hi), = box
    seed = source.seed.to_bytes(16, "little", signed=True)
    m = source.alphabet_size
    out = np.empty(hi - lo, dtype=np.uint8)
    for i, n in enumerate(range(lo, hi)):
        h = hashlib.blake2b(n.to_bytes(16, "little", signed=True), key=seed,
                            digest_size=8).digest()
        out[i] = int.from_bytes(h, "little") % m
    return SeqWindow((lo,), out, m, source.digest, {})


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
