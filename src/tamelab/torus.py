"""Exact fixed-point arithmetic on the torus.

Points of T^k are stored as k unsigned 128-bit fractions: the integer v
represents v / 2**128 in [0, 1).  Addition wraps modulo 2**128 exactly, so
rotation orbits never drift.  Irrational angles are truncated once, to
2**-128, and the system studied is exactly the truncated one; the first
2**40 orbit points agree with the true irrational coding except possibly
at points passing within 2**-88 of a partition cut (callers count and
report such near-boundary hits rather than guessing).

Interval partitions close on the left: a point t lands in cell i when
c_i <= t < c_{i+1}.  Ball membership uses the closed ball, decided by an
exact integer comparison of the minimal-image squared distance on a
2**-48 per-coordinate grid.

Whole orbits are built exactly in numpy by ``orbit_words``.  A 128-bit
angle is split into four 32-bit limbs held in uint64, so each limb product
n * alpha_k with n < 2**28 (a window's cell cap) stays below 2**60, and a
sum of up to three such terms plus a start limb stays below 2**63.  One
carry pass from the low limb up then gives the orbit modulo 2**128 as a
(hi, lo) pair of 64-bit words; cuts, differences and squared distances are
compared as word pairs, and no float is used.  A rotation coding calls it
once for the offsets j * alpha of one block and adds each block's start to
that table as a word pair: one low-word add and one carry.  Only a point
whose high word lies within 1 of a cut's can lie within 2**-88 of that
cut, so cut words are read for the near-cut count on those points alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import ArgumentError, DimensionError

FRAC_BITS = 128
SCALE = 1 << FRAC_BITS
MASK = SCALE - 1

WORD_MASK = (1 << 64) - 1
LIMB_MASK = (1 << 32) - 1

# Quantization grid for ball membership: coordinates reduced to 48 bits,
# squared distances compared at 2**-96 resolution.
BALL_BITS = 48
BALL_SHIFT = FRAC_BITS - BALL_BITS
BALL_SCALE = 1 << BALL_BITS

# Orbit index bound keeping multiply-accumulate inside one wrap word.
MAX_STEP = 1 << 40

# Near-boundary reporting threshold: 2**-88 as a 128-bit fraction.
NEAR_CUT_EPS = 1 << (FRAC_BITS - 88)

# Named constants, pre-truncated to 128 bits.
#
#   golden        frac((sqrt(5)-1)/2) = (isqrt(5*2^256) - 2^128) // 2
#   sqrt2_frac    frac(sqrt(2))       = isqrt(2*2^256) - 2^128
#   sqrt3_frac    frac(sqrt(3))       = isqrt(3*2^256) - 2^128
#   pi_frac       frac(pi), truncated from a 80-digit evaluation of pi
#
# floor(floor(X)/2) = floor(X/2) makes the golden formula exact.
GOLDEN = (isqrt(5 << 2 * FRAC_BITS) - SCALE) >> 1
SQRT2_FRAC = isqrt(2 << 2 * FRAC_BITS) - SCALE
SQRT3_FRAC = isqrt(3 << 2 * FRAC_BITS) - SCALE
PI_FRAC = 48181483302151357469556550866566148932

NAMED_CONSTANTS = {
    "golden": GOLDEN,
    "one_minus_golden": SCALE - GOLDEN,
    "sqrt2_frac": SQRT2_FRAC,
    "sqrt3_frac": SQRT3_FRAC,
    "pi_frac": PI_FRAC,
}


def parse_fraction(text: str) -> int:
    """Parse a decimal string or named constant to a 128-bit fraction.

    Decimal strings are scaled exactly and truncated toward zero; the
    value must lie in [0, 1).  Simple rationals like "1/3" are accepted.
    """
    text = text.strip()
    if text in NAMED_CONSTANTS:
        return NAMED_CONSTANTS[text]
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ArgumentError(f"cannot parse fraction {text!r}") from exc
    if not 0 <= q < 1:
        raise ArgumentError(f"fraction {text!r} outside [0, 1)")
    return (q.numerator << FRAC_BITS) // q.denominator


def format_fraction(value: int, digits: int | None = None) -> str:
    """Decimal string of a 128-bit fraction: exact by default (a 128-bit
    fraction is v * 5**128 / 10**128), truncated when digits is given."""
    if value == 0:
        return "0"
    if digits is None:
        scaled, digits = value * 5**FRAC_BITS, FRAC_BITS
    else:
        scaled = (value * 10**digits) >> FRAC_BITS
    return ("0." + str(scaled).rjust(digits, "0")).rstrip("0")


@dataclass(frozen=True)
class TorusPoint:
    """A point of T^k as k exact 128-bit fractions, 1 <= k <= 3."""

    coords: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= len(self.coords) <= 3:
            raise DimensionError(f"torus dimension {len(self.coords)} outside 1..3")
        if any(not 0 <= c < SCALE for c in self.coords):
            raise ArgumentError("torus coordinates must be 128-bit fractions in [0, 1)")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def zero(cls, dim: int = 1) -> "TorusPoint":
        return cls((0,) * dim)


@dataclass(frozen=True)
class RotationSpec:
    """Rotation vectors for a rank-k group of torus translations.

    ``alphas[i]`` is the translation applied per unit step in direction i.
    All vectors share the torus dimension; every coordinate of every
    vector must be nonzero, as a zero entry makes the coding degenerate
    in that direction.
    """

    alphas: tuple[TorusPoint, ...]

    def __post_init__(self):
        if not 1 <= len(self.alphas) <= 3:
            raise DimensionError(f"rotation rank {len(self.alphas)} outside 1..3")
        dims = {a.dim for a in self.alphas}
        if len(dims) != 1:
            raise DimensionError("rotation vectors have mixed torus dimensions")
        if any(c == 0 for a in self.alphas for c in a.coords):
            raise ArgumentError("rotation vector entries must be nonzero")

    @property
    def rank(self) -> int:
        return len(self.alphas)

    @property
    def dim(self) -> int:
        return self.alphas[0].dim

    @classmethod
    def circle(cls, *angles: int) -> "RotationSpec":
        """Rank-k rotation vectors on the circle, one angle per direction."""
        return cls(tuple(TorusPoint((a,)) for a in angles))


@dataclass(frozen=True)
class CutPartition:
    """Half-open interval partition of the circle by cuts c_0=0 < ... < c_d.

    Cell i is [c_i, c_{i+1}) with c_{d+1} = 1 implicit; the alphabet is
    {0, ..., d}.
    """

    cuts: tuple[int, ...]

    def __post_init__(self):
        if not self.cuts or self.cuts[0] != 0:
            raise ArgumentError("first cut must be 0")
        if any(not 0 <= c < SCALE for c in self.cuts):
            raise ArgumentError("cuts must be 128-bit fractions in [0, 1)")
        if any(a >= b for a, b in zip(self.cuts, self.cuts[1:])):
            raise ArgumentError("cuts must be strictly increasing")

    @property
    def n_cells(self) -> int:
        return len(self.cuts)

    def cell_of(self, t: int) -> int:
        """Index i with cuts[i] <= t < cuts[i+1]; total on [0, 1), so a
        boundary point goes to the right-hand cell."""
        if not 0 <= t < SCALE:
            raise ArgumentError("partition argument must be a fraction in [0, 1)")
        return bisect_right(self.cuts, t) - 1


@dataclass(frozen=True)
class BallRegion:
    """Closed ball on T^d, d in {2, 3}, with membership on the 48-bit grid."""

    center: TorusPoint
    radius: int

    def __post_init__(self):
        if self.center.dim not in (2, 3):
            raise DimensionError("ball regions require torus dimension 2 or 3")
        if not 0 < self.radius < SCALE // 2:
            raise ArgumentError("ball radius must lie in (0, 1/2)")

    @property
    def dim(self) -> int:
        return self.center.dim

    @property
    def radius_sq(self) -> int:
        """Squared radius on the grid of ``ball_distance_sq``."""
        return (self.radius >> BALL_SHIFT) ** 2


def rotate_add(p: TorusPoint, spec: RotationSpec, n: tuple[int, ...] | list[int]) -> TorusPoint:
    """Translate p by sum(n[i] * alphas[i]), each coordinate reduced mod 1.

    Exact in the quantized system: each alpha counts as exactly its
    128-bit value.  Requires |n[i]| < 2**40.
    """
    if len(n) != spec.rank:
        raise DimensionError(f"index vector rank {len(n)} != rotation rank {spec.rank}")
    if p.dim != spec.dim:
        raise DimensionError(f"point dimension {p.dim} != rotation dimension {spec.dim}")
    if any(abs(int(ni)) >= MAX_STEP for ni in n):
        raise ArgumentError("orbit index exceeds the 2**40 exactness bound")
    coords = list(p.coords)
    for ni, alpha in zip(n, spec.alphas):
        if ni:
            for j, a in enumerate(alpha.coords):
                coords[j] = (coords[j] + int(ni) * a) & MASK
    return TorusPoint(tuple(coords))


def ball_distance_sq(region: BallRegion, coords: tuple[int, ...] | list[int]) -> int:
    """Minimal-image squared distance of a point's coordinates from the
    center, at 2**-96 squared resolution (coordinates reduced to the 48-bit
    grid)."""
    total = 0
    for a, b in zip(coords, region.center.coords):
        d = abs((a >> BALL_SHIFT) - (b >> BALL_SHIFT))
        d = min(d, BALL_SCALE - d)
        total += d * d
    return total


def ball_contains(region: BallRegion, p: TorusPoint) -> bool:
    """Closed-ball membership by exact minimal-image distance on the grid."""
    if p.dim != region.dim:
        raise DimensionError(f"point dimension {p.dim} != ball dimension {region.dim}")
    return ball_distance_sq(region, p.coords) <= region.radius_sq


def words(value: int) -> tuple[np.uint64, np.uint64]:
    """(hi, lo) 64-bit words of a 128-bit integer."""
    return np.uint64(value >> 64), np.uint64(value & WORD_MASK)


def sub_words(a_hi, a_lo, b_hi, b_lo):
    """(a - b) mod 2**128 on (hi, lo) word pairs; one operand is an array."""
    return a_hi - b_hi - (a_lo < b_lo), a_lo - b_lo


def orbit_words(start: int, terms) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) words of (start + sum(n * alpha)) mod 2**128, exactly.

    ``terms`` holds at most three (n, alpha) pairs: n a uint64 array of
    indices below 2**28, alpha a 128-bit fraction; the n arrays broadcast
    against each other.
    """
    limbs = []
    carry = np.uint64(0)
    for shift in range(0, FRAC_BITS, 32):
        acc = carry + np.uint64((start >> shift) & LIMB_MASK)
        for n, alpha in terms:
            acc = acc + n * np.uint64((alpha >> shift) & LIMB_MASK)
        limbs.append(acc & LIMB_MASK)
        carry = acc >> 32
    return limbs[2] | limbs[3] << 32, limbs[0] | limbs[1] << 32
