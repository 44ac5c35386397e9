"""Exact torus arithmetic: constants, rotation, partitions, balls."""

import mpmath as mp
import numpy as np
import pytest
from fractions import Fraction

from tamelab.errors import ArgumentError, DimensionError
from tamelab.torus import (
    GOLDEN,
    PI_FRAC,
    MASK,
    SCALE,
    SQRT2_FRAC,
    SQRT3_FRAC,
    BallRegion,
    CutPartition,
    RotationSpec,
    TorusPoint,
    ball_contains,
    format_fraction,
    orbit_words,
    parse_fraction,
    rotate_add,
)

mp.mp.dps = 60


def test_named_constants_match_high_precision_truncation():
    for value, expr in [
        (GOLDEN, (mp.sqrt(5) - 1) / 2),
        (SQRT2_FRAC, mp.sqrt(2) - 1),
        (SQRT3_FRAC, mp.sqrt(3) - 1),
        (PI_FRAC, mp.pi - 3),
    ]:
        assert value == int(mp.floor(expr * SCALE))


def test_rotate_add_identity_and_rational():
    spec = RotationSpec.circle(SCALE // 4)
    zero = TorusPoint.zero()
    assert rotate_add(zero, spec, (0,)) == zero
    assert rotate_add(zero, spec, (5,)).coords[0] == SCALE // 4


def test_rotate_add_golden_double_against_exact_rational_oracle():
    # independent oracles: exact rational arithmetic on the truncated angle,
    # plus the 128-bit truncation of the true 2*alpha - 1
    spec = RotationSpec.circle(GOLDEN)
    got = rotate_add(TorusPoint.zero(), spec, (2,)).coords[0]
    assert Fraction(got, SCALE) == (Fraction(GOLDEN, SCALE) * 2) % 1
    alpha = (mp.sqrt(5) - 1) / 2
    assert got == int(mp.floor((2 * alpha % 1) * SCALE))
    assert got / SCALE == pytest.approx(0.23606797749978969, abs=1e-15)


def test_rotate_add_group_law():
    spec = RotationSpec.circle(GOLDEN, SQRT2_FRAC)
    p = TorusPoint((123456789,))
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = tuple(int(v) for v in rng.integers(-1000, 1000, 2))
        m = tuple(int(v) for v in rng.integers(-1000, 1000, 2))
        nm = tuple(a + b for a, b in zip(n, m))
        assert rotate_add(rotate_add(p, spec, n), spec, m) == rotate_add(p, spec, nm)


def test_rotate_add_errors():
    spec = RotationSpec.circle(GOLDEN)
    with pytest.raises(DimensionError):
        rotate_add(TorusPoint.zero(), spec, (1, 2))
    with pytest.raises(ArgumentError):
        rotate_add(TorusPoint.zero(), spec, (1 << 41,))
    with pytest.raises(ArgumentError):
        RotationSpec.circle(0)


def test_partition_basics_and_boundary():
    half = CutPartition((0, SCALE // 2))
    assert half.cell_of(0) == 0
    assert half.cell_of(SCALE // 2) == 1  # half-open boundary
    golden_cut = CutPartition((0, SCALE - GOLDEN))
    # alpha > 1 - alpha, compared as 128-bit words
    assert golden_cut.cell_of(GOLDEN) == 1
    for t in (-1, SCALE):
        with pytest.raises(ArgumentError):
            half.cell_of(t)


def test_partition_totality_and_monotonicity():
    cuts = CutPartition((0, SCALE // 5, SCALE // 2, (4 * SCALE) // 5))
    rng = np.random.default_rng(11)
    # 1e6 pseudo-random points, cross-checked against a searchsorted oracle
    words = rng.integers(0, 1 << 64, (1_000_000, 2), dtype=np.uint64)
    ts = np.sort((words[:, 0].astype(object) << 64) | words[:, 1].astype(object))
    oracle = np.searchsorted(np.array(cuts.cuts, dtype=object), ts, side="right") - 1
    assert oracle.min() == 0 and oracle.max() == 3
    assert np.all(np.diff(oracle.astype(int)) >= 0)  # monotone, no wrap here
    for t, cell in zip(ts[::4999], oracle[::4999]):
        assert cuts.cell_of(int(t)) == int(cell)


def test_partition_rejects_bad_cuts():
    with pytest.raises(ArgumentError):
        CutPartition((1, 2))
    with pytest.raises(ArgumentError):
        CutPartition((0, 5, 5))


def test_ball_membership_examples():
    center = TorusPoint((SCALE // 2, SCALE // 2))
    region = BallRegion(center, SCALE // 4)
    assert ball_contains(region, center)
    # distance exactly the radius: closed ball includes it
    assert ball_contains(region, TorusPoint((SCALE // 2, 3 * SCALE // 4)))
    # wrap-around: distance 0.1 through the seam
    region0 = BallRegion(TorusPoint((0, 0)), SCALE // 4)
    p = TorusPoint((9 * SCALE // 10, 0))
    assert ball_contains(region0, p)


def test_ball_reflection_symmetry():
    rng = np.random.default_rng(5)
    center = TorusPoint((SCALE // 3, SCALE // 7))
    region = BallRegion(center, SCALE // 5)
    for _ in range(200):
        p = TorusPoint(tuple((int(hi) << 64) | int(lo) for hi, lo in
                             rng.integers(0, 1 << 64, (2, 2), dtype=np.uint64)))
        mirrored = TorusPoint(tuple((2 * c - x) % SCALE
                                    for c, x in zip(center.coords, p.coords)))
        assert ball_contains(region, p) == ball_contains(region, mirrored)


def test_ball_rejects_bad_dimensions():
    with pytest.raises(DimensionError):
        BallRegion(TorusPoint((1,)), SCALE // 4)
    with pytest.raises(ArgumentError):
        BallRegion(TorusPoint((1, 2)), SCALE)


def test_parse_fraction_decimal_and_names():
    assert parse_fraction("0.5") == SCALE // 2
    assert parse_fraction("1/4") == SCALE // 4
    assert parse_fraction("golden") == GOLDEN
    assert parse_fraction("one_minus_golden") == SCALE - GOLDEN
    with pytest.raises(ArgumentError):
        parse_fraction("1.5")
    with pytest.raises(ArgumentError):
        parse_fraction("banana")


def test_format_fraction_round_trip():
    for text in ("0.25", "0.123456789", "0"):
        assert parse_fraction(format_fraction(parse_fraction(text))) == parse_fraction(text)


def test_orbit_words_are_exact_at_the_limb_bounds():
    # three terms with indices up to 2**28 - 1 and all-ones angles are the
    # largest limb sums the builders can form
    rng = np.random.default_rng(5)
    top = (1 << 28) - 1
    for alphas in ([MASK] * 3, [int(rng.integers(1, 1 << 62)) << 66 | 7 for _ in range(3)]):
        n = [np.array([0, 1, top - 1, top], dtype=np.uint64)[:, None, None],
             np.array([top, 3, 0], dtype=np.uint64)[None, :, None],
             np.array([top, 0, 12345], dtype=np.uint64)[None, None, :]]
        for start in (0, MASK, SCALE // 3):
            hi, lo = orbit_words(start, list(zip(n, alphas)))
            for idx in np.ndindex(*hi.shape):
                exact = start + sum(int(ni[idx]) * a
                                    for ni, a in zip(np.broadcast_arrays(*n), alphas))
                assert (int(hi[idx]) << 64 | int(lo[idx])) == exact & MASK
