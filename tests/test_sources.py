"""Generator families against independent oracles."""

import hashlib
import itertools
import os
import random
import tracemalloc
from bisect import bisect_right

import mpmath as mp
import numpy as np
import pytest

from tamelab import sources
from tamelab.errors import ArgumentError, CapacityError, ConfigError, DataIOError
from tamelab.sources import (
    _HASH_BLOCK_CELLS,
    _HASH_PART_CELLS,
    NEAR_SPHERE_MARGIN,
    SeqSource,
    SeqWindow,
    concat_block_bounds,
    concat_slot_coordinates,
    de_bruijn_period,
    materialize,
    normalize_box,
    read_window,
    write_window,
)
from tamelab.torus import (
    BALL_SHIFT,
    GOLDEN,
    MASK,
    MAX_STEP,
    NEAR_CUT_EPS,
    SCALE,
    SQRT2_FRAC,
    BallRegion,
    CutPartition,
    RotationSpec,
    TorusPoint,
    ball_distance_sq,
    rotate_add,
)

mp.mp.dps = 60


def fib_window(lo, hi):
    return materialize(SeqSource.fibonacci(), (lo, hi))


def test_fibonacci_prefix_against_mpmath_oracle():
    alpha = (mp.sqrt(5) - 1) / 2
    oracle = [int(mp.floor((n + 1) * alpha) - mp.floor(n * alpha)) for n in range(64)]
    assert fib_window(0, 64).line().tolist() == oracle


def test_sturmian_rational_angle_period_two():
    src = SeqSource.sturmian(RotationSpec.circle(SCALE // 2),
                             CutPartition((0, SCALE // 2)),
                             TorusPoint.zero())
    assert materialize(src, (0, 4)).line().tolist() == [0, 1, 0, 1]


def test_sturmian_k2_single_cell_is_partition_value():
    spec = RotationSpec.circle(GOLDEN, SQRT2_FRAC)
    part = CutPartition((0, SCALE - GOLDEN))
    z = TorusPoint((SCALE // 3,))
    win = materialize(SeqSource.sturmian(spec, part, z), ((0, 1), (0, 1)))
    assert win.symbols.shape == (1, 1)
    assert int(win.symbols[0, 0]) == part.cell_of(z.coords[0])


def test_sturmian_cocycle_identity():
    spec = RotationSpec.circle(GOLDEN)
    part = CutPartition((0, SCALE - GOLDEN))
    rng = np.random.default_rng(17)
    for _ in range(1000):
        hi, lo = rng.integers(0, 1 << 64, 2, dtype=np.uint64)
        z = TorusPoint(((int(hi) << 64) | int(lo),))
        m = int(rng.integers(-5000, 5000))
        src = SeqSource.sturmian(spec, part, z)
        base = materialize(src, (m, m + 32)).line()
        moved = materialize(
            SeqSource.sturmian(spec, part, rotate_add(z, spec, (m,))),
            (0, 32)).line()
        assert np.array_equal(base, moved)


def test_materialize_thread_determinism():
    for src in (SeqSource.fibonacci(), SeqSource.de_bruijn(8)):
        one = materialize(src, (0, 20000))
        again = materialize(src, (0, 20000))
        assert np.array_equal(one.symbols, again.symbols)
        assert one.source_digest == again.source_digest
        assert one.meta == again.meta
    assert again.meta["period"] == 256


def test_morse_prefix_and_mirror():
    win = materialize(SeqSource.morse(), (0, 8))
    assert win.line().tolist() == [0, 1, 1, 0, 1, 0, 0, 1]
    assert materialize(SeqSource.morse(), (0, 4)).value_at(3) == 0
    two_sided = materialize(SeqSource.morse(), (-8, 8))
    for n in range(8):
        assert two_sided.value_at(-n - 1) == two_sided.value_at(n)


def test_morse_window_is_built_in_place():
    """A window of 10**6 cells allocates its int64 indices and a few bytes
    per cell beside them, with no int64 temporary."""
    materialize(SeqSource.morse(), (0, 8))
    tracemalloc.start()
    try:
        win = materialize(SeqSource.morse(), (-500_000, 500_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert win.line()[[0, 499_999, 500_000, -1]].tolist() == [1, 0, 0, 1]
    assert peak < 12 * 10 ** 6


@pytest.mark.parametrize("alphas, box, bound", [
    ((GOLDEN,), ((0, 10 ** 6),), 7),
    ((GOLDEN, SQRT2_FRAC), ((0, 700), (0, 700)), 5),
])
def test_rotation_window_memory(alphas, box, bound):
    """A rotation window holds its bytes, one block's offset table and a
    block's words, and gathers cut words for high-word candidates only."""
    source = SeqSource.sturmian(RotationSpec.circle(*alphas), CutPartition((0, SCALE - GOLDEN)),
                                TorusPoint.zero())
    materialize(source, tuple((0, 8) for _ in box))
    tracemalloc.start()
    try:
        win = materialize(source, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert win.symbols.shape == tuple(hi - lo for lo, hi in box)
    assert peak < bound * 2 ** 20, peak


def test_morse_substitution_invariance():
    # length-2**j prefix equals the j-fold substitution 0->01, 1->10 on "0"
    word = np.array([0], dtype=np.uint8)
    sub = {0: (0, 1), 1: (1, 0)}
    win = materialize(SeqSource.morse(), (0, 1 << 20)).line()
    for j in range(1, 21):
        word = np.array([s for v in word for s in sub[int(v)]], dtype=np.uint8)
        assert np.array_equal(win[: 1 << j], word)


def test_ip_indicator_base10_examples():
    win = materialize(SeqSource.ip_indicator(10, 5), (-5, 200))
    assert win.value_at(110) == 1
    assert win.value_at(12) == 0
    assert win.value_at(10) == 1
    assert win.value_at(0) == 0 and win.value_at(-3) == 0
    ones = [n for n in range(-5, 200) if win.value_at(n)]
    assert ones == [10, 100, 110]


def test_ip_indicator_base2_matches_subset_sum_enumeration():
    cap = 4
    win = materialize(SeqSource.ip_indicator(2, cap), (0, 16))
    powers = [2 ** a for a in range(1, cap + 1)]
    sums = set()
    for r in range(1, cap + 1):
        for combo in itertools.combinations(powers, r):
            sums.add(sum(combo))
    expected = [1 if n in sums else 0 for n in range(16)]
    assert win.line().tolist() == expected


def test_ip_indicator_requires_reachable_cap():
    with pytest.raises(ArgumentError):
        materialize(SeqSource.ip_indicator(10, 2), (0, 1000))


def test_ip_indicator_cap_boundary():
    """The window must end at or below base**cap, up to the top of the
    coordinate range, where any cap of 63 or more reaches."""
    assert materialize(SeqSource.ip_indicator(10, 3), (990, 1000)).line().sum() == 0
    with pytest.raises(ArgumentError):
        materialize(SeqSource.ip_indicator(10, 3), (990, 1001))
    top = (2 ** 63 - 8, 2 ** 63)
    with pytest.raises(ArgumentError):
        materialize(SeqSource.ip_indicator(2, 62), top)
    assert materialize(SeqSource.ip_indicator(2, 63), top).line().tolist() == [1, 0] * 4


class _Unpowered(int):
    """An exponent cap whose power with the base must not be taken."""

    def __rpow__(self, base, mod=None):
        raise AssertionError(f"{base} ** {int(self)} was built")


def test_ip_indicator_huge_cap_builds_no_power():
    """A cap of 63 or more passes the precondition without base**cap,
    which for cap 10**7 took seconds to build; a smaller cap takes it."""
    for cap in (63, 10 ** 7):
        win = materialize(SeqSource.ip_indicator(3, _Unpowered(cap)), (0, 100))
        assert win.line()[[3, 9, 12, 36, 39]].tolist() == [1, 1, 1, 1, 1]
    with pytest.raises(AssertionError, match="was built"):
        materialize(SeqSource.ip_indicator(3, _Unpowered(62)), (0, 100))


def _ip_symbol(n, base):
    """1 when n > 0 has units digit 0 and every other digit 0 or 1."""
    if n <= 0 or n % base:
        return 0
    n //= base
    while n:
        n, digit = divmod(n, base)
        if digit > 1:
            return 0
    return 1


@pytest.mark.parametrize("base", range(2, 11))
def test_ip_builder_matches_digit_oracle(base):
    """Boxes across 0, ending at or below 1, and ending at base**cap."""
    cap = 40 if base == 2 else 12
    top = base ** cap
    for box in [(-37, 500), (-3 * base, 7 * base + 1), (-50, 1), (-50, 0), (0, 1), (1, base),
                (top - 40 * base - 3, top), (top - 1, top)]:
        win = materialize(SeqSource.ip_indicator(base, cap), box)
        assert win.line().tolist() == [_ip_symbol(n, base) for n in range(*box)], box


def test_ip_window_builds_only_the_multiples_of_its_base():
    """The ip10 window of 2 * 10**6 cells allocates its bytes and int64
    words for the 10**5 positive multiples of 10, not for every cell."""
    materialize(SeqSource.ip_indicator(10, 7), (0, 8))
    tracemalloc.start()
    try:
        win = materialize(SeqSource.ip_indicator(10, 7), (-1_000_000, 1_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(win.line().sum()) == 2 ** 5 - 1  # sums of distinct powers 10 .. 10**5
    assert peak < 7 * 2 ** 20, peak


def test_concat_first_block_hand_expansion():
    win = materialize(SeqSource.concat_nonnull(), (-3, 9))
    # w1 = u1 v1 = "00" + "10" + "0000" at positions 1..8
    assert [win.value_at(n) for n in range(1, 9)] == [0, 0, 1, 0, 0, 0, 0, 0]
    assert all(win.value_at(n) == 0 for n in range(-3, 1))


def test_concat_block_arithmetic():
    bounds = concat_block_bounds(6)
    for n, (lo, hi) in enumerate(bounds, start=1):
        assert hi - lo + 1 == 4 * n * (1 << n)  # |w_n| = 2|u_n| = 2(2n 2^n)
    slots = concat_slot_coordinates(3)
    assert len(slots) == 8 and slots[1] - slots[0] == 6
    win = materialize(SeqSource.concat_nonnull(), (slots[0], slots[-1] + 3))
    words = {tuple(win.value_at(s + i) for i in range(3)) for s in slots}
    assert len(words) == 8  # every 3-word appears in its slot


def test_halfline_window():
    win = materialize(SeqSource.char_halfline(), (-2, 3))
    assert win.line().tolist() == [0, 0, 1, 1, 1]


@pytest.mark.parametrize("box", [(-7, 5), (-1, 1), (-9, 0), (-9, -3), (0, 6), (4, 11)])
def test_halfline_window_is_the_indicator_of_the_nonnegatives(box):
    win = materialize(SeqSource.char_halfline(), box)
    assert win.origin == (box[0],)
    assert win.line().tolist() == [int(n >= 0) for n in range(*box)]


def test_halfline_window_memory():
    """A window of 10**6 cells allocates its bytes and no per-cell index."""
    materialize(SeqSource.char_halfline(), (0, 8))
    tracemalloc.start()
    try:
        win = materialize(SeqSource.char_halfline(), (-500_000, 500_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(win.line().sum()) == 500_000 and win.line()[499_999] == 0
    assert peak < 2 * 2 ** 20, peak


def test_de_bruijn_greedy_periods():
    assert de_bruijn_period(2).tolist() == [0, 0, 1, 1]
    assert de_bruijn_period(1).tolist() == [0, 1]
    win = materialize(SeqSource.de_bruijn(1), (0, 6))
    assert win.line().tolist() == [0, 1, 0, 1, 0, 1]


@pytest.mark.parametrize("order", [2, 3, 8, 12])
def test_de_bruijn_completeness(order):
    length = (1 << order) + order
    win = materialize(SeqSource.de_bruijn(order), (0, length)).line()
    words = {tuple(win[t: t + order]) for t in range(len(win) - order + 1)}
    assert len(words) == 1 << order


def test_de_bruijn_window_of_length_11_contains_all_3_words():
    win = materialize(SeqSource.de_bruijn(3), (0, 11)).line()
    words = {tuple(win[t: t + 3]) for t in range(9)}
    assert len(words) == 8


def test_sphere_center_and_density():
    region = BallRegion(TorusPoint((SCALE // 2, SCALE // 2)), parse("0.1"))
    spec = RotationSpec((TorusPoint((GOLDEN, SQRT2_FRAC)),))
    z = TorusPoint((SCALE // 2, SCALE // 2))
    win = materialize(SeqSource.sphere(region, spec, z), (0, 10_000))
    assert win.value_at(0) == 1  # base point inside
    density = win.line().mean()
    assert density == pytest.approx(np.pi * 0.01, abs=0.01)


def parse(text):
    from tamelab.torus import parse_fraction
    return parse_fraction(text)


def test_random_source_is_deterministic():
    a = materialize(SeqSource.random(42), (0, 500)).line()
    b = materialize(SeqSource.random(42), (0, 500)).line()
    c = materialize(SeqSource.random(43), (0, 500)).line()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seq_file_round_trip(tmp_path):
    win = materialize(SeqSource.fibonacci(), (-10, 54))
    path = tmp_path / "w.seq"
    write_window(win, path)
    back = read_window(path)
    assert back.origin == win.origin
    assert np.array_equal(back.symbols, win.symbols)
    assert back.alphabet_size == win.alphabet_size
    # explicit source serves sub-windows of the stored block
    sub = materialize(SeqSource.explicit(back), (-5, 20))
    assert np.array_equal(sub.symbols, win.symbols[5:30])


HEADER = b"TAMELAB-SEQ v1 k=1 alphabet=2 origin=0 extents=4\n"


@pytest.mark.parametrize("content", [
    HEADER + b"01g1\n",                    # not a hex digit
    HEADER + b"01\xff1\n",                 # not UTF-8
    HEADER.replace(b"v1", b"v\xe91") + b"0101\n",
    HEADER.replace(b"k=1", b"k=2") + b"0101\n",  # rank disagrees with origin
    HEADER.replace(b"extents=4", b"extents=-4") + b"0101\n",
])
def test_malformed_seq_file_is_a_data_error(tmp_path, content):
    path = tmp_path / "bad.seq"
    path.write_bytes(content)
    with pytest.raises(DataIOError):
        read_window(path)


def test_seq_body_accepts_either_case_and_ascii_whitespace(tmp_path):
    path = tmp_path / "w.seq"
    path.write_bytes(b"TAMELAB-SEQ v1 k=2 alphabet=16 origin=1,2 extents=2,3\r\n"
                     b"0aF\t\x0b9 E\x0c\r\n1\n")
    win = read_window(path)
    assert win.origin == (1, 2)
    assert win.symbols.tolist() == [[0, 10, 15], [9, 14, 1]]
    write_window(win, tmp_path / "out.seq")
    assert (tmp_path / "out.seq").read_bytes() == (
        b"TAMELAB-SEQ v1 k=2 alphabet=16 origin=1,2 extents=2,3\n0af9e1\n")


def test_capacity_and_unknown_kind_errors():
    with pytest.raises(CapacityError):
        materialize(SeqSource.fibonacci(), (0, (1 << 28) + 1))
    with pytest.raises(ConfigError):
        bogus = SeqSource("morse", 2, 1)
        object.__setattr__(bogus, "kind", "nope")
        materialize(bogus, (0, 4))


def test_near_cut_hits_reported():
    # base point 0 sits exactly on the cut at 0, so n=0 is the one near hit
    win = materialize(SeqSource.fibonacci(), (0, 100))
    assert win.meta["near_cut_hits"] == 1


# -- loop builders: one exact Python int stepped per cell --------------------


def _reference_sturmian(source, box):
    spec, part, z = source.rotation, source.partition, source.base_point
    extents = tuple(hi - lo for lo, hi in box)
    origin = tuple(lo for lo, _ in box)
    out = np.empty(extents, dtype=np.uint8)
    flat = out.reshape(-1)
    step = spec.alphas[-1].coords[0]
    inner = extents[-1]
    cuts = part.cuts
    near = 0
    start = 0
    for outer in (np.ndindex(*extents[:-1]) if len(extents) > 1 else ((),)):
        n = tuple(o + i for o, i in zip(origin, outer)) + (origin[-1],)
        t = rotate_add(z, spec, n).coords[0]
        for i in range(inner):
            c = bisect_right(cuts, t) - 1
            flat[start + i] = c
            upper = cuts[c + 1] if c + 1 < len(cuts) else SCALE
            if t - cuts[c] < NEAR_CUT_EPS or upper - t < NEAR_CUT_EPS:
                near += 1
            t = (t + step) & MASK
        start += inner
    return SeqWindow(origin, out, source.alphabet_size, source.digest,
                     {"near_cut_hits": near})


def _reference_sphere(source, box):
    region, spec, z = source.region, source.rotation, source.base_point
    (lo, hi), = box
    out = np.empty(hi - lo, dtype=np.uint8)
    coords = list(rotate_add(z, spec, (lo,)).coords)
    alpha = spec.alphas[0].coords
    near = 0
    for i in range(hi - lo):
        d_sq = ball_distance_sq(region, coords)
        out[i] = d_sq <= region.radius_sq
        if abs(d_sq - region.radius_sq) < NEAR_SPHERE_MARGIN:
            near += 1
        for j, a in enumerate(alpha):
            coords[j] = (coords[j] + a) & MASK
    return SeqWindow((lo,), out, 2, source.digest, {"near_sphere_hits": near})


def _assert_matches_reference(source, box, reference, near=None):
    box = normalize_box(box, source.group_rank)
    win, ref = materialize(source, box), reference(source, box)
    assert win.origin == ref.origin
    assert win.symbols.shape == ref.symbols.shape
    assert np.array_equal(win.symbols, ref.symbols)
    assert win.meta == ref.meta
    if near is not None:
        assert list(win.meta.values()) == [near]


# Shapes cover one axis longer than a build block, rows split into blocks,
# whole rows grouped into blocks with a short last block, and rows of one cell.
ROTATION_SHAPES = [(140_000,), (3, 70_000), (300, 250), (40, 30, 60), (100, 100, 1)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", ROTATION_SHAPES)
def test_rotation_builder_matches_reference_loop(shape, seed):
    rng = random.Random(f"{shape}-{seed}")
    alphas = [rng.randrange(1, SCALE) for _ in shape]
    cuts = {0, SCALE - 1} if seed == 0 else {0}
    while len(cuts) < 2 + seed:
        cuts.add(rng.randrange(1, SCALE))
    lows = [rng.randrange(-10**6, 10**6) for _ in shape]
    source = SeqSource.sturmian(RotationSpec.circle(*alphas),
                                CutPartition(tuple(sorted(cuts))),
                                TorusPoint((rng.randrange(SCALE),)))
    _assert_matches_reference(source, tuple((lo, lo + e) for lo, e in zip(lows, shape)),
                              _reference_sturmian)


@pytest.mark.parametrize("shape", [(5_000,), (30, 40), (6, 7, 8)])
def test_rotation_builder_counts_near_cut_hits_exactly(shape):
    # cuts sit at chosen orbit points moved by delta; |delta| < 2**40 is a hit
    rng = random.Random(len(shape))
    alphas = [rng.randrange(1, SCALE) for _ in shape]
    z = rng.randrange(SCALE)
    box = tuple((lo, lo + e) for lo, e in zip((-17, 4, -3), shape))
    deltas = [0, NEAR_CUT_EPS - 1, 1 - NEAR_CUT_EPS, NEAR_CUT_EPS, -NEAR_CUT_EPS, 12345]
    cuts = {0}
    for delta in deltas:
        n = [rng.randrange(lo, hi) for lo, hi in box]
        t = z + sum(ni * a for ni, a in zip(n, alphas))
        cuts.add((t + delta) & MASK)
    source = SeqSource.sturmian(RotationSpec.circle(*alphas),
                                CutPartition(tuple(sorted(cuts))), TorusPoint((z,)))
    _assert_matches_reference(source, box, _reference_sturmian, near=4)


# A cut on a 64-bit word boundary.  z = WORD_CUT - 5 lies 5 below it, in the
# high word below the cut's, so n = 0 and n = 1 are hits; z = WORD_CUT - 2**64
# puts every cell of (0, 1000) in that high word, each a candidate and no hit;
# z = WORD_CUT + 2**64 - 3 * 2**40 keeps high words within 1 above the cut's,
# at least 2**64 - 3 * 2**40 from it.
WORD_CUT = 0x123456789ABCDEF << 64


@pytest.mark.parametrize("cuts, z, near", [
    ((0, SCALE // 2, SCALE - 1), SCALE - 1, 2),
    ((0, SCALE // 2), SCALE - NEAR_CUT_EPS + 1, 2),
    ((0, SCALE // 2), SCALE - NEAR_CUT_EPS, 1),
    ((0, WORD_CUT), WORD_CUT - 5, 2),
    ((0, WORD_CUT), WORD_CUT - (1 << 64), 0),
    ((0, WORD_CUT), WORD_CUT + (1 << 64) - 3 * NEAR_CUT_EPS, 0),
])
def test_rotation_builder_near_the_top_cut_and_across_zero(cuts, z, near):
    # t = z + n 2**40 steps through 0 once.  z = SCALE - 1 sits on a cut and
    # 1 below SCALE (n = 0), and n = 1 gives t = 2**40 - 1; z = SCALE - 2**40 + 1
    # is 2**40 - 1 below SCALE, and n = 1 gives t = 1; z = SCALE - 2**40 is
    # 2**40 below SCALE, no hit, and n = 1 gives t = 0
    source = SeqSource.sturmian(RotationSpec.circle(NEAR_CUT_EPS), CutPartition(cuts),
                                TorusPoint((z,)))
    _assert_matches_reference(source, (0, 1000), _reference_sturmian, near=near)
    _assert_matches_reference(source, (-500, 500), _reference_sturmian, near=near)


def test_rotation_builder_keeps_the_row_index_bound():
    source = SeqSource.sturmian(RotationSpec.circle(GOLDEN, SQRT2_FRAC),
                                CutPartition((0, SCALE - GOLDEN)), TorusPoint.zero())
    for box in (((MAX_STEP - 2, MAX_STEP + 2), (0, 3)), ((0, 2), (MAX_STEP, MAX_STEP + 3))):
        with pytest.raises(ArgumentError, match="2\\*\\*40"):
            _reference_sturmian(source, box)
        with pytest.raises(ArgumentError, match="2\\*\\*40"):
            materialize(source, box)
    # the inner axis is bounded by its start only, as the loop did
    _assert_matches_reference(source, ((0, 2), (MAX_STEP - 2, MAX_STEP + 2)),
                              _reference_sturmian)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dim", [2, 3])
def test_sphere_builder_matches_reference_loop(dim, seed):
    rng = random.Random(f"sphere-{dim}-{seed}")
    center = TorusPoint(tuple(rng.randrange(SCALE) for _ in range(dim)))
    spec = RotationSpec((TorusPoint(tuple(rng.randrange(1, SCALE) for _ in range(dim))),))
    region = BallRegion(center, rng.randrange(1, SCALE // 2))
    lo = rng.randrange(-10**6, 10**6)
    source = SeqSource.sphere(region, spec, TorusPoint(tuple(rng.randrange(SCALE)
                                                             for _ in range(dim))))
    _assert_matches_reference(source, (lo, lo + 90_000), _reference_sphere)


def _on_grid(*quanta):
    return TorusPoint(tuple((q % (1 << 48)) << BALL_SHIFT for q in quanta))


@pytest.mark.parametrize("radius, near", [(16, 44), (63, 8), (127, 6)])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("center_x", [1 << 40, 5])
def test_sphere_builder_counts_near_sphere_hits_on_an_axis_walk(dim, center_x, radius, near):
    # x moves one grid quantum per step from offset -150: d**2 is the squared
    # offset, and a hit is |d**2 - radius**2| < 2**8.  Radius 16 puts offset 0
    # at -256 (no hit) and offset 1 at -255; radius 63 puts 65 at +256 (no
    # hit); radius 127 puts 128 at +255; every radius has offsets exactly on
    # the sphere.  center_x = 5 walks through 0 by the minimal image.
    rest = [1 << 45] * (dim - 1)
    spec = RotationSpec((TorusPoint((1 << BALL_SHIFT,) + (1,) * (dim - 1)),))
    region = BallRegion(_on_grid(center_x, *rest), (radius << BALL_SHIFT) + 12345)
    source = SeqSource.sphere(region, spec, _on_grid(center_x - 150, *rest))
    _assert_matches_reference(source, (0, 301), _reference_sphere, near=near)
    win = materialize(source, (0, 301))
    assert win.line().tolist() == [int(abs(j - 150) <= radius) for j in range(301)]


def test_sphere_builder_below_one_quantum():
    # a radius below one grid quantum has radius_sq 0: hits are d**2 < 2**8
    spec = RotationSpec((TorusPoint((1 << BALL_SHIFT, 1)),))
    source = SeqSource.sphere(BallRegion(_on_grid(7, 9), 5), spec, _on_grid(-13, 9))
    _assert_matches_reference(source, (0, 60), _reference_sphere, near=31)
    assert materialize(source, (0, 60)).line().tolist() == [int(j == 20) for j in range(60)]


def _pythagorean(m, n, p, q):
    """Euler's four-square identity: offsets (a, b, c) and d with
    a**2 + b**2 + c**2 = d**2."""
    return ((m * m + n * n - p * p - q * q, 2 * (m * q + n * p), 2 * (n * q - m * p)),
            m * m + n * n + p * p + q * q)


@pytest.mark.parametrize("dim", [2, 3])
def test_sphere_builder_on_a_large_sphere(dim):
    # base point exactly on a sphere of about 2**43 quanta: d has both
    # 32-bit halves nonzero, so the word carries of d**2 decide the hit
    rng = random.Random(dim)
    m, p = (1 << 21) + 12345, (1 << 19) + 4321
    n, q = ((1 << 20) + 777, (1 << 18) + 99) if dim == 3 else (0, 0)
    (a, b, c), radius = _pythagorean(m, n, p, q)
    offsets = (a, b, c) if dim == 3 else (a, c)
    assert sum(o * o for o in offsets) == radius ** 2
    cq = [rng.randrange(1 << 48) for _ in offsets]
    spec = RotationSpec((TorusPoint(tuple(rng.randrange(1, SCALE) for _ in offsets)),))
    region = BallRegion(_on_grid(*cq), radius << BALL_SHIFT)
    source = SeqSource.sphere(region, spec, _on_grid(*(c + o for c, o in zip(cq, offsets))))
    _assert_matches_reference(source, (0, 50_000), _reference_sphere, near=1)
    assert materialize(source, (0, 1)).value_at(0) == 1


# -- arithmetic and noise builders against per-cell loops ---------------------


def _reference_random(source, box):
    (lo, hi), = box
    seed = source.seed.to_bytes(16, "little", signed=True)
    m = source.alphabet_size
    out = np.empty(hi - lo, dtype=np.uint8)
    for i, n in enumerate(range(lo, hi)):
        h = hashlib.blake2b(n.to_bytes(16, "little", signed=True), key=seed,
                            digest_size=8).digest()
        out[i] = int.from_bytes(h, "little") % m
    return SeqWindow((lo,), out, m, source.digest, {})


def _reference_ip(source, box):
    (lo, hi), = box
    base = source.base
    n = np.arange(lo, hi, dtype=np.int64)
    ok = n > 0
    rest = np.where(ok, n, 0)
    ok &= rest % base == 0
    rest //= base
    while rest.any():
        ok &= rest % base <= 1
        rest //= base
    return SeqWindow((lo,), ok.astype(np.uint8), 2, source.digest, {})


def _reference_concat(source, box):
    # walk the blocks w_1 w_2 ... to each coordinate, one Python int at a time
    (lo, hi), = box
    out = np.zeros(hi - lo, dtype=np.uint8)
    for p in range(max(lo, 1), hi):
        start, n = 1, 1
        while p >= start + 4 * n * 2 ** n:
            start += 4 * n * 2 ** n
            n += 1
        word, r = divmod(p - start, 2 * n)
        if word < 2 ** n and r < n:
            out[p - lo] = word >> (n - 1 - r) & 1
    return SeqWindow((lo,), out, 2, source.digest, {})


_EDGE = 1 << 63
_B = _HASH_BLOCK_CELLS
# windows crossing 0, one-cell windows, windows at either end of the
# coordinate range, and windows of several blocks that end in a partial block
RANDOM_WINDOWS = [(-5, 5), (0, 1), (-1, 0), (7, 8), (-_EDGE, -_EDGE + 1), (_EDGE - 1, _EDGE),
                  (-_EDGE, -_EDGE + 40), (_EDGE - 40, _EDGE), (-3 * _B - 5, 2 * _B + 17),
                  (_B, 3 * _B + 1)]


@pytest.mark.parametrize("seed", [0, -987654321, (1 << 127) - 1, -(1 << 127) + 1, -(1 << 127)])
def test_random_builder_matches_reference_loop(seed):
    for m in (2, 3, 7, 16):
        for box in RANDOM_WINDOWS:
            _assert_matches_reference(SeqSource.random(seed, m), box, _reference_random)


@pytest.mark.parametrize("seed", [1 << 127, -(1 << 127) - 1, 1 << 200])
def test_random_seed_outside_128_bits_is_an_argument_error(seed):
    with pytest.raises(ArgumentError, match="seed"):
        SeqSource.random(seed)


_P = _HASH_PART_CELLS
# windows that a 3-core split cuts in three: one crossing 0 of odd length,
# and one at either end of the coordinate range
SPLIT_WINDOWS = [(-50_001, 50_000), (_EDGE - 3 * _P - 7, _EDGE), (-_EDGE, -_EDGE + 3 * _P + 11)]


@pytest.fixture
def three_cores(monkeypatch):
    """Split noise windows three ways on any machine, count the forks, and
    check after the test that no child process is left."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(sources, "_core_count", lambda: 3)
    monkeypatch.setattr(os, "fork", counted_fork)
    yield forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("box", SPLIT_WINDOWS)
def test_random_builder_split_into_parts_matches_reference_loop(box, three_cores):
    _assert_matches_reference(SeqSource.random(-987654321, 7), box, _reference_random)
    assert len(three_cores) == 2  # the process hashes the first part itself


def test_random_parts_whose_fork_fails_are_hashed_in_the_process(three_cores, monkeypatch):
    def no_fork():
        three_cores.append(os.getpid())
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    _assert_matches_reference(SeqSource.random(5, 3), SPLIT_WINDOWS[0], _reference_random)
    assert len(three_cores) == 2


def test_random_parts_whose_child_fails_are_hashed_in_the_process(three_cores, monkeypatch):
    parent, calls = os.getpid(), []
    hash_cells = sources._hash_cells

    def parent_only(*args):
        if os.getpid() != parent:
            raise RuntimeError("hashing failed in a child")
        calls.append(args[1])
        hash_cells(*args)

    monkeypatch.setattr(sources, "_hash_cells", parent_only)
    lo = SPLIT_WINDOWS[0][0]
    _assert_matches_reference(SeqSource.random(5, 3), SPLIT_WINDOWS[0], _reference_random)
    assert len(three_cores) == 2
    assert calls == [lo, lo + 33_333, lo + 66_667]  # its own part, then each failed one


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_random_builder_uses_one_part_without_fork_or_affinity(missing, monkeypatch):
    monkeypatch.delattr(os, missing)
    assert sources._core_count() == 1
    _assert_matches_reference(SeqSource.random(5, 3), (0, 2 * _P + 1), _reference_random)


@pytest.mark.parametrize("base, cap", [(2, 63), (3, 40), (10, 19)])
@pytest.mark.parametrize("box", [(-1000, 1000), (0, 1), (1, 2), (-7, 0), (-5000, 250_000),
                                 (123_456, 654_321), (_EDGE - 5000, _EDGE)])
def test_ip_builder_matches_reference_loop(base, cap, box):
    _assert_matches_reference(SeqSource.ip_indicator(base, cap), box, _reference_ip)


def test_concat_builder_matches_reference_loop():
    source = SeqSource.concat_nonnull()
    far = concat_block_bounds(40)[-1][0]
    u_end = far + 2 * 40 * 2 ** 40
    for box in [(-10, 10), (0, 1), (1, 2), (-5, 0), (0, 5000), (123_456, 130_000),
                (far - 100, far + 100), (u_end - 100, u_end + 100), (_EDGE - 300, _EDGE)]:
        _assert_matches_reference(source, box, _reference_concat)


def _edge_sources(origin):
    spec = RotationSpec((TorusPoint((GOLDEN, SQRT2_FRAC)),))
    data = np.arange(8, dtype=np.uint8) % 3
    return {
        "sturmian": SeqSource.fibonacci(),
        "sphere": SeqSource.sphere(BallRegion(TorusPoint((0, 0)), SCALE // 4), spec,
                                   TorusPoint((0, 0))),
        "ip_indicator": SeqSource.ip_indicator(2, 64),
        "morse": SeqSource.morse(),
        "concat_nonnull": SeqSource.concat_nonnull(),
        "char_halfline": SeqSource.char_halfline(),
        "de_bruijn": SeqSource.de_bruijn(4),
        "random": SeqSource.random(-5, 3),
        "explicit": SeqSource.explicit(SeqWindow((origin,), data, 3, "")),
    }


def _edge_symbol(kind, source, n):
    """Each kind's symbol at n from Python ints (None: no builder runs there)."""
    if kind in ("sturmian", "sphere"):
        return None
    if kind == "ip_indicator":
        return int(n > 0 and n % 2 == 0)
    if kind == "morse":
        return bin(n if n >= 0 else -n - 1).count("1") & 1
    if kind == "concat_nonnull":
        return int(_reference_concat(source, ((n, n + 1),)).symbols[0])
    if kind == "char_halfline":
        return int(n >= 0)
    if kind == "de_bruijn":
        period = de_bruijn_period(4).tolist()
        return period[n % len(period)]
    if kind == "random":
        return int(_reference_random(source, ((n, n + 1),)).symbols[0])
    return int(source.data.value_at(n))


@pytest.mark.parametrize("kind", sorted(_edge_sources(0)))
@pytest.mark.parametrize("inside, outside", [
    ((_EDGE - 4, _EDGE), (_EDGE - 3, _EDGE + 3)),
    ((-_EDGE, -_EDGE + 4), (-_EDGE - 1, -_EDGE + 3)),
    ((_EDGE - 4, _EDGE), (1 << 70, (1 << 70) + 4)),
])
def test_window_coordinates_stay_in_the_int64_range(kind, inside, outside):
    source = _edge_sources(inside[0] - 2)[kind]
    with pytest.raises(ArgumentError, match="coordinate range"):
        materialize(source, outside)
    expected = [_edge_symbol(kind, source, n) for n in range(*inside)]
    if expected[0] is None:
        # torus codings stop earlier, at the 2**40 orbit index bound
        with pytest.raises(ArgumentError, match="2\\*\\*40"):
            materialize(source, inside)
    else:
        assert materialize(source, inside).line().tolist() == expected
