"""Generator families against independent oracles."""

import itertools

import mpmath as mp
import numpy as np
import pytest

from tamelab.errors import ArgumentError, CapacityError, ConfigError, DataIOError
from tamelab.sources import (
    SeqSource,
    concat_block_bounds,
    concat_slot_coordinates,
    de_bruijn_period,
    materialize,
    read_window,
    write_window,
)
from tamelab.torus import (
    GOLDEN,
    SCALE,
    SQRT2_FRAC,
    BallRegion,
    CutPartition,
    RotationSpec,
    TorusPoint,
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
    # base point 0 sits exactly on the cut at 0, so n=0 is a near hit
    win = materialize(SeqSource.fibonacci(), (0, 100))
    assert win.meta["near_cut_hits"] >= 1
