"""Entropy series: contiguous, along sequences, and headline slopes."""

import numpy as np
import pytest

from tamelab.entropy import entropy_estimate, sequence_entropy_estimate
from tamelab.errors import ArgumentError
from tamelab.language import complexity
from tamelab.sources import SeqSource, SeqWindow, materialize


def test_de_bruijn_20_rate_exactly_one():
    win = materialize(SeqSource.de_bruijn(20), (0, (1 << 20) + 20))
    series = entropy_estimate(win, 16)
    assert all(rate == 1.0 for _, _, rate in series.points)


def test_constant_source_rate_zero():
    win = materialize(SeqSource.explicit(
        SeqWindow((0,), np.zeros(256, dtype=np.uint8), 2, "z")), (0, 256))
    series = entropy_estimate(win, 10)
    assert all(rate == 0.0 for _, _, rate in series.points)
    assert series.headline == 0.0


def test_fibonacci_rate_30_and_decaying_headline():
    win = materialize(SeqSource.fibonacci(), (0, 100_000))
    series = entropy_estimate(win, 30)
    assert series.rate(30) == pytest.approx(np.log2(31) / 30)
    # headline slope decays with depth, trending to zero
    assert series.headline < entropy_estimate(win, 10).headline


def test_contiguous_equals_complexity_bit_for_bit():
    win = materialize(SeqSource.morse(), (0, 4096))
    series = entropy_estimate(win, 12)
    lang = complexity(win, 12)
    assert tuple(c for _, c, _ in series.points) == lang.counts


def test_sequence_entropy_contiguous_specialization():
    win = materialize(SeqSource.fibonacci(), (0, 20_000))
    a = entropy_estimate(win, 8)
    b = sequence_entropy_estimate(win, range(8))
    assert a.points == b.points


def test_sequence_entropy_certified_free_set_rate_one():
    win = materialize(SeqSource.de_bruijn(12), (0, (1 << 12) + 200))
    series = sequence_entropy_estimate(win, range(12))
    assert series.rate(12) == 1.0
    # same consistency through a sparse certified set
    from tamelab.freeset import is_free
    from tamelab.language import CoordSet
    ip = materialize(SeqSource.ip_indicator(10, 6), (-200_000, 200_000))
    coords = (10, 100, 1000)
    assert is_free(ip, CoordSet.of(coords)).is_free
    assert sequence_entropy_estimate(ip, coords).rate(3) == 1.0


def test_sequence_entropy_lacunary_sturmian_trends_down():
    win = materialize(SeqSource.fibonacci(), (0, 50_000))
    coords = [2 ** j for j in range(10)]
    series = sequence_entropy_estimate(win, coords)
    rates = [r for _, _, r in series.points]
    assert rates[-1] < 0.6
    assert max(rates) <= 1.0


def test_rate_bounds_and_monotone_counts():
    win = materialize(SeqSource.morse(), (0, 8192))
    series = entropy_estimate(win, 14)
    counts = [c for _, c, _ in series.points]
    assert counts == sorted(counts)
    assert all(0 <= r <= 1 for _, _, r in series.points)


def test_sequence_entropy_validation():
    win = materialize(SeqSource.morse(), (0, 64))
    with pytest.raises(ArgumentError):
        sequence_entropy_estimate(win, [3, 3, 5])
    with pytest.raises(ArgumentError):
        sequence_entropy_estimate(win, [0, 1], n_max=5)


@pytest.mark.parametrize("source", [SeqSource.random(17), SeqSource.fibonacci()],
                         ids=["noise", "fibonacci"])
def test_sequence_entropy_beyond_24_binary_coordinates(source):
    # 2**32 patterns exceed the 2**24 code cap of patterns_on; counting by
    # class ids needs no codes
    win = materialize(source, (0, 4000))
    coords = sorted(np.random.default_rng(8).choice(300, size=32, replace=False).tolist())
    series = sequence_entropy_estimate(win, coords)
    line = win.line()
    offsets = np.array(coords) - coords[0]
    for n, count, _ in series.points:
        shifts = line.size - offsets[n - 1]
        brute = {line[j + offsets[:n]].tobytes() for j in range(shifts)}
        assert count == len(brute)
    assert series.n_max == 32
