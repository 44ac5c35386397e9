"""Window languages: pattern sets, complexity, projections."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tamelab import language
from tamelab.errors import ArgumentError, CapacityError, DimensionError, ShiftRangeError
from tamelab.language import (
    CoordSet,
    complexity,
    count_contiguous,
    patterns_on,
    project,
)
from tamelab.sources import SeqSource, SeqWindow, materialize


def explicit(symbols, origin=0):
    arr = np.asarray(symbols, dtype=np.uint8)
    return materialize(SeqSource.explicit(SeqWindow((origin,), arr, int(arr.max()) + 1
                                                    if arr.max() >= 1 else 2, "t")),
                       (origin, origin + len(symbols)))


def brute_patterns(line, coords, shifts):
    return {tuple(int(line[a + t]) for a in coords) for t in shifts}


def test_constant_window_single_pattern():
    win = explicit([0] * 50)
    ps = patterns_on(win, CoordSet.of([0, 3, 7]))
    assert ps.count == 1 and ps.codes.tolist() == [0]


def test_de_bruijn_full_coverage():
    win = materialize(SeqSource.de_bruijn(4), (0, 30))
    ps = patterns_on(win, CoordSet.of(range(4)))
    assert ps.count == 16


def test_fibonacci_three_coordinates_exactly_four_patterns():
    win = materialize(SeqSource.fibonacci(), (0, 1001))
    ps = patterns_on(win, CoordSet.of([0, 1, 2]), want_witness=True)
    assert ps.count == 4
    # independent brute force over the same shifts
    line = win.line()
    brute = brute_patterns(line, [0, 1, 2], range(0, 998))
    assert {ps.decode(int(c)) for c in ps.codes} == brute
    # witnesses reproduce their patterns
    for code, shift in ps.witness.items():
        assert tuple(int(line[a + shift]) for a in (0, 1, 2)) == ps.decode(code)


def test_witness_is_smallest_shift():
    win = explicit([0, 1, 0, 1])
    ps = patterns_on(win, CoordSet.of([0]), want_witness=True)
    assert ps.witness == {0: 0, 1: 1}


def test_halfline_p5_exact_pattern_list():
    win = materialize(SeqSource.char_halfline(), (-1000, 1000))
    lang = complexity(win, 5)
    assert lang.counts == (2, 3, 4, 5, 6)
    ps = patterns_on(win, CoordSet.of(range(5)))
    expected = {(0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 1),
                (0, 0, 1, 1, 1), (0, 1, 1, 1, 1), (1, 1, 1, 1, 1)}
    assert {ps.decode(int(c)) for c in ps.codes} == expected


def test_fibonacci_complexity_n_plus_one():
    win = materialize(SeqSource.fibonacci(), (0, 100_000))
    lang = complexity(win, 30)
    assert lang.counts == tuple(n + 1 for n in range(1, 31))
    # independent set-of-windows oracle at a few lengths
    line = win.line()
    for n in (5, 17, 30):
        brute = {line[t: t + n].tobytes() for t in range(line.size - n + 1)}
        assert len(brute) == n + 1
        assert count_contiguous(win, n) == n + 1


def test_de_bruijn_complexity_doubles():
    win = materialize(SeqSource.de_bruijn(12), (0, (1 << 12) + 12))
    lang = complexity(win, 12)
    assert lang.counts == tuple(2 ** n for n in range(1, 13))


def test_count_contiguous_row_path_matches_wide_path():
    win = materialize(SeqSource.fibonacci(), (0, 3000))
    line = win.line()
    for n in (63, 70):  # beyond the 64-bit packing limit
        brute = {line[t: t + n].tobytes() for t in range(line.size - n + 1)}
        assert count_contiguous(win, n) == len(brute)


def golden_sqrt2_coding():
    from tamelab.torus import GOLDEN, SQRT2_FRAC, SCALE, TorusPoint, RotationSpec, CutPartition
    return SeqSource.sturmian(RotationSpec.circle(GOLDEN, SQRT2_FRAC),
                              CutPartition((0, SCALE - GOLDEN)), TorusPoint.zero())


def test_rank2_box_complexity():
    win = materialize(golden_sqrt2_coding(), ((0, 30), (0, 30)))
    lang = complexity(win, 2)
    # brute force 2x2 boxes
    sym = win.symbols
    boxes = {tuple(sym[i:i + 2, j:j + 2].reshape(-1)) for i in range(29) for j in range(29)}
    assert lang.counts[1] == len(boxes)


def test_projection_identity_and_cube():
    win = materialize(SeqSource.de_bruijn(4), (0, 40))
    A = CoordSet.of([0, 1])
    full = patterns_on(win, A)
    assert np.array_equal(project(full, A).codes, full.codes)
    single = project(full, CoordSet.of([0]))
    assert single.codes.tolist() == [0, 1]


def test_projection_consistency_with_direct_computation():
    win = materialize(SeqSource.fibonacci(), (0, 5000))
    A = CoordSet.of([0, 1, 2])
    sub = CoordSet.of([0, 2])
    shifts = range(0, 4000)
    proj = project(patterns_on(win, A, shifts=shifts), sub)
    direct = patterns_on(win, sub, shifts=shifts)
    assert np.array_equal(proj.codes, direct.codes)


def test_projection_bound_by_hull_complexity():
    win = materialize(SeqSource.fibonacci(), (0, 20_000))
    lang = complexity(win, 40)
    for coords in ([0, 3], [0, 5, 11], [2, 9, 17, 30]):
        A = CoordSet.of(coords)
        assert patterns_on(win, A).count <= lang.p(A.diameter + 1)


def test_shift_invariance_subset_relations():
    win = materialize(SeqSource.fibonacci(), (-5000, 5000))
    A = CoordSet.of([0, 2, 5])
    base = set(patterns_on(win, A, shifts=range(0, 3000)).codes.tolist())
    moved = set(patterns_on(win, A, shifts=range(700, 3700)).codes.tolist())
    both = set(patterns_on(win, A, shifts=range(0, 3700)).codes.tolist())
    assert base <= both and moved <= both


def test_complexity_monotone_and_submultiplicative_on_bundled_sources():
    sources = [
        (SeqSource.fibonacci(), (0, 20_000)),
        (SeqSource.morse(), (0, 20_000)),
        (SeqSource.de_bruijn(8), (0, 4096)),
        (SeqSource.char_halfline(), (-2000, 2000)),
        (SeqSource.concat_nonnull(), (0, 10_000)),
        (SeqSource.ip_indicator(10, 5), (-10_000, 10_000)),
        (SeqSource.random(99), (0, 20_000)),
    ]
    for src, box in sources:
        counts = complexity(materialize(src, box), 12).counts
        assert all(a <= b for a, b in zip(counts, counts[1:])), src.kind
        for n in range(1, 12):
            for m in range(1, 12 - n + 1):
                assert counts[n + m - 1] <= counts[n - 1] * counts[m - 1], src.kind


def test_capacity_and_range_errors():
    win = materialize(SeqSource.de_bruijn(4), (0, 64))
    with pytest.raises(CapacityError):
        patterns_on(win, CoordSet.of(range(25)))
    with pytest.raises(ShiftRangeError):
        patterns_on(win, CoordSet.of([0, 1]), shifts=[100])
    with pytest.raises(ArgumentError):
        project(patterns_on(win, CoordSet.of([0, 1])), CoordSet.of([5]))
    with pytest.raises(ArgumentError):
        CoordSet.of([3, 3])


def test_rank2_box_complexity_on_a_million_cells():
    # p(n) = n(n+1) for the golden x sqrt2 coding of Z^2, on 1000 x 1000
    win = materialize(golden_sqrt2_coding(), ((0, 1000), (0, 1000)))
    assert complexity(win, 8).counts == (2, 6, 12, 20, 30, 42, 56, 72)


def brute_box_counts(symbols, n_max):
    """Distinct n x ... x n boxes, n = 1..n_max, by a set of symbol tuples."""
    counts = []
    for n in range(1, n_max + 1):
        starts = np.ndindex(*(e - n + 1 for e in symbols.shape))
        counts.append(len({symbols[tuple(slice(i, i + n) for i in start)].tobytes()
                           for start in starts}))
    return counts


def kernel_window(symbols, alphabet):
    return SeqWindow((0,) * symbols.ndim, symbols, alphabet, "kernel")


# Low-complexity rows rank pairs without sorting; noise needs the sort and
# soon makes every window distinct, which stops the refinement.
PERIODIC = (np.tile(np.array([0, 1, 1, 0, 2], dtype=np.uint8), 12), 3)
NOISE = (np.random.default_rng(5).integers(0, 5, 60).astype(np.uint8), 5)
NOISE_2D = (np.random.default_rng(6).integers(0, 2, (9, 12)).astype(np.uint8), 2)


@st.composite
def kernel_cases(draw):
    alphabet = draw(st.integers(2, 5))
    rank = draw(st.integers(1, 2))
    shape = ((draw(st.integers(2, 60)),) if rank == 1
             else (draw(st.integers(2, 12)), draw(st.integers(2, 12))))
    return draw(arrays(np.uint8, shape, elements=st.integers(0, alphabet - 1))), alphabet


@settings(max_examples=150, deadline=None)
@given(kernel_cases(), st.data())
@example(PERIODIC, None)
@example(NOISE, None)
@example(NOISE_2D, None)
def test_kernel_matches_brute_force_window_sets(case, data):
    symbols, alphabet = case
    win = kernel_window(symbols, alphabet)
    n_max = min(symbols.shape) - 1
    brute = brute_box_counts(symbols, n_max)
    assert list(complexity(win, n_max).counts) == brute
    if symbols.ndim == 1:
        n = data.draw(st.integers(1, n_max)) if data is not None else n_max
        assert count_contiguous(win, n) == brute[n - 1]


def test_kernel_examples_take_every_branch(monkeypatch):
    taken = []
    pair_classes = language._pair_classes

    def spy(left, n_left, right, n_right):
        taken.append("sort-free" if n_left * n_right <= 2 * left.size else "sort")
        return pair_classes(left, n_left, right, n_right)

    monkeypatch.setattr(language, "_pair_classes", spy)
    for symbols, alphabet in (NOISE, NOISE_2D):
        taken.clear()
        n_max = min(symbols.shape) - 1
        counts = complexity(kernel_window(symbols, alphabet), n_max).counts
        assert set(taken) == {"sort-free", "sort"}
        if symbols.ndim == 1:
            # once every window is distinct, longer ones cost no ranking
            assert counts[-1] == 2 and len(taken) < n_max


def brute_first_shifts(win, A, shifts):
    """{symbol tuple on A + t: smallest t}, reading each cell with value_at."""
    first = {}
    for t in shifts:
        cells = [a + t if win.rank == 1 else tuple(ai + ti for ai, ti in zip(a, t))
                 for a in A.coords]
        pattern = tuple(win.value_at(c) for c in cells)
        first[pattern] = min(first.get(pattern, t), t)
    return first


# (origin, shape, alphabet, coordinates) of one window per rank
RANK_CASES = [
    ((-7,), (90,), 3, [0, 2, 5, 11]),
    ((3, -4), (14, 11), 2, [(0, 0), (0, 3), (2, 1), (5, 0)]),
    ((-1, 2, 0), (6, 7, 8), 2, [(0, 0, 0), (0, 2, 1), (1, 0, 3), (3, 1, 0)]),
]


@pytest.mark.parametrize("origin, shape, alphabet, coords", RANK_CASES)
def test_patterns_on_every_rank_matches_brute_force(origin, shape, alphabet, coords):
    rng = np.random.default_rng(len(shape))
    symbols = rng.integers(0, alphabet, shape).astype(np.uint8)
    win = SeqWindow(origin, symbols, alphabet, "ranks")
    A = CoordSet.of(coords, rank=len(shape))
    diam = (A.diameter,) if win.rank == 1 else A.diameter
    lows = [o - min(A.axis_values(axis)) for axis, o in enumerate(origin)]
    every = list(itertools.product(*(range(lo, lo + e - d)
                                     for lo, e, d in zip(lows, shape, diam))))
    every = [t[0] for t in every] if win.rank == 1 else every
    picked = [every[i] for i in rng.permutation(len(every))[: len(every) // 3]]
    for shifts, expected_count in (("all", len(every)), (picked, len(picked))):
        ps = patterns_on(win, A, shifts=shifts, want_witness=True)
        brute = brute_first_shifts(win, A, every if shifts == "all" else picked)
        assert ps.shift_count == expected_count
        assert {ps.decode(int(c)): ps.witness[int(c)] for c in ps.codes} == brute
    with pytest.raises(DimensionError):
        patterns_on(win, CoordSet.of([0, 1]) if win.rank > 1
                    else CoordSet.of([(0, 0), (0, 1)], rank=2))
