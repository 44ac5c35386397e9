"""Window languages: pattern sets, complexity, projections."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tamelab import freeset, language
from tamelab.errors import ArgumentError, CapacityError, DimensionError, ShiftRangeError
from tamelab.language import (
    CoordSet,
    complexity,
    count_contiguous,
    patterns_on,
    project,
)
from tamelab.sources import SeqSource, SeqWindow, concat_block_bounds, materialize
from tamelab.torus import GOLDEN, SQRT2_FRAC, CutPartition, RotationSpec, TorusPoint


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


def thue_morse_complexity(n: int) -> int:
    """p(n) of the Thue-Morse word (Brlek 1989; de Luca and Varricchio
    1989): 2n for n <= 2, and for n = 2**r + q + 1 with 0 < q <= 2**r,
    3 * 2**r + 4q when 2q <= 2**r, else 4 * 2**r + 2q."""
    if n <= 2:
        return 2 * n
    r = (n - 2).bit_length() - 1
    q = n - 1 - (1 << r)
    return 3 * (1 << r) + 4 * q if 2 * q <= 1 << r else 4 * (1 << r) + 2 * q


@pytest.mark.parametrize("box, n_max", [((0, 65536), 200), ((-5000, 5000), 40)])
def test_thue_morse_complexity_closed_form(box, n_max):
    assert [thue_morse_complexity(n) for n in range(1, 13)] == [
        2, 4, 6, 10, 12, 16, 20, 22, 24, 28, 32, 36]
    lang = complexity(materialize(SeqSource.morse(), box), n_max)
    assert lang.counts == tuple(thue_morse_complexity(n) for n in range(1, n_max + 1))


def test_rote_coding_complexity_2n():
    """One arc of length sqrt(2) - 1, not in Z golden + Z, under the golden
    rotation: p(n) = 2n (Rote 1994)."""
    rote = SeqSource.sturmian(RotationSpec.circle(GOLDEN), CutPartition((0, SQRT2_FRAC)),
                              TorusPoint.zero())
    lang = complexity(materialize(rote, (0, 200_000)), 60)
    assert lang.counts == tuple(2 * n for n in range(1, 61))


def test_concat_complexity_2n_through_the_sort_path(monkeypatch):
    """Block n of the concat source lists every binary word of length n, so
    p(n) = 2**n up to the longest whole block in the window; its padded
    24-windows are too many for the rank table."""
    passes = rank_passes(monkeypatch)
    end = concat_block_bounds(10)[-1][1]
    lang = complexity(materialize(SeqSource.concat_nonnull(), (0, end + 1)), 24)
    assert lang.counts[:10] == tuple(2 ** n for n in range(1, 11))
    assert not all(table for _, table in passes)


def test_halfline_complexity_n_plus_one_through_unranked_doublings(monkeypatch):
    """A window whose two runs are each at least n long shows the n + 1
    words 0^a 1^(n - a); so few names double unranked, and 60-windows take
    fewer rank passes than the seven doubling steps."""
    passes = rank_passes(monkeypatch)
    lang = complexity(materialize(SeqSource.char_halfline(), (-5000, 5000)), 60)
    assert lang.counts == tuple(n + 1 for n in range(1, 61))
    assert len(passes) < 7 and all(table for _, table in passes)


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
    tracemalloc.start()
    try:
        counts = complexity(win, 8).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == (2, 6, 12, 20, 30, 42, 56, 72)
    # one step of int32 ids and their pair keys, not two steps of face classes
    assert peak < 20 * 2 ** 20, peak


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
NOISE_3D = (np.random.default_rng(7).integers(0, 3, (5, 6, 4)).astype(np.uint8), 3)


@st.composite
def kernel_cases(draw):
    alphabet = draw(st.integers(2, 5))
    rank = draw(st.integers(1, 3))
    sides = {1: (2, 60), 2: (2, 12), 3: (2, 6)}[rank]
    shape = tuple(draw(st.integers(*sides)) for _ in range(rank))
    return draw(arrays(np.uint8, shape, elements=st.integers(0, alphabet - 1))), alphabet


@settings(max_examples=150, deadline=None)
@given(kernel_cases(), st.data())
@example(PERIODIC, None)
@example(NOISE, None)
@example(NOISE_2D, None)
@example(NOISE_3D, None)
def test_kernel_matches_brute_force_window_sets(case, data):
    symbols, alphabet = case
    win = kernel_window(symbols, alphabet)
    n_max = min(symbols.shape) - 1
    brute = brute_box_counts(symbols, n_max)
    assert list(complexity(win, n_max).counts) == brute
    if symbols.ndim == 1:
        n = data.draw(st.integers(1, n_max)) if data is not None else n_max
        assert count_contiguous(win, n) == brute[n - 1]


def rank_passes(monkeypatch):
    """Record, per ``_pair_classes`` call, the pairs ranked and whether
    their space fits the rank table (no sort)."""
    passes = []
    pair_classes = language._pair_classes

    def spy(left, n_left, right, n_right):
        passes.append((left.size, n_left * n_right <= 2 * left.size))
        return pair_classes(left, n_left, right, n_right)

    monkeypatch.setattr(language, "_pair_classes", spy)
    return passes


def test_kernel_examples_take_every_branch(monkeypatch):
    passes = rank_passes(monkeypatch)
    for symbols, alphabet in (NOISE, NOISE_2D, NOISE_3D):
        passes.clear()
        n_max = min(symbols.shape) - 1
        counts = complexity(kernel_window(symbols, alphabet), n_max).counts
        assert {table for _, table in passes} == {True, False}
        if symbols.ndim == 1:
            # once every window is distinct, longer ones cost no ranking
            assert counts[-1] == 2 and len(passes) < n_max


def brute_first_shifts(win, A, shifts):
    """{symbol tuple on A + t: smallest t}, reading each cell with value_at."""
    first = {}
    for t in shifts:
        cells = [a + t if win.rank == 1 else tuple(ai + ti for ai, ti in zip(a, t))
                 for a in A.coords]
        pattern = tuple(win.value_at(c) for c in cells)
        first[pattern] = min(first.get(pattern, t), t)
    return first


@pytest.mark.parametrize("origin, shape, alphabet, coords", [
    ((-40,), (3000,), 2, [0, 3, 4, 9]), ((-40,), (3000,), 3, [-2, 0, 5]),
    ((-40,), (3000,), 2, list(range(0, 48, 2))), ((-40,), (3000,), 16, [1, 2, 4, 8, 16, 32]),
    ((3, -4), (30, 41), 2, [(0, 0), (0, 3), (2, -1), (5, 0)]),
    ((-1, 2, 0), (9, 7, 12), 3, [(-1, 0, 2), (0, 2, 1), (1, 0, 3), (3, 1, 0)]),
])
def test_every_shift_equals_the_listed_shift_path(origin, shape, alphabet, coords):
    """Every valid shift of a window of any rank, read from one slice of
    the symbols per coordinate, gives the codes, witnesses and dump of the
    same shifts listed one by one in lexicographic order, up to the
    pattern space's cap of 2**24."""
    rng = np.random.default_rng(alphabet + len(coords))
    win = SeqWindow(origin, rng.integers(0, alphabet, shape).astype(np.uint8), alphabet, "box")
    A = CoordSet.of(coords, rank=len(shape))
    bounds = language.valid_shift_bounds(win, A)
    listed = itertools.product(*(range(lo, hi + 1) for lo, hi in bounds))
    listed = [t[0] for t in listed] if win.rank == 1 else list(listed)
    every = patterns_on(win, A, want_witness=True)
    by_list = patterns_on(win, A, shifts=listed, want_witness=True)
    assert every.codes.dtype == by_list.codes.dtype
    assert np.array_equal(every.codes, by_list.codes)
    assert every.witness == by_list.witness
    desc = " ".join(f"{lo}:{hi}" for lo, hi in bounds)
    assert every.dump() == by_list.dump().replace("shifts = explicit", f"shifts = {desc}")
    assert np.array_equal(patterns_on(win, A).codes, every.codes)


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


def rotation_coding(letters):
    """An irrational rotation coded by ``letters`` intervals of the circle."""
    from tamelab.torus import GOLDEN, SCALE, CutPartition, RotationSpec, TorusPoint
    cuts = (0,) + tuple(SCALE * (2 * i + 1) // (2 * letters + 1) for i in range(1, letters))
    return SeqSource.sturmian(RotationSpec.circle(GOLDEN), CutPartition(cuts),
                              TorusPoint.zero())


def unique_witnesses(win, A, shifts):
    """Codes and their smallest shifts by ``np.unique(return_index=True)``
    over the shifts in lexicographic order."""
    tarr = np.array(shifts, dtype=np.int64).reshape(len(shifts), win.rank)
    tarr = tarr[np.lexsort(tarr.T[::-1])]
    uniq, first = np.unique(language.pattern_codes(win, A, tarr), return_index=True)
    at = tarr[first, 0].tolist() if win.rank == 1 else map(tuple, tarr[first].tolist())
    return uniq.tolist(), dict(zip(uniq.tolist(), at))


# (origin, shape, alphabet, coordinates, whether every valid shift sorts,
# m**|A| > 2 N): tables within a block and past it, 2**20 binary patterns
# over 3,000 shifts, and rank-2 boxes on both branches
WITNESS_CASES = [
    ((-40,), (3000,), 2, [0, 3, 4, 9], False),
    ((7,), (90_000,), 16, [0, 2, 5, 6], False),
    ((-5,), (70_000,), 16, [0, 3, 4, 11], False),
    ((0,), (3019,), 2, list(range(20)), True),
    ((-40,), (3000,), 16, [1, 2, 4, 8], True),
    ((-40,), (3000,), 3, [-2, 0, 5], False),
    ((3, -4), (60, 71), 2, [(0, 0), (0, 3), (2, -1), (5, 0)], False),
    ((3, -4), (60, 71), 4, [(0, 0), (0, 3), (1, 1), (1, 3), (2, -1), (5, 0), (5, 2)], True),
]


@pytest.mark.parametrize("origin, shape, alphabet, coords, sorts", WITNESS_CASES)
def test_witnesses_match_unique_reference(origin, shape, alphabet, coords, sorts,
                                          monkeypatch):
    """An unsorted list of valid shifts with repeats and every valid
    shift (the box path) give the codes and first shifts of
    ``np.unique(return_index=True)``, on the branch the pattern space
    picks, and a projection keeps the witness of its least code."""
    sorted_calls = []
    sort_positions = language._sort_positions

    def spy(keys):
        sorted_calls.append(keys.size)
        return sort_positions(keys)

    monkeypatch.setattr(language, "_sort_positions", spy)
    rng = np.random.default_rng(len(coords) * alphabet)
    win = SeqWindow(origin, rng.integers(0, alphabet, shape).astype(np.uint8), alphabet, "w")
    A = CoordSet.of(coords, rank=len(shape))
    bounds = language.valid_shift_bounds(win, A)
    every = itertools.product(*(range(lo, hi + 1) for lo, hi in bounds))
    every = [t[0] for t in every] if win.rank == 1 else list(every)
    listed = [every[i] for i in rng.integers(0, len(every), len(every) // 2)]
    for shifts, expected in ((listed, listed), ("all", every)):
        sorted_calls.clear()
        ps = patterns_on(win, A, shifts=shifts, want_witness=True)
        codes, witness = unique_witnesses(win, A, expected)
        assert ps.codes.dtype == np.int64 and ps.codes.tolist() == codes
        assert ps.witness == witness
        assert bool(sorted_calls) == (alphabet ** len(coords) > 2 * len(expected))
    assert bool(sorted_calls) == sorts
    # a projected code keeps the witness of the least code it comes from,
    # which shows the projected code at that shift
    sub = CoordSet(A.coords[1::2])
    at = np.array([ps.witness[c] for c in codes], dtype=np.int64).reshape(len(codes), -1)
    uniq, first = np.unique(language.pattern_codes(win, sub, at), return_index=True)
    projected = project(ps, sub)
    assert projected.codes.tolist() == uniq.tolist()
    assert projected.witness == {c: witness[codes[i]] for c, i in zip(uniq.tolist(), first)}


@pytest.mark.parametrize("size, space", [(200_000, 8), (200_000, 1 << 14), (200_000, 7),
                                         (200_000, 300_000), (70_000, 1 << 16),
                                         (3000, 1 << 20), (1, 1)])
def test_first_positions_match_unique(size, space):
    """Both branches; tables within a block, full after one block or
    several, or never full as the codes miss a slot; tables past a block."""
    rng = np.random.default_rng(size + space)
    for dtype in (np.int32, np.int64):
        codes = rng.integers(0, space, size).astype(dtype)
        if space == 7:
            codes[codes == 3] = 4
        uniq, first = language._first_positions(codes, space)
        expected, expected_first = np.unique(codes, return_index=True)
        assert uniq.dtype == np.int64
        assert uniq.tolist() == expected.tolist()
        assert first.tolist() == expected_first.tolist()


def ranking_spy(monkeypatch):
    """Record, per ``window_classes`` call, the row length, the width and
    the number of distinct ids; a call to the free-set table fails."""
    calls = []
    classes = language.window_classes

    def spy(symbols, width):
        ids = classes(symbols, width)
        calls.append((symbols.size, width, np.unique(ids).size))
        return ids

    def no_sample(*args):
        raise AssertionError("rank-1 counts take no sample")

    monkeypatch.setattr(language, "window_classes", spy)
    monkeypatch.setattr(freeset, "_line_table", no_sample)
    return calls


def low_complexity_line(name, length):
    """Lines with few distinct windows: a periodic tile, rotation codings on
    2-4 letters, Thue-Morse and the half-line indicator."""
    if name == "tile":
        return np.resize(np.array([0, 1, 1, 0, 2], dtype=np.uint8), length), 3
    if name.startswith("rotation"):
        m = int(name[-1])
        return materialize(rotation_coding(m), (0, length)).line(), m
    source = SeqSource.morse() if name == "morse" else SeqSource.char_halfline()
    return materialize(source, (-length // 2, length - length // 2)).line(), 2


@pytest.mark.parametrize("name", ["tile", "rotation2", "rotation3", "rotation4", "morse",
                                  "halfline"])
def test_sampled_counts_match_brute_force_window_sets(name, monkeypatch):
    """Every n_max on a short line and every n_max up to 89 on a long one,
    each counted from one ranking of the padded n_max-windows."""
    calls = ranking_spy(monkeypatch)
    for length, top in ((200, 199), (4000, 89)):  # 89 = isqrt(2 * 4000)
        symbols, alphabet = low_complexity_line(name, length)
        data = symbols.tobytes()
        brute = [len({data[j:j + n] for j in range(length - n + 1)})
                 for n in range(1, top + 1)]
        win = kernel_window(symbols, alphabet)
        calls.clear()
        for n_max in range(1, top + 1):
            assert list(complexity(win, n_max).counts) == brute[:n_max], (length, n_max)
        # the distinct padded windows: p(n_max) live ones, n_max - 1 padded
        assert calls == [(length + n - 1, n, brute[n - 1] + n - 1)
                         for n in range(1, top + 1)]


def test_line_counts_rank_the_padded_windows_once(monkeypatch):
    calls = ranking_spy(monkeypatch)
    golden = materialize(SeqSource.fibonacci(), (0, 100_000))
    assert complexity(golden, 200).counts == tuple(range(2, 202))
    random_line = materialize(SeqSource.random(7, 2), (0, 100_000))
    assert count_contiguous(random_line, 20) > 2 ** 16
    de_bruijn = materialize(SeqSource.de_bruijn(12), (0, 1 << 13))
    assert complexity(de_bruijn, 12).counts == tuple(2 ** n for n in range(1, 13))
    assert [size for size, _, _ in calls] == [100_199, 100_019, (1 << 13) + 11]


def sample_table(line, width):
    """The free-set table of a binary line's width-windows over every shift
    when it is the sample of first occurrences, else None."""
    table, windows, _ = freeset._line_table(line, 2, line.size, width)
    return None if windows is None else table


def test_sampler_ranks_low_complexity_lines_without_sorting(monkeypatch):
    """Every doubling step of a low-complexity line ranks without a sort,
    and a noise line takes no sample.  The halving test counts the padded
    positions it keeps."""
    steps = rank_passes(monkeypatch)
    for source, width, sampled in (
            (SeqSource.fibonacci(), 200, True),
            (SeqSource.morse(), 32, True),
            # S holds all 2**16 windows; the 15 padded positions are dropped,
            # as their live parts occur earlier: L / 2 rows
            (SeqSource.de_bruijn(16), 16, True),
            (SeqSource.random(7, 2), 20, False)):
        line = materialize(source, (0, 1 << 17)).line()
        steps.clear()
        rows = sample_table(line, width)
        assert (rows is not None) == sampled, source.kind
        assert steps and all(sort_free for _, sort_free in steps) == sampled, source.kind
        if source.kind == "de_bruijn":
            assert rows.shape[1] == 1 << 16
            assert language._box_counts(line, 2, width) == [2 ** n for n in range(1, 17)]
    # one period shows every window once: S is every unpadded position
    one_period = materialize(SeqSource.de_bruijn(16), (0, (1 << 16) + 15)).line()
    assert sample_table(one_period, 16) is None


def test_first_occurrences_match_brute_force(monkeypatch):
    """``ranked_windows`` pads the line's first count + width - 1 cells with
    m and returns the brute-force first position of each distinct window,
    in lexicographic window order, from one ranking of the padded line."""
    calls = ranking_spy(monkeypatch)
    rng = np.random.default_rng(21)
    for i in range(150):
        m = int(rng.integers(1, 4))
        line = rng.integers(0, m, int(rng.integers(1, 60))).astype(np.uint8)
        if i % 3 == 0:  # low complexity: a repeated short block
            line = np.resize(line[: int(rng.integers(1, 5))], line.size)
        count, width = int(rng.integers(1, line.size + 1)), int(rng.integers(1, 12))
        live = min(line.size, count + width - 1)
        padded = [int(v) for v in line[:live]] + [m] * (count + width - 1 - live)
        first = {}
        for j in range(count):
            first.setdefault(tuple(padded[j: j + width]), j)
        calls.clear()
        got_padded, positions = language.ranked_windows(line, m, width, count)
        assert [width for _, width, _ in calls] == [width], i
        assert got_padded.tolist() == padded, i
        assert positions.tolist() == [first[w] for w in sorted(first)], i


_GOLDEN_WORD =[0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0]


@pytest.mark.parametrize("symbols, top", [([0] * 400 + [1], 16),
                                          (_GOLDEN_WORD * 10 + [1, 1], 8)],
                         ids=["new-symbol-at-end", "new-pair-at-end"])
def test_sampled_counts_keep_padded_tails(symbols, top, monkeypatch):
    """Lines whose padded windows do not all repeat earlier, at every n_max:
    at length n the n - 1 windows past L - n leave the count, and the
    first occurrences keep a padded position."""
    calls = ranking_spy(monkeypatch)
    line = np.array(symbols, dtype=np.uint8)
    data = line.tobytes()
    brute = [len({data[j:j + n] for j in range(line.size - n + 1)}) for n in range(1, top + 1)]
    for n_max in range(1, top + 1):
        assert list(complexity(kernel_window(line, 2), n_max).counts) == brute[:n_max], n_max
    assert [width for _, width, _ in calls] == list(range(1, top + 1))
    monkeypatch.undo()
    assert 2 in sample_table(line, top)  # a kept window past the end holds the non-symbol


def test_ranked_windows_of_preset_lines(monkeypatch):
    """One position per distinct padded window is ranked: the de Bruijn
    line of order 16 shows each 16-word once a period, the golden coding
    shows p(30) = 31 words, and each adds its n_max - 1 padded windows."""
    calls = ranking_spy(monkeypatch)
    de_bruijn = materialize(SeqSource.de_bruijn(16), (0, 1 << 17))
    assert complexity(de_bruijn, 16).counts == tuple(2 ** n for n in range(1, 17))
    golden = materialize(SeqSource.fibonacci(), (0, 100_000))
    assert complexity(golden, 30).counts == tuple(range(2, 32))
    assert [distinct for _, _, distinct in calls] == [(1 << 16) + 15, 31 + 29]


def unique_ranks(left, n_right, right):
    """Dense ranks of the pairs in pair order, by ``np.unique``."""
    keys = left.astype(np.int64) * n_right + right
    uniq, inverse = np.unique(keys, return_inverse=True)
    return inverse.reshape(left.shape), uniq.size


@pytest.mark.parametrize("n_left, n_right, rows, wide", [
    (1000, 1000, 1024, False),          # one packed sort
    (1 << 27, 1 << 27, 1024, True),     # 54 key bits + 10 position bits
    ((1 << 31) - 1, (1 << 31) - 1, 1024, True),
    (70_000, 70_000, 100_000, False),
], ids=["dense-ids", "wide-2^27", "wide-int32", "many-rows"])
def test_pair_classes_sort_path_matches_unique(n_left, n_right, rows, wide):
    """Ranks and counts equal ``np.unique``'s over the whole int32 id range,
    on one packed word per pair or, past 63 bits, in two passes; repeats
    share a rank, and non-contiguous rank-2 slices keep their shape."""
    rng = np.random.default_rng(n_left % 97 + rows)
    for shape in ((rows,), (rows // 32, 32)):
        # few values per side, drawn near both ends of the id range
        left = rng.choice(np.r_[rng.integers(0, n_left, 40), n_left - 1, 0], shape)
        right = rng.choice(np.r_[rng.integers(0, n_right, 40), n_right - 1, 0], shape)
        left, right = left.astype(np.int32), right.astype(np.int32)
        if len(shape) == 2:
            left, right = left[:, 1:], right[:, :-1]
        bits = (n_left * n_right - 1).bit_length() + language._position_bits(left.size)
        assert n_left * n_right > 2 * left.size and (bits > 63) == wide
        ids, count = language._pair_classes(left, n_left, right, n_right)
        expected, expected_count = unique_ranks(left, n_right, right)
        assert ids.dtype == np.int32 and ids.shape == left.shape
        assert count == expected_count and np.array_equal(ids, expected)


def repeat_lines():
    """Lines on 1..16 letters with long repeats: a block copied over the
    line's second half, a short period, and a tail repeating the head."""
    rng = np.random.default_rng(2001)
    for i in range(120):
        m = int(rng.integers(1, 17))
        size = int(rng.integers(2, 120))
        line = rng.integers(0, m, size).astype(np.uint8)
        if i % 3 == 0:
            line = np.resize(line[: int(rng.integers(1, 7))], size)
        elif i % 3 == 1:
            line[size // 2:] = line[: size - size // 2]
        else:
            cut = int(rng.integers(1, size))
            line[cut:] = np.resize(line[: max(1, cut // 2)], size - cut)
        yield line, m


def test_rank1_counts_match_brute_force_on_repeats():
    """p(1..n_max) from one ranking equals the brute-force window sets up
    to n_max = L - 1, where repeats make long common prefixes."""
    for i, (line, m) in enumerate(repeat_lines()):
        data = line.tobytes()
        brute = [len({data[j:j + n] for j in range(line.size - n + 1)})
                 for n in range(1, line.size)]
        n_max = line.size - 1
        assert list(complexity(kernel_window(line, m), n_max).counts) == brute, i
        assert language._line_counts(line, m, max(1, n_max // 2)) == brute[: max(1, n_max // 2)], i


def test_line_counts_memory_on_concat12():
    """The concat12 line at n_max 48 ranks in packed int64 words sorted in
    place, freed before the ranks are built, and compares neighbours in
    bounded blocks: 6.7 MB, where packing into a copy or keeping the words
    peaks above 9 MB."""
    end = concat_block_bounds(12)[-1][1]
    line = materialize(SeqSource.concat_nonnull(), (0, end + 1)).line()
    tracemalloc.start()
    try:
        counts = language._line_counts(line, 2, 48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[:12] == [2 ** n for n in range(1, 13)]
    assert peak < 8 * 2 ** 20, peak


def brute_window_ranks(symbols, width):
    """Each width-window's rank among the distinct ones, in lexicographic
    order, from a set of window bytes."""
    data = symbols.tobytes()
    windows = [data[j:j + width] for j in range(len(data) - width + 1)]
    rank = {window: r for r, window in enumerate(sorted(set(windows)))}
    return [rank[window] for window in windows]


def naming_lines():
    """Lines on 1..6 letters: random, periodic, Sturmian-like (a rotation
    coding on m arcs) and sparse, each with 0..8 copies of the non-symbol
    m appended."""
    rng = np.random.default_rng(2027)
    for i in range(48):
        m, size = int(rng.integers(1, 7)), int(rng.integers(2, 121))
        if i % 4 == 0:
            line = rng.integers(0, m, size)
        elif i % 4 == 1:
            line = np.resize(rng.integers(0, m, int(rng.integers(1, 5))), size)
        elif i % 4 == 2:
            line = (np.arange(size) * rng.random() + rng.random()) % 1 * m
        else:
            line = np.where(rng.random(size) < 0.05, rng.integers(0, m, size), 0)
        line = line.astype(np.uint8)
        yield line, m, np.r_[line, np.full(int(rng.integers(0, 9)), m, np.uint8)]


def test_window_names_match_brute_force_ranks():
    """At every width, ``window_classes`` partitions and orders a padded
    line's windows as the sorted set of their bytes, and ``_line_counts``
    gives the brute-force p(k).  At each doubling length k <= 8 some lines
    have few enough names to double unranked (n**4 <= twice the windows)
    and some too many."""
    sides = set()
    for i, (line, m, padded) in enumerate(naming_lines()):
        for width in range(1, padded.size + 1):
            ids = language.window_classes(padded, width)
            brute = brute_window_ranks(padded, width)
            assert ids.dtype == np.int32
            assert np.unique(ids, return_inverse=True)[1].tolist() == brute, (i, width)
            if width & (width - 1) == 0:
                sides.add((width, (max(brute) + 1) ** 4 <= 2 * len(brute)))
        data = line.tobytes()
        brute_counts = [len({data[j:j + k] for j in range(line.size - k + 1)})
                        for k in range(1, line.size)]
        assert language._line_counts(line, m, line.size - 1) == brute_counts, i
    assert {(k, few) for k in (1, 2, 4, 8) for few in (True, False)} <= sides


def test_golden_line_counts_rank_three_times_in_bounded_memory(monkeypatch):
    """The 10**6-cell golden line at n_max 60 ranks 3 times, where ranking
    every doubling step takes 6, and peaks below 11 MiB: one int32 id
    array and one of keys, with intp indices a block at a time (a third
    line-sized array, a separate rank output or a key array kept past its
    step, reaches 12.5 MiB)."""
    line = materialize(SeqSource.fibonacci(), (0, 10 ** 6)).line()
    passes = rank_passes(monkeypatch)
    assert language._line_counts(line, 2, 60) == list(range(2, 62))
    assert len(passes) <= 3
    monkeypatch.undo()
    tracemalloc.start()
    try:
        language._line_counts(line, 2, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2 ** 20, peak
