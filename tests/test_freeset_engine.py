"""The free-set engine against direct recounts.

Every level of a search profile is recomputed here candidate by candidate
with ``patterns_on`` over the same shift range, and tiny instances are
checked against the brute-force oracle.  The instances cover both table
constructions: distinct pool-span windows (Sturmian, concatenation, de
Bruijn over several periods) and every shift (seeded noise, de Bruijn
under a short horizon), and both evaluators: the scan
engine on every instance, and the evaluator ``max_free_set`` chooses, which
counts nothing on a full table.  On a full table every subset of the rows
is free, so its free sets are the whole subset lattice: the tests named for
the lattice check that rule.
"""

import hashlib
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from tamelab import freeset, language
from tamelab.errors import ArgumentError
from tamelab.freeset import FreeSearchBudget, brute_force_free_oracle, is_free, max_free_set
from tamelab.language import CoordSet, patterns_on, window_classes
from tamelab.sources import (
    SeqSource,
    SeqWindow,
    concat_block_bounds,
    concat_slot_coordinates,
    materialize,
)
from tamelab.torus import PI_FRAC, CutPartition, RotationSpec, TorusPoint, parse_fraction


def search(win, budget):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return max_free_set(win, budget)


def recount(win, coords, horizon):
    """Patterns on coords over the shifts a search samples, by patterns_on."""
    A = CoordSet.of(coords)
    shifts = "all"
    if horizon is not None:
        lo = win.origin[0] - A.coords[0]
        hi = win.origin[0] + win.extents[0] - 1 - A.coords[-1]
        shifts = range(lo, min(hi, lo + horizon - 1) + 1)
    return patterns_on(win, A, shifts=shifts).count


def reference_profile(win, pool, max_size, horizon, beam=None):
    """(size, best coverage, free count, min free diameter, best set) per level.

    An interval pool is searched up to translation, so its candidates are
    the subsets holding pool[0]; an explicit pool keeps every subset.  A
    candidate of size s joins when all its (s-1)-subsets, translated alike,
    were free.  Once a level holds more free sets than ``beam``, only the
    first ``beam`` in sorted order are kept, and from then on the
    candidates are the unions of kept sets sharing all but their last
    coordinate, with no subset check.
    """
    m = win.alphabet_size
    pool = tuple(sorted(pool))
    interval = pool[-1] - pool[0] + 1 == len(pool)
    base = pool[0]

    def placed(sub):
        return tuple(a - sub[0] + base for a in sub) if interval else sub

    profile, free, truncated = [], None, False
    for s in range(1, max_size + 1):
        if beam is not None and free is not None and len(free) > beam:
            free = set(sorted(free)[:beam])
            truncated = True
        if truncated:
            cands = [a + b[-1:] for a, b in combinations(sorted(free), 2) if a[:-1] == b[:-1]]
        elif interval:
            cands = [(base,) + rest for rest in combinations(pool[1:], s - 1)]
        else:
            cands = list(combinations(pool, s))
        if free is not None and not truncated:
            cands = [c for c in cands
                     if all(placed(sub) in free for sub in combinations(c, s - 1))]
        if not cands:
            break
        counts = {c: recount(win, c, horizon) for c in cands}
        best = max(counts.values())
        free = {c for c in cands if counts[c] == m ** s}
        profile.append((s, Fraction(best, m ** s), len(free),
                        min((c[-1] - c[0] for c in free), default=None),
                        min(c for c in cands if counts[c] == best)))
        if not free:
            break
    return profile


def engine_profile(result):
    return [(p.size, p.best_coverage, p.free_count, p.min_free_diameter,
             p.best_set.coords) for p in result.profile]


def _explicit(symbols):
    line = np.asarray(symbols, dtype=np.uint8)
    return materialize(SeqSource.explicit(SeqWindow((0,), line, 2, "x")), (0, line.size))


def _concat_window(n):
    return materialize(SeqSource.concat_nonnull(), (0, concat_block_bounds(n)[-1][1] + 1))


_SLOT7 = concat_slot_coordinates(7)[0]

# (name, window, pool, max_size, horizon, table): table is "windows" when
# the distinct pool-span windows at least halve the scanned shifts, "shifts"
# when every shift is a row, None when either may apply.
CASES = [
    ("sturmian", lambda: materialize(SeqSource.fibonacci(), (0, 5000)),
     tuple(range(0, 31)), 4, None, "windows"),
    ("sturmian-offset-horizon", lambda: materialize(SeqSource.fibonacci(), (-200, 4800)),
     tuple(range(3, 41)), 4, 700, "windows"),
    ("sturmian-past-end", lambda: materialize(SeqSource.fibonacci(), (0, 300)),
     tuple(range(0, 151)), 3, None, None),
    ("sturmian-explicit-pool", lambda: materialize(SeqSource.fibonacci(), (0, 5000)),
     (2, 5, 11, 19, 30, 44), 4, None, "windows"),
    ("rare-symbol-at-end", lambda: _explicit([0] * 3999 + [1]),
     tuple(range(0, 6)), 3, None, "windows"),
    ("rare-symbol-at-horizon", lambda: _explicit([0] * 99 + [1] + [0] * 300),
     tuple(range(0, 6)), 3, 100, "windows"),
    ("concat", lambda: _concat_window(7),
     tuple(range(_SLOT7, _SLOT7 + 7)), 7, None, "windows"),
    ("noise", lambda: materialize(SeqSource.random(3), (0, 2000)),
     tuple(range(0, 12)), 5, None, "shifts"),
    ("noise-ternary", lambda: materialize(SeqSource.random(5, 3), (0, 1500)),
     tuple(range(0, 8)), 4, None, "shifts"),
    ("noise-explicit-pool", lambda: materialize(SeqSource.random(11), (0, 1200)),
     (0, 1, 4, 9, 16), 4, 900, "shifts"),
    ("noise-past-end", lambda: materialize(SeqSource.random(7), (0, 120)),
     tuple(range(0, 61)), 3, None, "shifts"),
    # 256 first occurrences, all in the first period, at most half the shifts
    ("de-bruijn-periodic", lambda: materialize(SeqSource.de_bruijn(8), (0, 1000)),
     tuple(range(0, 10)), 10, None, "windows"),
    ("de-bruijn-horizon", lambda: materialize(SeqSource.de_bruijn(8), (37, 1037)),
     tuple(range(40, 50)), 5, 100, "shifts"),
    ("de-bruijn-explicit-pool", lambda: materialize(SeqSource.de_bruijn(8), (0, 1000)),
     (1, 2, 4, 8, 9, 12), 5, 600, "windows"),
    ("sturmian-explicit-pool-negative-origin",
     lambda: materialize(SeqSource.fibonacci(), (-300, 4700)),
     (-290, -287, -281, -270, -256, -240), 4, None, "windows"),
    # a horizon shorter than the line: no window runs past its end
    ("sturmian-short-horizon", lambda: materialize(SeqSource.fibonacci(), (0, 5000)),
     tuple(range(0, 31)), 4, 1000, "windows"),
    # one cell past a period: the two padded windows' live parts repeat
    ("de-bruijn-period-padded", lambda: materialize(SeqSource.de_bruijn(8), (0, 257)),
     tuple(range(0, 3)), 3, None, "windows"),
    # placed parents such as (0, 1), (1, 2) and (10, 11) share one gap tuple
    ("noise-explicit-pool-shared-gaps", lambda: materialize(SeqSource.random(3), (0, 2000)),
     (0, 1, 2, 3, 10, 11, 12, 13), 4, None, "shifts"),
    # the whole pool is free, so level 4 is a single row that joins nothing
    ("noise-single-row-level", lambda: materialize(SeqSource.random(8), (0, 91)),
     (1, 3, 8, 11), 5, None, "shifts"),
    # 300 samples of 8 rows, more than the 256 words, of which about 177 show
    ("noise-short-of-full", lambda: materialize(SeqSource.random(3, 2), (0, 400)),
     tuple(range(0, 8)), 5, 300, "shifts"),
]


# the cases whose pool is short enough to enumerate the table's words
SHORT_CASES = [c for c in CASES if c[2][-1] - c[2][0] < 13]


def shows_every_word(table, m):
    """Whether the table holds no non-symbol m and its columns show every
    word of its rows over the alphabet, by brute force."""
    return m not in table and len(set(map(tuple, table.T.tolist()))) == m ** table.shape[0]


def line_tables(monkeypatch, scan=False):
    """Record the arguments and result of each ``_line_table`` call; with
    ``scan``, report every table as not full, so the scan engine counts."""
    calls = []
    line_table = freeset._line_table

    def spy(*args):
        table, windows, full = line_table(*args)
        calls.append((args, table, windows, full))
        return table, windows, full and not scan

    monkeypatch.setattr(freeset, "_line_table", spy)
    return calls


def check_profile(monkeypatch, evaluator, make, pool, max_size, horizon, table):
    """The search's profile against the direct recount, with the scan
    engine, or with the evaluator the search chooses when ``evaluator`` is
    None."""
    win = make()
    if evaluator is None:
        full = brute_full(*search_line_table(monkeypatch, win, pool, horizon))
        evaluator = "full" if full else "scan"
    else:
        line_tables(monkeypatch, scan=True)
    result = search(win, FreeSearchBudget(max_size, pool, horizon))
    assert result.stats["evaluator"] == evaluator
    assert engine_profile(result) == reference_profile(win, pool, max_size, horizon)
    if result.best is not None:
        assert result.best.is_free and result.best.verify(win)
    stats = result.stats
    if table == "windows":
        assert stats["table_rows"] == stats["windows"] and 2 * stats["windows"] <= result.horizon
    elif table == "shifts":
        assert stats["table_rows"] == result.horizon and stats["windows"] is None


@pytest.mark.parametrize("name,make,pool,max_size,horizon,table", CASES,
                         ids=[c[0] for c in CASES])
def test_profile_matches_direct_recount(monkeypatch, name, make, pool, max_size, horizon,
                                        table):
    check_profile(monkeypatch, "scan", make, pool, max_size, horizon, table)


@pytest.mark.parametrize("name,make,pool,max_size,horizon,table", SHORT_CASES,
                         ids=[c[0] for c in SHORT_CASES])
def test_lattice_profile_matches_direct_recount(monkeypatch, name, make, pool, max_size,
                                                horizon, table):
    """With the evaluator ``max_free_set`` chooses: the full-table one
    exactly when the table shows every word."""
    check_profile(monkeypatch, None, make, pool, max_size, horizon, table)


def search_line_table(monkeypatch, win, pool, horizon):
    """The arguments and result of the ``_line_table`` call ``max_free_set``
    makes for a pool."""
    with monkeypatch.context() as patch:
        calls = line_tables(patch)
        search(win, FreeSearchBudget(1, pool, horizon))
    return calls[0]


def search_table(monkeypatch, win, pool, horizon):
    """The table ``max_free_set`` builds for a pool."""
    return search_line_table(monkeypatch, win, pool, horizon)[1]


def brute_full(args, table, windows, full):
    """Whether a ``_line_table`` call's kept windows show every word and no
    non-symbol, by brute force, checked against the call's ``full``.  The
    search's own table agrees whenever it holds no non-symbol, and always
    in the sample form; only a view may hold padded windows whose live
    part repeats, which show nothing new."""
    kept, m = brute_table_columns(*args), args[1]
    expected = shows_every_word(np.array(kept, dtype=np.uint8).T, m)
    assert full == expected
    if windows is not None or m not in table:
        assert shows_every_word(table, m) == expected
    return expected


def non_symbol_table(m, rows=7, n=100):
    """Seeded symbols below m, a fifth of them replaced by the non-symbol m."""
    rng = np.random.default_rng(m)
    table = rng.integers(0, m, (rows, n)).astype(np.uint8)
    table[rng.random((rows, n)) < 0.2] = m
    return table


def extension_tuples(parent, rows):
    """parent + (e,) for each row e after the parent's last, in order."""
    return np.array([parent + (e,) for e in range(parent[-1] + 1, rows)])


def count_tuples(ev, tuples):
    """An evaluator's counts of an (N, s) array of row tuples, each run of
    equal parents (all but the last row) passed as one parent."""
    new = np.ones(len(tuples), dtype=bool)
    new[1:] = (tuples[1:, :-1] != tuples[:-1, :-1]).any(axis=1)
    return ev.count(tuples[new, :-1], np.cumsum(new) - 1, tuples[:, -1])


def random_pairs(rng, rows, size):
    """Seeded ``count`` arguments over a table's rows: each (size - 1)-subset
    of all rows but the last is a parent, in shuffled order; the pairs'
    parent ids are a sorted choice of about half of them, so that from two
    parents on some are in no pair and the ids may skip; each id's
    extensions are a nonempty random set of the rows after its parent's
    last."""
    parents = np.array(list(combinations(range(rows - 1), size - 1)))
    parents = parents[rng.permutation(len(parents))]
    used = np.sort(rng.choice(len(parents), (len(parents) + 1) // 2, replace=False))
    exts = []
    for p in used.tolist():
        later = np.arange(parents[p, -1] + 1, rows)
        pick = rng.random(later.size) < 0.6
        pick[rng.integers(later.size)] = True
        exts.append(later[pick])
    parent_of = np.repeat(used, [e.size for e in exts])
    return parents, parent_of, np.concatenate(exts)


def assert_full_counts_agree(table, m):
    """On a table that shows every word and no non-symbol, the full-table
    evaluator counts every tuple that holds row 0 as the scan engine does,
    one parent's extensions at a time."""
    if not shows_every_word(table, m):
        return
    full, scan, rows = freeset._FullEvaluator(m), freeset._GapEvaluator(table, m), table.shape[0]
    for size in range(rows - 1):
        for rest in combinations(range(1, rows - 1), size):
            tuples = extension_tuples((0,) + rest, rows)
            assert np.array_equal(count_tuples(full, tuples), count_tuples(scan, tuples)), rest


def line_rule(line, m, shifts, width):
    """``_line_table``'s fullness of a line, checked against brute force,
    with the full-table counts checked on its table when it is full."""
    args = (line, m, shifts, width)
    table, windows, full = freeset._line_table(*args)
    brute_full(args, table, windows, full)
    if full:
        assert_full_counts_agree(table, m)
    return full


@pytest.mark.parametrize("name,make,pool,max_size,horizon,table", CASES,
                         ids=[c[0] for c in CASES])
def test_lattice_counts_equal_scan_counts(monkeypatch, name, make, pool, max_size, horizon,
                                          table):
    """On each short case's whole search table and on the first 8 rows of
    every case's: concatenation slots and de Bruijn windows make full
    tables, and a view of every shift is padded with the non-symbol.  The
    first 8 rows show the windows of a pool of span 8, whose fullness the
    same line gives."""
    win = make()
    args, whole, windows, full = search_line_table(monkeypatch, win, pool, horizon)
    brute_full(args, whole, windows, full)
    if name in {c[0] for c in SHORT_CASES}:
        assert_full_counts_agree(whole, win.alphabet_size)
    line, m, shifts, width = args
    first8 = freeset._line_table(line, m, shifts, min(8, width))
    brute_full((line, m, shifts, min(8, width)), *first8)
    assert first8[2] == shows_every_word(whole[:8], m) or m in whole[:8]
    assert_full_counts_agree(whole[:8], m)


def de_bruijn_line(m, order):
    """A line showing every ``order``-word over m symbols exactly once: the
    greedy prefer-largest de Bruijn word, its first order - 1 symbols
    repeated at its end."""
    line, seen = [0] * order, {(0,) * order}
    while True:
        tail = tuple(line[len(line) - order + 1:])
        s = next((s for s in range(m - 1, -1, -1) if tail + (s,) not in seen), None)
        if s is None:
            return np.array(line, dtype=np.uint8)
        seen.add(tail + (s,))
        line.append(s)


@pytest.mark.parametrize("m", [2, 3])
def test_lattice_counts_equal_scan_counts_with_non_symbol(m):
    """A line showing every 4-word is full: in the view of its m**4 shifts,
    read past its end, where its padded windows repeat and show nothing
    new, and in the sample of two periods, whose windows repeat.  A missing
    word makes it a scan table, as does a kept window holding the
    non-symbol: on m >= 2 such a window always leaves a word out, and on
    the alphabet 1 it is the one window of a line shorter than the width."""
    words = de_bruijn_line(m, 4)
    assert words.size == m ** 4 + 3
    twice = np.concatenate([words[:-3], words])
    for line, shifts in ((words, m ** 4), (words, words.size), (twice, 2 * m ** 4)):
        assert line_rule(line, m, shifts, 4)
    table, windows, _ = freeset._line_table(words, m, words.size, 4)
    assert windows is None and m in table  # the view holds its padded windows
    assert freeset._line_table(twice, m, 2 * m ** 4, 4)[1] == m ** 4
    missing = words.copy()
    missing[m ** 4 // 2] = (missing[m ** 4 // 2] + 1) % m
    assert not line_rule(missing, m, m ** 4, 4)
    assert not line_rule(np.array([0] * 20 + [m - 1], dtype=np.uint8), m, 21, 4)
    assert not line_rule(np.random.default_rng(m).integers(0, m, 100).astype(np.uint8), m,
                         100, 7)
    assert line_rule(np.zeros(6, dtype=np.uint8), 1, 3, 4)
    assert not line_rule(np.zeros(3, dtype=np.uint8), 1, 1, 4)


def test_lattice_rule(monkeypatch):
    """``max_free_set`` counts nothing on a full table: every level is
    settled by the full-table evaluator, and no scan engine is built.  It
    is full only when the m**W words are no more than the samples; past
    that it searches with the scan engine.  Fullness comes from the ranking
    in either table form, so a sample past the table budget, read as the
    view, stays full; the scan engine finds the same profile."""
    win = materialize(SeqSource.de_bruijn(8), (0, 1000))  # 256 samples, one per period
    fits = search(win, FreeSearchBudget.interval(0, 7, 4))  # all 2**8 words
    assert fits.stats["evaluator"] == "full"
    assert all(level["by_full"] == level["candidates"] > 0 and level["rows"] == 0
               for level in fits.stats["levels"].values())
    assert search(win, FreeSearchBudget.interval(0, 8, 4)).stats["evaluator"] == "scan"
    sampled = search(win, FreeSearchBudget.interval(0, 3, 4))
    assert sampled.stats["evaluator"] == "full" and sampled.stats["windows"] == 16

    def refuse(*args):
        raise AssertionError("a full table built the scan engine")

    with monkeypatch.context() as patch:
        patch.setattr(freeset, "_GapEvaluator", refuse)
        patch.setattr(freeset, "_TABLE_BYTES", 4 * 16 - 1)
        viewed = search(win, FreeSearchBudget.interval(0, 3, 4))
    assert viewed.stats["evaluator"] == "full" and viewed.stats["windows"] is None
    assert engine_profile(viewed) == engine_profile(sampled)
    with monkeypatch.context() as patch:
        line_tables(patch, scan=True)
        scanned = search(win, FreeSearchBudget.interval(0, 7, 4))
    assert scanned.stats["evaluator"] == "scan"
    assert engine_profile(scanned) == engine_profile(fits)


class _NoPower(int):
    """An alphabet size whose powers fail the test."""

    def __pow__(self, other):
        raise AssertionError(f"m**{other} was built")


def test_lattice_index_is_bounded_on_a_base_1_table():
    """Fullness is never decided with m**W past the kept windows' bit
    length, so a tall table, such as a 1000-point pool's or an alphabet-1
    one, goes to the scan engine without that power; a short alphabet-1
    line without the non-symbol is full.  Deciding a 16-row table of 2**16
    samples from its line allocates little more than its 2**16 cells and
    one block of codes."""
    noise = np.random.default_rng(1000).integers(0, 2, 1999).astype(np.uint8)
    for line, width, shifts in ((np.zeros(1999, dtype=np.uint8), 1000, 1000), (noise, 1000, 1000),
                                (np.zeros(29, dtype=np.uint8), 27, 3)):
        assert not freeset._line_table(line, _NoPower(2), shifts, width)[2]
    assert freeset._line_table(np.zeros(42, dtype=np.uint8), 1, 40, 3)[2]
    ones = freeset._FullEvaluator(1)
    assert count_tuples(ones, np.array([[0, 1], [0, 2], [1, 2]])).tolist() == [1, 1, 1]
    words = de_bruijn_line(2, 16)
    tracemalloc.start()
    try:
        assert freeset._line_table(words, 2, 1 << 16, 16)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 16 + freeset._BATCH_CELLS + (1 << 20)


# (name, window, pool, max_size, horizon, beam): each beam truncates a level
BEAM_CASES = [
    ("noise-interval-beam", lambda: materialize(SeqSource.random(3), (0, 2000)),
     tuple(range(0, 12)), 5, None, 3),
    ("noise-explicit-pool-beam", lambda: materialize(SeqSource.random(13), (0, 1500)),
     (0, 2, 3, 7, 11, 12, 20), 4, None, 4),
    ("noise-explicit-pool-level-1-beam", lambda: materialize(SeqSource.random(5), (0, 1500)),
     (0, 3, 4, 9, 10, 15), 4, None, 2),
    # the beam leaves level 2 one row, which joins nothing: the search
    # ends there, and the flag comes from the level's 6 free sets
    ("golden-interval-beam-1", lambda: materialize(SeqSource.fibonacci(), (0, 20000)),
     tuple(range(0, 10)), 4, None, 1),
]


@pytest.mark.parametrize("name,make,pool,max_size,horizon,beam", BEAM_CASES,
                         ids=[c[0] for c in BEAM_CASES])
def test_beam_limited_profile_matches_direct_recount(name, make, pool, max_size, horizon,
                                                     beam):
    win = make()
    result = search(win, FreeSearchBudget(max_size, pool, horizon, beam))
    assert result.beam_limited
    assert engine_profile(result) == reference_profile(win, pool, max_size, horizon, beam)
    assert engine_profile(result) != reference_profile(win, pool, max_size, horizon)
    if result.best is not None:
        assert result.best.is_free and result.best.verify(win)


@pytest.mark.parametrize("name", ["sturmian-offset-horizon", "sturmian-explicit-pool",
                                  "rare-symbol-at-end", "noise-ternary", "de-bruijn-horizon"])
def test_zero_copy_view_without_bit_table(monkeypatch, name):
    """Past the table budget the engine reads the sliding view of the line
    in line order and settles every candidate by scan epochs; the view
    holds every scanned shift and reports no window count."""
    _, make, pool, max_size, horizon, _ = next(c for c in CASES if c[0] == name)
    monkeypatch.setattr(freeset, "_TABLE_BYTES", 16)
    win = make()
    result = search(win, FreeSearchBudget(max_size, pool, horizon))
    assert engine_profile(result) == reference_profile(win, pool, max_size, horizon)
    assert all(level["by_bits"] == 0 for level in result.stats["levels"].values())
    assert result.stats["windows"] is None
    assert result.stats["table_rows"] == result.horizon


# monkeypatched engine caps: the scan alone; the bit table for pattern
# spaces up to 81, with epochs from one sample on, so that the word ranges
# of neighbouring epochs repeat a word; and the bit table for spaces up to
# 32, with the byte scan above them
ENGINE_PATHS = {"scan": {"_BITSET_SPACE_MAX": 0},
                "bits": {"_QUICK_MAX": 1, "_BITSET_SPACE_MAX": 81},
                "unscanned": {"_BITSET_SPACE_MAX": 32}}


def recount_columns(table, m, tup):
    """Distinct columns of the tuple's rows with no non-symbol m."""
    return len({col for col in zip(*table[list(tup)].tolist()) if m not in col})


def every_word_table(m, rows=7, n=40):
    """Each word of the rows over m symbols as a column, in seeded order,
    repeated to at least n columns."""
    words = np.array(list(product(range(m), repeat=rows)), dtype=np.uint8).T
    words = words[:, np.random.default_rng(m).permutation(words.shape[1])]
    return np.ascontiguousarray(np.tile(words, -(-n // words.shape[1])))


# the non-symbol tables, and full tables without the non-symbol: on the
# alphabet 1, 40 zero columns; on 3 symbols, 5 rows
@pytest.mark.parametrize("m, full", [(2, False), (3, False), (1, False), (1, True), (2, True),
                                     (3, True)],
                         ids=["2", "3", "1", "1-base1", "2-full", "3-full"])
@pytest.mark.parametrize("path", sorted(ENGINE_PATHS))
def test_non_symbol_at_any_digit_is_no_pattern(monkeypatch, path, m, full):
    """A sample where any row of a tuple shows the non-symbol m counts for
    no pattern of that tuple, whichever digit the row is: through one
    ``count`` call per parent's extensions, per level of the tuples
    holding row 0, in lexicographic order or shuffled, and per level of
    random pairs whose parent ids skip parents in no pair, in one block or
    split by a small cell cap.  On a full table the full-table evaluator
    counts those pairs as the recount does."""
    for name, value in ENGINE_PATHS.get(path, {}).items():
        monkeypatch.setattr(freeset, name, value)
    table = every_word_table(m, 5 if m == 3 else 7) if full else non_symbol_table(m)
    rows = table.shape[0]
    rng = np.random.default_rng(rows)
    for cells in (freeset._BATCH_CELLS, 64):
        monkeypatch.setattr(freeset, "_BATCH_CELLS", cells)
        ev = freeset._GapEvaluator(table, m)
        for size in range(2, 5):
            for parent in combinations(range(rows - 1), size - 1):
                tuples = extension_tuples(parent, rows)
                expected = [recount_columns(table, m, tup) for tup in tuples.tolist()]
                assert count_tuples(ev, tuples).tolist() == expected, parent
        for shuffled in (False, True):
            for size in range(2, rows + 1):
                tuples = np.array([(0,) + rest for rest in combinations(range(1, rows), size - 1)])
                if shuffled:
                    tuples = tuples[rng.permutation(len(tuples))]
                expected = [recount_columns(table, m, tup) for tup in tuples.tolist()]
                assert count_tuples(ev, tuples).tolist() == expected, (cells, size, shuffled)
        for size in range(2, rows + 1):
            parents, parent_of, exts = random_pairs(rng, rows, size)
            tuples = np.column_stack((parents[parent_of], exts))
            expected = [recount_columns(table, m, tup) for tup in tuples.tolist()]
            assert ev.count(parents, parent_of, exts).tolist() == expected, (cells, size)
            if full:
                assert freeset._FullEvaluator(m).count(parents, parent_of, exts).tolist() == (
                    expected), size
        # the bits path's bit table takes pattern spaces up to 81, the
        # unscanned path's up to 32, and no byte is scanned for them
        for size, level in ev.levels.items():
            space = m ** size
            if path == "unscanned":
                assert (level["rows"] == 0) == (space <= 32), size
                settled_by = "by_bits" if space <= 32 else "by_scan"
                assert level[settled_by] == level["candidates"], size
            elif path == "scan" or 1 < space <= 81:
                assert level[f"by_{path}"] == level["candidates"], size
            assert level["by_scan"] + level["by_bits"] == level["candidates"]
            assert level["by_full"] == 0


def test_bit_table_settles_small_pattern_spaces_without_a_scan():
    """On binary noise the levels of up to 64 patterns, free after a few
    hundred samples, are settled by the bit table's first epoch with no
    byte scanned; the larger levels are scanned."""
    win = materialize(SeqSource.random(1), (0, 20000))
    levels = search(win, FreeSearchBudget.interval(0, 15, 8)).stats["levels"]
    assert sorted(levels) == list(range(2, 9))
    for size, level in levels.items():
        if 2 ** size <= freeset._BITSET_SPACE_MAX:
            assert level["rows"] == 0 and level["by_bits"] == level["candidates"], size
        else:
            assert level["by_scan"] == level["candidates"], size


def test_bit_epochs_settle_non_free_pairs_as_the_scan_does(monkeypatch):
    """A coding by 3 cuts shows at most d|A| = 6 of the 9 patterns on a pair,
    so its 1,999 pairs (0, g) stay open through the bit epochs over samples
    [0, 1024) and [1024, 4096) and settle at the last.  Their counts equal
    the scan path's and, on a sample of the pairs, those of patterns_on."""
    cuts = CutPartition(tuple(parse_fraction(c) for c in ("0", "0.3", "0.7")))
    src = SeqSource.sturmian(RotationSpec.circle(PI_FRAC), cuts, TorusPoint.zero())
    win = materialize(src, (0, 100000))
    table = search_table(monkeypatch, win, tuple(range(0, 2000)), None)
    n = table.shape[1]
    assert n > 4096
    tuples = np.array([(0, g) for g in range(1, 2000)])
    epochs = []
    settle_bits = freeset._GapEvaluator._settle_bits

    def spy(self, j0, j1, parents, parent_of, exts, live, hits):
        epochs.append((j0, j1, live.size))
        settle_bits(self, j0, j1, parents, parent_of, exts, live, hits)

    with monkeypatch.context() as patch:
        patch.setattr(freeset._GapEvaluator, "_settle_bits", spy)
        ev = freeset._GapEvaluator(table, 3)
        counts = count_tuples(ev, tuples)
    assert epochs == [(0, 1024, 1999), (1024, 4096, 1999), (4096, n, 1999)]
    assert ev.levels[2] == {"candidates": 1999, "rows": 0, "by_scan": 0, "by_bits": 1999,
                            "by_full": 0}
    assert counts.tolist() == [6] * 1999
    monkeypatch.setattr(freeset, "_BITSET_SPACE_MAX", 0)
    scan = freeset._GapEvaluator(table, 3)
    assert np.array_equal(count_tuples(scan, tuples), counts)
    assert scan.levels[2]["by_scan"] == 1999
    for g in range(1, 2000, 37):
        assert patterns_on(win, CoordSet.of([0, g])).count == counts[g - 1], g


def brute_first_occurrences(line, m, width, t):
    """The line's first t + width - 1 cells padded with m, and the first
    positions j < t of their distinct width-windows, less each padded one
    whose live part also starts at an earlier position of the line."""
    live = min(len(line), t + width - 1)
    padded = [int(v) for v in line[:live]] + [m] * (t + width - 1 - live)
    seen, kept = set(), []
    for j in range(t):
        window = tuple(padded[j: j + width])
        if window in seen:
            continue
        seen.add(window)
        tail = padded[j:live]
        if j + width > live and any(padded[f: f + len(tail)] == tail for f in range(j)):
            continue
        kept.append(j)
    return padded, kept


def brute_table_columns(line, m, shifts, width):
    """The table's columns by brute force: the kept first occurrences of the
    padded width-windows over the shifts, in order."""
    padded, kept = brute_first_occurrences(line, m, width, shifts)
    return sorted(tuple(padded[j: j + width]) for j in kept)


_GOLDEN_WORD = [0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0]

# (name, line, alphabet, shifts, width, padded samples the table keeps)
LINE_TABLES = [
    # every tail repeats: only the 101 windows that fit are kept
    ("golden", materialize(SeqSource.fibonacci(), (0, 20000)).line(), 2, 20000, 100, 0),
    # the last symbol occurs nowhere earlier, so no tail repeats
    ("new-symbol-at-end", np.array([0] * 400 + [1], dtype=np.uint8), 2, 401, 6, 5),
    # "1 1" first occurs at the end: the tails holding it stay, "1" repeats
    ("new-pair-at-end", np.array(_GOLDEN_WORD * 10 + [1, 1], dtype=np.uint8), 2, 212, 9, 7),
    # a horizon shorter than the line: nothing is padded
    ("short-horizon", np.array(_GOLDEN_WORD * 10 + [1, 1], dtype=np.uint8), 2, 100, 9, 0),
    # a period below the line: ranking alone keeps one period's windows
    ("de-bruijn-period", materialize(SeqSource.de_bruijn(8), (0, 257)).line(), 2, 257, 3, 0),
    ("periodic-past-end", np.resize(np.array([0, 1, 2, 2, 1], dtype=np.uint8), 300), 3, 300,
     40, 0),
]


@pytest.mark.parametrize("name,line,m,shifts,width,padded", LINE_TABLES,
                         ids=[c[0] for c in LINE_TABLES])
def test_line_table_drops_padded_windows_whose_tail_repeats(name, line, m, shifts, width,
                                                            padded):
    table, n, full = freeset._line_table(line, m, shifts, width)
    expected = brute_table_columns(line, m, shifts, width)
    assert n == len(expected) == table.shape[1]
    assert sorted(map(tuple, table.T.tolist())) == expected
    assert sum(m in column for column in expected) == padded
    brute_full((line, m, shifts, width), table, n, full)


def random_line_table_args():
    """Seeded short lines on 1..3 letters, a third a repeated short block,
    with widths and horizons, on seed 15 every fourth one capped by a
    second draw: ``_line_table``'s arguments, 150 per seed."""
    for seed in (15, 21):
        rng = np.random.default_rng(seed)
        for i in range(150):
            m = int(rng.integers(1, 4))
            line = rng.integers(0, m, int(rng.integers(1, 60))).astype(np.uint8)
            if i % 3 == 0:  # low complexity: a repeated short block
                line = np.resize(line[: int(rng.integers(1, 5))], line.size)
            if seed == 15:
                width = int(rng.integers(1, 12))
                shifts = int(rng.integers(1, line.size + 1))
                if i % 4 == 0:
                    shifts = min(shifts, int(rng.integers(1, line.size + 1)))
            else:
                shifts, width = int(rng.integers(1, line.size + 1)), int(rng.integers(1, 12))
            yield line, m, shifts, width


def test_line_table_matches_brute_force_on_random_lines(monkeypatch):
    """The first occurrences less the padded ones whose tail repeats are the
    table exactly when they at least halve the shifts, and else the table
    is the view of the padded line at every shift; either is full exactly
    when brute force finds every word and no non-symbol among the kept
    windows, and each table ranks the line's windows once."""
    calls = []
    classes = language.window_classes

    def spy(symbols, width):
        calls.append(width)
        return classes(symbols, width)

    monkeypatch.setattr(language, "window_classes", spy)
    for i, args in enumerate(random_line_table_args()):
        line, m, shifts, width = args
        calls.clear()
        table, n, full = freeset._line_table(*args)
        assert calls == [width], i
        padded, kept = brute_first_occurrences(line, m, width, shifts)
        if 2 * len(kept) > shifts:
            assert n is None, i
            assert table.tolist() == [padded[g: g + shifts] for g in range(width)], i
        else:
            assert n == len(kept), i
            assert sorted(map(tuple, table.T.tolist())) == brute_table_columns(*args), i
        brute_full(args, table, n, full)


def full_rule_lines():
    """Seeded lines on 2 or 3 letters: noise, a short block repeated, and
    de Bruijn words, whole or cut short, whose windows past the end repeat
    earlier ones or not; each with a pool width up to its order + 1, half
    the de Bruijn words at their order."""
    rng = np.random.default_rng(25)
    for i in range(90):
        m, kind = int(rng.integers(2, 4)), i % 3
        order = int(rng.integers(2, 6 if m == 2 else 4))
        size = int(rng.integers(8, 120))
        if kind == 0:
            line = rng.integers(0, m, size)
        elif kind == 1:
            line = np.resize(rng.integers(0, m, int(rng.integers(1, 9))), size)
        else:  # whole, or short of its last word or two
            line = de_bruijn_line(m, order)[: size // 40 - 2 or None]
        width = min(int(rng.integers(1, order + 2)), len(line))
        if kind == 2 and i % 2:
            width = order
        yield m, line.astype(np.uint8), width, int(rng.integers(1, len(line) + 1))


def test_full_rule_matches_brute_force_on_searches(monkeypatch):
    """``max_free_set`` answers with the full-table evaluator exactly when
    brute force finds every word and no non-symbol among its table's kept
    windows, with and without a horizon, in views that hold padded windows
    too; a full search's profile is the scan engine's."""
    fulls, padded_views = 0, 0
    for i, (m, line, width, horizon) in enumerate(full_rule_lines()):
        win = materialize(SeqSource.explicit(SeqWindow((0,), line, m, f"f{i}")), (0, line.size))
        for h in (None, horizon):
            budget = FreeSearchBudget.interval(0, width - 1, min(width, 4), h)
            with monkeypatch.context() as patch:
                calls = line_tables(patch)
                result = search(win, budget)
            _, table, windows, _ = calls[0]
            full = brute_full(*calls[0])
            assert result.stats["evaluator"] == ("full" if full else "scan"), (i, h)
            if full:
                fulls += 1
                padded_views += windows is None and m in table
                with monkeypatch.context() as patch:
                    line_tables(patch, scan=True)
                    assert engine_profile(search(win, budget)) == engine_profile(result), (i, h)
    assert 10 < fulls < 170 and padded_views > 0


def test_padded_view_of_every_word_is_full():
    """One de Bruijn period of order 8 and its 7 wrapped symbols: its 263
    shifts run 7 windows past the end, each of whose live part occurs
    earlier, so the kept windows are the 256 words and the view of every
    shift is full, for the de Bruijn source and for its symbols read back
    as an explicit source alike."""
    win = materialize(SeqSource.de_bruijn(8), (0, 263))
    back = materialize(SeqSource.explicit(SeqWindow((0,), win.line().copy(), 2, "db8")),
                       (0, 263))
    budget = FreeSearchBudget.interval(0, 7, 8)
    expected, result = search(win, budget), search(back, budget)
    assert expected.stats["evaluator"] == result.stats["evaluator"] == "full"
    assert result.stats["windows"] is None and result.stats["table_rows"] == 263
    assert result.stats == expected.stats
    assert engine_profile(result) == engine_profile(expected)
    assert result.max_free_size == 8


def test_search_stats_account_for_every_candidate():
    win = materialize(SeqSource.fibonacci(), (0, 20000))
    budget = FreeSearchBudget.interval(0, 99, 4)
    result = search(win, budget)
    assert result.stats == search(win, budget).stats
    # p(100) = 101 for the golden coding; the 99 windows past the end are
    # dropped, as the live part of each occurs earlier in the line
    assert result.stats["windows"] == 101
    assert result.stats["evaluator"] == "scan"  # 2**100 words: far past the full-table rule
    levels = result.stats["levels"]
    assert sorted(levels) == [p.size for p in result.profile[1:]]
    for level in levels.values():
        assert level["by_scan"] + level["by_bits"] + level["by_full"] == level["candidates"]
    assert levels[3]["by_bits"] > 0  # no triple is free: the bit table proves it


def test_engine_agrees_with_brute_force_oracle():
    rng = np.random.default_rng(99)
    for i in range(60):
        length = int(rng.integers(16, 65))
        m = 2 if i % 3 else 3
        line = rng.integers(0, m, length).astype(np.uint8)
        win = materialize(SeqSource.explicit(SeqWindow((0,), line, m, f"e{i}")),
                          (0, length))
        pool = tuple(sorted(rng.choice(length, size=int(rng.integers(2, 9)),
                                       replace=False).tolist()))
        max_size = 4 if m == 2 else 3
        oracle = brute_force_free_oracle(win, pool, max_size, 64)
        result = search(win, FreeSearchBudget(max_size, pool, horizon=64))
        assert result.max_free_size == max((c.size for c in oracle), default=0)
        if pool[-1] - pool[0] + 1 != len(pool):  # explicit pools count every free set
            for entry in result.profile:
                assert entry.free_count == sum(c.size == entry.size for c in oracle)


def test_window_classes_name_equal_windows_equally():
    rng = np.random.default_rng(4)
    for width in (1, 2, 3, 5, 8, 13):
        symbols = rng.integers(0, 2, 200).astype(np.uint8)
        ids = window_classes(symbols, width)
        rows = [tuple(symbols[j:j + width]) for j in range(200 - width + 1)]
        assert ids.size == len(rows)
        for j in range(0, len(rows), 7):
            for k in range(len(rows)):
                assert (ids[j] == ids[k]) == (rows[j] == rows[k])
    with pytest.raises(ArgumentError):
        window_classes(np.zeros(4, dtype=np.uint8), 5)


def test_horizon_on_rank_two_window_is_rejected():
    from tamelab.torus import GOLDEN, SCALE, SQRT2_FRAC, CutPartition, RotationSpec, TorusPoint
    src = SeqSource.sturmian(RotationSpec.circle(GOLDEN, SQRT2_FRAC),
                             CutPartition((0, SCALE - GOLDEN)), TorusPoint.zero())
    win = materialize(src, ((0, 8), (0, 8)))
    A = CoordSet.of([(0, 0), (1, 1)], rank=2)
    assert is_free(win, A).coverage > 0
    with pytest.raises(ArgumentError):
        is_free(win, A, horizon=10)


def test_budget_rejects_a_nonpositive_horizon():
    with pytest.raises(ArgumentError):
        FreeSearchBudget(2, (0, 1), horizon=0)


def test_budget_rejects_a_beam_below_one():
    with pytest.raises(ArgumentError):
        FreeSearchBudget(2, (0, 1), beam=0)


class _HashedEvaluator:
    """Counts that call a gap tuple free by a seeded hash of it, so that
    levels of any shape can be joined and pruned with no window."""

    def __init__(self, seed, percent):
        self.m, self.seed, self.percent = 2, seed, percent
        self.counted = []  # the row tuples of each ``count`` call

    def free(self, gaps):
        digest = hashlib.blake2b(repr((self.seed, gaps)).encode(), digest_size=2).digest()
        return int.from_bytes(digest, "little") % 100 < self.percent

    def count(self, parents, parent_of, exts):
        tuples = np.column_stack((parents[parent_of], exts))
        self.counted.append(tuples)
        space = 2 ** tuples.shape[1]
        return np.array([space if self.free(tuple(t)) else 0 for t in tuples.tolist()])


def apriori_levels(pool, max_size, free):
    """The candidates of each size s >= 2 by set-based apriori-gen: unions of
    two free (s-1)-sets that share all but their last point, each of whose
    (s-1)-subsets is free.  An interval pool keeps the sets holding its
    first point, each subset translated back to it, and its size-2
    candidates are that point with each later one."""
    base = pool[0]
    interval = pool[-1] - base + 1 == len(pool)

    def placed(sub):
        return tuple(a - sub[0] + base for a in sub) if interval else sub

    def is_free(c):
        return free(tuple(a - c[0] for a in c))

    free_sets = {(base,)} if interval else {(p,) for p in pool}
    levels = {}
    for s in range(2, max_size + 1):
        if interval and s == 2:
            cands = {(base, p) for p in pool[1:]} if free_sets else set()
        else:
            cands = {a + b[-1:] for a in free_sets for b in free_sets
                     if a[:-1] == b[:-1] and a[-1] < b[-1]}
            cands = {c for c in cands
                     if all(placed(c[:k] + c[k + 1:]) in free_sets for k in range(s))}
        if not cands:
            break
        levels[s] = cands
        free_sets = {c for c in cands if is_free(c)}
        if not free_sets:
            break
    return levels


def test_join_and_prune_match_set_based_apriori_gen(monkeypatch):
    """On random levels, from hashed freeness, every level's candidates are
    exactly apriori-gen's, for interval pools (whose size-3 prune reads the
    pair without the first point translated back to it) and explicit ones,
    each reaching size 6 on some seed.  ``max_free_set`` reads the levels
    from ``_levels``, here run on the hashed evaluator, and each level is
    checked as yielded and as counted: an interval pool's by the
    evaluator's ``count``, an explicit pool's by ``_count``.  The profile
    that ``max_free_set`` builds from them has their sizes and free
    counts, and no beam flag."""
    win = materialize(SeqSource.random(2), (-100, 200))
    levels, count = freeset._levels, freeset._count
    depths = {"interval": 0, "explicit": 0}
    for seed in range(12):
        rng = np.random.default_rng(seed)
        base = int(rng.integers(-50, 50))
        span = int(rng.integers(8, 15))
        explicit = rng.choice(np.arange(base, base + 3 * span), span, replace=False)
        pools = {"interval": tuple(range(base, base + span)),
                 "explicit": tuple(sorted(explicit.tolist()))}
        for kind, pool in pools.items():
            ev = _HashedEvaluator(seed, 90)
            seen, yielded = {}, {}

            def placed(level):
                return {tuple(pool[0] + int(a) for a in row) for row in level}

            def spy(ev, level):
                seen[level.shape[1]] = placed(level)
                return count(ev, level)

            def hashed_levels(_, pool, budget, singles):
                for level, counts in levels(ev, pool, budget, 2):
                    yielded[level.shape[1]] = placed(level)
                    yield level, counts

            def unchecked(win, A, horizon):  # hashed freeness has no witnesses
                return freeset.FreeSetCertificate(A, 2, 1, Fraction(1))

            with monkeypatch.context() as patch:
                patch.setattr(freeset, "_count", spy)
                patch.setattr(freeset, "_levels", hashed_levels)
                patch.setattr(freeset, "is_free", unchecked)
                patch.setattr(freeset.FreeSetCertificate, "verify", lambda cert, win: True)
                result = max_free_set(win, FreeSearchBudget(6, pool))
            if kind == "interval":
                assert not seen
                seen = {level.shape[1]: placed(level) for level in ev.counted}
            expected = apriori_levels(pool, 6, ev.free)
            assert seen == expected, (seed, kind)
            assert {s: c for s, c in yielded.items() if s > 1} == expected, (seed, kind)
            profile = result.profile
            assert not result.beam_limited and [p.size for p in profile] == [1] + sorted(expected)
            for entry in profile[1:]:
                assert entry.free_count == sum(ev.free(tuple(a - c[0] for a in c))
                                               for c in expected[entry.size])
            depths[kind] = max(depths[kind], max(expected, default=0))
    assert depths == {"interval": 6, "explicit": 6}


@pytest.mark.parametrize("beam", [None, 1, 3])
def test_interval_pool_search_agrees_with_brute_force_oracle(beam):
    """On interval pools the search keeps the sets holding the first point:
    unbeamed, each level's free count is the oracle's count of free sets
    starting there, and the largest free size is the oracle's; with a beam
    the search finds no set the oracle does not.  Either way the profile is
    the direct recount's."""
    rng = np.random.default_rng(41)
    for i in range(40):
        length = int(rng.integers(16, 65))
        m = 2 if i % 3 else 3
        line = rng.integers(0, m, length).astype(np.uint8)
        win = materialize(SeqSource.explicit(SeqWindow((0,), line, m, f"i{i}")),
                          (0, length))
        lo = int(rng.integers(0, length - 8))
        pool = tuple(range(lo, lo + int(rng.integers(3, 9))))
        max_size = 4 if m == 2 else 3
        oracle = brute_force_free_oracle(win, pool, max_size, 64)
        result = search(win, FreeSearchBudget(max_size, pool, horizon=64, beam=beam))
        found = {c.coords for c in oracle}
        if result.best is not None:
            assert result.best.coordset.coords in found and result.best.verify(win)
        if beam is None:
            assert result.max_free_size == max((c.size for c in oracle), default=0)
            for entry in result.profile:
                assert entry.free_count == sum(c.size == entry.size and c.coords[0] == lo
                                               for c in oracle)
        else:
            assert result.max_free_size <= max((c.size for c in oracle), default=0)
        assert engine_profile(result) == reference_profile(win, pool, max_size, 64, beam)


@pytest.mark.parametrize("path", ["bits", "scan"])
def test_pairs_settling_at_different_epochs_leave_the_hit_table(monkeypatch, path):
    """On a zero line, a pair of ones at distance g shows (1, 1) to the gap g
    at that shift, so the pairs (p, g) settle in the epoch holding the
    event for g - p, or at the last.  Settled pairs leave the hit table
    between epochs, so the live pairs are no longer a prefix of the block,
    and their marks still land on them: every count equals patterns_on's."""
    events = {1: 100, 5: 300, 9: 500, 2: 1500, 6: 2000, 10: 2500, 13: 3000,
              3: 5000, 7: 8000, 11: 12000}
    n = 20000
    line = np.zeros(n + 15, dtype=np.uint8)
    for g, q in events.items():
        line[[q, q + g]] = 1
    table = np.lib.stride_tricks.sliding_window_view(line, n)
    tuples = np.array([(p, g) for p in (0, 1) for g in range(p + 1, 16)])
    first = [events.get(g - p) for p, g in tuples.tolist()]
    epochs = [(0, 1024), (1024, 4096), (4096, 16384), (16384, n)]
    # the pairs still live in each epoch: those whose event is not before it
    lives = [[k for k, q in enumerate(first) if q is None or q >= j0] for j0, _ in epochs]
    assert [len(live) for live in lives] == [29, 23, 15, 9]
    if path == "scan":
        monkeypatch.setattr(freeset, "_BITSET_SPACE_MAX", 0)
    seen = []
    settle_bits = freeset._GapEvaluator._settle_bits

    def spy(self, j0, j1, parents, parent_of, exts, live, hits):
        seen.append((j0, j1, live.tolist()))
        settle_bits(self, j0, j1, parents, parent_of, exts, live, hits)

    monkeypatch.setattr(freeset._GapEvaluator, "_settle_bits", spy)
    ev = freeset._GapEvaluator(table, 2)
    counts = count_tuples(ev, tuples)
    win = materialize(SeqSource.explicit(SeqWindow((0,), line, 2, "events")), (0, line.size))
    assert counts.tolist() == [patterns_on(win, CoordSet.of(t), shifts=range(n)).count
                               for t in tuples.tolist()]
    assert counts.tolist() == [3 if q is None else 4 for q in first]
    if path == "bits":
        assert seen == [(j0, j1, live) for (j0, j1), live in zip(epochs, lives)]
        assert ev.levels[2]["by_bits"] == len(tuples) and ev.levels[2]["rows"] == 0
    else:
        assert not seen and ev.levels[2]["by_scan"] == len(tuples)
        assert ev.levels[2]["rows"] == sum(len(live) * (j1 - j0)
                                           for (j0, j1), live in zip(epochs, lives))


def test_fib100k_search_memory():
    """fib100k's level 3 joins 289,941 pairs of its 762 free pairs and keeps
    227,610 triples, none free.  The level is held as int32 index pairs and
    drop ids, and its candidates' points are gathered only once they pass
    the prune, so the search stays well below the 21.8 MiB that int64 rows
    and byte keys for every joined triple took."""
    win = materialize(SeqSource.fibonacci(), (0, 100_000))
    budget = FreeSearchBudget.interval(0, 999, 11)
    tracemalloc.start()
    try:
        result = search(win, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(p.size, p.free_count) for p in result.profile] == [(1, 1), (2, 762), (3, 0)]
    assert result.stats["levels"][3]["candidates"] == 227_610
    assert peak < 17 * 2 ** 20, peak


def test_explicit_pool_counts_each_gap_tuple_once(monkeypatch):
    """An explicit pool's placed candidates that share a gap tuple are
    counted once: on the golden coding over 0:20000 with the pool
    0, 2, ..., 24, level 2 joins 78 candidates of 12 gap tuples, and
    level 3 joins 108 of 26."""
    joined = {}
    count = freeset._count

    def spy(ev, level):
        joined[level.shape[1]] = len(level)
        return count(ev, level)

    monkeypatch.setattr(freeset, "_count", spy)
    result = search(materialize(SeqSource.fibonacci(), (0, 20000)),
                    FreeSearchBudget(4, tuple(range(0, 25, 2))))
    assert joined == {2: 78, 3: 108}
    assert result.stats["levels"][2]["candidates"] == 12
    assert result.stats["levels"][3]["candidates"] == 26
    assert [(p.size, p.free_count, p.best_set.coords) for p in result.profile] == [
        (1, 13, (0,)), (2, 58, (0, 2)), (3, 0, (0, 2, 8))]


def test_false_period_in_meta_changes_nothing():
    """The search reads no ``meta``: a noise window claiming a period of 40
    finds the largest free set of 6 it finds with no claim, over all 2000
    shifts, where a table cut to 40 shifts would miss sets from size 3 on."""
    win = materialize(SeqSource.random(3), (0, 2000))
    budget = FreeSearchBudget.interval(0, 11, 6)
    claimed = search(replace(win, meta={"period": 40}), budget)
    assert [e.free_count for e in claimed.profile] == [1, 11, 55, 165, 330, 462]
    assert claimed.max_free_size == 6 and claimed.horizon == 2000
    plain = search(win, budget)
    assert engine_profile(claimed) == engine_profile(plain)
    assert claimed.best.dump() == plain.best.dump() and claimed.stats == plain.stats


def de_bruijn_agreement_cases():
    """(order, box, pool, max_size, horizon, beam) over orders 3-9: boxes
    from 0 and from a negative origin spanning 1-3 periods, no horizon and
    horizons below and above the period, interval pools narrower than, as
    wide as and wider than the order, an explicit pool wider than it, and
    one beam."""
    for order in range(3, 10):
        period = 1 << order
        for lo, periods in ((0, 1), (-period // 2 - 3, 2), (-period - 5, 3)):
            box = (lo, lo + periods * period + order - 1)
            for horizon in (None, period // 2 + 1, period + order):
                for width in (order - 1, order, order + 2):
                    yield order, box, tuple(range(lo + 2, lo + 2 + width)), 4, horizon, None
                yield order, box, (lo + 1, lo + 2, lo + 4, lo + order + 1), 4, horizon, None
        yield order, (0, 2 * period), tuple(range(0, order + 2)), 5, None, 2


def test_de_bruijn_window_agrees_with_its_symbols_read_back():
    """A de Bruijn window and its symbols as an explicit source give one
    search result: profile, best certificate, horizon and beam flag."""
    for order, box, pool, max_size, horizon, beam in de_bruijn_agreement_cases():
        win = materialize(SeqSource.de_bruijn(order), box)
        back = materialize(SeqSource.explicit(SeqWindow(win.origin, win.symbols, 2, "db")), box)
        budget = FreeSearchBudget(max_size, pool, horizon, beam)
        expected, result = search(win, budget), search(back, budget)
        case = (order, box, pool, horizon, beam)
        assert engine_profile(result) == engine_profile(expected), case
        assert result.best.dump() == expected.best.dump(), case
        assert (result.horizon, result.beam_limited) == (expected.horizon,
                                                          expected.beam_limited), case
