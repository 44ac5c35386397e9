"""The free-set engine against direct recounts.

Every level of a search profile is recomputed here candidate by candidate
with ``patterns_on`` over the same shift range, and tiny instances are
checked against the brute-force oracle.  The instances cover both table
constructions: distinct pool-span windows (Sturmian, concatenation) and
every shift (seeded noise, de Bruijn).
"""

import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from tamelab import freeset
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
    ("de-bruijn-periodic", lambda: materialize(SeqSource.de_bruijn(8), (0, 1000)),
     tuple(range(0, 10)), 10, None, "shifts"),
    ("de-bruijn-horizon", lambda: materialize(SeqSource.de_bruijn(8), (37, 1037)),
     tuple(range(40, 50)), 5, 100, "shifts"),
    ("de-bruijn-explicit-pool", lambda: materialize(SeqSource.de_bruijn(8), (0, 1000)),
     (1, 2, 4, 8, 9, 12), 5, 600, "shifts"),
]


@pytest.mark.parametrize("name,make,pool,max_size,horizon,table", CASES,
                         ids=[c[0] for c in CASES])
def test_profile_matches_direct_recount(name, make, pool, max_size, horizon, table):
    win = make()
    result = search(win, FreeSearchBudget(max_size, pool, horizon))
    assert engine_profile(result) == reference_profile(win, pool, max_size, horizon)
    if result.best is not None:
        assert result.best.is_free and result.best.verify(win)
    stats = result.stats
    period = win.meta.get("period")
    scanned = min(result.horizon, period) if period else result.horizon
    if table == "windows":
        assert stats["table_rows"] == stats["windows"] and 2 * stats["windows"] <= scanned
    elif table == "shifts":
        assert stats["table_rows"] == scanned


# (name, window, pool, max_size, horizon, beam): each beam truncates a level
BEAM_CASES = [
    ("noise-interval-beam", lambda: materialize(SeqSource.random(3), (0, 2000)),
     tuple(range(0, 12)), 5, None, 3),
    ("noise-explicit-pool-beam", lambda: materialize(SeqSource.random(13), (0, 1500)),
     (0, 2, 3, 7, 11, 12, 20), 4, None, 4),
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
    in line order and settles every candidate by scan epochs."""
    _, make, pool, max_size, horizon, _ = next(c for c in CASES if c[0] == name)
    monkeypatch.setattr(freeset, "_TABLE_BYTES", 16)
    win = make()
    result = search(win, FreeSearchBudget(max_size, pool, horizon))
    assert engine_profile(result) == reference_profile(win, pool, max_size, horizon)
    assert all(level["by_bits"] == 0 for level in result.stats["levels"].values())


# monkeypatched engine caps: the scan alone, and a one-sample first epoch
# that leaves every candidate to the bit table
ENGINE_PATHS = {"scan": {"_BITSET_SPACE_MAX": 0},
                "bits": {"_QUICK_MAX": 1, "_BITSET_SPACE_MAX": 81}}


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("path", sorted(ENGINE_PATHS))
def test_non_symbol_at_any_digit_is_no_pattern(monkeypatch, path, m):
    """A sample where any row of a tuple shows the non-symbol m counts for
    no pattern of that tuple, whichever digit the row is."""
    for name, value in ENGINE_PATHS[path].items():
        monkeypatch.setattr(freeset, name, value)
    rng = np.random.default_rng(m)
    rows, n = 7, 100
    table = rng.integers(0, m, (rows, n)).astype(np.uint8)
    table[rng.random((rows, n)) < 0.2] = m
    ev = freeset._GapEvaluator(table, m)

    def recount(tup):
        return len({col for col in zip(*table[list(tup)].tolist()) if m not in col})

    for g in range(rows):
        assert ev.singleton_count(g) == recount((g,))
    for size in range(2, 5):
        for parent in combinations(range(rows - 1), size - 1):
            exts = list(range(parent[-1] + 1, rows))
            counts = ev.evaluate_extensions(parent, exts)
            assert counts == {e: recount(parent + (e,)) for e in exts}, parent
    settled_by = "by_scan" if path == "scan" else "by_bits"
    assert all(level[settled_by] == level["candidates"] for level in ev.levels.values())


def test_search_stats_account_for_every_candidate():
    win = materialize(SeqSource.fibonacci(), (0, 20000))
    budget = FreeSearchBudget.interval(0, 99, 4)
    result = search(win, budget)
    assert result.stats == search(win, budget).stats
    # p(100) = 101 for the golden coding, plus the 99 windows past the end
    assert result.stats["windows"] == 101 + 99
    levels = result.stats["levels"]
    assert sorted(levels) == [p.size for p in result.profile[1:]]
    for level in levels.values():
        assert level["by_scan"] + level["by_bits"] == level["candidates"]
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
    # a limit stops the naming once more distinct windows than it are certain
    noise = rng.integers(0, 2, 400).astype(np.uint8)
    assert window_classes(noise, 40, limit=100) is None
    periodic = np.resize(np.array([0, 1, 1], dtype=np.uint8), 400)
    assert np.unique(window_classes(periodic, 40, limit=3)).size == 3


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
