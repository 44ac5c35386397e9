"""Free-set search: certificates, level-wise search, oracle agreement."""

import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from tamelab.errors import ArgumentError, DimensionError
from tamelab.freeset import (
    FreeSearchBudget,
    FreeSetCertificate,
    brute_force_free_oracle,
    is_free,
    max_free_set,
)
from tamelab.language import CoordSet, patterns_on, valid_shift_bounds
from tamelab.sources import SeqSource, SeqWindow, materialize


def explicit(symbols):
    arr = np.asarray(symbols, dtype=np.uint8)
    return materialize(SeqSource.explicit(SeqWindow((0,), arr, 2, "t")),
                       (0, len(symbols)))


def search(win, budget):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return max_free_set(win, budget)


def test_de_bruijn_8_contiguous_window_is_free():
    win = materialize(SeqSource.de_bruijn(8), (0, 300))
    cert = is_free(win, CoordSet.of(range(8)))
    assert cert.is_free and cert.coverage == 1
    assert cert.verify(win)
    assert set(cert.witnesses) == set(range(256))


def test_constant_source_coverage():
    win = explicit([0] * 100)
    cert = is_free(win, CoordSet.of([0, 5, 9]))
    assert cert.coverage == Fraction(1, 8)
    assert cert.witnesses is None


def test_period_two_pool_free_sets_are_singletons():
    win = explicit([0, 1] * 20)
    free = brute_force_free_oracle(win, (0, 1, 2), 3, 40)
    assert [c.coords for c in free] == [(0,), (1,), (2,)]
    # patterns on {0,1} are exactly {01, 10}: no free pair
    result = search(win, FreeSearchBudget(3, (0, 1, 2)))
    assert result.max_free_size == 1


def test_oracle_matches_a_per_shift_enumeration():
    """The oracle lists the subsets whose first ``horizon`` shifts keeping
    the whole set in the window show every pattern, on windows with a
    nonzero origin and horizons shorter than the line."""
    rng = np.random.default_rng(17)
    for i in range(40):
        m, length = 2 + i % 2, int(rng.integers(20, 60))
        origin = int(rng.integers(-30, 30))
        line = rng.integers(0, m, length).astype(np.uint8)
        win = materialize(SeqSource.explicit(SeqWindow((origin,), line, m, "o")),
                          (origin, origin + length))
        pool = sorted(rng.choice(np.arange(origin - 4, origin + length + 4), size=6,
                                 replace=False).tolist())
        horizon = int(rng.integers(4, length))
        expected = []
        for size in range(1, 4):
            for subset in combinations(pool, size):
                shifts = [t for t in range(-200, 200)
                          if all(origin <= a + t < origin + length for a in subset)][:horizon]
                seen = {tuple(int(line[a + t - origin]) for a in subset) for t in shifts}
                if len(seen) == m ** size:
                    expected.append(subset)
        free = brute_force_free_oracle(win, pool, 3, horizon)
        assert [c.coords for c in free] == expected, i


def test_search_matches_oracle_on_random_tiny_instances():
    rng = np.random.default_rng(123)
    for _ in range(30):
        length = int(rng.integers(16, 64))
        win = explicit(rng.integers(0, 2, length))
        pool = tuple(sorted(rng.choice(length, size=int(rng.integers(2, 8)),
                                       replace=False).tolist()))
        oracle_max = max((c.size for c in brute_force_free_oracle(win, pool, 4, 64)),
                         default=0)
        assert search(win, FreeSearchBudget(4, pool, horizon=64)).max_free_size == oracle_max


def test_witnesses_reproduce_patterns():
    win = materialize(SeqSource.ip_indicator(10, 5), (-20000, 20000))
    cert = is_free(win, CoordSet.of([10, 100]))
    assert cert.is_free and cert.verify(win)
    # tampering breaks verification
    bad = FreeSetCertificate(cert.coordset, cert.alphabet_size, cert.horizon,
                             cert.coverage, {0: cert.witnesses[0],
                                             **{k: v + 1 for k, v in cert.witnesses.items() if k}})
    assert not bad.verify(win)


def de_bruijn_8_triple():
    win = materialize(SeqSource.de_bruijn(8), (0, 300))
    cert = is_free(win, CoordSet.of([0, 1, 2]))
    assert cert.is_free and cert.verify(win)
    return win, cert


def test_verify_demands_a_witness_for_every_code():
    """A free certificate missing one code's witness does not verify."""
    win, cert = de_bruijn_8_triple()
    short = {code: shift for code, shift in cert.witnesses.items() if code != 5}
    assert not replace(cert, witnesses=short).verify(win)


def test_verify_demands_witnesses_exactly_at_coverage_1():
    """A free certificate holding no witnesses does not verify, nor does a
    partial one holding some; a partial one holding none does."""
    win, cert = de_bruijn_8_triple()
    assert not replace(cert, witnesses=None).verify(win)
    assert not replace(cert, coverage=Fraction(7, 8)).verify(win)
    assert replace(cert, coverage=Fraction(7, 8), witnesses=None).verify(win)


def test_rank_two_certificate_verifies_and_catches_tampering():
    symbols = np.random.default_rng(8).integers(0, 2, (20, 25)).astype(np.uint8)
    win = SeqWindow((4, -6), symbols, 2, "rank2")
    A = CoordSet.of([(0, 0), (0, 1), (2, 3)], rank=2)
    cert = is_free(win, A)
    assert cert.is_free and len(cert.witnesses) == 8 and cert.verify(win)

    def with_witness(code, shift):
        return FreeSetCertificate(A, 2, cert.horizon, cert.coverage,
                                  {**cert.witnesses, code: shift})

    assert not with_witness(0, cert.witnesses[1]).verify(win)  # shows pattern 1
    assert not with_witness(0, (4 + 20, -6)).verify(win)  # A + t leaves the window
    assert not with_witness(0, (3, -6)).verify(win)
    with pytest.raises(DimensionError):  # rank-2 coordinates on a rank-1 window
        is_free(explicit([0, 1] * 8), A, horizon=4)


def test_downward_closure_of_found_sets():
    win = materialize(SeqSource.de_bruijn(6), (0, 200))
    result = search(win, FreeSearchBudget.interval(0, 7, 5))
    best = result.best.coordset.coords
    assert result.best.is_free
    from itertools import combinations
    for size in range(1, len(best)):
        for sub in combinations(best, size):
            assert is_free(win, CoordSet.of(sub)).is_free


def test_horizon_monotonicity():
    win = materialize(SeqSource.fibonacci(), (0, 5000))
    A = CoordSet.of([0, 2])
    coverages = [is_free(win, A, horizon=h).coverage for h in (4, 16, 64, 256, 2048)]
    assert coverages == sorted(coverages)


def test_certificates_survive_horizon_growth():
    src = SeqSource.de_bruijn(6)
    small = materialize(src, (0, 100))
    cert = is_free(small, CoordSet.of(range(6)))
    assert cert.is_free
    large = materialize(src, (0, 5000))
    assert cert.verify(large)
    assert is_free(large, cert.coordset).is_free


def test_beam_soundness():
    win = materialize(SeqSource.de_bruijn(8), (0, 2000))
    beamed = search(win, FreeSearchBudget.interval(0, 11, 8, beam=3))
    assert beamed.beam_limited
    assert beamed.best.is_free and beamed.best.verify(win)
    exhaustive = search(win, FreeSearchBudget.interval(0, 11, 8))
    assert beamed.max_free_size <= exhaustive.max_free_size


def test_profile_reports_best_coverage_per_size():
    win = materialize(SeqSource.fibonacci(), (0, 20000))
    result = search(win, FreeSearchBudget.interval(0, 99, 4))
    sizes = [entry.size for entry in result.profile]
    assert sizes == [1, 2, 3]  # no free pair joins survive to level 4
    assert result.profile[0].best_coverage == 1
    assert result.profile[1].best_coverage == 1
    assert result.profile[2].best_coverage < 1
    # patterns on any sturmian triple stay below 2*3
    assert result.profile[2].best_coverage <= Fraction(6, 8)


def test_density_profile_ratios():
    win = materialize(SeqSource.de_bruijn(6), (0, 300))
    rows = max_free_set(win, FreeSearchBudget.interval(0, 6, 6)).density_rows()
    by_size = {s: (d, r) for s, d, r in rows}
    assert by_size[6][0] == 5 and by_size[6][1] == 1.0  # contiguous: span ratio 1
    win0 = explicit([0] * 64)
    assert max_free_set(win0, FreeSearchBudget.interval(0, 7, 3)).density_rows() == []


def test_explicit_pool_positioned_search():
    win = materialize(SeqSource.ip_indicator(10, 7), (-1_000_000, 1_000_000))
    result = search(win, FreeSearchBudget(3, (10, 100, 1000)))
    assert result.max_free_size == 3
    assert result.best.coordset.coords == (10, 100, 1000)
    assert result.best.verify(win)


def test_ip_certificate_memory():
    """The ip10 window's set {10, 100, 1000} is certified from its int32
    codes and an eight-slot first-position table: 8 MiB, where
    ``np.unique(return_index=True)`` peaked at 42 MiB."""
    win = materialize(SeqSource.ip_indicator(10, 7), (-1_000_000, 1_000_000))
    tracemalloc.start()
    try:
        cert = is_free(win, CoordSet.of([10, 100, 1000]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.is_free and cert.verify(win)
    assert cert.witnesses == {0: -1_000_010, 1: 90, 2: -90, 3: 1000, 4: -990, 5: 100, 6: 10, 7: 0}
    assert peak < 12 * 2 ** 20, peak


def test_horizon_certificate_memory():
    """A horizon reads the window's first horizon + diameter cells in
    place: 3.6 MiB on a million-cell Fibonacci window, where gathering the
    listed shifts peaked at 41 MiB."""
    win = materialize(SeqSource.fibonacci(), (0, 10 ** 6))
    tracemalloc.start()
    try:
        cert = is_free(win, CoordSet.of([0, 3, 7]), horizon=900_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cert.coverage, cert.horizon, cert.witnesses) == (Fraction(3, 4), 900_000, None)
    assert peak < 8 * 2 ** 20, peak


def test_horizon_certificate_matches_listed_shifts():
    """A certificate at a horizon equals the one built from its listed
    shifts, the first ``horizon`` valid ones, on windows on both sides of
    0 and horizons below, at and past the valid shift count."""
    rng = np.random.default_rng(9)
    for src, box in ((SeqSource.fibonacci(), (-300, 700)), (SeqSource.morse(), (5, 900)),
                     (SeqSource.random(3, 3), (-900, -100)), (SeqSource.de_bruijn(5), (0, 80))):
        win = materialize(src, box)
        for _ in range(40):
            lo = box[0] + int(rng.integers(0, 30))
            A = CoordSet.of((lo + rng.choice(20, rng.integers(1, 5), replace=False)).tolist())
            horizon = int(rng.choice([1, 2, 7, 64, 500, 10 ** 9]))
            (first, last), = valid_shift_bounds(win, A)
            ps = patterns_on(win, A, range(first, min(last, first + horizon - 1) + 1),
                             want_witness=True)
            cert = is_free(win, A, horizon)
            assert cert == FreeSetCertificate(A, ps.alphabet_size, ps.shift_count, ps.coverage,
                                              ps.witness if ps.coverage == 1 else None)
            assert cert.verify(win)


def test_a_pool_tuple_is_explicit_coordinates():
    win = materialize(SeqSource.de_bruijn(8), (0, 300))
    two_points = search(win, FreeSearchBudget(4, (0, 7)))
    assert [(e.size, e.free_count) for e in two_points.profile] == [(1, 2), (2, 1)]
    assert two_points.best.coordset.coords == (0, 7)
    interval = search(win, FreeSearchBudget.interval(0, 7, 4))
    assert interval.max_free_size == 4
    assert interval.profile[0].free_count == 1  # translates counted once


def test_budget_validation():
    win = explicit([0, 1] * 8)
    with pytest.raises(ArgumentError):
        FreeSearchBudget(0, (1, 2))
    with pytest.raises(ArgumentError):
        FreeSearchBudget(2, ())
    with pytest.raises(ArgumentError):
        search(win, FreeSearchBudget(2, (0, 99)))
    with pytest.raises(DimensionError):
        from tamelab.torus import GOLDEN, SQRT2_FRAC, SCALE, TorusPoint, RotationSpec, CutPartition
        src = SeqSource.sturmian(RotationSpec.circle(GOLDEN, SQRT2_FRAC),
                                 CutPartition((0, SCALE - GOLDEN)), TorusPoint.zero())
        search(materialize(src, ((0, 8), (0, 8))), FreeSearchBudget(2, (0, 1)))


def test_a_pool_past_the_window_is_refused_before_it_is_built():
    """The pool's ends are checked first, so a range of 2 * 10**6 points
    reaching past a 40-cell window is never listed."""
    win = materialize(SeqSource.random(1, 3), (0, 40))
    tracemalloc.start()
    try:
        with pytest.raises(ArgumentError, match="pool extends outside the window"):
            max_free_set(win, FreeSearchBudget(2, range(0, 2_000_000)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_oracle_caps():
    win = explicit([0, 1] * 40)
    with pytest.raises(ArgumentError):
        brute_force_free_oracle(win, range(9), 4, 64)
    with pytest.raises(ArgumentError):
        brute_force_free_oracle(win, range(4), 5, 64)
    with pytest.raises(ArgumentError):
        brute_force_free_oracle(win, range(4), 4, 65)
