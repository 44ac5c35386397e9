"""Function-family diagnostics: independence, l1, eps-NS, variation."""

from itertools import combinations, product

import numpy as np
import pytest

from tamelab import freeset
from tamelab.errors import ArgumentError, WitnessIntegrityError
from tamelab.families import (
    FunctionSample,
    GridCover,
    IndependenceWitness,
    epsilon_ns,
    find_independent_subfamily,
    l1_lower_bound,
    orbit_family_sample,
    total_variation,
)
from tamelab.sources import SeqSource, materialize


def cube_family(dim=3):
    cols = list(product([0, 1], repeat=dim))
    values = np.array([[c[i] for c in cols] for i in range(dim)], dtype=float)
    return FunctionSample(values)


def test_cube_projections_full_witness():
    fs = cube_family()
    w = find_independent_subfamily(fs, 0.25, 0.75, max_len=3)
    assert w is not None and w.length == 3
    assert w.indices == (0, 1, 2)
    assert w.verify(fs)


def test_constant_family_has_no_witness():
    fs = FunctionSample(np.full((6, 20), 0.5))
    assert find_independent_subfamily(fs, 0.25, 0.75, max_len=4) is None


def test_witness_split_implication_exhaustive_small():
    # all partial disjoint (P, M) pairs are witnessed by the stored columns
    fs = cube_family(4)
    w = find_independent_subfamily(fs, 0.25, 0.75, max_len=4)
    assert w.length == 4
    members = list(range(w.length))
    for p_size in range(0, 5):
        for P in combinations(members, p_size):
            rest = [i for i in members if i not in P]
            for m_size in range(0, len(rest) + 1):
                for M in combinations(rest, m_size):
                    if not P and not M:
                        continue
                    # extend (P, M) to a complementary split; its column works
                    mask = sum(1 << i for i in M)
                    col = w.columns[mask]
                    for i in P:
                        assert fs.values[w.indices[i], col] < w.a
                    for i in M:
                        assert fs.values[w.indices[i], col] > w.b


def oracle_witness(fs, a, b, max_len):
    """(members, {split mask: first column}) of the lexicographically first
    longest independent row subsequence of length 2..max_len, by direct
    enumeration of row combinations; None when there is none."""
    v = fs.values.tolist()
    for length in range(min(max_len, fs.n_members), 1, -1):
        for rows in combinations(range(fs.n_members), length):
            columns = {}
            for mask in range(1 << length):
                columns[mask] = next(
                    (j for j in range(fs.n_points)
                     if all(v[r][j] > b if mask >> i & 1 else v[r][j] < a
                            for i, r in enumerate(rows))), None)
                if columns[mask] is None:
                    break
            else:
                return rows, columns
    return None


def test_independence_search_matches_brute_force_oracle():
    """Values sit exactly at the thresholds too, where a member is neither
    low nor high."""
    a, b = 0.25, 0.75
    for seed in range(60):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 8)), int(rng.integers(1, 240)))
        fs = FunctionSample(rng.choice([0.0, a, 0.5, b, 1.0], size=shape,
                                       p=[0.3, 0.1, 0.1, 0.1, 0.4]))
        max_len = int(rng.integers(2, 6))
        w = find_independent_subfamily(fs, a, b, max_len)
        expected = oracle_witness(fs, a, b, max_len)
        assert (None if w is None else (w.indices, w.columns)) == expected, seed


def test_independence_search_stops_at_max_len(monkeypatch):
    """A depth-first search stops at its first witness of length max_len,
    after one engine call per member below that length."""
    calls = []
    evaluate = freeset._GapEvaluator.evaluate_extensions

    def spy(self, parent, exts):
        calls.append(parent)
        assert len(calls) <= 6, "the search went on past its first full-length witness"
        return evaluate(self, parent, exts)

    monkeypatch.setattr(freeset._GapEvaluator, "evaluate_extensions", spy)
    rng = np.random.default_rng(6)
    fs = FunctionSample(rng.integers(0, 2, (64, 4096)).astype(float))
    w = find_independent_subfamily(fs, 0.25, 0.75, max_len=6)
    assert w.indices == (0, 1, 2, 3, 4, 5) and w.verify(fs)


def test_witness_requires_two_members_and_valid_thresholds():
    with pytest.raises(ArgumentError):
        IndependenceWitness(0.7, 0.2, (0, 1), {0: 0, 1: 0, 2: 0, 3: 0})
    with pytest.raises(ArgumentError):
        IndependenceWitness(0.2, 0.7, (0,), {0: 0, 1: 0})
    with pytest.raises(ArgumentError):
        find_independent_subfamily(cube_family(), 0.75, 0.25)
    for max_len in (-1, 0, 1, 13):  # a witness needs 2 members; depth is capped
        with pytest.raises(ArgumentError):
            find_independent_subfamily(cube_family(), 0.25, 0.75, max_len=max_len)


def test_l1_bound_certified_and_empirical():
    fs = cube_family()
    w = find_independent_subfamily(fs, 0.0, 1.0, max_len=3)
    assert w is None  # strict thresholds: values are exactly 0 and 1
    w = find_independent_subfamily(fs, 0.25, 0.75, max_len=3)
    certified, empirical = l1_lower_bound(fs, w)
    assert certified == 0.25
    # exhaustive eight-sign-vector oracle
    oracle = min(
        max(abs(sum(c * fs.values[i, j] for c, i in zip(signs, w.indices)))
            for j in range(fs.n_points))
        for signs in product([-1, 1], repeat=3)) / 3
    assert empirical == pytest.approx(oracle)
    assert empirical >= certified


def test_l1_rejects_foreign_witness():
    fs = cube_family()
    w = find_independent_subfamily(fs, 0.25, 0.75, max_len=3)
    other = FunctionSample(np.zeros((3, 8)))
    with pytest.raises(WitnessIntegrityError):
        l1_lower_bound(other, w)


def test_sturmian_orbit_family_no_deep_witness():
    fs = orbit_family_sample(SeqSource.fibonacci(), range(16), range(2000))
    w = find_independent_subfamily(fs, 0.25, 0.75, max_len=6)
    assert w is None or w.length < 6


def test_epsilon_ns_constant_and_identity_grid():
    const = FunctionSample(np.full((3, 10), 0.2), labels=tuple(np.arange(10) / 10))
    cover = GridCover.from_labels(const.labels, 0.25)
    assert epsilon_ns(const, cover, 1e-9)[0]
    # identity sampled finely with 0.1-wide cells: oscillation ~ cell width
    xs = np.round(np.arange(0, 1, 0.02), 10)
    ident = FunctionSample(xs[None, :], labels=tuple(xs))
    cover = GridCover.from_labels(ident.labels, 0.1)
    assert epsilon_ns(ident, cover, 0.1)[0] is True
    assert epsilon_ns(ident, cover, 0.05)[0] is False


def test_epsilon_ns_full_shift_translates_sensitive():
    win = materialize(SeqSource.de_bruijn(10), (0, 2048))
    rows = np.stack([win.line()[s: s + 1024] for s in range(8)]).astype(float)
    fs = FunctionSample(rows, labels=tuple(range(1024)))
    cover = GridCover.from_labels(fs.labels, 64)
    hit, _ = epsilon_ns(fs, cover, 0.5)
    assert not hit  # every cell sees both symbols under some translate


def test_epsilon_ns_monotone_in_eps():
    rng = np.random.default_rng(2)
    fs = FunctionSample(rng.normal(size=(5, 40)), labels=tuple(range(40)))
    cover = GridCover.from_labels(fs.labels, 8)
    hits = [epsilon_ns(fs, cover, eps)[0] for eps in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert hits == sorted(hits)


def test_total_variation_examples():
    assert total_variation([(0, 0), (1, 0.2), (2, 0.7), (3, 1.0)]) == pytest.approx(1.0)
    assert total_variation([(0, 0), (0.25, 1), (0.5, 1), (0.75, 0)]) == pytest.approx(2.0)
    with pytest.raises(ArgumentError):
        total_variation([(1, 0), (0, 1)])


def test_partition_cell_indicator_variation():
    # indicator of one interior cell, sampled densely: two unit jumps
    xs = np.arange(0, 1, 0.001)
    vals = ((xs >= 0.25) & (xs < 0.75)).astype(float)
    assert total_variation(list(zip(xs, vals))) == pytest.approx(2.0)
    # cell touching the endpoint at 0: one jump
    vals0 = (xs < 0.4).astype(float)
    assert total_variation(list(zip(xs, vals0))) == pytest.approx(1.0)


def test_orbit_family_matches_materialized_line():
    src = SeqSource.fibonacci()
    fs = orbit_family_sample(src, range(8), range(50))
    win = materialize(src, (0, 60))
    for i in range(8):
        assert np.array_equal(fs.values[i], win.line()[i: i + 50].astype(float))
    assert all(0 <= l < 1 for l in fs.labels)


def test_orbit_rows_have_bounded_variation_on_circle():
    # step observable under rotation: every translate has variation <= 2
    fs = orbit_family_sample(SeqSource.fibonacci(), range(32), range(400))
    labels = np.asarray(fs.labels, dtype=float)
    order = np.argsort(labels)
    for i in range(fs.n_members):
        tv = total_variation(list(zip(labels[order], fs.values[i][order])))
        assert tv <= 2.0


def test_family_csv_round_trip():
    fs = orbit_family_sample(SeqSource.morse(), range(4), range(12))
    back = FunctionSample.from_csv_rows(fs.csv_rows())
    assert np.array_equal(back.values, fs.values)
    # equal values with different bit patterns keep their own text
    signed = FunctionSample(np.array([[0.0, -0.0, 0.1], [-0.0, 1 / 3, 0.0]]))
    assert signed.csv_rows()[1:] == ["0,-0,0.1", "-0,0.333333333333,0"]


def test_cover_must_partition_columns():
    fs = FunctionSample(np.zeros((2, 5)), labels=(0, 1, 2, 3, 4))
    with pytest.raises(ArgumentError):
        epsilon_ns(fs, GridCover(((0, 1),), ("a",)), 0.5)
