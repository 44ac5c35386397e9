"""Function-family diagnostics: independence, l1, eps-NS, variation."""

import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from tamelab import families, freeset
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
from tamelab.torus import (
    MAX_STEP,
    SCALE,
    SQRT2_FRAC,
    CutPartition,
    RotationSpec,
    TorusPoint,
    rotate_add,
)


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


def first_columns(symbols):
    """The first index of each distinct column, in column order, by a dict."""
    first = {}
    for j, column in enumerate(symbols.T):
        first.setdefault(column.tobytes(), j)
    return list(first.values())


def test_independence_search_matches_brute_force_oracle(monkeypatch):
    """Values sit exactly at the thresholds too, where a member is neither
    low nor high.  The engine's table is the first occurrence of each
    distinct thresholded column, in column order: on the seeded samples, a
    one-row sample, and cube vertices (dim 12) drawn with repeats."""
    tables = []

    class Recorded(freeset._GapEvaluator):
        def __init__(self, table, m):
            tables.append(table)
            super().__init__(table, m)

    monkeypatch.setattr(families, "_GapEvaluator", Recorded)
    a, b = 0.25, 0.75
    samples = []
    for seed in range(60):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 8)), int(rng.integers(1, 240)))
        samples.append((FunctionSample(rng.choice([0.0, a, 0.5, b, 1.0], size=shape,
                                                  p=[0.3, 0.1, 0.1, 0.1, 0.4])),
                        int(rng.integers(2, 6))))
    rng = np.random.default_rng(60)
    samples.append((FunctionSample(rng.choice([0.0, 0.5, 1.0], size=(1, 50))), 2))
    cube = cube_family(12).values
    samples.append((FunctionSample(cube[:, rng.integers(0, cube.shape[1], 6000)]), 5))
    for seed, (fs, max_len) in enumerate(samples):
        tables.clear()
        w = find_independent_subfamily(fs, a, b, max_len)
        expected = oracle_witness(fs, a, b, max_len)
        assert (None if w is None else (w.indices, w.columns)) == expected, seed
        symbols = np.where(fs.values < a, 0, np.where(fs.values > b, 1, 2)).astype(np.uint8)
        assert np.array_equal(tables[0], symbols[:, first_columns(symbols)]), seed


def spy_counts(monkeypatch, calls):
    """Append each engine ``count`` call's row tuples, parent and extension,
    to ``calls``; the returned set gathers the tuples found qualifying, all
    their splits shown."""
    qualifying = set()
    count = freeset._GapEvaluator.count

    def spy(self, parents, parent_of, exts):
        calls.append(np.column_stack((parents[parent_of], exts)).tolist())
        got = count(self, parents, parent_of, exts)
        qualifying.update(t for t, c in zip(map(tuple, calls[-1]), got.tolist())
                          if c == 1 << len(t))
        return got

    monkeypatch.setattr(freeset._GapEvaluator, "count", spy)
    return qualifying


def test_independence_search_stops_at_max_len(monkeypatch):
    """A depth-first search stops at its first witness of length max_len,
    after one engine call per node on its path below that length.  Each
    call counts the extensions of all the node's children, so the counted
    tuples show what the early stop leaves uncounted: 9,460 here, the pairs
    of the 64, 63, 62, 61 and 60 rows qualifying at depths 0 to 4."""

    class Calls(list):
        def append(self, tuples):
            super().append(tuples)
            assert len(self) <= 6, "the search went on past its first full-length witness"

    calls = Calls()
    spy_counts(monkeypatch, calls)
    rng = np.random.default_rng(6)
    fs = FunctionSample(rng.integers(0, 2, (64, 4096)).astype(float))
    w = find_independent_subfamily(fs, 0.25, 0.75, max_len=6)
    assert w.indices == (0, 1, 2, 3, 4, 5) and w.verify(fs)
    assert sum(map(len, calls)) == 9460


def test_independence_search_prunes_nodes_that_cannot_beat_the_best(monkeypatch):
    """A node whose own length plus the qualifying rows after it cannot
    exceed the best length found ends its row loop.  On this family no
    subsequence reaches max_len, so the search is exhaustive up to the
    prune: it made 1,293 engine calls over 21,837 tuples without it, and
    returns the same witness.  A node counts, in one call, indices + (r, e)
    for each child r the prune keeps on entry and each later qualifying
    row e, as independence is hereditary: its hereditary parents
    indices + (r,) and indices + (e,) qualified.  It makes no call when no
    such pair exists.  One call per child, counting that child's
    extensions, took 3,915 calls over 20,255 tuples; counting every later
    row took 26,605 tuples."""
    calls = []
    qualifying = spy_counts(monkeypatch, calls)
    rng = np.random.default_rng(1)
    fs = FunctionSample(rng.integers(0, 2, (24, 48)).astype(float))
    w = find_independent_subfamily(fs, 0.25, 0.75, max_len=6)
    assert w.indices == (1, 4, 16, 17, 18) and w.verify(fs)
    assert [w.columns[mask] for mask in range(32)] == [
        29, 1, 24, 0, 2, 44, 15, 37, 14, 6, 12, 17, 16, 41, 4, 35,
        39, 27, 32, 3, 18, 33, 7, 34, 31, 5, 9, 21, 30, 19, 25, 8]
    assert len(calls) == 993
    assert sum(map(len, calls)) == 20275
    qualifying.update((g,) for g in range(fs.n_members)
                      if (fs.values[g] < 0.25).any() and (fs.values[g] > 0.75).any())
    for tuples in calls:
        assert all(tup[:-2] + tup[-1:] in qualifying for tup in map(tuple, tuples)), tuples


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


def test_l1_empirical_is_the_same_in_blocks(monkeypatch):
    """Sign vectors summed a few rows at a time give the one-matrix value."""
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(40):
        fs = FunctionSample(rng.random((int(rng.integers(3, 9)), int(rng.integers(50, 400)))))
        w = find_independent_subfamily(fs, 0.3, 0.7, max_len=6)
        if w is None:
            continue
        signs = np.where(np.arange(1 << w.length)[:, None] >> np.arange(w.length) & 1,
                         1.0, -1.0)
        whole = float(np.abs(signs @ fs.values[list(w.indices)]).max(axis=1).min()) / w.length
        monkeypatch.setattr(families, "_L1_CELLS", 7 * fs.n_points)
        assert l1_lower_bound(fs, w)[1] == whole
        monkeypatch.undo()
        checked += 1
    assert checked >= 20


def test_l1_empirical_matches_every_sign_vector():
    """Evaluating only the sign vectors with c_0 = +1 gives the value over all 2**m."""
    rng = np.random.default_rng(8)
    for _ in range(30):
        m = int(rng.integers(2, 11))
        values = rng.random((m, (1 << m) + int(rng.integers(0, 1000))))
        masks = np.arange(1 << m)
        high = masks >> np.arange(m)[:, None] & 1 == 1
        values[:, masks] = np.where(high, rng.uniform(0.75, 1.0, high.shape),
                                    rng.uniform(0.0, 0.25, high.shape))
        fs = FunctionSample(values)
        w = IndependenceWitness(0.3, 0.7, tuple(range(m)), {k: k for k in range(1 << m)})
        signs = np.where(high.T, 1.0, -1.0)
        every = float(np.abs(signs @ values).max(axis=1).min()) / m
        assert l1_lower_bound(fs, w) == ((0.7 - 0.3) / 2, every)


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
    # labels are the orbit points z + p*alpha, in the order the points are given
    src = SeqSource.sturmian(RotationSpec.circle(SQRT2_FRAC), CutPartition((0, SCALE // 3)),
                             TorusPoint((SCALE // 7,)))
    points = [40, -3, 7, 1000, 0, 7]
    fs = orbit_family_sample(src, range(2), points)
    assert fs.labels == tuple(rotate_add(src.base_point, src.rotation, (p,)).coords[0] / SCALE
                              for p in points)
    for shift, points in ((1 - MAX_STEP, [MAX_STEP - 1, MAX_STEP]),
                          (MAX_STEP, [-MAX_STEP, 1 - MAX_STEP])):
        with pytest.raises(ArgumentError, match="2\\*\\*40"):
            orbit_family_sample(src, [shift], points)


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


def whole_sample_csv_rows(fs):
    """Every distinct bit pattern of the sample formatted once, as one
    ``np.unique`` over the whole sample."""
    header = ",".join(map(str, fs.labels or range(fs.n_points)))
    keys, inverse = np.unique(fs.values.view(np.uint64), return_inverse=True)
    text = np.array([format(v, ".12g") for v in keys.view(float).tolist()], dtype=object)
    return [header] + [",".join(row) for row in text[inverse.reshape(fs.values.shape)]]


def test_csv_rows_match_whole_sample_formatting():
    """Signed zeros, a cube of 2**16 columns (one row per block), few
    distinct values over many blocks, and all-distinct floats whose texts
    outgrow the kept ones."""
    rng = np.random.default_rng(11)
    dim = 16
    cube = (np.arange(2 ** dim) >> np.arange(dim - 1, -1, -1)[:, None] & 1).astype(float)
    signed = rng.choice([0.0, -0.0, 1.0, -1.0], (300, 700))
    for values in (signed, cube, rng.integers(0, 5, (500, 999)) * 0.1,
                   rng.standard_normal((40, 5000)) * 10.0 ** rng.integers(-20, 20, (40, 5000)),
                   rng.standard_normal((3, 1))):
        fs = FunctionSample(values)
        assert fs.csv_rows() == whole_sample_csv_rows(fs)
    assert FunctionSample(signed).csv_rows()[1].count("-0,") > 0


def test_csv_rows_memory_on_fib100k_sample():
    """fib100k's 64 x 10,000 family is formatted in blocks of rows: 4 MiB,
    where one ``np.unique`` over the whole sample peaked at 25 MiB."""
    fs = orbit_family_sample(SeqSource.fibonacci(), range(64), range(10_000))
    tracemalloc.start()
    try:
        rows = fs.csv_rows()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 65 and rows == whole_sample_csv_rows(fs)
    assert peak < 7 * 2 ** 20, peak


def test_cover_must_partition_columns():
    fs = FunctionSample(np.zeros((2, 5)), labels=(0, 1, 2, 3, 4))
    with pytest.raises(ArgumentError):
        epsilon_ns(fs, GridCover(((0, 1),), ("a",)), 0.5)
