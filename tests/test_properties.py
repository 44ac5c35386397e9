"""Property suites over randomized instances (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from tamelab.families import FunctionSample, GridCover, epsilon_ns, total_variation
from tamelab.freeset import is_free
from tamelab.language import CoordSet, patterns_on, project
from tamelab.sources import SeqSource, SeqWindow, materialize
from tamelab.torus import (
    MASK,
    SCALE,
    BallRegion,
    CutPartition,
    RotationSpec,
    TorusPoint,
    ball_contains,
    rotate_add,
)

CASES = settings(max_examples=120, deadline=None)


def window_of(bits):
    arr = np.array(bits, dtype=np.uint8)
    return materialize(SeqSource.explicit(SeqWindow((0,), arr, 2, "prop")),
                       (0, len(bits)))


lines = st.lists(st.integers(0, 1), min_size=24, max_size=96)


@CASES
@given(lines, st.data())
def test_projection_consistency(bits, data):
    win = window_of(bits)
    size = data.draw(st.integers(2, 4))
    coords = data.draw(st.lists(st.integers(0, min(len(bits) - 1, 20)),
                                min_size=size, max_size=size, unique=True))
    A = CoordSet.of(coords)
    sub_idx = data.draw(st.lists(st.integers(0, size - 1), min_size=1,
                                 max_size=size, unique=True))
    sub = CoordSet.of([A.coords[i] for i in sub_idx])
    lo = -min(A.coords)
    hi = len(bits) - 1 - max(A.coords)
    shifts = range(lo, hi + 1)
    assert np.array_equal(project(patterns_on(win, A, shifts=shifts), sub).codes,
                          patterns_on(win, sub, shifts=shifts).codes)


@CASES
@given(lines, st.data())
def test_downward_closure(bits, data):
    win = window_of(bits)
    size = data.draw(st.integers(2, 4))
    coords = data.draw(st.lists(st.integers(0, min(len(bits) - 1, 16)),
                                min_size=size, max_size=size, unique=True))
    cert = is_free(win, CoordSet.of(coords))
    if cert.is_free:
        for drop in range(size):
            sub = [c for i, c in enumerate(cert.coordset.coords) if i != drop]
            assert is_free(win, CoordSet.of(sub)).is_free


@CASES
@given(st.integers(0, MASK), st.integers(-4000, 4000), st.integers(1, MASK))
def test_cocycle_identity(z_frac, shift, alpha_frac):
    spec = RotationSpec.circle(alpha_frac)
    part = CutPartition((0, (1 << 127) + 1))
    z = TorusPoint((z_frac,))
    src = SeqSource.sturmian(spec, part, z)
    moved = SeqSource.sturmian(spec, part, rotate_add(z, spec, (shift,)))
    a = materialize(src, (shift, shift + 16)).line()
    b = materialize(moved, (0, 16)).line()
    assert np.array_equal(a, b)


fractions = st.integers(0, MASK)
angles = st.integers(1, MASK)


@CASES
@given(st.integers(1, 3), st.data())
def test_rotation_symbols_are_cells_of_the_orbit(rank, data):
    spec = RotationSpec.circle(*data.draw(st.lists(angles, min_size=rank, max_size=rank)))
    cuts = data.draw(st.sets(angles, min_size=1, max_size=3))
    part = CutPartition((0, *sorted(cuts)))
    z = TorusPoint((data.draw(fractions),))
    box = tuple((lo, lo + data.draw(st.integers(1, 6)))
                for lo in data.draw(st.lists(st.integers(-5000, 5000),
                                             min_size=rank, max_size=rank)))
    win = materialize(SeqSource.sturmian(spec, part, z), box)
    for idx in np.ndindex(*win.extents):
        n = tuple(lo + i for (lo, _), i in zip(box, idx))
        assert win.symbols[idx] == part.cell_of(rotate_add(z, spec, n).coords[0])


@CASES
@given(st.integers(2, 3), st.data())
def test_sphere_symbols_are_ball_membership(dim, data):
    def point(values):
        return TorusPoint(tuple(data.draw(st.lists(values, min_size=dim, max_size=dim))))

    region = BallRegion(point(fractions), data.draw(st.integers(1, SCALE // 2 - 1)))
    spec = RotationSpec((point(angles),))
    z = point(fractions)
    lo = data.draw(st.integers(-5000, 5000))
    win = materialize(SeqSource.sphere(region, spec, z), (lo, lo + data.draw(st.integers(1, 64))))
    for i, symbol in enumerate(win.line()):
        assert symbol == ball_contains(region, rotate_add(z, spec, (lo + i,)))


@CASES
@given(lines, st.data())
def test_witness_soundness(bits, data):
    win = window_of(bits)
    size = data.draw(st.integers(1, 3))
    coords = data.draw(st.lists(st.integers(0, min(len(bits) - 1, 12)),
                                min_size=size, max_size=size, unique=True))
    cert = is_free(win, CoordSet.of(coords))
    assert cert.verify(win)
    if cert.is_free:
        line = win.line()
        for code, shift in cert.witnesses.items():
            assert tuple(int(line[c + shift]) for c in cert.coordset.coords) \
                == tuple((code >> i) & 1 for i in range(size))


@CASES
@given(st.data())
def test_epsilon_ns_monotone(data):
    n_rows = data.draw(st.integers(1, 5))
    n_cols = data.draw(st.integers(4, 24))
    values = np.array(data.draw(st.lists(
        st.lists(st.floats(-8, 8, allow_nan=False), min_size=n_cols, max_size=n_cols),
        min_size=n_rows, max_size=n_rows)))
    fs = FunctionSample(values, labels=tuple(range(n_cols)))
    width = data.draw(st.integers(1, 8))
    cover = GridCover.from_labels(fs.labels, width)
    eps_lo = data.draw(st.floats(0.01, 4))
    eps_hi = eps_lo + data.draw(st.floats(0.01, 8))
    if epsilon_ns(fs, cover, eps_lo)[0]:
        assert epsilon_ns(fs, cover, eps_hi)[0]


@CASES
@given(st.data())
def test_variation_additivity(data):
    n_left = data.draw(st.integers(2, 10))
    n_right = data.draw(st.integers(2, 10))
    values = data.draw(st.lists(st.floats(-5, 5, allow_nan=False),
                                min_size=n_left + n_right,
                                max_size=n_left + n_right))
    positions = list(range(n_left + n_right))
    pts = list(zip(positions, values))
    left, right = pts[:n_left], pts[n_left:]
    junction = abs(right[0][1] - left[-1][1])
    total = total_variation(pts)
    assert total == (total_variation(left) + total_variation(right) + junction) \
        or abs(total - (total_variation(left) + total_variation(right) + junction)) < 1e-9
