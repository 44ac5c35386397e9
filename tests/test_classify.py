"""Evidence reports: flags, projection probes, determinism."""

from dataclasses import asdict

import numpy as np
import pytest

from tamelab.classify import (
    ClassifyParams,
    classify,
    default_projection_families,
    probe_projection_growth,
)
from tamelab.errors import ArgumentError
from tamelab.sources import SeqSource, SeqWindow, concat_block_bounds, materialize


LIGHT_DB = ClassifyParams(entropy_n_max=16, free_brackets=(4, 8, 12), free_max_size=12,
                          beam=512)


def test_de_bruijn_positive_entropy_evidence():
    report = classify(materialize(SeqSource.de_bruijn(16), (-(1 << 16), 1 << 16)), LIGHT_DB)
    assert report.positive_entropy_evidence
    assert report.nonnull_evidence
    assert not report.tame_consistent
    assert report.entropy_headline == pytest.approx(1.0)


def test_fibonacci_tame_consistent():
    report = classify(materialize(SeqSource.fibonacci(), (-50_000, 50_000)))
    assert report.tame_consistent
    assert not report.nonnull_evidence
    assert not report.positive_entropy_evidence
    assert report.entropy_headline < 0.01
    assert max(s for _, s in report.max_free_by_bracket) == 2


def test_halfline_tame_consistent_small_headline():
    report = classify(materialize(SeqSource.char_halfline(), (-1000, 1000)))
    assert report.tame_consistent
    assert report.entropy_headline < 0.01


def test_concat_nonnull_but_not_positive_entropy():
    end = concat_block_bounds(10)[-1][1]
    report = classify(materialize(SeqSource.concat_nonnull(), (0, end + 1)),
                      ClassifyParams(entropy_n_max=48, free_brackets=(4, 8, 12, 16),
                                     free_max_size=12, beam=1024))
    assert report.nonnull_evidence
    assert not report.positive_entropy_evidence
    assert not report.tame_consistent  # large free sets are present at scale


def test_flag_invariants_across_bundled_sources():
    reports = [
        classify(materialize(SeqSource.de_bruijn(10), (-2048, 2048)), ClassifyParams(
            entropy_n_max=10, free_brackets=(4, 8), free_max_size=8, beam=256)),
        classify(materialize(SeqSource.fibonacci(), (-10_000, 10_000))),
        classify(materialize(SeqSource.char_halfline(), (-1000, 1000))),
        classify(materialize(SeqSource.morse(), (-10_000, 10_000))),
    ]
    for report in reports:
        if report.positive_entropy_evidence:
            assert report.nonnull_evidence
        beaten = any(s > np.log2(d + 1) + 1.0 for s, d, _ in report.density_rows)
        if report.tame_consistent:
            assert not beaten


def test_reports_are_deterministic():
    params = ClassifyParams(entropy_n_max=24, free_brackets=(4, 8), free_max_size=8)
    a = classify(materialize(SeqSource.morse(), (-4096, 4096)), params)
    b = classify(materialize(SeqSource.morse(), (-4096, 4096)), params)
    assert a.to_text() == b.to_text()
    assert a.to_csv_row() == b.to_csv_row()


def test_probe_constant_bounded():
    win = materialize(SeqSource.explicit(
        SeqWindow((0,), np.zeros(512, dtype=np.uint8), 2, "z")), (0, 512))
    probe = probe_projection_growth(win, range(0, 100, 2), 10, "evens")
    assert probe.growth == "bounded"
    assert set(probe.counts) == {1}


def test_probe_de_bruijn_exponential():
    win = materialize(SeqSource.de_bruijn(12), (0, 1 << 13))
    probe = probe_projection_growth(win, range(64), 12, "naturals")
    assert probe.growth == "exponential"
    assert list(probe.counts) == [2 ** (i + 1) for i in range(len(probe.counts))]


def test_probe_halfline_evens_subexponential():
    win = materialize(SeqSource.char_halfline(), (-2000, 2000))
    probe = probe_projection_growth(win, range(0, 200, 2), 12, "evens")
    assert probe.growth in ("bounded", "polynomial")
    # monotone step patterns: count grows by at most one per kept element
    assert all(b - a <= 1 for a, b in zip(probe.counts, probe.counts[1:]))


def test_probe_rejects_decreasing_family():
    win = materialize(SeqSource.morse(), (0, 64))
    with pytest.raises(ArgumentError):
        probe_projection_growth(win, [5, 3, 1], 3)


def test_default_projection_families_fit_window():
    win = materialize(SeqSource.morse(), (0, 100_000))
    fams = default_projection_families(win, 12)
    assert set(fams) == {"evens", "lacunary", "powers10"}
    lo, hi = 0, 99_999
    for coords in fams.values():
        assert all(lo <= c <= hi for c in coords)


def test_default_projection_families_stop_at_the_window_reach():
    """Each family stops at the window's reach, so any prefix past it gives
    the families of a prefix just past it, which the unbounded definition
    gives too."""
    for box in ((0, 2001), (-50, 1000), (7, 12)):
        win = materialize(SeqSource.morse(), box)
        reach = box[1] - 1 - max(box[0], 0)
        start, prefix = max(box[0], 0), reach + 1
        expected = {
            "evens": [start + 2 * i for i in range(4 * prefix) if 2 * i <= reach],
            "lacunary": [start + 2 ** i for i in range(2 * prefix) if 2 ** i <= reach],
            "powers10": [start + 10 ** i for i in range(1, prefix) if 10 ** i <= reach],
        }
        expected = {name: coords for name, coords in expected.items() if len(coords) >= 3}
        assert default_projection_families(win, prefix) == expected, box
        assert default_projection_families(win, 10 ** 6) == expected, box


def test_projection_families_of_a_window_left_of_0():
    """A window wholly before 0 anchors its families at its origin, so it
    gets all three, inside it, as the mirrored window right of 0 does, and
    its report lists a probe of each."""
    left = materialize(SeqSource.morse(), (-6000, -1000))
    right = materialize(SeqSource.morse(), (1000, 6000))
    fams = default_projection_families(left, 12)
    assert set(fams) == {"evens", "lacunary", "powers10"}
    assert all(-6000 <= c < -1000 for coords in fams.values() for c in coords)
    assert fams == {name: [c - 7000 for c in coords]
                    for name, coords in default_projection_families(right, 12).items()}
    params = ClassifyParams(entropy_n_max=4, free_brackets=(4,), free_max_size=2)
    text = classify(left, params).to_text()
    assert [line.split()[1] for line in text.splitlines()
            if line.startswith("projection ")] == ["evens", "lacunary", "powers10"]


def test_report_text_and_csv_shapes():
    report = classify(materialize(SeqSource.char_halfline(), (-1000, 1000)))
    text = report.to_text()
    assert text.startswith("TAMELAB-REPORT v1")
    assert "flag tame_consistent = True" in text
    row = report.to_csv_row()
    assert row.count(",") == report.csv_row_header().count(",")


def test_scale_is_the_params_and_the_window():
    params = ClassifyParams(entropy_n_max=8, free_brackets=(4, 8), free_max_size=4)
    report = classify(materialize(SeqSource.morse(), (-300, 700)), params)
    assert report.scale == {**asdict(params), "window": (-300, 700)}
    assert "scale.window = (-300, 700)" in report.to_text().splitlines()
    assert report.source_digest == SeqSource.morse().digest



@pytest.mark.parametrize("field, value", [
    ("density_threshold", float("nan")),
    ("entropy_threshold", float("inf")),
    ("free_slack", float("nan")),
    ("free_slack", float("-inf")),
    ("free_brackets", (-3, 8)),
    ("free_brackets", (0, 4)),
    ("free_brackets", (8, 8)),
    ("free_brackets", (8, 4)),
    ("free_brackets", (4, 8.0)),
])
def test_params_reject_values_that_void_a_flag(field, value):
    """A non-finite threshold or slack makes its comparison constant, and
    nonnull_evidence reads the brackets as widening pools: each is refused,
    naming its field."""
    with pytest.raises(ArgumentError, match=field):
        ClassifyParams(**{field: value})
