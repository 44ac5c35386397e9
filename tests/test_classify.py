"""Evidence reports: flags, projection probes, determinism."""

import sys
from dataclasses import asdict

import numpy as np
import pytest

from tamelab.cli import ExperimentConfig, run
from tamelab.classify import (
    ClassifyParams,
    classify,
    default_projection_families,
    probe_projection_growth,
)
from tamelab.errors import ArgumentError
from tamelab.freeset import FreeSearchBudget, max_free_set
from tamelab.presets import PRESETS
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


_ROTE = ("[source]\nkind = sturmian\nalphas = golden\ncuts = 0,sqrt2_frac\n\n"
         "[window]\nbox = 0:20000\n")


@pytest.mark.parametrize("config, sizes, nonnull", [
    ("[source]\nkind = morse\n\n[window]\nbox = 0:20000\n", (4, 4, 4, 5, 5), True),
    (_ROTE, (2,) * 5, False),
    (PRESETS["sphere2d"], (2,) * 5, False),
], ids=["thue-morse", "rote", "sphere2d"])
def test_theorem_verdicts(config, sizes, nonnull, tmp_path):
    """``tamelab classify`` agrees with theory: Thue-Morse is not null, and
    the Rote coding (one arc of length sqrt2_frac under the golden
    rotation) and the sphere2d ball coding are null and tame, free sets of
    2 at every bracket."""
    assert run("classify", ExperimentConfig.from_text(config), tmp_path) == 0
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("max_free ")] == [
        f"max_free bracket={b} size={s}" for b, s in zip((8, 12, 16, 20, 24), sizes)]
    assert f"flag nonnull_evidence = {nonnull}" in lines
    assert f"flag tame_consistent = {not nonnull}" in lines


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


def test_classify_runs_one_free_set_search(monkeypatch):
    """Every bracket is read from one search, on the widest bracket below
    the window length; a window no bracket fits runs none."""
    budgets = []

    def spy(win, budget):
        budgets.append(budget)
        return max_free_set(win, budget)

    # the package's ``classify`` names the function, so take the module
    monkeypatch.setattr(sys.modules["tamelab.classify"], "max_free_set", spy)
    params = ClassifyParams(entropy_n_max=4, free_brackets=(4, 8, 12, 16, 20), free_max_size=6)
    report = classify(materialize(SeqSource.morse(), (-500, 500)), params)
    assert [b for b, _ in report.max_free_by_bracket] == [4, 8, 12, 16, 20]
    assert budgets == [FreeSearchBudget.interval(-500, -481, 6, beam=params.beam)]
    budgets.clear()
    report = classify(materialize(SeqSource.morse(), (3, 17)), params)
    assert [b for b, _ in report.max_free_by_bracket] == [4, 8, 12]
    assert budgets == [FreeSearchBudget.interval(3, 14, 3, beam=params.beam)]
    budgets.clear()
    report = classify(materialize(SeqSource.morse(), (0, 4)), params)
    assert budgets == []
    assert report.max_free_by_bracket == () and report.density_rows == ()
    assert not report.beam_limited and not report.nonnull_evidence


def _per_bracket_searches(win, params):
    """Bracket sizes and density rows from one unbeamed search per bracket
    below the window length, each size's least diameter kept over all."""
    origin, length = win.origin[0], win.extents[0]
    cap = max(1, int(np.log(length) / np.log(win.alphabet_size)))
    sizes, density = [], {}
    for b in params.free_brackets:
        if b >= length:
            break
        result = max_free_set(win, FreeSearchBudget.interval(
            origin, origin + b - 1, min(params.free_max_size, b, cap)))
        sizes.append((b, result.max_free_size))
        for size, diam, rate in result.density_rows():
            if size not in density or diam < density[size][0]:
                density[size] = (diam, rate)
    return tuple(sizes), tuple((s, d, r) for s, (d, r) in sorted(density.items()))


@pytest.mark.parametrize("name, make", [
    ("noise2", lambda seed: SeqSource.random(seed, 2)),
    ("noise3", lambda seed: SeqSource.random(seed, 3)),
    ("morse", lambda seed: SeqSource.morse()),
    ("fibonacci", lambda seed: SeqSource.fibonacci()),
    ("concat", lambda seed: SeqSource.concat_nonnull()),
    ("halfline", lambda seed: SeqSource.char_halfline()),
])
def test_bracket_sizes_match_direct_searches(name, make):
    """With no beam, the one search's profile gives each bracket the size
    and the least diameters that a search of that bracket alone finds."""
    rng = np.random.default_rng(26)
    params = ClassifyParams(entropy_n_max=6, free_brackets=(4, 8, 12, 16), free_max_size=16,
                            beam=None)
    for seed in range(4):
        lo, length = int(rng.integers(0, 3000)), int(rng.integers(10, 2000))
        if name != "concat":
            lo -= 1500
        win = materialize(make(seed), (lo, lo + length))
        report = classify(win, params)
        assert not report.beam_limited
        assert (report.max_free_by_bracket, report.density_rows) == _per_bracket_searches(
            win, params), (seed, lo, length)


def test_a_beam_cut_is_reported():
    """A beam that cuts the one search leaves exactly counted sizes that
    never fall as the brackets widen and never pass the unbeamed ones, and
    report.txt says the search was cut; report.csv is unchanged in shape."""
    win = materialize(SeqSource.morse(), (0, 20_000))
    cut, whole = classify(win, ClassifyParams(beam=8)), classify(win)
    assert cut.beam_limited and not whole.beam_limited
    sizes = [s for _, s in cut.max_free_by_bracket]
    assert sizes == sorted(sizes)
    assert all(s <= w for s, (_, w) in zip(sizes, whole.max_free_by_bracket))
    assert [s for _, s in whole.max_free_by_bracket] == [4, 4, 4, 5, 5]
    lines = cut.to_text().splitlines()
    at = lines.index("free_search beam_limited = True")
    assert lines[at - 1] == "max_free bracket=24 size=3"
    assert lines[at + 1].startswith("density size=1 ")
    assert not any(line.startswith("free_search") for line in whole.to_text().splitlines())
    assert cut.csv_row_header() == whole.csv_row_header()
    assert cut.to_csv_row().count(",") == whole.to_csv_row().count(",")
