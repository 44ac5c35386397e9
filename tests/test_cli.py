"""Command-line harness: configs, artifacts, exit codes, golden file."""

import hashlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamelab.cli import COMMANDS, ExperimentConfig, main, run
from tamelab.freeset import is_free
from tamelab.language import CoordSet, patterns_on
from tamelab.presets import PRESETS
from tamelab.sources import materialize

DATA = Path(__file__).parent / "data"


def run_preset(tmp_path, command, preset, extra=()):
    rc = main([command, "--preset", preset, "--out", str(tmp_path), *extra])
    return rc, tmp_path / f"{preset}-{command}"


def test_generate_matches_committed_golden_file(tmp_path):
    rc, out = run_preset(tmp_path, "generate", "fib64")
    assert rc == 0
    produced = (out / "sequence.seq").read_bytes()
    golden = (DATA / "fibonacci_64.seq").read_bytes()
    assert hashlib.sha256(produced).hexdigest() == hashlib.sha256(golden).hexdigest()


def test_config_round_trip_lossless():
    for name, text in PRESETS.items():
        cfg = ExperimentConfig.from_text(text)
        again = ExperimentConfig.from_text(cfg.to_text())
        assert cfg.sections == again.sections, name
        assert cfg.digest == again.digest


def test_manifest_lists_every_artifact(tmp_path):
    rc, out = run_preset(tmp_path, "complexity", "halfline")
    assert rc == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    listed = {line.split()[-1] for line in manifest if line.startswith("sha256 ")}
    actual = {p.name for p in out.iterdir()} - {"manifest.txt"}
    assert listed == actual
    for line in manifest:
        if line.startswith("sha256 "):
            _, digest, name = line.split()
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_unknown_preset_and_bad_config_exit_codes(tmp_path):
    assert main(["generate", "--preset", "nope", "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[source]\nkind = warp\n\n[window]\nbox = 0:8\n")
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    missing = main(["generate", "--config", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path)])
    assert missing == 4


def test_capacity_error_exit_code(tmp_path):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("[source]\nkind = morse\n\n[window]\nbox = 0:300000000\n")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def test_range_error_exit_code(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("[source]\nkind = morse\n\n[window]\nbox = 0:32\n\n"
                   "[seqentropy]\ncoords = 0,40\n")
    assert main(["seqentropy", "--config", str(cfg), "--out", str(tmp_path)]) == 5


def test_freeset_set_mode_certificate(tmp_path):
    rc, out = run_preset(tmp_path, "freeset", "ip10")
    assert rc == 0
    cert = (out / "certificate.txt").read_text()
    assert "coords = 10,100,1000" in cert
    assert "coverage = 1/1" in cert


def test_classify_format_csv(tmp_path):
    rc, out = run_preset(tmp_path, "classify", "halfline", ("--format", "csv"))
    assert rc == 0
    rows = (out / "report.csv").read_text().splitlines()
    assert rows[0].startswith("source,")
    assert rows[1].endswith("True")  # tame_consistent column


def test_family_orbit_report(tmp_path):
    cfg = tmp_path / "fam.cfg"
    cfg.write_text("""
[source]
kind = sturmian
alphas = golden
cuts = 0,one_minus_golden
base = 0

[window]
box = 0:2000

[family]
mode = orbit
shifts = 0:15
points = 0:999
a = 0.25
b = 0.75
max_len = 4
variation = true
cell_width = 0.05
epsilon = 0.5
""")
    rc = main(["family", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    out = next(tmp_path.glob("*-family"))
    text = (out / "independence.txt").read_text()
    assert "witness = none" in text or "witness_length" in text
    assert "variation_max" in text


def test_project_command_artifacts(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[source]\nkind = de_bruijn\norder = 4\n\n[window]\nbox = 0:64\n\n"
                   "[project]\ncoords = 0,1,2\nsubset = 0,2\n")
    rc = main(["project", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    out = next(tmp_path.glob("*-project"))
    full = (out / "patterns.txt").read_text()
    proj = (out / "projected.txt").read_text()
    assert "count = 8" in full
    assert "count = 4" in proj


def test_run_api_returns_exit_status(tmp_path):
    cfg = ExperimentConfig.from_preset("fib64")
    assert run("generate", cfg, tmp_path / "x") == 0
    assert run("bogus", cfg, tmp_path / "y") == 2


_BASE = {
    "source": {"kind": "sturmian", "alphas": "golden", "cuts": "0,one_minus_golden",
               "base": "0"},
    "window": {"box": "0:64"},
    "seqentropy": {"coords": "0,1,3"},
    "project": {"coords": "0,1,2", "subset": "0,2"},
    "family": {"mode": "orbit", "shifts": "0:3", "points": "0:20", "max_len": "2",
               "cell_width": "0.25"},
    "classify": {"brackets": "4", "max_size": "2", "entropy_n_max": "4"},
}
_IP = {"source": {"kind": "ip_indicator", "base": "10", "exponent_cap": "3"}}
_RANDOM = {"source": {"kind": "random", "seed": "1", "alphabet": "2"}}
_ORACLE = {"freeset": {"oracle_check": "true"}}


@pytest.mark.parametrize("command,section,key,value,extra", [
    ("generate", "source", "base", "x", _IP),
    ("generate", "source", "exponent_cap", "3.5", _IP),
    ("generate", "source", "order", "x8", {"source": {"kind": "de_bruijn", "order": "4"}}),
    ("generate", "source", "seed", "one", _RANDOM),
    ("generate", "source", "alphabet", "two", _RANDOM),
    ("generate", "window", "box", "0-4096", None),
    ("generate", "window", "box", "0:8;0", None),
    ("complexity", "complexity", "n_max", "abc", None),
    ("entropy", "entropy", "n_max", "1.5", None),
    ("seqentropy", "seqentropy", "coords", "0,,3", None),
    ("freeset", "freeset", "set", "1;2", None),
    ("freeset", "freeset", "horizon", "many", None),
    ("freeset", "freeset", "pool", "0:x", None),
    ("freeset", "freeset", "max_size", "big", None),
    ("freeset", "freeset", "beam", "wide", None),
    ("freeset", "freeset", "oracle_instances", "x", _ORACLE),
    ("freeset", "source", "seed", "x", _ORACLE),
    ("project", "project", "coords", "0 1", None),
    ("project", "project", "subset", "", None),
    ("family", "family", "dim", "three", {"family": {"mode": "cube"}}),
    ("family", "family", "shifts", "0:", None),
    ("family", "family", "points", "a:b", None),
    ("family", "family", "a", "quarter", None),
    ("family", "family", "b", "", None),
    ("family", "family", "max_len", "6.0", None),
    ("family", "family", "cell_width", "wide", None),
    ("family", "family", "epsilon", "half", None),
    ("classify", "classify", "window", "0-64", None),
    ("classify", "classify", "entropy_n_max", "x", None),
    ("classify", "classify", "max_size", "x", None),
    ("classify", "classify", "beam", "x", None),
    ("classify", "classify", "prefix", "x", None),
    ("classify", "classify", "density_threshold", "x", None),
    ("classify", "classify", "entropy_threshold", "x", None),
    ("classify", "classify", "free_slack", "x", None),
    ("classify", "classify", "brackets", "4,x", None),
    ("freeset", "freeset", "set", "(0,0);(1)", None),
    ("freeset", "freeset", "set", "(0,0);1,1", None),
    ("project", "project", "coords", "(0,0);(0,x)", None),
    ("project", "project", "subset", "(0,0", None),
])
def test_malformed_config_value_exits_2(tmp_path, capsys, command, section, key, value,
                                        extra):
    """Each parse site turns a malformed value into a config error (exit 2)."""
    sections = {name: dict(items) for name, items in {**_BASE, **(extra or {})}.items()}
    sections.setdefault(section, {})[key] = value
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
                   for name, items in sections.items())
    assert run(command, ExperimentConfig.from_text(text), tmp_path / "out") == 2
    assert f"malformed [{section}] {key} = " in capsys.readouterr().err


def test_negative_cube_dimension_is_a_range_error(tmp_path):
    text = "[source]\nkind = morse\n\n[family]\nmode = cube\ndim = -2\n"
    assert run("family", ExperimentConfig.from_text(text), tmp_path / "out") == 5


def test_rank_one_box_for_a_rank_two_source_is_a_dimension_error(tmp_path):
    text = ("[source]\nkind = sturmian\nalphas = golden,sqrt2_frac\n"
            "cuts = 0,one_minus_golden\n\n[window]\nbox = 0:100\n")
    for command in ("generate", "complexity", "freeset"):
        assert run(command, ExperimentConfig.from_text(text), tmp_path / command) == 5
    # rank-1 coordinates on a rank-2 window: no TypeError, no diagonal read
    square = text.replace("box = 0:100", "box = 0:50;0:50")
    for command, section in (("freeset", "[freeset]\nset = 0,1\n"),
                             ("project", "[project]\ncoords = 0,1,3\nsubset = 0,1\n")):
        config = ExperimentConfig.from_text(square + "\n" + section)
        assert run(command, config, tmp_path / f"{command}-coords") == 5


def test_rank_two_coordinates_through_the_cli(tmp_path):
    """Rank-k coordinate sets are written as CoordSet prints them."""
    text = ("[source]\nkind = sturmian\nalphas = golden,sqrt2_frac\n"
            "cuts = 0,one_minus_golden\n\n[window]\nbox = 0:50;0:50\n\n"
            "[project]\ncoords = (0,0);(0,1);(1,0)\nsubset = (0,0);(1,0)\n\n"
            "[freeset]\nset = (0,0);(1,1)\n")
    config = ExperimentConfig.from_text(text)
    win = materialize(config.source(), config.window_box())
    assert run("project", config, tmp_path / "project") == 0
    full = patterns_on(win, CoordSet.of([(0, 0), (0, 1), (1, 0)], rank=2), want_witness=True)
    assert (tmp_path / "project" / "patterns.txt").read_text() == full.dump()
    assert run("freeset", config, tmp_path / "freeset") == 0
    cert = is_free(win, CoordSet.of([(0, 0), (1, 1)], rank=2))
    assert cert.is_free and cert.verify(win)
    assert (tmp_path / "freeset" / "certificate.txt").read_text() == cert.dump()


# A small valid config per source kind, the keys of every section the
# commands read, and values for them: valid, out of range and malformed.
# Windows stay small so that every command is cheap.
_FUZZ_SOURCES = {
    "sturmian": {"alphas": "golden", "cuts": "0,one_minus_golden"},
    "sphere": {"alphas": "golden,sqrt2_frac", "center": "0.5,0.5", "radius": "0.25",
               "base": "0,0"},
    "ip_indicator": {"base": "3", "exponent_cap": "6"},
    "morse": {}, "concat_nonnull": {}, "char_halfline": {},
    "de_bruijn": {"order": "4"},
    "random": {"seed": "1", "alphabet": "3"},
    "explicit": {"path": "missing.seq"},
}
_FUZZ_BASE = {
    "window": {"box": "0:40"},
    "complexity": {"n_max": "6"},
    "entropy": {"n_max": "6"},
    "seqentropy": {"coords": "0,1,3"},
    "freeset": {"pool": "0:7", "max_size": "3"},
    "project": {"coords": "0,1,2", "subset": "0,2"},
    "family": {"shifts": "0:3", "points": "0:20", "max_len": "2"},
    "classify": {"brackets": "4,8", "max_size": "3", "entropy_n_max": "6", "prefix": "4"},
}
_FUZZ_KEYS = [
    (section, key) for section, keys in {
        "source": ("kind", "alphas", "cuts", "base", "center", "radius", "exponent_cap",
                   "order", "seed", "alphabet", "path"),
        "window": ("box",),
        "complexity": ("n_max",),
        "entropy": ("n_max",),
        "seqentropy": ("coords",),
        "freeset": ("set", "pool", "max_size", "horizon", "beam", "oracle_check",
                    "oracle_instances"),
        "project": ("coords", "subset"),
        "family": ("mode", "a", "b", "max_len", "dim", "shifts", "points", "cell_width",
                   "epsilon", "variation"),
        "classify": ("window", "entropy_n_max", "max_size", "beam", "prefix",
                     "density_threshold", "entropy_threshold", "free_slack", "brackets"),
    }.items() for key in keys]
_FUZZ_VALUES = ("0", "1", "2", "3", "5", "-1", "0.5", "1.5", "1e3", "x", "", "none", "true",
                "cube", "orbit", "morse", "warp", "golden", "sqrt2_frac", "1/3", "0,1",
                "0,1,3", "golden,sqrt2_frac", "0,0.25,0.5", "0:4", "2:9", "-3:12", "3:1",
                "0:8;0:8", "0:4;0:4;0:4", "(0,0);(0,1)", "0,,1", "1:2:3", "%", "%(x)s", "nan",
                "inf")


@st.composite
def _config_texts(draw):
    kind = draw(st.sampled_from(sorted(_FUZZ_SOURCES)))
    sections = {"source": {"kind": kind, **_FUZZ_SOURCES[kind]},
                **{name: dict(items) for name, items in _FUZZ_BASE.items()}}
    for section, key in draw(st.lists(st.sampled_from(_FUZZ_KEYS), max_size=4, unique=True)):
        value = draw(st.sampled_from(_FUZZ_VALUES + (None,)))
        if value is None:
            sections[section].pop(key, None)
        else:
            sections[section][key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
                   for name, items in sections.items())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=_config_texts())
def test_config_fuzz_never_exits_unexpectedly(text):
    """Every command on any config built from real keys ends in a documented exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        for command in COMMANDS:
            rc = main([command, "--config", str(cfg), "--out", tmp])
            assert rc in (0, 2, 3, 4, 5), (command, text, rc)
