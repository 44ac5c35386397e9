"""Command-line harness: configs, artifacts, exit codes, golden file."""

import hashlib
import itertools
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tamelab
from tamelab.classify import ClassifyParams, classify
from tamelab.cli import COMMANDS, ExperimentConfig, _cube_labels, _int_list, main, run
from tamelab.errors import ArgumentError
from tamelab.freeset import is_free
from tamelab.language import CoordSet, patterns_on
from tamelab.presets import PRESETS
from tamelab.sources import SeqWindow, materialize

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


def run_in_child(tmp_path, command, config_text, timeout=60):
    """``tamelab command`` on a config in a child process whose own address
    space is capped at 1 GB (``RLIMIT_AS``, set in ``preexec_fn``), so a
    runaway allocation fails with an exit code, not with the machine's
    memory; the child must end within ``timeout`` seconds."""
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(config_text)
    env = {**os.environ, "PYTHONPATH": str(Path(tamelab.__file__).parents[1])}

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "tamelab.cli", command, "--config", str(cfg),
                           "--out", str(tmp_path)], env=env, preexec_fn=limit_address_space,
                          capture_output=True, text=True, timeout=timeout)


def test_free_set_level_over_the_cell_cap_exits_3_before_allocating(tmp_path):
    """On binary noise most small sets of a 99-point pool are free, so level
    5 would join 3,612,280 candidates.  The search stops with a capacity
    error before building it, within a 1 GB address space of its own."""
    done = run_in_child(tmp_path, "freeset",
                        "[source]\nkind = random\nseed = 3\nalphabet = 2\n\n[window]\n"
                        "box = 0:324\n\n[freeset]\npool = 0:98\nmax_size = 7\n")
    assert done.returncode == 3, done.stderr
    assert "level 5" in done.stderr and "[freeset] beam" in done.stderr


@pytest.mark.parametrize("alphabet", [2, 3])
@pytest.mark.parametrize("max_size", [25, 10 ** 8, 2 ** 127])
def test_huge_free_set_max_size_exits_3_before_its_pattern_space_is_built(tmp_path, alphabet,
                                                                         max_size):
    """m**max_size is past the 2**24 cap for every max_size > 24, so the
    cap is decided without that power."""
    done = run_in_child(tmp_path, "freeset",
                        f"[source]\nkind = random\nseed = 1\nalphabet = {alphabet}\n\n"
                        f"[window]\nbox = 0:40\n\n[freeset]\npool = 0:7\n"
                        f"max_size = {max_size}\n", timeout=30)
    assert done.returncode == 3, done.stderr
    assert "2**24" in done.stderr


def test_free_set_pool_outside_the_window_exits_5_before_it_is_built(tmp_path):
    done = run_in_child(tmp_path, "freeset",
                        "[source]\nkind = random\nseed = 1\nalphabet = 3\n\n[window]\n"
                        "box = 0:40\n\n[freeset]\npool = 0:99999999\n", timeout=30)
    assert done.returncode == 5, done.stderr
    assert "pool extends outside the window" in done.stderr


def test_classify_with_a_prefix_past_the_window_completes(tmp_path):
    """The projection families stop at the window's reach, whatever the
    prefix."""
    done = run_in_child(tmp_path, "classify",
                        "[source]\nkind = sturmian\nalphas = golden\n"
                        "cuts = 0,one_minus_golden\nbase = 0\n\n[window]\nbox = 0:2000\n\n"
                        "[classify]\nprefix = 1000000\n")
    assert done.returncode == 0, done.stderr


def test_range_error_exit_code(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("[source]\nkind = morse\n\n[window]\nbox = 0:32\n\n"
                   "[seqentropy]\ncoords = 0,40\n")
    assert main(["seqentropy", "--config", str(cfg), "--out", str(tmp_path)]) == 5


@pytest.mark.parametrize("source, box", [
    ("kind = char_halfline", "9223372036854775805:9223372036854775811"),
    ("kind = ip_indicator\nbase = 3\nexponent_cap = 45",
     "1180591620717411303424:1180591620717411303428"),
    ("kind = sturmian\nalphas = golden,sqrt2_frac\ncuts = 0,one_minus_golden",
     "0:4;9223372036854775807:9223372036854775809"),
    ("kind = morse", "1180591620717411303424:1180591620717411303428"),
    ("kind = de_bruijn\norder = 3", "-9223372036854775809:0"),
    ("kind = random\nseed = 170141183460469231731687303715884105728", "0:8"),
    ("kind = random\nseed = -170141183460469231731687303715884105729", "0:8"),
])
def test_coordinates_and_seeds_past_their_range_exit_5(tmp_path, capsys, source, box):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(f"[source]\n{source}\n\n[window]\nbox = {box}\n")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 5
    assert "range" in capsys.readouterr().err


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


def _config(sections: dict) -> ExperimentConfig:
    return ExperimentConfig.from_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
        for name, items in sections.items()))


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
    ("freeset", "freeset", "oracle_check", "yes", None),
    ("family", "family", "variation", "ture", None),
])
def test_malformed_config_value_exits_2(tmp_path, capsys, command, section, key, value,
                                        extra):
    """Each parse site turns a malformed value into a config error (exit 2)."""
    sections = {name: dict(items) for name, items in {**_BASE, **(extra or {})}.items()}
    sections.setdefault(section, {})[key] = value
    assert run(command, _config(sections), tmp_path / "out") == 2
    assert f"malformed [{section}] {key} = " in capsys.readouterr().err


@pytest.mark.parametrize("key, value, field", [
    ("free_slack", "nan", "free_slack"),
    ("density_threshold", "inf", "density_threshold"),
    ("entropy_threshold", "-inf", "entropy_threshold"),
    ("brackets", "-3,8", "free_brackets"),
    ("brackets", "8,4", "free_brackets"),
    ("prefix", "-1", "projection_prefix"),
    ("prefix", "0", "projection_prefix"),
    ("prefix", "1", "projection_prefix"),
    ("beam", "0", "beam"),
    ("max_size", "0", "free_max_size"),
    ("entropy_n_max", "0", "entropy_n_max"),
])
def test_classify_values_that_void_a_flag_exit_5(tmp_path, capsys, key, value, field):
    """The library names the field; the command names the config key."""
    config = _config({**_BASE, "classify": {**_BASE["classify"], key: value}})
    assert run("classify", config, tmp_path / "out") == 5
    assert f"classify: error: [classify] {key} must" in capsys.readouterr().err
    parsed = (tuple(_int_list(value)) if key == "brackets"
              else float(value) if isinstance(getattr(ClassifyParams, field), float)
              else int(value))
    with pytest.raises(ArgumentError, match=f"^{field} must"):
        ClassifyParams(**{field: parsed})


@pytest.mark.parametrize("dim", range(1, 8))
def test_cube_labels_are_the_vertex_tuples(dim):
    assert _cube_labels(dim) == tuple(str(t) for t in itertools.product((0, 1), repeat=dim))


@pytest.mark.parametrize("instances", ["0", "-5"])
def test_oracle_check_with_no_instances_exits_5(tmp_path, capsys, instances):
    """An oracle check over no instances proves nothing: it is an argument
    error naming the key, not an agreement of 0/0 or a disagreement."""
    config = _config({**_BASE, "freeset": {"oracle_check": "true",
                                           "oracle_instances": instances}})
    assert run("freeset", config, tmp_path / "out") == 5
    assert "[freeset] oracle_instances" in capsys.readouterr().err
    assert not (tmp_path / "out" / "oracle_report.csv").exists()


def test_classify_window_key_is_retired(tmp_path, capsys):
    """The run's window is [window] box; [classify] window is a config error."""
    config = _config({**_BASE, "classify": {**_BASE["classify"], "window": "0:64"}})
    assert run("classify", config, tmp_path / "out") == 2
    assert "[window] box" in capsys.readouterr().err
    assert all("window" not in ExperimentConfig.from_text(text).section("classify")
               for text in PRESETS.values())


def test_classify_on_a_window_without_coordinate_zero(tmp_path):
    """Bracket pools start at the window's origin, so a box off 0 runs."""
    config = _config({**_BASE, "window": {"box": "100:5000"}, "classify": {}})
    assert run("classify", config, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert "scale.window = (100, 5000)" in lines
    win = materialize(config.source(), config.window_box())
    copy = classify(SeqWindow((0,), win.symbols.copy(), 2, "copy")).to_text().splitlines()
    rows = ("max_free ", "density ")
    assert [x for x in lines if x.startswith(rows)] == [x for x in copy if x.startswith(rows)]
    assert any(x.startswith("max_free ") for x in lines)


def test_negative_cube_dimension_is_a_range_error(tmp_path):
    text = "[source]\nkind = morse\n\n[family]\nmode = cube\ndim = -2\n"
    assert run("family", ExperimentConfig.from_text(text), tmp_path / "out") == 5


def test_cube_family_variation_is_a_config_error(tmp_path, capsys):
    """Cube columns are vertices with no order, so variation is a config
    error that names the key, not an unexpected failure."""
    text = "[source]\nkind = morse\n\n[family]\nmode = cube\ndim = 3\nvariation = true\n"
    assert run("family", ExperimentConfig.from_text(text), tmp_path / "out") == 2
    assert "[family] variation" in capsys.readouterr().err
    plain = text.replace("variation = true", "variation = false")
    assert run("family", ExperimentConfig.from_text(plain), tmp_path / "plain") == 0


def test_cube_family_cell_width_is_a_config_error(tmp_path, capsys):
    """A grid cover of width cell_width needs ordered sample points too, so
    on cube vertices it is a config error that names the key, not a run
    that writes no epsilon_ns line."""
    text = "[source]\nkind = morse\n\n[family]\nmode = cube\ndim = 3\ncell_width = 0.5\n"
    assert run("family", ExperimentConfig.from_text(text), tmp_path / "out") == 2
    assert "[family] cell_width" in capsys.readouterr().err
    assert not (tmp_path / "out" / "independence.txt").exists()


def test_family_epsilon_without_cell_width_is_a_config_error(tmp_path, capsys):
    """epsilon is read on the grid cover of width cell_width, so without it
    the run is a config error that names the key, raised before the sample
    is built, not a run that writes no epsilon_ns line."""
    text = ("[source]\nkind = morse\n\n[family]\nshifts = 0:7\npoints = 0:99\n"
            "epsilon = 0.1\n")
    assert run("family", ExperimentConfig.from_text(text), tmp_path / "out") == 2
    assert "[family] epsilon" in capsys.readouterr().err
    assert not (tmp_path / "out" / "family.csv").exists()
    with_cover = text + "cell_width = 0.5\n"
    assert run("family", ExperimentConfig.from_text(with_cover), tmp_path / "cover") == 0
    assert "epsilon_ns eps=0.1" in (tmp_path / "cover" / "independence.txt").read_text()


@pytest.mark.parametrize("family, key", [
    ("mode = cube\ndim = 30\n", "[family] dim"),
    ("shifts = 0:99999\npoints = 0:99999\n", "[family] shifts x points"),
])
def test_family_sample_over_the_cell_cap_is_a_capacity_error(tmp_path, capsys, family, key):
    """A sample of more than 2**24 cells exits 3, naming its keys, before
    anything is allocated."""
    text = "[source]\nkind = morse\n\n[family]\n" + family
    assert run("family", ExperimentConfig.from_text(text), tmp_path / "out") == 3
    assert key in capsys.readouterr().err


def test_classify_writes_the_full_entropy_series(tmp_path):
    """classify's entropy.csv is what ``tamelab entropy`` writes for the same
    window at the clamped n_max; the report keeps its sampled points."""
    config = ExperimentConfig.from_text(PRESETS["fib100k"] + "\n[entropy]\nn_max = 200\n")
    assert run("classify", config, tmp_path / "classify") == 0
    assert run("entropy", config, tmp_path / "entropy") == 0
    series = (tmp_path / "classify" / "entropy.csv").read_text()
    assert series == (tmp_path / "entropy" / "entropy.csv").read_text()
    assert len(series.splitlines()) == 202  # header, n = 1..200, headline
    report = (tmp_path / "classify" / "report.txt").read_text()
    assert sum(line.startswith("entropy ") for line in report.splitlines()) == 69


def test_report_headline_fits_the_printed_points_only(tmp_path):
    """report.txt's entropy_headline is the tail slope over the report's
    printed points; entropy.csv's headline row fits every n, so on fib100k
    the two differ."""
    rc, out = run_preset(tmp_path, "classify", "fib100k")
    assert rc == 0
    report = (out / "report.txt").read_text().splitlines()
    assert "entropy_headline = 0.007882" in report
    assert (out / "entropy.csv").read_text().splitlines()[-1] == "headline,,0.008231828"


def test_rank_one_box_for_a_rank_two_source_is_a_dimension_error(tmp_path):
    text = ("[source]\nkind = sturmian\nalphas = golden,sqrt2_frac\n"
            "cuts = 0,one_minus_golden\n\n[window]\nbox = 0:100\n")
    for command in ("generate", "complexity", "freeset"):
        assert run(command, ExperimentConfig.from_text(text), tmp_path / command) == 5
    # rank-1 coordinates on a rank-2 window: no TypeError, no diagonal read
    square = text.replace("box = 0:100", "box = 0:50;0:50")
    for command, section in (("freeset", "[freeset]\nset = 0,1\n"),
                             ("project", "[project]\ncoords = 0,1,3\nsubset = 0,1\n"),
                             ("classify", "[classify]\nbrackets = 4\n")):
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
        "classify": ("entropy_n_max", "max_size", "beam", "prefix", "density_threshold",
                     "entropy_threshold", "free_slack", "brackets"),
    }.items() for key in keys]
_FUZZ_VALUES = ("0", "1", "2", "3", "5", "-1", "0.5", "1.5", "1e3", "x", "", "none", "true",
                "cube", "orbit", "morse", "warp", "golden", "sqrt2_frac", "1/3", "0,1",
                "0,1,3", "golden,sqrt2_frac", "0,0.25,0.5", "0:4", "2:9", "-3:12", "3:1",
                "0:8;0:8", "0:4;0:4;0:4", "(0,0);(0,1)", "0,,1", "1:2:3", "%", "%(x)s", "nan",
                "inf", "170141183460469231731687303715884105728",
                "-170141183460469231731687303715884105729",
                "9223372036854775805:9223372036854775811")


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
