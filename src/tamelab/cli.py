"""Command-line harness: configs, experiment execution, artifact files.

Configuration is sectioned ``key = value`` text (INI).  ``[window] box``
is the one window of a run: every command that reads symbols, ``classify``
included, materializes the source over it once.  Every run writes
its artifacts plus a manifest listing the config digest, versions, wall
time, and a content digest per output file.  Outputs are byte-identical
for identical configs; wall time lives only in the manifest.  A run is
one process, except that a noise window of two or more parts is hashed in
forked children, one per available core, with identical bytes.
``run(threads=)`` and ``--threads`` are accepted for compatibility and
ignored.

Exit codes: 0 success, 2 configuration error, 3 capacity error,
4 I/O error, 5 invalid argument or range, 6 unexpected failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .classify import ClassifyParams, classify
from .entropy import entropy_estimate, sequence_entropy_estimate
from .errors import ArgumentError, CapacityError, ConfigError, DataIOError, TameLabError
from .families import (
    FunctionSample,
    GridCover,
    epsilon_ns,
    find_independent_subfamily,
    l1_lower_bound,
    orbit_family_sample,
    total_variation,
)
from .freeset import FreeSearchBudget, brute_force_free_oracle, is_free, max_free_set
from .language import DENSE_CAP, CoordSet, patterns_on, project
from .presets import PRESETS
from .sources import SeqSource, SeqWindow, materialize, read_window, write_window
from .torus import BallRegion, CutPartition, RotationSpec, TorusPoint, parse_fraction

COMMANDS = ("generate", "complexity", "freeset", "entropy", "seqentropy",
            "project", "family", "classify")

OUT_ENV = "TAMELAB_OUT"


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed sectioned key=value configuration with a stable digest."""

    sections: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
            # items() expands %-interpolation, which can fail too
            sections = tuple(
                (name, tuple(sorted(parser.items(name))))
                for name in sorted(parser.sections()))
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        return cls(sections)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise DataIOError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text)

    @classmethod
    def from_preset(cls, name: str) -> "ExperimentConfig":
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; available: "
                              + ", ".join(sorted(PRESETS)))
        return cls.from_text(PRESETS[name])

    def to_text(self) -> str:
        out = io.StringIO()
        for name, items in self.sections:
            out.write(f"[{name}]\n")
            for key, value in items:
                out.write(f"{key} = {value}\n")
            out.write("\n")
        return out.getvalue()

    @property
    def digest(self) -> str:
        return hashlib.blake2b(self.to_text().encode(), digest_size=16).hexdigest()

    # -- access helpers ------------------------------------------------

    def section(self, name: str) -> dict[str, str]:
        for sec, items in self.sections:
            if sec == name:
                return dict(items)
        return {}

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        return self.section(section).get(key, default)

    def typed(self, section: str, key: str, conv=str, default: str | None = None):
        """``conv`` of [section] key (required without a default); ValueError -> ConfigError."""
        value = self.get(section, key, default)
        if value is None:
            raise ConfigError(f"missing [{section}] {key}")
        try:
            return conv(value)
        except ValueError as exc:
            raise ConfigError(f"malformed [{section}] {key} = {value!r}") from exc

    # -- typed views ---------------------------------------------------

    def source(self) -> SeqSource:
        sec = self.section("source")
        if not sec:
            raise ConfigError("missing [source] section")
        kind = sec.get("kind")
        if kind == "sturmian":
            alphas = self.typed("source", "alphas", _fraction_list)
            cuts = self.typed("source", "cuts", _fraction_list)
            base = self.typed("source", "base", _fraction_list, "0")
            return SeqSource.sturmian(RotationSpec.circle(*alphas),
                                      CutPartition(tuple(cuts)),
                                      TorusPoint(tuple(base)))
        if kind == "sphere":
            alphas = self.typed("source", "alphas", _fraction_list)
            center = self.typed("source", "center", _fraction_list)
            base = self.typed("source", "base", _fraction_list)
            radius = self.typed("source", "radius", parse_fraction)
            return SeqSource.sphere(BallRegion(TorusPoint(tuple(center)), radius),
                                    RotationSpec((TorusPoint(tuple(alphas)),)),
                                    TorusPoint(tuple(base)))
        if kind == "ip_indicator":
            return SeqSource.ip_indicator(self.typed("source", "base", int),
                                          self.typed("source", "exponent_cap", int))
        if kind == "morse":
            return SeqSource.morse()
        if kind == "concat_nonnull":
            return SeqSource.concat_nonnull()
        if kind == "char_halfline":
            return SeqSource.char_halfline()
        if kind == "de_bruijn":
            return SeqSource.de_bruijn(self.typed("source", "order", int))
        if kind == "random":
            return SeqSource.random(self.typed("source", "seed", int),
                                    self.typed("source", "alphabet", int, "2"))
        if kind == "explicit":
            return SeqSource.explicit(read_window(self.typed("source", "path")))
        raise ConfigError(f"unknown source kind {kind!r}")

    def window_box(self):
        axes = self.typed("window", "box", lambda box: [_span(a) for a in box.split(";")])
        return axes[0] if len(axes) == 1 else tuple(axes)


def _fraction_list(text: str) -> list[int]:
    return [parse_fraction(tok) for tok in text.split(",")]


# Converters for ExperimentConfig.typed; each raises ValueError on a malformed value.

def _flag(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("a flag is true or false")
    return text.lower() == "true"


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def _coords(text: str) -> CoordSet:
    """The inverse of ``CoordSet.__str__``: ``0,1,3`` is a rank-1 set,
    ``(0,0);(0,1)`` a rank-k set, k being the length of every point."""
    if "(" not in text:
        return CoordSet.of(_int_list(text))
    toks = [tok.strip() for tok in text.split(";")]
    if any(tok[:1] != "(" or tok[-1:] != ")" for tok in toks):
        raise ValueError("a rank-k point is written (a,b,...)")
    points = [_int_list(tok[1:-1]) for tok in toks]
    if len({len(p) for p in points}) != 1:
        raise ValueError("points of different ranks")
    return CoordSet.of(points, rank=len(points[0]))


def _span(text: str) -> tuple[int, int]:
    lo, hi = text.split(":")
    return int(lo), int(hi)


def _range_spec(text: str) -> range | tuple[int, ...]:
    """``lo:hi`` (inclusive, as a range, so that its size is known before
    anything is allocated) or a comma-separated list, as a tuple."""
    if ":" in text:
        lo, hi = _span(text)
        return range(lo, hi + 1)
    return tuple(_int_list(text))


def _opt_int(value: str) -> int | None:
    return None if value in ("", "none") else int(value)


def _cube_labels(dim: int) -> tuple[str, ...]:
    """``str`` of each vertex of {0, 1}**dim in ``itertools.product``
    order, built a digit at a time: ``(0, 0)``, ``(0, 1)``, ... and, for
    one digit, ``(0,)``."""
    if dim == 1:
        return ("(0,)", "(1,)")
    bodies = ["0", "1"]
    for _ in range(dim - 1):
        bodies = [body + digit for body in bodies for digit in (", 0", ", 1")]
    return tuple(f"({body})" for body in bodies)


# [classify] key -> ClassifyParams field, and the key's converter
_CLASSIFY_KEYS = (("entropy_n_max", "entropy_n_max", int),
                  ("max_size", "free_max_size", int),
                  ("beam", "beam", int),
                  ("prefix", "projection_prefix", int),
                  ("density_threshold", "density_threshold", float),
                  ("entropy_threshold", "entropy_threshold", float),
                  ("free_slack", "free_slack", float),
                  ("brackets", "free_brackets", lambda v: tuple(_int_list(v))))


class _Runner:
    """Executes one command, collecting artifact files and the manifest."""

    def __init__(self, config: ExperimentConfig, out_dir: Path, fmt: str):
        self.config = config
        self.out = out_dir
        self.fmt = fmt
        self.artifacts: list[Path] = []

    def write(self, name: str, text: str) -> None:
        path = self.out / name
        try:
            path.write_text(text)
        except OSError as exc:
            raise DataIOError(f"cannot write {path}: {exc}") from exc
        self.artifacts.append(path)

    def materialized(self):
        return materialize(self.config.source(), self.config.window_box())

    # -- commands --------------------------------------------------------

    def cmd_generate(self):
        win = self.materialized()
        path = self.out / "sequence.seq"
        write_window(win, path)
        self.artifacts.append(path)
        lines = [f"cells = {win.symbols.size}", f"digest = {win.source_digest}"]
        for key in sorted(win.meta):
            lines.append(f"{key} = {win.meta[key]}")
        self.write("generate.txt", "\n".join(lines) + "\n")

    def write_series(self, name: str, series) -> None:
        """The series' rows and its headline, as ``tamelab entropy`` writes them."""
        rows = series.csv_rows()
        rows.append(f"headline,,{series.headline:.9f}")
        self.write(name, "\n".join(rows) + "\n")

    def cmd_complexity(self):
        n_max = self.config.typed("complexity", "n_max", int, "24")
        win = self.materialized()
        series = entropy_estimate(win, n_max)
        self.write("complexity.csv", "\n".join(series.csv_rows()) + "\n")

    def cmd_entropy(self):
        n_max = self.config.typed("entropy", "n_max", int, "24")
        win = self.materialized()
        self.write_series("entropy.csv", entropy_estimate(win, n_max))

    def cmd_seqentropy(self):
        coords = self.config.typed("seqentropy", "coords", _int_list)
        win = self.materialized()
        self.write_series("seqentropy.csv", sequence_entropy_estimate(win, coords))

    def cmd_freeset(self):
        win = self.materialized()
        sec = self.config.section("freeset")
        if self.config.typed("freeset", "oracle_check", _flag, "false"):
            return self._freeset_oracle_check()
        horizon = self.config.typed("freeset", "horizon", _opt_int, "none")
        if "set" in sec:
            cert = is_free(win, self.config.typed("freeset", "set", _coords), horizon=horizon)
            if not cert.verify(win):
                raise ArgumentError("certificate failed re-verification")
            self.write("certificate.txt", cert.dump())
            return
        budget = FreeSearchBudget(
            max_size=self.config.typed("freeset", "max_size", int, "12"),
            pool=self.config.typed("freeset", "pool", _range_spec, "0:15"),
            horizon=horizon,
            beam=self.config.typed("freeset", "beam", _opt_int, "none"),
        )
        result = max_free_set(win, budget)
        rows = ["size,best_coverage,free_count,min_free_diameter,best_set"]
        for entry in result.profile:
            diam = entry.min_free_diameter
            rows.append(f"{entry.size},{entry.best_coverage},{entry.free_count},"
                        f"{'' if diam is None else diam},\"{entry.best_set}\"")
        if result.beam_limited:
            rows.append("# beam-limited: sizes may be underestimated")
        self.write("profile.csv", "\n".join(rows) + "\n")
        if result.best is not None:
            self.write("certificate.txt", result.best.dump())

    def _freeset_oracle_check(self):
        instances = self.config.typed("freeset", "oracle_instances", int, "100")
        if instances < 1:
            raise ArgumentError("[freeset] oracle_instances must be >= 1")
        seed = self.config.typed("source", "seed", int, "1")
        rng = np.random.default_rng(seed)
        agree = 0
        rows = ["instance,length,pool,oracle_max,search_max,agree"]
        for i in range(instances):
            length = int(rng.integers(16, 65))
            win = SeqWindow((0,), rng.integers(0, 2, length).astype(np.uint8), 2, f"oracle-{i}")
            pool_size = int(rng.integers(2, 9))
            pool = tuple(sorted(rng.choice(length, size=pool_size,
                                           replace=False).tolist()))
            oracle = brute_force_free_oracle(win, pool, 4, 64)
            omax = max((c.size for c in oracle), default=0)
            found = max_free_set(win, FreeSearchBudget(4, pool, horizon=64))
            ok = found.max_free_size == omax
            agree += ok
            rows.append(f"{i},{length},\"{','.join(map(str, pool))}\","
                        f"{omax},{found.max_free_size},{ok}")
        rows.append(f"# agreement {agree}/{instances}")
        self.write("oracle_report.csv", "\n".join(rows) + "\n")
        if agree != instances:
            raise ArgumentError("searcher disagreed with the brute-force oracle")

    def cmd_project(self):
        coords = self.config.typed("project", "coords", _coords)
        subset = self.config.typed("project", "subset", _coords)
        win = self.materialized()
        full = patterns_on(win, coords, want_witness=True)
        projected = project(full, subset)
        self.write("patterns.txt", full.dump())
        self.write("projected.txt", projected.dump())

    def cmd_family(self):
        sec = self.config.section("family")
        typed = self.config.typed
        a = typed("family", "a", float, "0.25")
        b = typed("family", "b", float, "0.75")
        max_len = typed("family", "max_len", int, "6")
        variation = typed("family", "variation", _flag, "false")
        mode = sec.get("mode", "orbit")
        if mode == "cube" and (variation or "cell_width" in sec):
            key = "variation" if variation else "cell_width"
            raise ConfigError(f"[family] {key} needs ordered sample points; "
                              "mode = cube columns are cube vertices")
        if "epsilon" in sec and "cell_width" not in sec:
            raise ConfigError("[family] epsilon needs [family] cell_width, its grid cover")
        if mode == "cube":
            dim = typed("family", "dim", int, "3")
            if dim < 1:
                raise ArgumentError("[family] dim must be >= 1")
            if dim > 24 or dim * 2 ** dim > DENSE_CAP:
                raise CapacityError(f"[family] dim = {dim} samples {dim} x 2**{dim} "
                                    "cells, over the 2**24 cap")
            # vertex j's coordinates are the bits of j, most significant first
            values = (np.arange(2 ** dim) >> np.arange(dim - 1, -1, -1)[:, None] & 1).astype(float)
            fs = FunctionSample(values, labels=_cube_labels(dim))
        elif mode == "orbit":
            shifts = typed("family", "shifts", _range_spec, "0:63")
            points = typed("family", "points", _range_spec, "0:999")
            if len(shifts) * len(points) > DENSE_CAP:
                raise CapacityError(f"[family] shifts x points = {len(shifts)} x "
                                    f"{len(points)} cells, over the 2**24 cap")
            fs = orbit_family_sample(self.config.source(), shifts, points)
        else:
            raise ConfigError(f"unknown family mode {mode!r}")
        self.write("family.csv", "\n".join(fs.csv_rows()) + "\n")
        witness = find_independent_subfamily(fs, a, b, max_len)
        lines = [f"rows = {fs.n_members}", f"columns = {fs.n_points}",
                 f"a = {a}", f"b = {b}", f"max_len = {max_len}"]
        if witness is None:
            lines.append(f"witness = none at depth {max_len} over {fs.n_points} columns")
        else:
            certified, empirical = l1_lower_bound(fs, witness)
            lines.append(f"witness_length = {witness.length}")
            lines.append(f"witness_members = {','.join(map(str, witness.indices))}")
            lines.append(f"l1_certified = {certified}")
            lines.append(f"l1_empirical = {empirical}")
        if "cell_width" in sec:
            cover = GridCover.from_labels(fs.labels, typed("family", "cell_width", float))
            eps = typed("family", "epsilon", float, "0.5")
            hit, cell = epsilon_ns(fs, cover, eps)
            lines.append(f"epsilon_ns eps={eps} -> {hit}"
                         + (f" cell={cell}" if hit else ""))
        if variation:
            order = np.argsort(np.asarray(fs.labels, dtype=float))
            labels = np.asarray(fs.labels, dtype=float)[order]
            tvs = [total_variation(list(zip(labels, fs.values[i][order])))
                   for i in range(fs.n_members)]
            lines.append(f"variation_max = {max(tvs)}")
        self.write("independence.txt", "\n".join(lines) + "\n")
        if witness is not None:
            self.write("witness.txt", witness.dump())

    def cmd_classify(self):
        sec = self.config.section("classify")
        if "window" in sec:
            raise ConfigError("[classify] window is retired: classify reads the "
                              "run's window, [window] box")
        kwargs = {name: self.config.typed("classify", key, conv)
                  for key, name, conv in _CLASSIFY_KEYS if key in sec}
        try:
            params = ClassifyParams(**kwargs)
        except ArgumentError as exc:  # its message opens with the field's name
            name, _, reason = str(exc).partition(" ")
            keys = {field: key for key, field, _ in _CLASSIFY_KEYS}
            raise ArgumentError(f"[classify] {keys.get(name, name)} {reason}") from None
        report = classify(self.materialized(), params)
        if self.fmt == "csv":
            self.write("report.csv",
                       report.csv_row_header() + "\n" + report.to_csv_row() + "\n")
        else:
            self.write("report.txt", report.to_text())
        self.write_series("entropy.csv", report.entropy_series)


def run(command: str, config: ExperimentConfig, out_dir, threads: int = 1,
        fmt: str = "text") -> int:
    """Execute one analysis command; returns the process exit code.

    ``threads`` is accepted and ignored (see the module docstring).
    """
    started = time.monotonic()
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        runner = _Runner(config, out, fmt)
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        getattr(runner, f"cmd_{command}")()
    except TameLabError as exc:
        print(f"tamelab {command}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - the harness maps everything to codes
        print(f"tamelab {command}: unexpected failure: {exc}", file=sys.stderr)
        return 6
    wall = time.monotonic() - started
    lines = [
        "TAMELAB-MANIFEST v1",
        f"command = {command}",
        f"config = {config.digest}",
        f"package = tamelab {__version__}",
        f"python = {sys.version.split()[0]}",
        f"numpy = {np.__version__}",
        f"walltime_s = {wall:.3f}",
    ]
    for path in runner.artifacts:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"sha256 {digest}  {path.name}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tamelab",
        description="Symbolic-coding lab: generate sequences and probe "
                    "window languages, free sets, entropy, and function families.",
        epilog="exit codes: 0 ok, 2 config error, 3 capacity, 4 I/O, "
               "5 bad argument or range, 6 unexpected failure",
    )
    parser.add_argument("command", choices=COMMANDS)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", metavar="PATH", help="config file (sectioned key = value)")
    group.add_argument("--preset", metavar="NAME",
                       help="bundled preset: " + ", ".join(sorted(PRESETS)))
    parser.add_argument("--out", metavar="DIR",
                        help=f"output directory (default ${OUT_ENV} or ./tamelab-out)")
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="accepted and ignored")
    parser.add_argument("--format", choices=("csv", "text"), default="text",
                        help="format for summary reports")
    args = parser.parse_args(argv)

    try:
        config = (ExperimentConfig.from_preset(args.preset) if args.preset
                  else ExperimentConfig.from_file(args.config))
    except TameLabError as exc:
        print(f"tamelab: {exc}", file=sys.stderr)
        return exc.exit_code

    root = args.out or os.environ.get(OUT_ENV, "tamelab-out")
    label = args.preset or config.digest[:12]
    out_dir = Path(root) / f"{label}-{args.command}"
    return run(args.command, config, out_dir, threads=args.threads,
               fmt=args.format)


if __name__ == "__main__":
    sys.exit(main())
