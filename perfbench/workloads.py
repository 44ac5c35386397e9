"""Seeded job lists for the three workloads.

A job is a dict with an ``id`` (unique within the workload, also the name
of its output directory), a ``command`` for ``tamelab.cli.run``, and
either a ``preset`` name or a ``config`` text.  ``check`` optionally names
an output check that needs no code under test (see ``checks.py``).

This module uses only the standard library, so the parent process can
build job lists without importing tamelab.
"""

from __future__ import annotations

import random

WORKLOADS = ("presets", "languages", "roundtrip")
SIZES = ("full", "tiny")

# The acceptance table of (preset, command) pairs, tests/test_acceptance.py.
PRESET_COMMANDS = {
    "fib64": ("generate",),
    "fib100k": ("complexity", "freeset", "classify", "family"),
    "debruijn16": ("entropy", "freeset", "classify"),
    "ip10": ("freeset",),
    "concat12": ("freeset", "seqentropy", "complexity", "entropy"),
    "concat10": ("classify",),
    "halfline": ("complexity", "classify"),
    "oracle": ("freeset",),
    "cubefam": ("family",),
    "sphere2d": ("complexity", "classify"),
}

# Pairs that each take under 0.1 s; the tiny size runs only these.
TINY_PRESET_JOBS = {
    "fib64-generate", "fib100k-complexity", "debruijn16-entropy",
    "ip10-freeset", "halfline-complexity", "halfline-classify",
    "oracle-freeset", "cubefam-family", "sphere2d-complexity",
    "sphere2d-classify",
}


def build(workload: str, seed: int, size: str, out_root: str) -> list[dict]:
    """Job list for one workload; identical for identical arguments.

    ``out_root`` is the directory the jobs write under; the roundtrip
    read-back configs name files inside it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}:{seed}")
    tiny = size == "tiny"
    # Only presets permutes job order: its configs are fixed, so the order
    # is what its seed varies.
    if workload == "presets":
        return _presets(rng, tiny)
    if workload == "languages":
        return _languages(rng, tiny)
    return _roundtrip(rng, tiny, out_root)


def _presets(rng: random.Random, tiny: bool) -> list[dict]:
    jobs = [{"id": f"{preset}-{command}", "command": command, "preset": preset}
            for preset, commands in PRESET_COMMANDS.items()
            for command in commands]
    if tiny:
        jobs = [job for job in jobs if job["id"] in TINY_PRESET_JOBS]
    rng.shuffle(jobs)
    return jobs


def _decimal(rng: random.Random, digits: int = 12) -> str:
    return f"0.{rng.randrange(10 ** digits):0{digits}d}"


def _sections(**sections: dict) -> str:
    out = []
    for name, items in sections.items():
        out.append(f"[{name}]")
        out.extend(f"{key} = {value}" for key, value in items.items())
        out.append("")
    return "\n".join(out)


def _languages(rng: random.Random, tiny: bool) -> list[dict]:
    rot1_len = 20_000 if tiny else 1_000_000
    rot1_n = 20 if tiny else 60
    rot1_lo = rng.randrange(1_000_000)
    rot2_side = 40 if tiny else 300
    rot2_n = 4 if tiny else 8
    r2a, r2b = rng.randrange(100_000), rng.randrange(100_000)
    morse_len = 1 << (12 if tiny else 18)
    morse_lo = rng.randrange(-(1 << 20), 1 << 20)
    noise_len = 5_000 if tiny else 200_000
    noise_coords = sorted(rng.sample(range(500 if tiny else 2000), 12 if tiny else 24))
    proj_coords = sorted(rng.sample(range(300), 8))
    proj_subset = sorted(rng.sample(proj_coords, 4))
    cut_a, cut_b = sorted(rng.sample(range(1, 1000), 2))
    jobs = [
        {"id": "rotation1-complexity", "command": "complexity",
         "check": {"sturmian_golden": rot1_n},
         "config": _sections(
             source={"kind": "sturmian", "alphas": "golden",
                     "cuts": "0,one_minus_golden", "base": _decimal(rng)},
             window={"box": f"{rot1_lo}:{rot1_lo + rot1_len}"},
             complexity={"n_max": rot1_n})},
        {"id": "rotation2-complexity", "command": "complexity",
         "config": _sections(
             source={"kind": "sturmian", "alphas": "golden,sqrt2_frac",
                     "cuts": "0,one_minus_golden", "base": _decimal(rng)},
             window={"box": f"{r2a}:{r2a + rot2_side};{r2b}:{r2b + rot2_side}"},
             complexity={"n_max": rot2_n})},
        {"id": "morse-entropy", "command": "entropy",
         "config": _sections(
             source={"kind": "morse"},
             window={"box": f"{morse_lo}:{morse_lo + morse_len}"},
             entropy={"n_max": 12 if tiny else 32})},
        {"id": "noise-seqentropy", "command": "seqentropy",
         "config": _sections(
             source={"kind": "random", "seed": rng.randrange(1 << 31), "alphabet": 2},
             window={"box": f"0:{noise_len}"},
             seqentropy={"coords": ",".join(map(str, noise_coords))})},
        {"id": "rotation3-project", "command": "project",
         "config": _sections(
             source={"kind": "sturmian", "alphas": "pi_frac",
                     "cuts": f"0,{cut_a / 1000},{cut_b / 1000}", "base": _decimal(rng)},
             window={"box": f"0:{5_000 if tiny else 200_000}"},
             project={"coords": ",".join(map(str, proj_coords)),
                      "subset": ",".join(map(str, proj_subset))})},
    ]
    if not tiny:
        jobs += [{"id": f"concat12-{command}", "command": command, "preset": "concat12"}
                 for command in ("complexity", "entropy")]
    return jobs


def _roundtrip(rng: random.Random, tiny: bool, out_root: str) -> list[dict]:
    scale = 50 if tiny else 1
    line = 1_000_000 // scale
    side = 700 // (5 if tiny else 1)
    lo = rng.randrange(100_000)
    # Parameters that change a job's cost stay fixed (de Bruijn order, ip
    # base) or vary little (alphabet), so that the seed does not move the
    # metrics; offsets, base points, radii and noise seeds vary freely.
    order = 10 if tiny else 16
    ip_cap = 1
    while 3 ** ip_cap < lo + line:
        ip_cap += 1
    sources = {
        "sturmian1": ({"kind": "sturmian", "alphas": "golden",
                       "cuts": "0,one_minus_golden", "base": _decimal(rng)},
                      f"{lo}:{lo + line}"),
        "sturmian2": ({"kind": "sturmian", "alphas": "golden,sqrt2_frac",
                       "cuts": "0,one_minus_golden", "base": _decimal(rng)},
                      f"{lo}:{lo + side};0:{side}"),
        "sphere2": ({"kind": "sphere", "alphas": "golden,sqrt2_frac",
                     "center": f"{_decimal(rng, 3)},{_decimal(rng, 3)}",
                     "radius": f"0.{rng.randrange(50, 200):03d}",
                     "base": f"{_decimal(rng)},{_decimal(rng)}"},
                    f"{lo}:{lo + 150_000 // scale}"),
        "sphere3": ({"kind": "sphere", "alphas": "golden,sqrt2_frac,sqrt3_frac",
                     "center": ",".join(_decimal(rng, 3) for _ in range(3)),
                     "radius": f"0.{rng.randrange(100, 300):03d}",
                     "base": ",".join(_decimal(rng) for _ in range(3))},
                    f"{lo}:{lo + 100_000 // scale}"),
        "random": ({"kind": "random", "seed": rng.randrange(1 << 31),
                    "alphabet": rng.randrange(6, 9)},
                   f"{lo}:{lo + 300_000 // scale}"),
        "morse": ({"kind": "morse"}, f"{-lo}:{line - lo}"),
        "ip_indicator": ({"kind": "ip_indicator", "base": 3,
                          "exponent_cap": ip_cap}, f"{lo}:{lo + line}"),
        "de_bruijn": ({"kind": "de_bruijn", "order": order},
                      f"{lo}:{lo + (4 << order)}"),
        "concat_nonnull": ({"kind": "concat_nonnull"}, f"{lo}:{lo + line}"),
        "char_halfline": ({"kind": "char_halfline"}, f"{-lo}:{line - lo}"),
    }
    jobs = []
    for kind, (source, box) in sources.items():
        if kind == "sturmian2":
            sub = 16 if tiny else 48
            readback_box, n_max = f"{lo}:{lo + sub};0:{sub}", 3
        else:
            readback_box, n_max = box, 4 if kind == "random" else 8
        check = {"readback": f"{kind}-generate"}
        if kind == "sturmian1":
            check["sturmian_golden"] = n_max
        if kind == "de_bruijn":
            check["de_bruijn"] = order
        jobs.append({"id": f"{kind}-generate", "command": "generate",
                     "config": _sections(source=source, window={"box": box})})
        jobs.append({"id": f"{kind}-readback", "command": "complexity", "check": check,
                     "config": _sections(
                         source={"kind": "explicit",
                                 "path": f"{out_root}/{kind}-generate/sequence.seq"},
                         window={"box": readback_box},
                         complexity={"n_max": n_max})})
    return jobs
