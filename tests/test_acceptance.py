"""Acceptance gate: one timed, tolerance-pinned check per criterion.

Each test prints a single PASS/FAIL line; all quantitative tolerances are
stated inline.  Criteria about infinite-horizon behavior are exercised at
the stated finite scales only.
"""

import time
import warnings
from itertools import product
from pathlib import Path

import numpy as np

from tamelab.classify import ClassifyParams, classify
from tamelab.cli import ExperimentConfig, run
from tamelab.entropy import entropy_estimate, sequence_entropy_estimate
from tamelab.families import (
    FunctionSample,
    GridCover,
    epsilon_ns,
    find_independent_subfamily,
    l1_lower_bound,
    orbit_family_sample,
    total_variation,
)
from tamelab.freeset import (
    FreeSearchBudget,
    brute_force_free_oracle,
    is_free,
    max_free_set,
)
from tamelab.language import CoordSet, complexity, patterns_on, project
from tamelab.presets import PRESETS
from tamelab.sources import (
    SeqSource,
    SeqWindow,
    concat_slot_coordinates,
    materialize,
)
from tamelab.torus import CutPartition, RotationSpec, TorusPoint, rotate_add


class Gate:
    def __init__(self, number, label, limit_s):
        self.number, self.label, self.limit = number, label, limit_s
        self.start = time.monotonic()

    def finish(self, ok, detail=""):
        elapsed = time.monotonic() - self.start
        in_time = elapsed < self.limit
        verdict = "PASS" if ok and in_time else "FAIL"
        print(f"[criterion {self.number}] {verdict} ({elapsed:.1f}s/"
              f"{self.limit}s) {self.label}{': ' + detail if detail else ''}")
        assert ok, f"criterion {self.number} failed: {detail}"
        assert in_time, f"criterion {self.number} exceeded {self.limit}s ({elapsed:.1f}s)"


def quiet_search(win, budget):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return max_free_set(win, budget)


def test_criterion_1_sturmian_complexity():
    gate = Gate(1, "Fibonacci p(n) = n+1 for n = 1..30 at horizon 1e5", 5)
    win = materialize(SeqSource.fibonacci(), (0, 100_000))
    lang = complexity(win, 30)
    expected = tuple(n + 1 for n in range(1, 31))
    gate.finish(lang.counts == expected, f"counts {lang.counts[:5]}...")


def test_criterion_2_sturmian_free_set_bound(fib_100k):
    gate = Gate(2, "no size-11 free set in pool {0..999}, max found <= 9", 60)
    result = quiet_search(fib_100k, FreeSearchBudget.interval(0, 999, 11))
    sizes_free = [p.size for p in result.profile if p.free_count]
    ok = (not result.beam_limited and 11 not in sizes_free
          and result.max_free_size <= 9)
    gate.finish(ok, f"max free size {result.max_free_size}")


def test_criterion_3_full_shift_stand_in(de_bruijn_16):
    gate = Gate(3, "de Bruijn 16: size-16 free set, rate(n) = 1 for n <= 16", 30)
    result = quiet_search(de_bruijn_16, FreeSearchBudget.interval(0, 15, 16))
    cert_ok = (result.best is not None and result.best.size == 16
               and result.best.coverage == 1 and result.best.verify(de_bruijn_16))
    series = entropy_estimate(de_bruijn_16, 16)
    rates_ok = all(rate == 1.0 for _, _, rate in series.points)
    gate.finish(cert_ok and rates_ok,
                f"free size {result.max_free_size}, rates exact {rates_ok}")


def test_criterion_4_ip_interpolation():
    gate = Gate(4, "ip base 10 free on {10,100,1000}, two-sided 1e6", 30)
    win = materialize(SeqSource.ip_indicator(10, 7), (-1_000_000, 1_000_000))
    cert = is_free(win, CoordSet.of([10, 100, 1000]))
    ok = cert.coverage == 1 and cert.verify(win) and len(cert.witnesses) == 8
    gate.finish(ok, f"coverage {cert.coverage}, witnesses verified")


def test_criterion_5_concatenation_example(concat_w12):
    gate = Gate(5, "concat w1..w12: free sizes 1..12, seq entropy >= 0.9, "
                   "sub-exponential tail", 120)
    slot = concat_slot_coordinates(12)[0]
    result = quiet_search(concat_w12,
                          FreeSearchBudget.interval(slot, slot + 11, 12))
    sizes = {p.size for p in result.profile if p.free_count}
    sizes_ok = sizes == set(range(1, 13))
    cert_ok = result.best is not None and result.best.size == 12 \
        and result.best.verify(concat_w12)
    series = sequence_entropy_estimate(concat_w12, result.best.coordset.coords)
    entropy_ok = series.rate(12) >= 0.9  # against log 2 = 1 bit, tolerance 0.1
    tail = entropy_estimate(concat_w12, 48)
    subexp_ok = tail.headline < 0.05
    gate.finish(sizes_ok and cert_ok and entropy_ok and subexp_ok,
                f"rate(12) = {series.rate(12):.3f}, tail slope {tail.headline:.3f}")


def test_criterion_6_halfline_subshift():
    gate = Gate(6, "chi_N: p(n) = n+1 to 30, tame-consistent, headline < 0.01", 5)
    win = materialize(SeqSource.char_halfline(), (-1000, 1000))
    lang = complexity(win, 30)
    counts_ok = lang.counts == tuple(n + 1 for n in range(1, 31))
    report = classify(SeqSource.char_halfline(), ClassifyParams(horizon=2000))
    gate.finish(counts_ok and report.tame_consistent
                and report.entropy_headline < 0.01,
                f"headline {report.entropy_headline:.4f}")


def test_criterion_7_oracle_equivalence():
    gate = Gate(7, "searcher matches brute-force oracle on 100 tiny instances", 10)
    rng = np.random.default_rng(20240913)
    agree = 0
    for i in range(100):
        length = int(rng.integers(16, 65))
        line = rng.integers(0, 2, length).astype(np.uint8)
        win = materialize(SeqSource.explicit(
            SeqWindow((0,), line, 2, f"acc7-{i}")), (0, length))
        pool = tuple(sorted(rng.choice(length, size=int(rng.integers(2, 9)),
                                       replace=False).tolist()))
        oracle_max = max((c.size for c in brute_force_free_oracle(win, pool, 4, 64)),
                         default=0)
        found = quiet_search(win, FreeSearchBudget(4, pool, horizon=64))
        agree += found.max_free_size == oracle_max
    gate.finish(agree == 100, f"{agree}/100")


def test_criterion_8_function_family_suite():
    gate = Gate(8, "cube family witness + l1; sturmian 64-translate family clean", 60)
    cols = list(product([0, 1], repeat=3))
    cube = FunctionSample(np.array([[c[i] for c in cols] for i in range(3)],
                                   dtype=float))
    witness = find_independent_subfamily(cube, 0.25, 0.75, max_len=3)
    cube_ok = witness is not None and witness.length == 3
    certified, empirical = l1_lower_bound(cube, witness)
    l1_ok = certified == 0.25 and empirical >= 0.25
    fam = orbit_family_sample(SeqSource.fibonacci(), range(64), range(10_000))
    deep = find_independent_subfamily(fam, 0.25, 0.75, max_len=6)
    sturmian_ok = deep is None or deep.length < 6
    gate.finish(cube_ok and l1_ok and sturmian_ok,
                f"l1 ({certified}, {empirical:.3f}), deep witness "
                f"{'none' if deep is None else deep.length}")


def _invariant_projection(rng):
    bits = rng.integers(0, 2, int(rng.integers(24, 80))).astype(np.uint8)
    win = materialize(SeqSource.explicit(SeqWindow((0,), bits, 2, "i")),
                      (0, bits.size))
    coords = sorted(rng.choice(16, size=3, replace=False).tolist())
    A = CoordSet.of(coords)
    sub = CoordSet.of([coords[0], coords[2]])
    shifts = range(0, bits.size - coords[2])
    return np.array_equal(project(patterns_on(win, A, shifts=shifts), sub).codes,
                          patterns_on(win, sub, shifts=shifts).codes)


def _invariant_closure(rng):
    bits = rng.integers(0, 2, 48).astype(np.uint8)
    win = materialize(SeqSource.explicit(SeqWindow((0,), bits, 2, "c")), (0, 48))
    coords = sorted(rng.choice(12, size=3, replace=False).tolist())
    cert = is_free(win, CoordSet.of(coords))
    if not cert.is_free:
        return True
    return all(is_free(win, CoordSet.of([a for a in coords if a != drop])).is_free
               for drop in coords)


def _invariant_cocycle(rng):
    from tamelab.torus import GOLDEN, SCALE
    spec = RotationSpec.circle(GOLDEN)
    part = CutPartition((0, SCALE - GOLDEN))
    z = TorusPoint(((int(rng.integers(0, 1 << 63)) << 64)
                    | int(rng.integers(0, 1 << 63)),))
    m = int(rng.integers(-3000, 3000))
    src = SeqSource.sturmian(spec, part, z)
    moved = SeqSource.sturmian(spec, part, rotate_add(z, spec, (m,)))
    return np.array_equal(materialize(src, (m, m + 24)).line(),
                          materialize(moved, (0, 24)).line())


def _invariant_witness(rng):
    bits = rng.integers(0, 2, 40).astype(np.uint8)
    win = materialize(SeqSource.explicit(SeqWindow((0,), bits, 2, "w")), (0, 40))
    coords = sorted(rng.choice(10, size=2, replace=False).tolist())
    return is_free(win, CoordSet.of(coords)).verify(win)


def _invariant_eps_ns(rng):
    values = rng.normal(size=(4, 30))
    fs = FunctionSample(values, labels=tuple(range(30)))
    cover = GridCover.from_labels(fs.labels, int(rng.integers(2, 9)))
    lo = float(rng.uniform(0.05, 2))
    hi = lo + float(rng.uniform(0.05, 4))
    return (not epsilon_ns(fs, cover, lo)[0]) or epsilon_ns(fs, cover, hi)[0]


def _invariant_variation(rng):
    n = int(rng.integers(4, 20))
    values = rng.uniform(-3, 3, n)
    pts = list(zip(range(n), values))
    k = int(rng.integers(2, n - 1))
    junction = abs(pts[k][1] - pts[k - 1][1])
    return abs(total_variation(pts)
               - (total_variation(pts[:k]) + total_variation(pts[k:]) + junction)) < 1e-9


def test_criterion_9_invariant_suites():
    gate = Gate(9, "six invariant suites, 100 randomized cases each", 60)
    rng = np.random.default_rng(7)
    suites = {
        "projection_consistency": _invariant_projection,
        "downward_closure": _invariant_closure,
        "cocycle_identity": _invariant_cocycle,
        "witness_soundness": _invariant_witness,
        "eps_ns_monotone": _invariant_eps_ns,
        "variation_additivity": _invariant_variation,
    }
    failures = {name: sum(not fn(rng) for _ in range(100))
                for name, fn in suites.items()}
    gate.finish(all(v == 0 for v in failures.values()), str(failures))


PRESET_COMMANDS = {
    "fib64": ("generate",),
    "fib100k": ("complexity", "freeset", "classify", "family"),
    "debruijn16": ("generate", "entropy", "freeset", "classify"),
    "ip10": ("freeset",),
    "concat12": ("freeset", "seqentropy", "complexity", "entropy"),
    "concat10": ("classify",),
    "halfline": ("complexity", "classify"),
    "oracle": ("freeset",),
    "cubefam": ("family",),
    "sphere2d": ("complexity", "classify"),
}


def _artifact_bytes(out_dir: Path) -> dict:
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.txt":
            files[path.name] = "\n".join(
                line for line in path.read_text().splitlines()
                if line.startswith("sha256 ")).encode()
        else:
            files[path.name] = path.read_bytes()
    return files


def test_criterion_10_reproducibility(tmp_path):
    gate = Gate(10, "every preset byte-identical at thread counts 1 and 8", 600)
    assert set(PRESET_COMMANDS) == set(PRESETS)
    mismatches = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for preset, commands in sorted(PRESET_COMMANDS.items()):
            config = ExperimentConfig.from_preset(preset)
            for command in commands:
                outs = []
                for threads in (1, 8):
                    out = tmp_path / f"{preset}-{command}-t{threads}"
                    rc = run(command, config, out, threads=threads)
                    assert rc == 0, (preset, command, threads, rc)
                    outs.append(_artifact_bytes(out))
                if outs[0] != outs[1]:
                    mismatches.append(f"{preset}:{command}")
    gate.finish(not mismatches, "all identical" if not mismatches
                else "mismatch in " + ", ".join(mismatches))
