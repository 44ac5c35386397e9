"""Output checks that decide whether a job counts as failed.

* preset jobs: each artifact named in ``reference.json`` (sha256 recorded
  at the seed commit; ``manifest.txt`` left out) must match.  Files the
  reference does not name are ignored, so a newly added artifact is not
  a mismatch.
* every workload: a job's artifacts must be byte-identical on every pass
  of a run (``manifest.txt`` compared by its sha256 lines only).
* checks that use none of the code under test, where a theorem gives one:
  p(n) = n + 1 for the golden coding with cut ``one_minus_golden``;
  p(n) = 2**n for n <= order on a de Bruijn word; and, for a read-back,
  the counts equal those this module computes from the generated file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 per artifact file; the manifest contributes only its sha256 lines."""
    digests = {}
    for path in sorted(Path(out_dir).iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.txt":
            data = b"\n".join(line for line in data.splitlines()
                              if line.startswith(b"sha256 "))
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def check_job(job: dict, out_root: Path, digests: dict, reference: dict,
              deep: bool) -> list[str]:
    """Problems found in one job's outputs; ``deep`` adds the read-back recount."""
    problems = []
    if "preset" in job:
        for name, want in reference[job["id"]].items():
            if digests.get(name) != want:
                problems.append(f"{name} differs from the seed-commit reference")
    check = job.get("check", {})
    if not check:
        return problems
    counts = _complexity_counts(out_root / job["id"] / "complexity.csv")
    if "sturmian_golden" in check:
        want = [n + 1 for n in range(1, check["sturmian_golden"] + 1)]
        if counts != want:
            problems.append(f"golden coding p(n) = {counts}, theorem gives n + 1")
    if "de_bruijn" in check:
        top = min(check["de_bruijn"], len(counts))
        if counts[:top] != [2 ** n for n in range(1, top + 1)]:
            problems.append(f"de Bruijn p(n) = {counts[:top]}, theorem gives 2**n")
    if deep and "readback" in check:
        symbols = read_seq(out_root / check["readback"] / "sequence.seq")
        want = recount(symbols, _box(job["config"]), len(counts))
        if counts != want:
            problems.append(f"read-back p(n) = {counts}, generated file gives {want}")
    return problems


def _complexity_counts(path: Path) -> list[int]:
    rows = path.read_text().splitlines()[1:]
    return [int(row.split(",")[1]) for row in rows]


def _box(config: str) -> list[tuple[int, int]]:
    line = next(l for l in config.splitlines() if l.startswith("box = "))
    return [tuple(int(v) for v in axis.split(":")) for axis in line[6:].split(";")]


def read_seq(path: Path) -> tuple[tuple[int, ...], np.ndarray]:
    """(origin, symbols) of a TAMELAB-SEQ v1 file, parsed without tamelab."""
    header, body = path.read_bytes().split(b"\n", 1)
    fields = dict(f.split(b"=", 1) for f in header.split()[2:])
    origin = tuple(int(v) for v in fields[b"origin"].split(b","))
    extents = tuple(int(v) for v in fields[b"extents"].split(b","))
    digits = np.frombuffer(body.replace(b"\n", b""), dtype=np.uint8)
    values = np.where(digits >= ord("a"), digits - ord("a") + 10, digits - ord("0"))
    return origin, values.astype(np.uint8).reshape(extents)


def recount(seq: tuple, box: list[tuple[int, int]], n_max: int) -> list[int]:
    """Distinct contiguous n-boxes of the file's symbols over ``box``, n = 1..n_max."""
    origin, symbols = seq
    sym = symbols[tuple(slice(lo - o, hi - o) for (lo, hi), o in zip(box, origin))]
    m = int(symbols.max()) + 1
    counts = []
    if sym.ndim == 1:
        codes = np.zeros(sym.size, dtype=np.int64)
        for n in range(1, n_max + 1):
            codes = codes[:sym.size - n + 1] * m + sym[n - 1:]
            counts.append(int(np.unique(codes).size))
        return counts
    for n in range(1, n_max + 1):
        view = np.lib.stride_tricks.sliding_window_view(sym, (n,) * sym.ndim)
        rows = view.reshape(-1, n ** sym.ndim)
        counts.append(int(np.unique(rows, axis=0).shape[0]))
    return counts
