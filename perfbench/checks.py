"""Output checks: frozen reference rows where recorded, invariants elsewhere.

A trial's CSV row (and, for torsion scans, its trace rows) must equal the
reference byte for byte when its seed has one. Seeds without a reference
are checked against the campaign's own invariants. The CSV header must
always equal the reference header.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Reference:
    header: str
    rows: dict  # seed -> CSV line
    trace_header: str | None = None
    trace: dict | None = None  # seed -> list of trace CSV lines


def _lines_by_seed(path: Path, many: bool):
    lines = path.read_text().splitlines()
    header, body = lines[0], lines[1:]
    col = header.split(",").index("seed")
    by_seed: dict = {}
    for line in body:
        seed = int(line.split(",")[col])
        if many:
            by_seed.setdefault(seed, []).append(line)
        else:
            by_seed[seed] = line
    return header, by_seed


def reference_paths(w) -> tuple[Path, Path | None]:
    trace = REFERENCE_DIR / f"{w.name}_trace.csv" if w.kind == "torsion_scan" else None
    return REFERENCE_DIR / f"{w.name}.csv", trace


def load_reference(w) -> Reference:
    main, trace = reference_paths(w)
    header, rows = _lines_by_seed(main, many=False)
    ref = Reference(header, rows)
    if trace is not None:
        ref.trace_header, ref.trace = _lines_by_seed(trace, many=True)
    return ref


def check_batch(w, cfg, ref: Reference) -> int:
    """Number of trials of one finished campaign whose output is wrong."""
    seeds = range(cfg.seed_base, cfg.seed_base + cfg.trials)
    try:
        with open(f"{cfg.out}.json") as fh:
            summary = json.load(fh)["summary"]
        header, rows = _lines_by_seed(Path(f"{cfg.out}.csv"), many=False)
        trace = None
        if ref.trace is not None:
            trace_header, trace = _lines_by_seed(
                Path(f"{cfg.out}_trace.csv"), many=True)
            if trace_header != ref.trace_header:
                return cfg.trials
    except (OSError, ValueError, KeyError, IndexError):
        return cfg.trials
    if header != ref.header or summary.get("trials") != cfg.trials:
        return cfg.trials
    return sum(not _trial_ok(w, s, rows, trace, ref) for s in seeds)


def _trial_ok(w, seed, rows, trace, ref: Reference) -> bool:
    line = rows.get(seed)
    if line is None:
        return False
    trace_lines = trace.get(seed, []) if trace is not None else None
    if seed in ref.rows:
        return line == ref.rows[seed] and (
            trace is None or trace_lines == ref.trace.get(seed))
    row = dict(zip(ref.header.split(","), next(csv.reader([line]))))
    try:
        return INVARIANTS[w.kind](w, row, trace_lines)
    except (KeyError, ValueError):
        return False


def _hitting(w, row, _trace) -> bool:
    h_delta, h_f2, h_z = int(row["h_delta"]), int(row["h_f2"]), int(row["h_z"])
    torsion = [int(t) for t in row["torsion_at_h_delta"].split(";") if t]
    return (
        int(row["n"]) == w.n
        and 1 <= h_delta <= h_f2 <= h_z <= math.comb(w.n, 3)
        and int(row["equal_flag"]) == int(h_z == h_delta)
        and all(t > 1 for t in torsion)
    )


def _uncovered(w, row, _trace) -> bool:
    betti, unc = int(row["betti"]), int(row["uncovered"])
    return (
        0 <= unc <= betti
        and int(row["rank_equals_uncovered"]) == int(betti == unc)
        and row["torsion_free"] in ("0", "1")
    )


def _shadow(w, row, _trace) -> bool:
    n, deficit = w.n, int(row["deficit"])
    budget = n**3 / math.log(math.log(n))
    return (
        int(row["M"]) == math.ceil(math.log(n) / n * math.comb(n, 3))
        and int(row["p"]) == w.options["primes"][0]
        and 0 <= deficit <= math.comb(n, 3)
        and int(row["exceeds_budget"]) == int(deficit > budget)
    )


def _torsion(w, row, trace) -> bool:
    n, d, stride = w.n, w.options["d"], w.options["stride"]
    total = math.comb(n, d + 1)
    samples = 1 + total // stride + (1 if total % stride else 0)
    values = {}
    for line in trace:
        _, step, metric, value = next(csv.reader([line]))
        values[(int(step), metric)] = float(value)
    # torsion-free at both ends: empty complex and full complex
    return (
        int(row["samples"]) == samples
        and len(trace) == 2 * samples
        and values[(0, "ln_torsion")] == 0.0
        and values[(0, "betti")] == math.comb(n - 1, d)
        and values[(total, "ln_torsion")] == 0.0
        and values[(total, "betti")] == 0
    )


INVARIANTS = {
    "hitting_time": _hitting,
    "uncovered_rank": _uncovered,
    "shadow_growth": _shadow,
    "torsion_scan": _torsion,
}
