"""Monte Carlo campaigns: hitting times, shadow growth, torsion scans.

Every trial is a pure function of (parameters, seed); campaigns assign
seeds seed_base + i and aggregate in seed order, so identical configs
produce byte-identical artifacts.

CAMPAIGN_KINDS is the one table of what a campaign kind is: the trial,
which turns a config and a seed into a CSV row plus long-format trace rows;
the summary over all rows; the summary keys the CLI prints; and the
subcommand's help and options, each of which stores into a CampaignConfig
field. run_campaign and the CLI's campaign subcommands read every per-kind
decision from it, so a new kind or option is one entry there.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .complexes import MAX_VERTICES, ProcessStream, _binomial_faces, edge_cover_counts
from .complexes import triangle_edge_ranks
from .exact_linalg import check_prime
from .homology import HomologySummary, homology_Z_faces, shadow_size_deficit

# perfbench/tracing.py wraps these bindings. Only sample_fixed_size is used
# here: trials pass face arrays to homology_Z_faces, so the others' spans read 0.
from .complexes import sample_binomial, sample_fixed_size  # noqa: F401
from .exact_linalg import boundary_vector_dense  # noqa: F401
from .homology import homology_Z  # noqa: F401


@dataclass(frozen=True)
class ProcessTrace:
    """Milestones of one run of the triangle process."""

    n: int
    seed: int
    h_delta: int  # first step with every edge covered
    h_f2: int  # first step with H_1(.; F_2) = 0
    h_z: int  # first step with H_1(.; Z) = 0
    torsion_at_h_delta: tuple[int, ...]
    equal_flag: bool  # h_z == h_delta


def hitting_time_trial(n: int, seed: int) -> ProcessTrace:
    """Draw the process and locate the three hitting times exactly.

    _first_cover draws the faces into one array up to h_delta; h_f2 and h_z
    are read from Smith forms of process prefixes, which slice or extend it.
    By universal coefficients (H_0 is free), dim H_1(Y; F_2) is
    HomologySummary.betti_mod(2) = betti + #{even invariant factors}. The
    1-skeleton is fixed and B_1 only grows, so triviality over F_2 and over Z
    is monotone in the step, and both fail before h_delta. So _first_step
    finds h_f2 from h_delta on and h_z from h_f2 on; each probe is one
    homology_Z_faces on a prefix, cached by step. When H_1 is trivial at
    h_delta, the paper's w.h.p. case, that is the only Smith form run.
    """
    if not 4 <= n <= MAX_VERTICES:
        raise ValueError(f"need 4 <= n <= {MAX_VERTICES}, got {n}")
    stream = ProcessStream(n, seed, dim=2)
    faces, h_delta = _first_cover(stream)
    summaries: dict[int, HomologySummary] = {}

    def summary_at(step: int) -> HomologySummary:
        nonlocal faces
        if step not in summaries:
            if step > len(faces):
                faces = np.concatenate((faces, stream.take_array(step - len(faces))))
            summaries[step] = homology_Z_faces(n, 2, faces[:step])
        return summaries[step]

    h_f2 = _first_step(
        lambda s: summary_at(s).betti_mod(2) == 0, h_delta, stream.total
    )
    h_z = _first_step(lambda s: summary_at(s).trivial, h_f2, stream.total)
    if not h_delta <= h_f2 <= h_z:
        raise AssertionError(
            f"hitting-time chain violated: {h_delta} <= {h_f2} <= {h_z} fails"
        )
    return ProcessTrace(
        n=n,
        seed=seed,
        h_delta=h_delta,
        h_f2=h_f2,
        h_z=h_z,
        torsion_at_h_delta=summaries[h_delta].torsion,
        equal_flag=h_z == h_delta,
    )


def _first_cover(stream: ProcessStream) -> tuple[np.ndarray, int]:
    """The faces drawn from a fresh triangle stream, and h_delta among them.

    It draws (E/3) ln E faces, the coupon-collector mean of h_delta for
    E = C(n,2), then E/3 at a time; np.unique finds each edge's first cover.
    """
    edges = math.comb(stream.n, 2)
    covered = np.zeros(edges, dtype=bool)
    faces = new = stream.take_array(math.ceil(edges / 3 * math.log(edges)))
    while True:
        seen, first = np.unique(np.stack(triangle_edge_ranks(new.T), 1), return_index=True)
        fresh = ~covered[seen]
        covered[seen] = True
        if covered.all():
            return faces, len(faces) - len(new) + int(first[fresh].max()) // 3 + 1
        new = stream.take_array(math.ceil(edges / 3))
        faces = np.concatenate((faces, new))


def _first_step(holds: Callable[[int], bool], lo: int, last: int) -> int:
    """First step s in [lo, last] where holds(s), for holds monotone in s.

    Gallops to lo+1, lo+3, lo+7, ..., then bisects the last gap: an answer
    lo + g costs 2*ceil(log2(g+1)) - 1 calls after the one at lo.
    """
    if holds(lo):
        return lo
    gap, hi = 1, min(lo + 1, last)
    while not holds(hi):
        if hi == last:
            raise AssertionError("process exhausted without reaching trivial homology")
        lo, gap = hi, 2 * gap
        hi = min(lo + gap, last)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# shadow growth


def shadow_growth_trial(n: int, p: int, seed: int) -> dict:
    """Shadow deficit of one fixed-size sample at M = ceil((ln n / n) C(n,3))."""
    if n < 6:
        raise ValueError(f"need n >= 6, got {n}")
    M = math.ceil(math.log(n) / n * math.comb(n, 3))
    Y = sample_fixed_size(n, M, seed)
    deficit = shadow_size_deficit(Y, p)
    budget = n**3 / math.log(math.log(n))
    return {
        "n": n,
        "p": p,
        "seed": seed,
        "M": M,
        "deficit": deficit,
        "exceeds_budget": int(deficit > budget),
    }


# ---------------------------------------------------------------------------
# torsion-free rank at the homology threshold


def uncovered_rank_trial(n: int, p_scale: float, seed: int) -> dict:
    """Compare H_1(Y;Z) of one binomial sample against its uncovered edges.

    The Betti number can never undercut the uncovered-edge count (each
    uncovered edge carries an independent nonbounding cycle); that bound is
    asserted, while torsion-freeness and exact rank equality are recorded.
    """
    p = p_scale * math.log(n) / n
    faces = _binomial_faces(n, p, seed)
    unc = int((edge_cover_counts(n, faces) == 0).sum())
    summary = homology_Z_faces(n, 2, faces)
    if summary.betti < unc:
        raise AssertionError(
            f"betti {summary.betti} below uncovered-edge count {unc} (n={n}, seed={seed})"
        )
    return {
        "n": n,
        "p": p,
        "seed": seed,
        "uncovered": unc,
        "betti": summary.betti,
        "torsion_free": int(not summary.torsion),
        "rank_equals_uncovered": int(summary.betti == unc),
    }


# ---------------------------------------------------------------------------
# torsion scan in dimension d


# The scan draws the whole process into one int32 array, and each sample's
# Smith form has up to C(n, d+1) columns. C(100, 3) admits n <= 100 for d = 2
# and n <= 45 for d = 3.
_SCAN_MAX_FACES = 161_700


def torsion_scan(n: int, d: int, stride: int, seed: int) -> list[tuple[int, HomologySummary]]:
    """H_{d-1}(.; Z) of the d-dimensional process as (step, summary) pairs.

    Step 0, every stride-th step and the final (full) complex are sampled.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if stride < 1:
        raise ValueError("stride must be positive")
    total = math.comb(n, d + 1)
    if total > _SCAN_MAX_FACES:
        n_max = d
        while math.comb(n_max + 1, d + 1) <= _SCAN_MAX_FACES:
            n_max += 1
        raise ValueError(
            f"scan at n={n}, d={d} draws {total} faces, above {_SCAN_MAX_FACES}; "
            f"reduce n (guideline: n <= {n_max} for d = {d})"
        )
    faces = ProcessStream(n, seed, dim=d).take_array(total)
    return [
        (step, homology_Z_faces(n, d, faces[:step]))
        for step in [*range(0, total, stride), total]
    ]


# ---------------------------------------------------------------------------
# campaigns


@dataclass(frozen=True)
class CampaignConfig:
    kind: str  # a key of CAMPAIGN_KINDS
    n: int
    trials: int
    seed_base: int
    primes: tuple[int, ...] = (2,)
    d: int = 2
    stride: int = 5
    p_scale: float = 2.0
    jobs: int = 1
    out: str | None = None
    verbose_factors: bool = False

    def validate(self) -> None:
        if self.kind not in CAMPAIGN_KINDS:
            raise ValueError(f"unknown campaign kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        # shadow_growth runs primes[0]; the other kinds only record it
        if len(self.primes) != 1:
            raise ValueError(f"primes must hold one prime, got {list(self.primes)}")
        check_prime(self.primes[0])

    def to_json_dict(self) -> dict:
        """The config as <out>.json records it: every field but jobs, out and
        verbose_factors, which change how a run executes, not its rows or summary."""
        skip = ("jobs", "out", "verbose_factors")
        return {k: v for k, v in asdict(self).items() if k not in skip}


@dataclass
class CampaignReport:
    config: CampaignConfig
    rows: list[dict]
    summary: dict
    trace_rows: list[dict] = field(default_factory=list)

    def csv_text(self) -> str:
        if not self.rows:
            return ""
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=list(self.rows[0].keys()), lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(self.rows)
        return buf.getvalue()

    def json_text(self) -> str:
        doc = {"config": self.config.to_json_dict(), "summary": self.summary}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def binomial_ci95(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at 95% confidence."""
    if trials == 0:
        return (0.0, 1.0)
    z = 1.959963984540054
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# the campaign kinds: per-trial rows and summaries


def _hitting_time_rows(cfg: CampaignConfig, seed: int) -> tuple[dict, list[dict]]:
    t = hitting_time_trial(cfg.n, seed)
    row = {
        "n": t.n,
        "seed": t.seed,
        "h_delta": t.h_delta,
        "h_f2": t.h_f2,
        "h_z": t.h_z,
        "equal_flag": int(t.equal_flag),
        "torsion_at_h_delta": ";".join(map(str, t.torsion_at_h_delta)),
    }
    return row, []


def _hitting_time_summary(rows: list[dict]) -> dict:
    t = len(rows)
    eq = sum(r["equal_flag"] for r in rows)
    lo, hi = binomial_ci95(eq, t)
    return {
        "trials": t,
        "equal_fraction": eq / t,
        "equal_ci95": [lo, hi],
        "mean_h_delta": _mean(r["h_delta"] for r in rows),
        "mean_h_f2": _mean(r["h_f2"] for r in rows),
        "mean_h_z": _mean(r["h_z"] for r in rows),
        "torsion_at_h_delta_fraction": _mean(
            1.0 if r["torsion_at_h_delta"] else 0.0 for r in rows
        ),
    }


def _shadow_growth_summary(rows: list[dict]) -> dict:
    return {
        "trials": len(rows),
        "M": rows[0]["M"] if rows else 0,
        "mean_deficit": _mean(r["deficit"] for r in rows),
        "max_deficit": max((r["deficit"] for r in rows), default=0),
        "fraction_exceeding": _mean(r["exceeds_budget"] for r in rows),
    }


def _uncovered_rank_summary(rows: list[dict]) -> dict:
    t = len(rows)
    both = sum(r["torsion_free"] and r["rank_equals_uncovered"] for r in rows)
    lo, hi = binomial_ci95(both, t)
    return {
        "trials": t,
        "fraction_ok": both / t,
        "fraction_ok_ci95": [lo, hi],
        "fraction_torsion_free": _mean(r["torsion_free"] for r in rows),
        "fraction_rank_equals_uncovered": _mean(
            r["rank_equals_uncovered"] for r in rows
        ),
        "mean_uncovered": _mean(r["uncovered"] for r in rows),
    }


def _torsion_scan_rows(cfg: CampaignConfig, seed: int) -> tuple[dict, list[dict]]:
    """One row per run, and (seed, step, metric, value) trace rows per sample.

    peak_step is the first sample of largest torsion and vanish_step the first
    sample after the last torsion sighting; both are "" without torsion.
    """
    samples = torsion_scan(cfg.n, cfg.d, cfg.stride, seed)
    # step 0 comes first and is torsion-free. vanish is None from a torsion
    # sighting until the next torsion-free sample.
    max_ln, peak, vanish = samples[0][1].ln_torsion_order(), "", ""
    trace_rows = []
    for step, summary in samples:
        ln_t = summary.ln_torsion_order()
        if ln_t > max_ln:
            max_ln, peak = ln_t, step
        if ln_t > 0:
            vanish = None
        elif vanish is None:
            vanish = step
        values = {"betti": summary.betti, "ln_torsion": ln_t}
        if cfg.verbose_factors:
            values["torsion_factors"] = ";".join(map(str, summary.torsion))
        trace_rows += (
            {"seed": seed, "step": step, "metric": metric, "value": value}
            for metric, value in values.items()
        )
    row = {
        "n": cfg.n,
        "d": cfg.d,
        "seed": seed,
        "samples": len(samples),
        "max_ln_torsion": max_ln,
        "peak_step": peak,
        "vanish_step": "" if vanish is None else vanish,
        "torsion_seen": int(peak != ""),
    }
    return row, trace_rows


def _torsion_scan_summary(rows: list[dict]) -> dict:
    return {
        "trials": len(rows),
        "fraction_with_torsion": _mean(r["torsion_seen"] for r in rows),
        "max_ln_torsion": max((r["max_ln_torsion"] for r in rows), default=0.0),
        "max_ln_torsion_per_seed": {str(r["seed"]): r["max_ln_torsion"] for r in rows},
    }


@dataclass(frozen=True)
class CampaignKind:
    """What one campaign kind runs per trial and reports, and its subcommand.

    trial(cfg, seed) returns the trial's CSV row and its long-format trace
    rows, empty for kinds without a trace; summarize(rows) returns the
    summary of the finished campaign; printed names the summary keys the
    CLI prints, in order. help is the subcommand's help and options are the
    options only this kind takes, as (flags, add_argument keywords); each
    stores into the CampaignConfig field of its dest.
    """

    help: str
    trial: Callable[[CampaignConfig, int], tuple[dict, list[dict]]]
    summarize: Callable[[list[dict]], dict]
    printed: tuple[str, ...]
    options: tuple[tuple[tuple[str, ...], dict], ...] = ()


def _prime_tuple(text: str) -> tuple[int]:
    """The primes field of one --prime value (an argparse type)."""
    try:
        return (int(text),)
    except ValueError:
        import argparse  # loaded already: only argparse calls this

        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


CAMPAIGN_KINDS = {
    "hitting_time": CampaignKind(
        "hitting-time campaign over seeded trials",
        _hitting_time_rows, _hitting_time_summary, ("equal_fraction", "trials"),
    ),
    "shadow_growth": CampaignKind(
        "shadow deficit campaign at M = (ln n / n) C(n,3)",
        lambda cfg, seed: (shadow_growth_trial(cfg.n, cfg.primes[0], seed), []),
        _shadow_growth_summary,
        ("mean_deficit", "fraction_exceeding", "trials"),
        ((("--prime",), {"dest": "primes", "metavar": "PRIME", "type": _prime_tuple}),),
    ),
    "uncovered_rank": CampaignKind(
        "torsion-free rank vs uncovered edges campaign",
        lambda cfg, seed: (uncovered_rank_trial(cfg.n, cfg.p_scale, seed), []),
        _uncovered_rank_summary,
        ("fraction_ok", "trials"),
        ((("--p-scale",), {"type": float, "help": "p = p_scale * ln(n)/n"}),),
    ),
    "torsion_scan": CampaignKind(
        "torsion burst scan of the d-dimensional process",
        _torsion_scan_rows,
        _torsion_scan_summary,
        ("max_ln_torsion", "fraction_with_torsion", "trials"),
        (
            (("--d",), {"type": int}),
            (("--stride",), {"type": int}),
            (("-v", "--verbose"), {"dest": "verbose_factors", "action": "store_true",
                                   "help": "record exact torsion factors"}),
        ),
    ),
}


# ---------------------------------------------------------------------------
# running a campaign


def _run_one(cfg: CampaignConfig, seed: int) -> tuple[dict, list[dict]]:
    return CAMPAIGN_KINDS[cfg.kind].trial(cfg, seed)


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Execute trials with seeds seed_base + i, aggregate, and write artifacts.

    With cfg.out set, writes <out>.csv (one row per trial), <out>.json
    (config + aggregates) and, for kinds whose trials return trace rows,
    <out>_trace.csv in long (seed, step, metric, value) format. CSV rows are
    flushed as trials finish so partial results survive interruption.
    """
    cfg.validate()
    seeds = [cfg.seed_base + i for i in range(cfg.trials)]
    rows: list[dict] = []
    trace_rows: list[dict] = []
    writer = _StreamingCsv(f"{cfg.out}.csv") if cfg.out else None
    trace_writer = _StreamingCsv(f"{cfg.out}_trace.csv") if cfg.out else None
    pool = ProcessPoolExecutor(max_workers=cfg.jobs) if cfg.jobs > 1 else None
    try:
        if pool is not None:
            result_iter = pool.map(_run_one, [cfg] * len(seeds), seeds)
        else:
            result_iter = (_run_one(cfg, s) for s in seeds)
        for row, extra in result_iter:
            rows.append(row)
            trace_rows.extend(extra)
            if writer:
                writer.write_row(row)
            if trace_writer:
                for tr in extra:
                    trace_writer.write_row(tr)
    finally:
        if pool is not None:
            pool.shutdown()
        if writer:
            writer.close()
        if trace_writer:
            trace_writer.close()

    summary = CAMPAIGN_KINDS[cfg.kind].summarize(rows)
    report = CampaignReport(cfg, rows, summary, trace_rows)
    if cfg.out:
        with open(f"{cfg.out}.json", "w", newline="\n") as fh:
            fh.write(report.json_text())
    return report


class _StreamingCsv:
    """Per-row flushed CSV so interrupted campaigns keep finished trials.

    The file is created with the first row, so a kind without trace rows
    leaves no trace file.
    """

    def __init__(self, path: str):
        self._path = path
        self._fh = None
        self._writer: csv.DictWriter | None = None

    def write_row(self, row: dict) -> None:
        if self._writer is None:
            self._fh = open(self._path, "w", newline="\n")
            self._writer = csv.DictWriter(
                self._fh, fieldnames=list(row.keys()), lineterminator="\n"
            )
            self._writer.writeheader()
        self._writer.writerow(row)
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
