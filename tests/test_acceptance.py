"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -s` to watch the lines as they land;
without -s they appear in captured output. The campaign seeds are frozen,
so every number asserted here is reproducible bit for bit.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import rank_over_Q, random_complex
from homoforge.complexes import Complex, ProcessStream, uncovered_edges
from homoforge.exact_linalg import (
    SparseIntMatrix,
    boundary_matrix,
    minor_gcd_oracle,
    smith_normal_form,
)
from homoforge.experiments import (
    CampaignConfig,
    binomial_ci95,
    run_campaign,
)
from homoforge.homology import betti1_mod_p, homology_Z, is_H1_trivial_Z, shadow


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"\n[acceptance] criterion {num} ({name}): PASS")


# -- shared campaign runs (criteria 5 and 6 read the same traces) -----------

HITTING_PLAN = {10: (100, 1010), 15: (200, 1015), 20: (100, 1020), 25: (200, 1025)}


@pytest.fixture(scope="module")
def hitting_reports():
    return {
        n: run_campaign(
            CampaignConfig(kind="hitting_time", n=n, trials=trials, seed_base=base)
        )
        for n, (trials, base) in HITTING_PLAN.items()
    }


@pytest.fixture(scope="module")
def shadow_samples():
    """200 random complexes on n <= 8 with at most 10 faces each."""
    rng = random.Random(90210)
    samples = []
    for _ in range(200):
        n = rng.randint(4, 8)
        samples.append(random_complex(n, rng.randint(0, 10), rng))
    return samples


def test_criterion_1_snf_vs_minor_gcd():
    # 1000 random matrices up to 8x8, entries in [-9, 9]: invariant-factor
    # products match the brute-force minor gcd at every k <= rank, and the
    # divisibility chain holds.
    with criterion(1, "snf matches minor-gcd oracle"):
        rng = random.Random(18)
        for _ in range(1000):
            r, c = rng.randint(1, 8), rng.randint(1, 8)
            dense = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            m = SparseIntMatrix.from_dense(dense)
            res = smith_normal_form(m)
            for a, b in zip(res.invariant_factors, res.invariant_factors[1:]):
                assert b % a == 0
            prod = 1
            for k, d in enumerate(res.invariant_factors, start=1):
                prod *= d
                assert prod == minor_gcd_oracle(m, k), (dense, k)


def test_criterion_2_classical_fixtures(rp2, torus):
    with criterion(2, "projective plane and torus fixtures"):
        assert homology_Z(rp2).torsion == (2,)
        assert homology_Z(rp2).betti == 0

        m = boundary_matrix(torus)
        rank = rank_over_Q(m.to_dense())  # independent elimination oracle
        summary = homology_Z(torus)
        assert summary.betti == math.comb(7, 2) - 6 - rank
        assert summary.betti == 2
        assert summary.torsion == ()


def test_criterion_3_shadow_oracle_equivalence(shadow_samples):
    # echelon-span membership agrees with the defining test (F_p Betti
    # number unchanged by the added triple) for every triple of every
    # sample and p in {2, 3, 5}.
    with criterion(3, "shadow membership equals definitional test"):
        for Y in shadow_samples:
            for p in (2, 3, 5):
                sh = shadow(Y, p)
                base = betti1_mod_p(Y, p)
                for r, t in enumerate(_all_triples(Y.n)):
                    bigger = Y.copy()
                    bigger.add_face(t)
                    definitional = betti1_mod_p(bigger, p) == base
                    assert sh.contains_rank(r) == definitional, (Y, t, p)


def test_criterion_4_shadow_conditions(shadow_samples):
    # condition (II): every face of Y is in the shadow; condition (I),
    # cone case: a triple whose three cone triangles over some apex are
    # members is itself a member. Zero violations allowed.
    with criterion(4, "shadow satisfies cone closure and face membership"):
        for Y in shadow_samples:
            for p in (2, 3, 5):
                sh = shadow(Y, p)
                for f in Y.faces:
                    assert sh.contains(f)
                for t in _all_triples(Y.n):
                    if sh.contains(t):
                        continue
                    x, y, z = t
                    for v in range(Y.n):
                        if v in t:
                            continue
                        assert not (
                            sh.contains(tuple(sorted((x, y, v))))
                            and sh.contains(tuple(sorted((x, z, v))))
                            and sh.contains(tuple(sorted((y, z, v))))
                        ), (Y, t, v, p)


def _all_triples(n):
    from homoforge.complexes import triples_colex

    return list(triples_colex(n))


def test_criterion_5_hitting_time_hard_chain(hitting_reports):
    # in every trial: h_delta <= h_f2 <= h_z, and one step before h_delta
    # the integral homology is computably nontrivial.
    with criterion(5, "hitting-time chain and pre-threshold nontriviality"):
        for n, report in hitting_reports.items():
            base = HITTING_PLAN[n][1]
            for row in report.rows:
                assert row["h_delta"] <= row["h_f2"] <= row["h_z"], row
                seed = row["seed"]
                assert seed >= base
                prefix = Complex(
                    n, 2, ProcessStream(n, seed).take(row["h_delta"] - 1)
                )
                assert uncovered_edges(prefix), row
                assert betti1_mod_p(prefix, 2) >= 1, row
                assert not is_H1_trivial_Z(prefix), row


def test_criterion_6_hitting_time_statistics(hitting_reports):
    # the desk-scale stand-in for the asymptotic statement: at n=25 the
    # equality frequency clears 0.8, and it does not significantly drop
    # between n=15 and n=25 (95% CI overlap allows noise).
    with criterion(6, "equality frequency at desk scale"):
        frac = {}
        ci = {}
        for n in (15, 25):
            report = hitting_reports[n]
            k = sum(r["equal_flag"] for r in report.rows)
            t = len(report.rows)
            assert t == 200
            frac[n] = k / t
            ci[n] = binomial_ci95(k, t)
        assert frac[25] >= 0.8, frac
        overlap = ci[15][0] <= ci[25][1] and ci[25][0] <= ci[15][1]
        assert frac[25] >= frac[15] or overlap, (frac, ci)
        print(f"\n[acceptance]   equal_fraction: n=15 {frac[15]:.3f}, n=25 {frac[25]:.3f}")


def test_criterion_7_torsion_free_rank():
    # n=30, p = 2 ln n / n, 100 seeds: H_1 torsion-free with betti equal to
    # the uncovered-edge count in at least 90% of seeds; betti >= uncovered
    # holds in every seed (asserted inside each trial as well).
    with criterion(7, "torsion-free rank vs uncovered edges"):
        report = run_campaign(
            CampaignConfig(
                kind="uncovered_rank", n=30, trials=100, seed_base=7000, p_scale=2.0
            )
        )
        for row in report.rows:
            assert row["betti"] >= row["uncovered"], row
        assert report.summary["fraction_ok"] >= 0.9, report.summary
        print(f"\n[acceptance]   fraction_ok={report.summary['fraction_ok']}")


def test_criterion_8_torsion_scan():
    # n=12, d=2, 20 seeds: the scan completes, is torsion-free at both
    # endpoints, and reports max ln|torsion| per seed (presence of torsion
    # is reported, never asserted).
    with criterion(8, "torsion scan completes with clean endpoints"):
        report = run_campaign(
            CampaignConfig(
                kind="torsion_scan", n=12, trials=20, seed_base=4000, stride=5
            )
        )
        assert len(report.rows) == 20
        per_seed = report.summary["max_ln_torsion_per_seed"]
        assert len(per_seed) == 20
        by_seed = {}
        for tr in report.trace_rows:
            by_seed.setdefault(tr["seed"], []).append(tr)
        for seed, rows in by_seed.items():
            ln_t = {
                r["step"]: r["value"] for r in rows if r["metric"] == "ln_torsion"
            }
            betti = {r["step"]: r["value"] for r in rows if r["metric"] == "betti"}
            assert ln_t[0] == 0.0 and betti[0] == math.comb(11, 2)
            full = math.comb(12, 3)
            assert ln_t[full] == 0.0 and betti[full] == 0
        print(f"\n[acceptance]   max ln|torsion| per seed: {per_seed}")


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical configs give identical artifacts"):
        pairs = []
        for name in ("first", "second"):
            out = tmp_path / f"h_{name}"
            run_campaign(
                CampaignConfig(
                    kind="hitting_time", n=8, trials=5, seed_base=77, out=str(out)
                )
            )
            pairs.append(out)
        for ext in (".csv", ".json"):
            assert Path(str(pairs[0]) + ext).read_bytes() == Path(
                str(pairs[1]) + ext
            ).read_bytes()

        scans = []
        for name in ("first", "second"):
            out = tmp_path / f"t_{name}"
            run_campaign(
                CampaignConfig(
                    kind="torsion_scan", n=8, trials=2, seed_base=5, stride=8,
                    out=str(out),
                )
            )
            scans.append(out)
        for ext in (".csv", ".json", "_trace.csv"):
            assert Path(str(scans[0]) + ext).read_bytes() == Path(
                str(scans[1]) + ext
            ).read_bytes()
