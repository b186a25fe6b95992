import csv
import math
from itertools import combinations
from pathlib import Path

import pytest

from conftest import shadow_oracle
from homoforge import experiments
from homoforge.complexes import Complex, ProcessStream, sample_fixed_size, uncovered_edges
from homoforge.exact_linalg import EchelonBasis
from homoforge.experiments import (
    CampaignConfig,
    binomial_ci95,
    hitting_time_trial,
    run_campaign,
    shadow_growth_trial,
    torsion_scan,
    uncovered_rank_trial,
)
from homoforge.homology import (
    HomologySummary,
    betti1_mod_p,
    homology_Z,
    homology_Z_faces,
    is_H1_trivial_Z,
    shadow_size_deficit,
)


def prefix_complex(n, seed, steps, dim=2):
    return Complex(n, dim, ProcessStream(n, seed, dim=dim).take(steps))


class TestHittingTimeTrial:
    def test_n4_is_deterministic(self):
        # on 4 vertices any 3 of the 4 triangles cover all edges and bound
        # a disk, so every seed hits everything at step 3
        for seed in range(6):
            t = hitting_time_trial(4, seed)
            assert (t.h_delta, t.h_f2, t.h_z) == (3, 3, 3)
            assert t.torsion_at_h_delta == ()
            assert t.equal_flag

    def test_chain_holds(self):
        for seed in range(4):
            t = hitting_time_trial(10, seed)
            assert t.h_delta <= t.h_f2 <= t.h_z
            assert t.equal_flag == (t.h_z == t.h_delta)

    def test_trace_against_recomputation(self):
        # replay the same stream and recheck every milestone independently;
        # seed 123 is an equal trial, the others have h_z - h_delta of 2, 4,
        # 15, 7 and 1, so these are where the gallop and bisection decided
        n = 10
        for seed in (123, 4, 22, 27, 28, 37):
            t = hitting_time_trial(n, seed)

            Y = prefix_complex(n, seed, t.h_delta)
            assert not uncovered_edges(Y)
            assert uncovered_edges(prefix_complex(n, seed, t.h_delta - 1))

            assert betti1_mod_p(prefix_complex(n, seed, t.h_f2), 2) == 0
            assert betti1_mod_p(prefix_complex(n, seed, t.h_f2 - 1), 2) > 0

            assert is_H1_trivial_Z(prefix_complex(n, seed, t.h_z))
            assert not is_H1_trivial_Z(prefix_complex(n, seed, t.h_z - 1))

            assert homology_Z(Y).torsion == t.torsion_at_h_delta

    def test_probe_cost(self, monkeypatch):
        # no F_2 basis is kept, and the Smith forms past h_delta are few
        def no_insert(self, v):
            raise AssertionError("hitting_time_trial inserted into an F_p basis")

        calls = []

        def counted(n, d, faces):
            calls.append(len(faces))
            return homology_Z_faces(n, d, faces)

        monkeypatch.setattr(EchelonBasis, "insert", no_insert)
        monkeypatch.setattr(experiments, "homology_Z_faces", counted)
        unequal = 0
        for seed in range(40):
            calls.clear()
            t = hitting_time_trial(8, seed)
            gap = t.h_z - t.h_delta
            if gap == 0:
                assert len(calls) == 1
            else:
                unequal += 1
                assert len(calls) <= 2 * math.ceil(math.log2(gap + 1)) + 2
        assert unequal >= 1

    def test_unequal_flag_explained(self):
        # equal_flag false must come with visible evidence at h_delta
        found = 0
        for seed in range(40):
            t = hitting_time_trial(8, seed)
            if not t.equal_flag:
                found += 1
                Y = prefix_complex(8, seed, t.h_delta)
                assert t.torsion_at_h_delta or betti1_mod_p(Y, 2) > 0
        # at n=8 inequality happens regularly; make sure we exercised it
        assert found >= 1

    def test_n_validated(self):
        with pytest.raises(ValueError):
            hitting_time_trial(3, 0)
        with pytest.raises(ValueError):
            hitting_time_trial(2001, 0)

    @pytest.mark.parametrize(
        "n, seeds",
        [(4, range(10)), (5, range(100)), (6, range(110)), (12, range(300)),
         (25, range(1025, 1045)), (40, range(10))],
    )
    def test_h_delta_matches_per_face_cover_loop(self, n, seeds):
        # The trial draws ceil((E/3) ln E) faces, E = C(n,2), then ceil(E/3) at a
        # time. At n=4 the first chunk is the whole process, at n=5 the second
        # one is cut short by the end of the process, and at n = 5, 6 and 12
        # some of these seeds have h_delta exactly at the end of a chunk.
        edges = math.comb(n, 2)
        first, later = math.ceil(edges / 3 * math.log(edges)), math.ceil(edges / 3)
        ends = {min(first + k * later, math.comb(n, 3)) for k in range(edges)}
        found = []
        for seed in seeds:
            covered = set()
            for step, f in enumerate(ProcessStream(n, seed).take(math.comb(n, 3)), 1):
                covered.update(combinations(f, 2))
                if len(covered) == edges:
                    break
            assert hitting_time_trial(n, seed).h_delta == step, seed
            found.append(step)
        if n in (5, 6, 12):
            assert ends.intersection(found)


class TestShadowGrowth:
    def test_full_complex_has_zero_deficit(self):
        assert shadow_size_deficit(Complex.full(8), 2) == 0

    def test_row_schema_and_budget(self):
        row = shadow_growth_trial(8, 2, seed=5)
        assert row["M"] == math.ceil(math.log(8) / 8 * math.comb(8, 3))
        assert 0 <= row["deficit"] <= math.comb(8, 3)
        assert row["exceeds_budget"] in (0, 1)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            shadow_growth_trial(5, 2, 0)

    def test_no_dense_basis(self, monkeypatch):
        # shadows come from one sparse elimination, not a dense F_p basis
        def refuse(self, *args):
            raise AssertionError("shadow_growth_trial used a dense F_p basis")

        monkeypatch.setattr(EchelonBasis, "insert", refuse)
        monkeypatch.setattr(EchelonBasis, "reduce_columns", refuse)
        n = 12
        M = math.ceil(math.log(n) / n * math.comb(n, 3))
        for p in (2, 3):
            for seed in range(10):
                Y = sample_fixed_size(n, M, seed)
                expected = math.comb(n, 3) - len(shadow_oracle(Y, p))
                assert shadow_growth_trial(n, p, seed)["deficit"] == expected


class TestUncoveredRank:
    def test_full_complex(self):
        Y = Complex.full(8)
        assert uncovered_edges(Y) == []
        assert homology_Z(Y).trivial

    def test_betti_dominates_uncovered(self):
        # the hard inequality: asserted inside the trial, verified here too
        for seed in range(10):
            row = uncovered_rank_trial(12, 2.0, seed)
            assert row["betti"] >= row["uncovered"]

    def test_probability_used(self):
        row = uncovered_rank_trial(10, 1.5, 0)
        assert row["p"] == pytest.approx(1.5 * math.log(10) / 10)


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


class TestTorsionScan:
    def test_endpoints_sampled_and_clean(self):
        samples = torsion_scan(8, 2, stride=7, seed=4)
        assert samples[0][0] == 0
        assert samples[-1][0] == math.comb(8, 3)
        first, last = samples[0][1], samples[-1][1]
        assert first.betti == math.comb(7, 2) and first.ln_torsion_order() == 0.0
        assert last.betti == 0 and last.ln_torsion_order() == 0.0

    def test_stride_controls_sampling(self):
        samples = torsion_scan(7, 2, stride=10, seed=1)
        steps = [s for s, _ in samples]
        assert steps == [0] + list(range(10, 35, 10)) + [35]

    def test_samples_are_homology_of_prefixes(self):
        for step, summary in torsion_scan(7, 2, stride=10, seed=1):
            assert summary == homology_Z(prefix_complex(7, 1, step))

    def test_feasibility_guard(self):
        # refused before the process is drawn
        with pytest.raises(ValueError, match="guideline"):
            torsion_scan(1000, 2, stride=5, seed=0)

    @pytest.mark.parametrize("d, n_max", [(2, 100), (3, 45)])
    def test_feasibility_guard_boundary(self, d, n_max):
        # the largest n the face limit admits runs; one more is refused with that n
        total = math.comb(n_max, d + 1)
        samples = torsion_scan(n_max, d, stride=total, seed=0)
        assert [s for s, _ in samples] == [0, total]
        with pytest.raises(ValueError, match=f"guideline: n <= {n_max} for d = {d}"):
            torsion_scan(n_max + 1, d, stride=5, seed=0)

    def test_torsion_at_n60(self):
        # seed 1 at n = 60 shows torsion at one sample of 24: Z/2 at step 1540
        samples = torsion_scan(60, 2, stride=1540, seed=1)
        assert [(s, h.torsion) for s, h in samples if h.torsion] == [(1540, (2,))]

    def test_d_validated(self):
        with pytest.raises(ValueError):
            torsion_scan(8, 1, stride=5, seed=0)

    def test_dimension_3(self):
        samples = torsion_scan(7, 3, stride=15, seed=2)
        assert samples[0][1].betti == math.comb(6, 3)
        assert samples[-1][1].betti == 0

    def test_peak_and_vanish_consistency(self):
        cfg = CampaignConfig(kind="torsion_scan", n=9, trials=1, seed_base=11, stride=3)
        row = run_campaign(cfg).rows[0]
        if row["torsion_seen"]:
            assert row["peak_step"] != ""
            if row["vanish_step"] != "":
                assert row["vanish_step"] > row["peak_step"]
        else:
            assert row["max_ln_torsion"] == 0.0
            assert row["peak_step"] == "" and row["vanish_step"] == ""

    # Random scans rarely show torsion, so the row fields are checked on
    # hand-built samples; ln torsion 0.7 stands for Z/2 and 1.1 for Z/3.
    @pytest.mark.parametrize("ln_torsion, max_ln, peak, vanish", [
        # a tie keeps the earlier step as the peak
        ([0, 0.7, 1.1, 1.1, 0], 1.1, 2, 4),
        # torsion that reappears vanishes after its last sighting
        ([0, 1.1, 0, 0, 0.7, 0, 0], 1.1, 1, 5),
        # torsion still there at the last sample has no vanish step
        ([0, 0, 0.7], 0.7, 2, ""),
        ([0, 0, 0], 0, "", ""),
    ])
    def test_row_from_samples(self, monkeypatch, ln_torsion, max_ln, peak, vanish):
        summary = {0: HomologySummary(1, ()), 0.7: HomologySummary(1, (2,)),
                   1.1: HomologySummary(1, (3,))}
        samples = list(enumerate(summary[ln_t] for ln_t in ln_torsion))
        monkeypatch.setattr(
            experiments, "torsion_scan", lambda n, d, stride, seed: samples
        )
        cfg = CampaignConfig(kind="torsion_scan", n=7, trials=1, seed_base=0)
        row = run_campaign(cfg).rows[0]
        assert row["max_ln_torsion"] == summary[max_ln].ln_torsion_order()
        assert (row["peak_step"], row["vanish_step"]) == (peak, vanish)
        assert row["torsion_seen"] == int(peak != "")

    def test_matches_benchmark_reference(self, tmp_path):
        # the benchmark's torsion_scan config; its reference lists seeds in order
        cfg = CampaignConfig(
            kind="torsion_scan", n=12, trials=5, seed_base=4000, d=2, stride=5,
            out=str(tmp_path / "torsion_scan"),
        )
        run_campaign(cfg)
        # a header, then one row per seed or 45 samples x 2 metrics per seed
        for name, lines in (("torsion_scan", 1 + 5), ("torsion_scan_trace", 1 + 5 * 90)):
            want = (REFERENCE / f"{name}.csv").read_text().splitlines(keepends=True)
            assert (tmp_path / f"{name}.csv").read_text() == "".join(want[:lines])


class TestWilsonInterval:
    def test_known_value(self):
        # hand-computed Wilson score interval for 8/10 at z = 1.95996
        lo, hi = binomial_ci95(8, 10)
        assert lo == pytest.approx(0.49016, abs=1e-4)
        assert hi == pytest.approx(0.94332, abs=1e-4)

    def test_edge_cases(self):
        lo, hi = binomial_ci95(0, 20)
        assert lo == 0.0 and 0 < hi < 0.2
        lo, hi = binomial_ci95(20, 20)
        assert 0.8 < lo < 1.0 and hi == 1.0

    def test_contains_point_estimate(self):
        for k, t in [(1, 7), (3, 9), (50, 100)]:
            lo, hi = binomial_ci95(k, t)
            assert lo <= k / t <= hi


class TestCampaigns:
    def test_single_trial_matches_direct_call(self, tmp_path):
        cfg = CampaignConfig(
            kind="hitting_time", n=8, trials=1, seed_base=42,
            out=str(tmp_path / "c"),
        )
        report = run_campaign(cfg)
        direct = hitting_time_trial(8, 42)
        row = report.rows[0]
        assert (row["h_delta"], row["h_f2"], row["h_z"]) == (
            direct.h_delta, direct.h_f2, direct.h_z,
        )
        assert row["equal_flag"] == int(direct.equal_flag)

    def test_identical_config_identical_bytes(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            cfg = CampaignConfig(
                kind="hitting_time", n=7, trials=5, seed_base=9,
                out=str(tmp_path / run),
            )
            run_campaign(cfg)
            outputs.append(
                (
                    (tmp_path / f"{run}.csv").read_bytes(),
                    (tmp_path / f"{run}.json").read_bytes(),
                )
            )
        assert outputs[0][0] == outputs[1][0]
        # json embeds no paths, so the two runs agree byte for byte
        assert outputs[0][1] == outputs[1][1]

    def test_csv_readable_and_complete(self, tmp_path):
        cfg = CampaignConfig(
            kind="uncovered_rank", n=10, trials=4, seed_base=0,
            out=str(tmp_path / "u"),
        )
        report = run_campaign(cfg)
        with open(tmp_path / "u.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert [int(r["seed"]) for r in rows] == [0, 1, 2, 3]
        assert report.summary["trials"] == 4

    def test_torsion_campaign_long_format(self, tmp_path):
        cfg = CampaignConfig(
            kind="torsion_scan", n=7, trials=2, seed_base=1, stride=10,
            out=str(tmp_path / "t"),
        )
        report = run_campaign(cfg)
        with open(tmp_path / "t_trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["metric"] for r in rows} == {"betti", "ln_torsion"}
        per_seed = {r["seed"] for r in rows}
        assert per_seed == {"1", "2"}
        assert "max_ln_torsion_per_seed" in report.summary

    def test_shadow_growth_campaign(self):
        cfg = CampaignConfig(
            kind="shadow_growth", n=8, trials=3, seed_base=5, primes=(2,),
        )
        report = run_campaign(cfg)
        assert report.summary["trials"] == 3
        assert report.summary["mean_deficit"] >= 0

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_campaign(
            CampaignConfig(kind="hitting_time", n=7, trials=4, seed_base=3, jobs=1)
        )
        parallel = run_campaign(
            CampaignConfig(kind="hitting_time", n=7, trials=4, seed_base=3, jobs=2)
        )
        assert serial.rows == parallel.rows

    def test_config_validated(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(kind="nope", n=5, trials=1, seed_base=0))
        with pytest.raises(ValueError):
            run_campaign(
                CampaignConfig(kind="hitting_time", n=5, trials=0, seed_base=0)
            )
        with pytest.raises(ValueError):
            run_campaign(
                CampaignConfig(
                    kind="shadow_growth", n=8, trials=1, seed_base=0, primes=(4,)
                )
            )

    @pytest.mark.parametrize("primes", [(), (2, 3)])
    def test_primes_must_hold_one_prime(self, tmp_path, primes):
        cfg = CampaignConfig(kind="shadow_growth", n=8, trials=1, seed_base=0,
                             primes=primes, out=str(tmp_path / "s"))
        with pytest.raises(ValueError, match="primes must hold one prime"):
            run_campaign(cfg)
        assert not list(tmp_path.iterdir())

    def test_json_config_keys(self):
        cfg = CampaignConfig(kind="hitting_time", n=8, trials=1, seed_base=0,
                             jobs=2, out="x", verbose_factors=True)
        assert list(cfg.to_json_dict()) == [
            "kind", "n", "trials", "seed_base", "primes", "d", "stride", "p_scale",
        ]
