import argparse
import hashlib
import json
import math
from dataclasses import asdict, fields

import pytest

from homoforge import cli
from homoforge.cli import main
from homoforge.complexes import Complex, TripleSet, load_complex, save_complex
from homoforge.exact_linalg import SparseIntMatrix, write_matrix_file
from homoforge.experiments import CAMPAIGN_KINDS, CampaignConfig
from homoforge.homology import shadow
from homoforge.shady_partitions import Thresholds, save_labels


def write_complex(tmp_path, Y, name="y.json"):
    path = tmp_path / name
    save_complex(Y, str(path))
    return str(path)


def pinned_complex(rp2):
    return Complex(9, 2, list(rp2.faces)
                   + [(0, 6, 7), (1, 7, 8), (2, 6, 8), (3, 4, 8), (5, 6, 7)])


def matrix_file(tmp_path, dense, name="m.txt"):
    path = tmp_path / name
    write_matrix_file(SparseIntMatrix.from_dense(dense), str(path))
    return str(path)


class TestSample:
    def test_writes_json_complex(self, tmp_path):
        out = tmp_path / "y.json"
        assert main(["sample", "--n", "6", "--p", "0.5", "--seed", "1",
                     "--out", str(out)]) == 0
        Y = load_complex(str(out))
        assert Y.n == 6

    def test_fixed_size_to_stdout(self, capsys):
        assert main(["sample", "--n", "6", "--m", "4", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["faces"]) == 4

    def test_p_and_m_exclusive(self, capsys):
        assert main(["sample", "--n", "6", "--p", "0.5", "--m", "3",
                     "--seed", "1"]) == 2

    def test_missing_n_usage_error(self, capsys):
        assert main(["sample", "--p", "0.5", "--seed", "1"]) == 2

    def test_seed_required(self):
        assert main(["sample", "--n", "6", "--p", "0.5"]) == 2

    def test_invalid_p(self, capsys):
        assert main(["sample", "--n", "6", "--p", "1.5", "--seed", "1"]) == 2


class TestHomologyCmd:
    def test_text_output(self, tmp_path, capsys, rp2):
        path = write_complex(tmp_path, rp2)
        assert main(["homology", "--in", path]) == 0
        assert capsys.readouterr().out.strip() == "betti=0 torsion=2"

    def test_json_output(self, tmp_path, capsys, torus):
        path = write_complex(tmp_path, torus)
        assert main(["homology", "--in", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["betti"] == 2 and doc["torsion"] == []

    def test_text_format_file(self, tmp_path, capsys):
        path = tmp_path / "y.txt"
        save_complex(Complex.full(5), str(path), fmt="text")
        assert main(["homology", "--in", str(path)]) == 0
        assert "betti=0" in capsys.readouterr().out

    def test_missing_file_is_io_error(self):
        assert main(["homology", "--in", "/nonexistent/x.json"]) == 1

    def test_malformed_json_fields_are_usage_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for doc, field in (
            ({"n": "7", "dim": 2, "faces": []}, "'n'"),
            ({"n": 7, "dim": 2.0, "faces": []}, "'dim'"),
            ({"n": 7, "dim": 2, "faces": [1]}, "'faces'"),
            ({"n": 7, "dim": 2, "faces": [["1", "2", "3"]]}, "'faces'"),
            ({"n": 7, "dim": 2, "faces": {"1": 2}}, "'faces'"),
        ):
            path.write_text(json.dumps(doc))
            assert main(["homology", "--in", str(path)]) == 2, doc
            err = capsys.readouterr().err
            assert err.startswith("error: ") and field in err, (doc, err)

    def test_vertex_count_beyond_limit_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 100_000, "dim": 2, "faces": []}))
        assert main(["homology", "--in", str(path)]) == 2
        assert capsys.readouterr().err == "error: need n <= 2000, got 100000\n"


class TestSnfCmd:
    def test_identity(self, tmp_path, capsys):
        path = matrix_file(tmp_path, [[1, 0], [0, 1]])
        assert main(["snf", "--in", path]) == 0
        assert capsys.readouterr().out == "1\n1\n"

    def test_two_by_two(self, tmp_path, capsys):
        path = matrix_file(tmp_path, [[2, 4], [6, 8]])
        assert main(["snf", "--in", path]) == 0
        assert capsys.readouterr().out == "2\n4\n"

    def test_empty_matrix_no_output(self, tmp_path, capsys):
        path = tmp_path / "z.txt"
        path.write_text("3 3\n")
        assert main(["snf", "--in", str(path)]) == 0
        assert capsys.readouterr().out == ""

    def test_malformed_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n0 0 one\n")
        assert main(["snf", "--in", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err


class TestShadowCmd:
    def test_full_complex(self, tmp_path, capsys):
        path = write_complex(tmp_path, Complex.full(6))
        assert main(["shadow", "--in", path, "--prime", "2"]) == 0
        assert capsys.readouterr().out.strip() == "size=20 deficit=0"

    def test_empty_complex(self, tmp_path, capsys):
        path = write_complex(tmp_path, Complex(5))
        assert main(["shadow", "--in", path, "--prime", "3"]) == 0
        assert capsys.readouterr().out.strip() == "size=0 deficit=10"

    def test_boundary_sum_example(self, tmp_path, capsys):
        Y = Complex(4, 2, [(0, 1, 3), (0, 2, 3), (1, 2, 3)])
        path = write_complex(tmp_path, Y)
        assert main(["shadow", "--in", path, "--prime", "2"]) == 0
        size = int(capsys.readouterr().out.split()[0].split("=")[1])
        assert size >= 4

    def test_composite_prime_rejected(self, tmp_path, capsys):
        path = write_complex(tmp_path, Complex(5))
        assert main(["shadow", "--in", path, "--prime", "4"]) == 2

    def test_out_files(self, tmp_path, capsys):
        Y = Complex.full(5)
        path = write_complex(tmp_path, Y)
        out = tmp_path / "sh"
        assert main(["shadow", "--in", path, "--prime", "2", "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "sh.json").read_text())
        assert summary == {"n": 5, "p": 2, "size": 10, "deficit": 0}
        back = TripleSet.from_bytes((tmp_path / "sh.bits").read_bytes(), 5)
        assert back.size == back.total == 10

    # RP^2 on vertices 0..5 plus five triangles through 6, 7, 8: its Z/2
    # torsion makes the shadows at p = 2 and p = 3 differ
    @pytest.mark.parametrize(
        "prime, bits_digest, json_digest",
        [
            (2, "f620e5fdf13e86c5c504fee727f8ff7e036de8209fe0ea23b35c2233976b513a",
             "9193adaf8c6ef8c3483923046db0df4aaf7fd6fdb1369e96603e951a12091ade"),
            (3, "ccb55bcb1d2caf60717c4855687c287946d3bf3126ad0fafb08d44f32da9227c",
             "60ac14dd3ebe0f1336a78950392ac58ce7034a8920dd0f4ac41014a138d6e208"),
        ],
    )
    def test_pinned_out_files(self, tmp_path, capsys, rp2, prime, bits_digest,
                              json_digest):
        path = write_complex(tmp_path, pinned_complex(rp2))
        out = tmp_path / "sh"
        assert main(["shadow", "--in", path, "--prime", str(prime),
                     "--out", str(out)]) == 0
        for suffix, digest in ((".bits", bits_digest), (".json", json_digest)):
            data = (tmp_path / f"sh{suffix}").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, suffix


class TestVerifyPartitionCmd:
    def test_pinned_labels_file(self, tmp_path, rp2):
        # bad = the complement of the p = 2 shadow of the pinned complex
        lpath = tmp_path / "labels.bits"
        save_labels(shadow(pinned_complex(rp2), 2).complement(), str(lpath))
        assert hashlib.sha256(lpath.read_bytes()).hexdigest() == (
            "f01e5862de4e645dabf21369c6a2788fac0a4a060e08d0209d26e76ab0dd224d"
        )

    def test_complete_passes(self, tmp_path, capsys):
        Y = Complex(6, 2, [(0, 1, 2)])
        cpath = write_complex(tmp_path, Y)
        lpath = tmp_path / "labels.bits"
        save_labels(TripleSet(6), str(lpath))
        assert main(["verify-partition", "--in", cpath, "--labels", str(lpath)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["condII"] and doc["condIII"] and doc["condI_cone"]

    def test_bad_face_fails(self, tmp_path, capsys):
        Y = Complex(6, 2, [(0, 1, 2)])
        cpath = write_complex(tmp_path, Y)
        lpath = tmp_path / "labels.bits"
        save_labels(TripleSet.of(6, [(0, 1, 2)]), str(lpath))
        assert main(["verify-partition", "--in", cpath, "--labels", str(lpath)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["condII"] is False

    def test_shadow_labels_pass(self, tmp_path, capsys):
        from homoforge.complexes import sample_binomial

        Y = sample_binomial(7, 0.6, 3)
        cpath = write_complex(tmp_path, Y)
        lpath = tmp_path / "labels.bits"
        save_labels(shadow(Y, 2).complement(), str(lpath))
        code = main(
            ["verify-partition", "--in", cpath, "--labels", str(lpath),
             "--max-bad", str(math.comb(7, 3))]
        )
        assert code == 0

    def test_malformed_labels_header_is_usage_error(self, tmp_path, capsys):
        cpath = write_complex(tmp_path, Complex(7))
        lpath = tmp_path / "labels.bits"
        payload = bytes((math.comb(7, 3) + 7) // 8)
        for header, field in (
            ({"count_bad": 0}, "'n'"),
            ({"n": 7}, "'count_bad'"),
            ({"n": "7", "count_bad": 0}, "'n'"),
            ({"n": 7, "count_bad": None}, "'count_bad'"),
            ([7, 0], "'n'"),
        ):
            lpath.write_bytes(json.dumps(header).encode() + b"\n" + payload)
            code = main(["verify-partition", "--in", cpath, "--labels", str(lpath)])
            assert code == 2, header
            err = capsys.readouterr().err
            assert err.startswith("error: ") and field in err, (header, err)

    def test_size_mismatch(self, tmp_path, capsys):
        cpath = write_complex(tmp_path, Complex(6))
        lpath = tmp_path / "labels.bits"
        save_labels(TripleSet(7), str(lpath))
        assert main(["verify-partition", "--in", cpath, "--labels", str(lpath)]) == 2
        assert capsys.readouterr().err == "error: complex has n=6 but labels have n=7\n"

    @pytest.mark.parametrize("given", [
        {},
        {"theta_edge": 2},
        {"theta_vertex": 3, "max_bad_triples": 40},
        {"theta_edge": 1, "theta_vertex": 1, "max_bad_triples": 84},
    ])
    def test_threshold_options(self, tmp_path, capsys, given):
        flags = {"theta_edge": "--theta-edge", "theta_vertex": "--theta-vertex",
                 "max_bad_triples": "--max-bad"}
        cpath = write_complex(tmp_path, Complex(9, 2, [(0, 1, 2)]))
        lpath = tmp_path / "labels.bits"
        save_labels(TripleSet(9), str(lpath))
        argv = ["verify-partition", "--in", cpath, "--labels", str(lpath)]
        for name, value in given.items():
            argv += [flags[name], str(value)]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["thresholds"] == {**asdict(Thresholds.defaults(9)), **given}

    def test_max_bad_zero_is_usage_error(self, tmp_path, capsys):
        cpath = write_complex(tmp_path, Complex(6))
        lpath = tmp_path / "labels.bits"
        save_labels(TripleSet(6), str(lpath))
        argv = ["verify-partition", "--in", cpath, "--labels", str(lpath), "--max-bad", "0"]
        assert main(argv) == 2
        assert "max_bad_triples must be positive" in capsys.readouterr().err


class TestCampaignCmds:
    def test_hitting_time_summary_line(self, tmp_path, capsys):
        code = main(["hitting-time", "--n", "4", "--trials", "1", "--seed", "7"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "n,seed,h_delta,h_f2,h_z,equal_flag,torsion_at_h_delta",
            "4,7,3,3,3,1,",
            "equal_fraction=1.0 trials=1 n=4",
        ]

    def test_missing_n(self, capsys):
        assert main(["hitting-time", "--trials", "1", "--seed", "7"]) == 2

    def test_deterministic_outputs(self, tmp_path, capsys):
        blobs = []
        for name in ("r1", "r2"):
            code = main(
                ["hitting-time", "--n", "6", "--trials", "4", "--seed", "1",
                 "--out", str(tmp_path / name)]
            )
            assert code == 0
            blobs.append((tmp_path / f"{name}.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_json_rows_to_stdout(self, capsys):
        code = main(
            ["hitting-time", "--n", "4", "--trials", "2", "--seed", "0",
             "--format", "json"]
        )
        assert code == 0
        rows_line = capsys.readouterr().out.splitlines()[0]
        rows = json.loads(rows_line)
        assert len(rows) == 2 and rows[0]["h_z"] == 3

    def test_shadow_growth_cmd(self, capsys):
        code = main(
            ["shadow-growth", "--n", "8", "--trials", "2", "--seed", "3",
             "--prime", "2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,p,seed,M,deficit,exceeds_budget"
        assert lines[-1] == "mean_deficit=37.5 fraction_exceeding=0.0 trials=2 n=8"

    def test_prime_beyond_word_range_rejected_before_output(self, tmp_path, capsys):
        out = tmp_path / "X"
        code = main(
            ["shadow-growth", "--n", "8", "--trials", "1", "--seed", "3",
             "--prime", "2147483659", "--out", str(out)]
        )
        assert code == 2
        assert "word-sized range" in capsys.readouterr().err
        assert not (tmp_path / "X.csv").exists()

    def test_uncovered_rank_cmd(self, capsys):
        code = main(
            ["uncovered-rank", "--n", "10", "--trials", "2", "--seed", "5"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "n,p,seed,uncovered,betti,torsion_free,rank_equals_uncovered"
        )
        assert lines[-1] == "fraction_ok=1.0 trials=2 n=10"

    def test_torsion_scan_cmd(self, tmp_path, capsys):
        code = main(
            ["torsion-scan", "--n", "7", "--trials", "1", "--seed", "2",
             "--stride", "10", "--out", str(tmp_path / "ts")]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "max_ln_torsion=0 fraction_with_torsion=0.0 trials=1 n=7\n"
        )
        header = (tmp_path / "ts.csv").read_text().splitlines()[0]
        assert header == (
            "n,d,seed,samples,max_ln_torsion,peak_step,vanish_step,torsion_seen"
        )
        trace_header = (tmp_path / "ts_trace.csv").read_text().splitlines()[0]
        assert trace_header == "seed,step,metric,value"

    def test_jobs_two_matches_one(self, capsys):
        outputs = []
        for jobs in ("1", "2"):
            code = main(["hitting-time", "--n", "6", "--trials", "4", "--seed", "0",
                         "--jobs", jobs])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 6  # header, 4 rows, summary

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_every_option_stores_into_a_config_field(self):
        names = {f.name for f in fields(CampaignConfig)}
        for spec in CAMPAIGN_KINDS.values():
            for flags, kwargs in spec.options:
                action = argparse.ArgumentParser().add_argument(*flags, **kwargs)
                assert action.dest in names, flags

    @pytest.mark.parametrize("value, err", [
        ("x", "argument --prime: invalid int value: 'x'"),
        ("4", "error: 4 is not prime"),
    ])
    def test_bad_prime_is_usage_error(self, capsys, value, err):
        argv = ["shadow-growth", "--n", "8", "--trials", "1", "--seed", "3",
                "--prime", value]
        assert main(argv) == 2
        assert err in capsys.readouterr().err

    def test_prime_gives_primes_tuple(self, monkeypatch, capsys):
        configs = []
        run_campaign = cli.run_campaign

        def recording_run(cfg):
            configs.append(cfg)
            return run_campaign(cfg)

        monkeypatch.setattr(cli, "run_campaign", recording_run)
        argv = ["shadow-growth", "--n", "8", "--trials", "1", "--seed", "3",
                "--prime", "3"]
        assert main(argv) == 0
        assert configs == [CampaignConfig(kind="shadow_growth", n=8, trials=1,
                                          seed_base=3, primes=(3,))]

    @pytest.mark.parametrize("command, usage", [
        ("hitting-time", """\
usage: homoforge hitting-time [-h] --n N --trials TRIALS --seed SEED
                              [--jobs JOBS] [--out OUT] [--format {csv,json}]
"""),
        ("shadow-growth", """\
usage: homoforge shadow-growth [-h] --n N --trials TRIALS --seed SEED
                               [--jobs JOBS] [--out OUT] [--format {csv,json}]
                               [--prime PRIME]
"""),
        ("uncovered-rank", """\
usage: homoforge uncovered-rank [-h] --n N --trials TRIALS --seed SEED
                                [--jobs JOBS] [--out OUT]
                                [--format {csv,json}] [--p-scale P_SCALE]
"""),
        ("torsion-scan", """\
usage: homoforge torsion-scan [-h] --n N --trials TRIALS --seed SEED
                              [--jobs JOBS] [--out OUT] [--format {csv,json}]
                              [--d D] [--stride STRIDE] [-v]
"""),
        ("verify-partition", """\
usage: homoforge verify-partition [-h] --in INFILE --labels LABELS
                                  [--theta-edge THETA_EDGE]
                                  [--theta-vertex THETA_VERTEX]
                                  [--max-bad MAX_BAD]
"""),
    ])
    def test_help_usage(self, monkeypatch, capsys, command, usage):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(usage + "\n")
