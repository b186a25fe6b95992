import hashlib
import json
import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rank_over_Q, random_complex, shadow_oracle
from homoforge.cli import main
from homoforge.complexes import (
    Complex,
    TripleSet,
    sample_binomial,
    sample_fixed_size,
    save_complex,
    triples_colex,
    uncovered_edges,
)
from homoforge.exact_linalg import (
    boundary_column,
    boundary_matrix,
    quotient_map_mod_p,
    rank_mod_p,
    smith_normal_form,
)
from homoforge.homology import (
    HomologySummary,
    _peel_cycle_boundary,
    _residual,
    betti1_mod_p,
    cycle_space_dim,
    homology_Z,
    homology_Z_faces,
    is_H1_trivial_Z,
    shadow,
    shadow_size_deficit,
)


def definitional_member(Y, t, p):
    """The defining test: adding t leaves the F_p Betti number unchanged."""
    before = betti1_mod_p(Y, p)
    bigger = Y.copy()
    bigger.add_face(t)
    return betti1_mod_p(bigger, p) == before


def raw_boundary_homology(Y):
    """H_{d-1}(Y; Z) from the Smith form of the full boundary matrix, whose
    cokernel is H_{d-1} plus a free group of rank C(n, d) - C(n-1, d)."""
    snf = smith_normal_form(boundary_matrix(Y))
    return HomologySummary(math.comb(Y.n - 1, Y.dim) - snf.rank, snf.torsion_factors())


class TestBetti:
    def test_empty_complex_cycle_space(self):
        # with no faces the F_p Betti number is the full cycle-space dimension
        for n in (3, 5, 8):
            for p in (2, 3, 5):
                assert betti1_mod_p(Complex(n), p) == math.comb(n - 1, 2)
            assert cycle_space_dim(n) == math.comb(n - 1, 2)

    def test_single_triangle(self):
        assert betti1_mod_p(Complex(3, 2, [(0, 1, 2)]), 2) == 0

    def test_rp2_depends_on_characteristic(self, rp2):
        assert betti1_mod_p(rp2, 2) == 1
        assert betti1_mod_p(rp2, 3) == 0
        assert betti1_mod_p(rp2, 5) == 0
        # Z/2 torsion is what separates F_2 from Z
        assert homology_Z(rp2).betti_mod(2) == 1
        assert homology_Z(rp2).betti_mod(3) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 8),
        num_faces=st.integers(0, 56),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_betti_mod_matches_rank_mod_p(self, n, num_faces, seed):
        # universal coefficients against an independent F_p elimination
        Y = random_complex(n, num_faces, random.Random(seed))
        summary = homology_Z(Y)
        for p in (2, 3, 5):
            assert summary.betti_mod(p) == betti1_mod_p(Y, p)


class TestHomologyZ:
    def test_full_complex_trivial(self):
        assert homology_Z(Complex.full(5)) == HomologySummary(0, ())

    def test_rp2_torsion(self, rp2):
        assert homology_Z(rp2) == HomologySummary(0, (2,))

    def test_torus_betti_two(self, torus):
        m = boundary_matrix(torus)
        rank = rank_over_Q(m.to_dense())  # independent elimination oracle
        assert rank == 13
        summary = homology_Z(torus)
        assert summary.betti == math.comb(7, 2) - 6 - rank == 2
        assert summary.torsion == ()

    def test_general_dimension_full_skeleton(self):
        # d=3 on the full complex: H_2 of a simplex boundary-complete complex
        Y = Complex.full(6, dim=3)
        assert homology_Z(Y).trivial

    def test_empty_d3(self):
        Y = Complex(6, dim=3)
        assert homology_Z(Y) == HomologySummary(math.comb(5, 3), ())

    def test_ln_torsion_order(self, rp2):
        assert homology_Z(rp2).ln_torsion_order() == pytest.approx(math.log(2))

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3]),
        n=st.integers(4, 8),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cycle_coordinates_exact_in_every_d(self, d, n, fraction, seed):
        # the cut to the rows below C(n-1, d) keeps H_{d-1} over Z exactly
        all_faces = list(combinations(range(n), d + 1))
        picked = random.Random(seed).sample(all_faces, round(fraction * len(all_faces)))
        Y = Complex(n, d, picked)
        assert homology_Z(Y) == raw_boundary_homology(Y)

    @pytest.mark.parametrize("case", ["rp2", "torus"])
    def test_cycle_coordinates_exact_on_surfaces(self, case, request):
        Y = request.getfixturevalue(case)
        assert homology_Z(Y) == raw_boundary_homology(Y)

    def test_torsion_with_a_residual(self):
        # below h_delta the cascade stalls: 96 of 1,711 rows peel at n=60
        Y = sample_fixed_size(60, 1540, 1)
        assert homology_Z(Y) == HomologySummary(171, (2,))
        assert homology_Z(Y) == raw_boundary_homology(Y)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sparse_input_at_large_n(self, d, monkeypatch):
        # the builder's row state follows the faces, not the C(1999, d) rows:
        # one face on 2,000 vertices is one residual column on its d+1 rows
        shapes = []

        def snf_shape(M):
            shapes.append((M.rows, M.cols))
            return smith_normal_form(M)

        monkeypatch.setattr("homoforge.homology.smith_normal_form", snf_shape)
        Y = Complex(2000, d, [tuple(range(d + 1))])
        assert homology_Z(Y) == HomologySummary(math.comb(1999, d) - 1, ())
        assert shapes == [(d + 1, 1)]

    @pytest.mark.parametrize("d", [6, 7])
    def test_ranks_past_int64(self, d):
        # the rows come from C(v, i) for i <= d: below 2^63 at d = 6, past it
        # at d = 7 (C(2000, 7) ~ 2.5e19), where they are exact Python ints
        Y = Complex(2000, d, [tuple(range(d + 1)), tuple(range(1999 - d, 2000))])
        assert homology_Z(Y) == HomologySummary(math.comb(1999, d) - 2, ())
        assert homology_Z(Y) == raw_boundary_homology(Y)


def reference_residual(Y, peeled_rows):
    """The cut boundary columns that keep two or more rows outside
    peeled_rows, in colex order, on the original row numbers."""
    top = math.comb(Y.n - 1, Y.dim)
    cols = []
    for f in Y.faces_sorted():
        col = {r: v for r, v in boundary_column(f, Y.n).items()
               if r < top and r not in peeled_rows}
        if len(col) >= 2:
            cols.append(list(col.items()))
    return cols


class TestPeelCycleBoundary:
    @settings(max_examples=80, deadline=None)
    @given(
        d=st.sampled_from([2, 3]),
        n=st.integers(3, 9),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closure_is_order_free(self, d, n, fraction, seed):
        all_faces = list(combinations(range(n), d + 1))
        picked = random.Random(seed).sample(all_faces, round(fraction * len(all_faces)))
        faces = np.array(picked, dtype=np.int32).reshape(-1, d + 1)
        peel = _peel_cycle_boundary(n, d, faces)
        # the same face array in the reverse order peels to the same arrays
        reverse = _peel_cycle_boundary(n, d, faces[::-1])
        assert all(np.array_equal(a, b) for a, b in zip(peel, reverse))
        rows, peeled, pos, live = peel
        assert pos.shape == live.shape == (len(pos), d + 1)
        # rows strictly increase below C(n-1, d); no face keeps one live row
        top = math.comb(n - 1, d)
        assert all(a < b for a, b in zip(rows, rows[1:])) and all(rows < top)
        peeled_rows = set(rows[peeled].tolist())
        assert all(
            len([r for r in boundary_column(f, n) if r < top and r not in peeled_rows]) != 1
            for f in picked
        )
        # on the live rows of homology_Z_faces (those the columns meet) and
        # of shadow (all of them), every residual column is its cut boundary
        # on the live rows, with two or more entries and none in a peeled row
        for live_rows in (
            sorted(set(rows[pos[live]].tolist())),
            [r for r in range(top) if r not in peeled_rows],
        ):
            index = np.searchsorted(np.array(live_rows, dtype=np.int64), rows)
            residual = _residual(pos, live, index, len(live_rows))
            assert residual.rows == len(live_rows)
            assert list(residual.columns) == list(range(residual.cols))
            mapped = [[(live_rows[r], v) for r, v in c.items()]
                      for c in residual.columns.values()]
            assert mapped == reference_residual(Complex(n, d, picked), peeled_rows)
            assert all(len(c) >= 2 for c in mapped)
            assert not any(r in peeled_rows for c in mapped for r, _ in c)

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3]),
        n=st.integers(2, 9),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_face_array_matches_uncut_smith_form(self, d, n, fraction, seed):
        # the kernel on a shuffled face array, read through a reversed view
        # (as the binomial sampler returns it), against the uncut boundary
        rng = random.Random(seed)
        all_faces = list(combinations(range(n), d + 1))
        picked = rng.sample(all_faces, round(fraction * len(all_faces)))
        faces = np.array([f[::-1] for f in picked], dtype=np.int32).reshape(-1, d + 1)
        Y = Complex(n, d, picked)
        assert homology_Z_faces(n, d, faces[:, ::-1]) == raw_boundary_homology(Y)


class TestTriviality:
    def test_uncovered_edge_blocks_triviality(self):
        Y = Complex(5, 2, [(0, 1, 2)])
        assert uncovered_edges(Y)
        assert not is_H1_trivial_Z(Y)

    def test_full_complex(self):
        assert is_H1_trivial_Z(Complex.full(5))

    def test_rp2_not_trivial(self, rp2):
        assert not is_H1_trivial_Z(rp2)

    def test_triviality_consistency(self):
        rng = random.Random(2)
        for _ in range(20):
            Y = random_complex(6, rng.randint(0, 20), rng)
            if is_H1_trivial_Z(Y):
                for p in (2, 3, 5):
                    assert betti1_mod_p(Y, p) == 0
                    assert shadow_size_deficit(Y, p) == 0

    def test_obstruction_on_samples(self):
        rng = random.Random(4)
        for _ in range(20):
            Y = random_complex(7, rng.randint(0, 12), rng)
            if uncovered_edges(Y):
                assert not is_H1_trivial_Z(Y)



class TestPrimeBound:
    def test_torsion_primes_within_bound(self, rp2):
        # Hadamard: the torsion order divides a nonzero r x r minor of the
        # boundary matrix, r <= C(n-1,2), whose columns have norm sqrt(3);
        # so the order, and every torsion prime with it, is <= 3^(C(n-1,2)/2)
        assert homology_Z(rp2).torsion == (2,)
        rng = random.Random(9)
        complexes = [rp2] + [random_complex(8, rng.randint(5, 25), rng) for _ in range(15)]
        for Y in complexes:
            bound = math.comb(Y.n - 1, 2) * math.log(3) / 2
            assert sum(math.log(d) for d in homology_Z(Y).torsion) <= bound + 1e-12

class TestShadow:
    def test_full_complex_shadow_is_everything(self):
        sh = shadow(Complex.full(6), 2)
        assert sh.size == sh.total == math.comb(6, 3)
        assert shadow_size_deficit(Complex.full(6), 2) == 0

    def test_empty_complex_shadow_is_empty(self):
        # adding any triple to the empty complex kills one homology class
        for p in (2, 5):
            sh = shadow(Complex(6), p)
            assert sh.size == 0
            assert shadow_size_deficit(Complex(6), p) == math.comb(6, 3)

    def test_boundary_sum_membership(self):
        Y = Complex(4, 2, [(0, 1, 3), (0, 2, 3), (1, 2, 3)])
        sh = shadow(Y, 2)
        assert sh.contains((0, 1, 2))
        assert all(sh.contains(f) for f in Y.faces)

    def test_faces_always_members(self):
        rng = random.Random(12)
        for _ in range(10):
            Y = random_complex(7, rng.randint(1, 15), rng)
            for p in (2, 3):
                sh = shadow(Y, p)
                assert all(sh.contains(f) for f in Y.faces)

    def test_matches_definitional_membership(self):
        rng = random.Random(19)
        for _ in range(6):
            n = rng.randint(5, 7)
            Y = random_complex(n, rng.randint(0, 9), rng)
            for p in (2, 3, 5, 2**31 - 1):
                sh = shadow(Y, p)
                for t in triples_colex(n):
                    assert sh.contains(t) == definitional_member(Y, t, p), (Y, t, p)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(3, 8),
        num_faces=st.integers(0, 56),
        seed=st.integers(0, 2**32 - 1),
        p=st.sampled_from([2, 3, 5, 2**31 - 1]),
    )
    def test_matches_null_space_oracle(self, n, num_faces, seed, p):
        Y = random_complex(n, num_faces, random.Random(seed))
        assert set(shadow(Y, p).triples()) == shadow_oracle(Y, p)

    # unreduced sums of int64 products below p^2 would wrap in the quotient
    # map at (19, 118)
    @pytest.mark.parametrize("n, num_faces", [(14, 182), (19, 118)])
    def test_matches_null_space_oracle_at_largest_prime(self, n, num_faces):
        p = 2**31 - 1
        Y = sample_fixed_size(n, num_faces, 1)
        assert set(shadow(Y, p).triples()) == shadow_oracle(Y, p)

    def test_cone_closure(self):
        # a triple whose three cone triangles over some apex are members
        # is itself a member
        rng = random.Random(23)
        for _ in range(6):
            n = rng.randint(5, 7)
            Y = random_complex(n, rng.randint(2, 10), rng)
            sh = shadow(Y, 2)
            for t in triples_colex(n):
                x, y, z = t
                for v in range(n):
                    if v in t:
                        continue
                    cone = [
                        tuple(sorted((x, y, v))),
                        tuple(sorted((x, z, v))),
                        tuple(sorted((y, z, v))),
                    ]
                    if all(sh.contains(c) for c in cone):
                        assert sh.contains(t)
                        break

    def test_deficit_monotone_along_prefix(self):
        from homoforge.complexes import ProcessStream

        Y = Complex(7)
        prev = shadow_size_deficit(Y, 2)
        for f in ProcessStream(7, 3):
            Y.add_face(f)
            cur = shadow_size_deficit(Y, 2)
            assert cur <= prev
            prev = cur

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(3, 9),
        num_faces=st.integers(0, 84),
        seed=st.integers(0, 2**32 - 1),
        p=st.sampled_from([2, 3, 5, 2**31 - 1]),
    )
    def test_cycle_rows_keep_rank(self, n, num_faces, seed, p):
        # restricting to the edges that avoid n-1 is injective on cycles,
        # and each peeled row is one pivot
        Y = random_complex(n, num_faces, random.Random(seed))
        rows, peeled, pos, live = _peel_cycle_boundary(n, 2, Y.face_array())
        free = np.setdiff1d(np.arange(math.comb(n - 1, 2)), rows[peeled])
        residual = _residual(pos, live, np.searchsorted(free, rows), len(free))
        assert int(peeled.sum()) + rank_mod_p(residual, p) == rank_mod_p(boundary_matrix(Y), p)
        assert quotient_map_mod_p(residual, p).shape[1] == betti1_mod_p(Y, p)

    # sha256 of shadow(sample_fixed_size(30, 461, seed), 3).to_bytes(), the
    # shadow_p3 benchmark size; a deficit cannot see two swapped members
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (3000, "bf4b5d94312bf96dbc5232a403c4c23a05e3d3b23cf1568141342c9261374023"),
            (3001, "b919345c08ac823510d2677731ef67f1bb9760b4e76a26e195d62a16000607a2"),
            (3002, "d74ac62f7d72e5e1ef2a18c8979f7d824153f3d234ef6b3a359514899c137b21"),
        ],
    )
    def test_pinned_bits_at_workload_size(self, seed, digest):
        sh = shadow(sample_fixed_size(30, 461, seed), 3)
        assert hashlib.sha256(sh.to_bytes()).hexdigest() == digest

    def test_shadow_requires_dim2(self):
        with pytest.raises(ValueError):
            shadow(Complex(5, dim=3), 2)

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            shadow(Complex(5), 4)


class TestShadowSerialization:
    def test_bytes_round_trip(self):
        Y = sample_binomial(7, 0.4, 5)
        sh = shadow(Y, 3)
        back = TripleSet.from_bytes(sh.to_bytes(), sh.n)
        assert back.size == sh.size
        assert list(back.ranks()) == list(sh.ranks())

    def test_file_round_trip(self, tmp_path):
        # the CLI's shadow --out writes <out>.bits and its <out>.json summary
        Y = sample_binomial(6, 0.5, 8)
        sh = shadow(Y, 2)
        complex_path = tmp_path / "y.json"
        save_complex(Y, str(complex_path))
        out = tmp_path / "s"
        assert main(["shadow", "--in", str(complex_path), "--prime", "2",
                     "--out", str(out)]) == 0
        back = TripleSet.from_bytes((tmp_path / "s.bits").read_bytes(), 6)
        assert back.bits == sh.bits
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary == {"n": 6, "p": 2, "size": sh.size, "deficit": 20 - sh.size}

    def test_length_prefix(self):
        sh = shadow(Complex(6), 2)
        raw = sh.to_bytes()
        assert int.from_bytes(raw[:8], "little") == math.comb(6, 3)
        with pytest.raises(ValueError):
            TripleSet.from_bytes(raw, 7)

    @pytest.mark.parametrize(
        "data",
        [
            TripleSet(5, 2**10 - 1).to_bytes()[:-1],  # truncated payload
            TripleSet(5, 2**10 - 1).to_bytes() + b"\x00",  # trailing byte
            TripleSet(5).to_bytes()[:8] + b"\xff\xff",  # 16 bits of 10
        ],
        ids=["truncated", "trailing", "past_total"],
    )
    def test_malformed_payload_rejected(self, data):
        with pytest.raises(ValueError):
            TripleSet.from_bytes(data, 5)

    def test_full_bitset_round_trip(self):
        sh = TripleSet(5, 2**10 - 1)
        assert TripleSet.from_bytes(sh.to_bytes(), 5).size == 10

    def test_summary_fields(self):
        # the CLI's <out>.json reads these; TestShadowCmd::test_out_files pins it
        sh = shadow(Complex.full(5), 2)
        assert (sh.n, sh.size, sh.total) == (5, 10, 10)
        assert shadow_size_deficit(Complex.full(5), 2) == 0

    def test_members_enumeration(self):
        Y = Complex(4, 2, [(0, 1, 3), (0, 2, 3), (1, 2, 3)])
        sh = shadow(Y, 2)
        members = set(sh.triples())
        assert members == set(combinations(range(4), 3))
