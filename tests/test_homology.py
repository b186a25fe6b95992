import hashlib
import json
import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rank_over_Q, random_complex, shadow_oracle, stream_faces
from homoforge import homology
from homoforge.cli import main
from homoforge.complexes import (
    Complex,
    ProcessStream,
    TripleSet,
    _binomial_faces,
    rank_face,
    sample_binomial,
    sample_fixed_size,
    save_complex,
    uncovered_edges,
)
from homoforge.exact_linalg import (
    boundary_matrix,
    quotient_map_mod_p,
    rank_mod_p,
    smith_normal_form,
)
from homoforge.experiments import _first_cover
from homoforge.homology import (
    HomologySummary,
    _cycle_residual,
    betti1_mod_p,
    cycle_space_dim,
    homology_Z,
    homology_Z_faces,
    shadow,
    shadow_size_deficit,
)


def definitional_member(Y, t, p):
    """The defining test: adding t leaves the F_p Betti number unchanged."""
    before = betti1_mod_p(Y, p)
    bigger = Complex(Y.n, Y.dim, [*Y.faces.tolist(), t])
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
        faces_wanted=st.integers(0, 56),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_betti_mod_matches_rank_mod_p(self, n, faces_wanted, seed):
        # universal coefficients against an independent F_p elimination
        Y = random_complex(n, faces_wanted, random.Random(seed))
        summary = homology_Z(Y)
        for p in (2, 3, 5):
            assert summary.betti_mod(p) == betti1_mod_p(Y, p)

    def test_betti_mod_needs_a_prime(self):
        # the universal-coefficient count holds for primes only; 0 divided by zero
        summary = HomologySummary(1, (2, 6, 12))
        assert (summary.betti_mod(2), summary.betti_mod(3)) == (4, 3)
        for p in (4, 6, 1, -2, 0):
            with pytest.raises(ValueError, match="not prime"):
                summary.betti_mod(p)

    def test_numpy_int_prime(self):
        Y = sample_fixed_size(12, 60, 5)
        assert betti1_mod_p(Y, np.int64(3)) == betti1_mod_p(Y, 3)
        assert shadow(Y, np.int64(3)).to_bytes() == shadow(Y, 3).to_bytes()
        assert HomologySummary(1, (3,)).betti_mod(np.int64(3)) == 2


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

    def test_empty_complex_of_high_dimension_builds_no_table(self, monkeypatch):
        # no face needs a rank table, and colex_array(2000, 1000) would hold
        # two million Python-int binomials
        def refuse(*args):
            raise AssertionError(f"colex_array{args} built")

        monkeypatch.setattr("homoforge.complexes.colex_array", refuse)
        assert homology_Z(Complex(2000, 1000)) == HomologySummary(math.comb(1999, 1000), ())

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
        # the builder's row state follows the faces, not the C(1999, d) rows.
        # One face on 2,000 vertices is cut at its vertex 0 and peeled whole.
        # Beside it a disjoint face avoids the cut vertex 0 and keeps all its
        # d+1 rows: one sparse residual column, on the C(1999, d) - 1 rows
        # left after the first face's peel
        shapes = []

        def snf_shape(M):
            shapes.append((M.rows, M.cols, M.nnz))
            return smith_normal_form(M)

        monkeypatch.setattr("homoforge.homology.smith_normal_form", snf_shape)
        top = math.comb(1999, d)
        Y = Complex(2000, d, [tuple(range(d + 1))])
        assert homology_Z(Y) == HomologySummary(top - 1, ())
        Y = Complex(2000, d, [tuple(range(d + 1)), tuple(range(1999 - d, 2000))])
        assert homology_Z(Y) == HomologySummary(top - 2, ())
        assert shapes == [(top - 1, 0, 0), (top - 1, 1, d + 1)]

    def test_count_holds_d_plus_one(self):
        # a face that avoids the cut vertex 0 keeps all 257 of its rows; a
        # per-face count that wrapped at 256 would call it lone and peel one
        faces = np.array([range(0, 257), range(257, 514)], dtype=np.int32)
        Y = Complex(514, 256, faces)
        assert homology_Z_faces(514, 256, faces) == raw_boundary_homology(Y)

    @pytest.mark.parametrize("d", [6, 7])
    def test_ranks_past_int64(self, d):
        # the rows come from C(v, i) for i <= d: below 2^63 at d = 6, past it
        # at d = 7 (C(2000, 7) ~ 2.5e19), where they are exact Python ints
        Y = Complex(2000, d, [tuple(range(d + 1)), tuple(range(1999 - d, 2000))])
        assert homology_Z(Y) == HomologySummary(math.comb(1999, d) - 2, ())
        assert homology_Z(Y) == raw_boundary_homology(Y)


def busiest_vertex(n, faces):
    """The vertex in the most faces, the lowest such label on ties."""
    degree = [sum(v in f for f in faces) for v in range(n)]
    return degree.index(max(degree))


def cut_rows(n, d, v):
    """The colex ranks of the (d-1)-faces that avoid v, ascending: the rows
    of the cycle coordinates cut at v, in the order the cut numbers them."""
    return sorted(rank_face(s) for s in combinations([u for u in range(n) if u != v], d))


def reference_residual(Y, v, peeled_rows):
    """The boundary columns that keep two or more rows avoiding v outside
    peeled_rows, in colex order, each row numbered among the rows avoiding v
    outside peeled_rows."""
    kept = [r for r in cut_rows(Y.n, Y.dim, v) if r not in peeled_rows]
    number = {r: i for i, r in enumerate(kept)}
    cols = []
    for column in boundary_matrix(Y).columns.values():
        col = [(number[r], x) for r, x in column.items() if r in number]
        if len(col) >= 2:
            cols.append(col)
    return cols


def workload_inputs(kind):
    """The (n, d, faces) inputs of _cycle_residual in three benchmark trials:
    shadow_p3 samples, hitting prefixes at h_delta, uncovered_rank samples."""
    if kind == "shadow":
        return [(30, 2, sample_fixed_size(30, 461, s).faces) for s in range(3000, 3040)]
    if kind == "hitting":
        prefixes = (_first_cover(ProcessStream(25, s)) for s in range(1025, 1045))
        return [(25, 2, faces[:h_delta]) for faces, h_delta in prefixes]
    p = 2.0 * math.log(30) / 30
    return [(30, 2, _binomial_faces(30, p, s)) for s in range(7000, 7020)]


class TestPeelCycleBoundary:
    # sha256 over the inputs of (v, peeled rows, the residual's (row, sign)
    # items in column order); the hitting and uncovered inputs peel whole,
    # so there they pin v and the peeled rows
    @pytest.mark.parametrize(
        "kind, digest",
        [
            ("shadow", "26df3aa574a5b74fa655d2461ad2686e2a954a9e7ca5cfab610238e597b819fa"),
            ("hitting", "fcb73b22418abccbe82b195d6f98803a6d37703edb4313e5bf0ad1811b92a73d"),
            ("uncovered", "9a5659ad62c2e99de68b21b8ead3ceaa8be357d8c5d6d60380e88e1b3a4539a7"),
        ],
    )
    def test_pinned_residual_at_workload_size(self, kind, digest):
        h = hashlib.sha256()
        for n, d, faces in workload_inputs(kind):
            v, peeled, residual = _cycle_residual(n, d, faces)
            items = [list(c.items()) for c in residual.columns.values()]
            h.update(repr((v, peeled.tolist(), items)).encode())
        assert h.hexdigest() == digest

    def test_busiest_vertex_keeps_the_residual_small(self):
        # the residuals of the shadow_p3 benchmark size have 1,998 columns in
        # all when cut at the busiest vertex, against 7,663 when cut at n-1
        total = sum(_cycle_residual(*case)[2].cols for case in workload_inputs("shadow"))
        assert total <= 2100

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.sampled_from([2, 3]),
        n=st.integers(3, 9),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closure_is_order_free(self, d, n, fraction, seed):
        rng = random.Random(seed)
        all_faces = list(combinations(range(n), d + 1))
        picked = rng.sample(all_faces, round(fraction * len(all_faces)))
        faces = np.array(picked, dtype=np.int32).reshape(-1, d + 1)
        v, peeled, residual = _cycle_residual(n, d, faces)
        assert v == busiest_vertex(n, picked)
        # the same face array in the reverse and in a shuffled order cuts at
        # the same vertex, peels the same rows and leaves the same residual,
        # entry order included
        for order in (faces[::-1], faces[rng.sample(range(len(faces)), len(faces))]):
            other_v, other_peeled, other = _cycle_residual(n, d, order)
            assert other_v == v and np.array_equal(peeled, other_peeled) and residual == other
            assert [list(c.items()) for c in residual.columns.values()] == [
                list(c.items()) for c in other.columns.values()
            ]
        # peeled rows strictly increase below C(n-1, d), numbered among the
        # (d-1)-faces that avoid v, and are facets of faces
        top = math.comb(n - 1, d)
        assert all(a < b for a, b in zip(peeled, peeled[1:])) and all(peeled < top)
        rows = cut_rows(n, d, v)
        peeled_rows = {rows[i] for i in peeled.tolist()}
        columns = list(boundary_matrix(Complex(n, d, picked)).columns.values())
        assert peeled_rows <= {r for column in columns for r in column}
        # closure: no face keeps exactly one unpeeled row that avoids v
        cut = set(rows) - peeled_rows
        assert all(len(cut.intersection(column)) != 1 for column in columns)
        # the residual's rows are the unpeeled rows that avoid v, in order,
        # and each column is its cut boundary there, with two or more entries
        assert residual.rows == top - len(peeled_rows)
        assert list(residual.columns) == list(range(residual.cols))
        mapped = [list(c.items()) for c in residual.columns.values()]
        assert mapped == reference_residual(Complex(n, d, picked), v, peeled_rows)
        assert all(len(c) >= 2 for c in mapped)

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


@st.composite
def relabeled_complexes(draw, dims=(1, 2, 3)):
    """(n, d, faces, perm): a complex on n <= 8 vertices and a permutation of them."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(1, 8))
    all_faces = list(combinations(range(n), d + 1))
    faces = draw(st.lists(st.sampled_from(all_faces), unique=True)) if all_faces else []
    return n, d, faces, draw(st.permutations(range(n)))


def relabel(n, d, faces, perm):
    return Complex(n, d, [sorted(perm[v] for v in f) for f in faces])


def relabeling_examples(dims):
    """The empty complex, n <= 4, all degrees tied, a cone whose busiest
    vertex 0 becomes n-1, and the reverse: busiest vertex n-1 becomes 0."""
    cases = [
        (5, 2, [], [4, 3, 2, 1, 0]),
        (1, 1, [], [0]),
        (3, 1, [(0, 1), (1, 2)], [1, 2, 0]),
        (4, 2, [(0, 1, 2), (1, 2, 3)], [3, 0, 1, 2]),
        (4, 2, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], [1, 3, 0, 2]),
        (6, 2, [(0, 1, 2), (3, 4, 5)], [5, 3, 1, 0, 2, 4]),
        (6, 2, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5)], [5, 4, 3, 2, 1, 0]),
        (6, 2, [(0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 3, 4)], [5, 4, 3, 2, 1, 0]),
        (5, 3, [(0, 1, 2, 3), (0, 1, 2, 4)], [4, 3, 2, 1, 0]),
    ]

    def decorate(test):
        for case in cases:
            if case[1] in dims:
                test = example(case=case)(test)
        return test

    return decorate


class TestRelabeling:
    # cycle coordinates are cut at the busiest vertex, which moves with the
    # labels; the answers must not

    @settings(max_examples=80, deadline=None)
    @given(case=relabeled_complexes())
    @relabeling_examples(dims=(1, 2, 3))
    def test_homology_Z_faces_is_invariant(self, case):
        n, d, faces, perm = case
        Y = Complex(n, d, faces)
        expected = raw_boundary_homology(Y)
        assert homology_Z_faces(n, d, Y.faces) == expected
        assert homology_Z_faces(n, d, relabel(n, d, faces, perm).faces) == expected

    @settings(max_examples=40, deadline=None)
    @given(case=relabeled_complexes(dims=(2,)))
    @relabeling_examples(dims=(2,))
    def test_shadow_bits_are_invariant(self, case):
        n, d, faces, perm = case
        Y, Z = Complex(n, d, faces), relabel(n, d, faces, perm)
        for p in (2, 3, 5, 2**31 - 1):
            back = {tuple(sorted(perm.index(v) for v in t)) for t in shadow(Z, p).triples()}
            assert back == set(shadow(Y, p).triples()), p


class TestTriviality:
    def test_uncovered_edge_blocks_triviality(self):
        Y = Complex(5, 2, [(0, 1, 2)])
        assert uncovered_edges(Y)
        assert not homology_Z(Y).trivial

    def test_two_and_three_vertices(self):
        # K_2 is a tree; the empty triangle on 3 vertices leaves H_1 = Z
        assert homology_Z(Complex(2)).trivial
        assert not homology_Z(Complex(3)).trivial

    def test_full_complex(self):
        assert homology_Z(Complex.full(5)).trivial

    def test_rp2_not_trivial(self, rp2):
        assert not homology_Z(rp2).trivial

    def test_triviality_consistency(self):
        rng = random.Random(2)
        for _ in range(20):
            Y = random_complex(6, rng.randint(0, 20), rng)
            if homology_Z(Y).trivial:
                for p in (2, 3, 5):
                    assert betti1_mod_p(Y, p) == 0
                    assert shadow_size_deficit(Y, p) == 0

    def test_obstruction_on_samples(self):
        rng = random.Random(4)
        for _ in range(20):
            Y = random_complex(7, rng.randint(0, 12), rng)
            if uncovered_edges(Y):
                assert not homology_Z(Y).trivial


def union_find_components(n, edges):
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for a, b in edges:
        parent[root(a)] = root(b)
    return len({root(v) for v in range(n)})


class TestGraphComponents:
    # in dimension 1, homology_Z_faces gives the reduced H_0 of the graph on
    # n vertices with the given edges: its components less one

    def check(self, n, edges):
        faces = np.array(edges, dtype=np.int32).reshape(-1, 2)
        assert homology_Z_faces(n, 1, faces).betti + 1 == union_find_components(n, edges)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 30), size=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
    def test_matches_union_find(self, n, size, seed):
        all_edges = list(combinations(range(n), 2))
        self.check(n, random.Random(seed).sample(all_edges, min(size, len(all_edges))))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 30])
    def test_special_graphs(self, n):
        all_edges = list(combinations(range(n), 2))
        self.check(n, [])
        self.check(n, all_edges)  # K_n
        self.check(n, [e for e in all_edges if n - 1 not in e])  # n-1 isolated
        self.check(n, [(v, n - 1) for v in range(0, n - 1, 3)])  # others isolated
        self.check(n, [e for e in all_edges if 0 not in e])  # 0 isolated


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
        assert all(sh.contains(f) for f in Y.faces.tolist())

    def test_faces_always_members(self):
        rng = random.Random(12)
        for _ in range(10):
            Y = random_complex(7, rng.randint(1, 15), rng)
            for p in (2, 3):
                sh = shadow(Y, p)
                assert all(sh.contains(f) for f in Y.faces.tolist())

    def test_matches_definitional_membership(self):
        rng = random.Random(19)
        for _ in range(6):
            n = rng.randint(5, 7)
            Y = random_complex(n, rng.randint(0, 9), rng)
            for p in (2, 3, 5, 2**31 - 1):
                sh = shadow(Y, p)
                for t in combinations(range(n), 3):
                    assert sh.contains(t) == definitional_member(Y, t, p), (Y, t, p)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(3, 8),
        faces_wanted=st.integers(0, 56),
        seed=st.integers(0, 2**32 - 1),
        p=st.sampled_from([2, 3, 5, 2**31 - 1]),
    )
    def test_matches_null_space_oracle(self, n, faces_wanted, seed, p):
        Y = random_complex(n, faces_wanted, random.Random(seed))
        assert set(shadow(Y, p).triples()) == shadow_oracle(Y, p)

    # unreduced sums of int64 products below p^2 would wrap in the quotient
    # map at (19, 118)
    @pytest.mark.parametrize("n, faces_wanted", [(14, 182), (19, 118)])
    def test_matches_null_space_oracle_at_largest_prime(self, n, faces_wanted):
        p = 2**31 - 1
        Y = sample_fixed_size(n, faces_wanted, 1)
        assert set(shadow(Y, p).triples()) == shadow_oracle(Y, p)

    def test_cone_closure(self):
        # a triple whose three cone triangles over some apex are members
        # is itself a member
        rng = random.Random(23)
        for _ in range(6):
            n = rng.randint(5, 7)
            Y = random_complex(n, rng.randint(2, 10), rng)
            sh = shadow(Y, 2)
            for t in combinations(range(n), 3):
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

        faces = []
        prev = shadow_size_deficit(Complex(7), 2)
        for f in stream_faces(ProcessStream(7, 3)):
            faces.append(f)
            cur = shadow_size_deficit(Complex(7, 2, faces), 2)
            assert cur <= prev
            prev = cur

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(3, 9),
        faces_wanted=st.integers(0, 84),
        seed=st.integers(0, 2**32 - 1),
        p=st.sampled_from([2, 3, 5, 2**31 - 1]),
    )
    def test_cycle_rows_keep_rank(self, n, faces_wanted, seed, p):
        # restricting to the edges that avoid the cut vertex is injective on
        # cycles, and each peeled row is one pivot
        Y = random_complex(n, faces_wanted, random.Random(seed))
        v, peeled, residual = _cycle_residual(n, 2, Y.faces)
        assert v == busiest_vertex(n, Y.faces.tolist())
        assert len(peeled) + rank_mod_p(residual, p) == rank_mod_p(boundary_matrix(Y), p)
        assert quotient_map_mod_p(residual, p).shape[1] == betti1_mod_p(Y, p)

    # sha256 of shadow(sample_fixed_size(30, 461, seed), 3).to_bytes(), the
    # shadow_p3 benchmark size; a deficit cannot see two swapped members.
    # Chunks of 1 and 7 triples run the membership loop many times over.
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (3000, "bf4b5d94312bf96dbc5232a403c4c23a05e3d3b23cf1568141342c9261374023"),
            (3001, "b919345c08ac823510d2677731ef67f1bb9760b4e76a26e195d62a16000607a2"),
            (3002, "d74ac62f7d72e5e1ef2a18c8979f7d824153f3d234ef6b3a359514899c137b21"),
        ],
    )
    def test_pinned_bits_at_workload_size(self, seed, digest, monkeypatch):
        Y = sample_fixed_size(30, 461, seed)
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(homology, "_SHADOW_CHUNK", chunk)
            sh = shadow(Y, 3)
            assert hashlib.sha256(sh.to_bytes()).hexdigest() == digest, chunk

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
