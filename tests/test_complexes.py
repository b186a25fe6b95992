import math
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homoforge.complexes import (
    MAX_VERTICES,
    Complex,
    ProcessStream,
    complex_from_json,
    complex_from_text,
    complex_to_json,
    complex_to_text,
    edges_colex,
    min_edge_degree,
    rank_edge,
    rank_face,
    rank_triple,
    sample_binomial,
    sample_fixed_size,
    triples_colex,
    uncovered_edges,
    unrank_edge,
    unrank_face,
    unrank_triple,
)

# (k, r): a face size and a colex rank of a k-face on MAX_VERTICES vertices
RANKED_FACES = st.sampled_from([1, 2, 3, 4]).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(0, math.comb(MAX_VERTICES, k) - 1))
)


class TestRanking:
    def test_smallest_triple(self):
        assert rank_triple((0, 1, 2), 5) == 0

    def test_largest_triple(self):
        assert rank_triple((2, 3, 4), 5) == math.comb(5, 3) - 1

    def test_colex_enumeration_oracle(self):
        # independent oracle: sort all triples by reversed tuple (colex order)
        for n in (4, 5, 7):
            expected = sorted(combinations(range(n), 3), key=lambda t: t[::-1])
            assert list(triples_colex(n)) == expected
            for r, t in enumerate(expected):
                assert rank_triple(t, n) == r
                assert unrank_triple(r, n) == t
        assert rank_triple((0, 1, 3), 5) == 1  # second in colex order

    def test_round_trip_bijection(self):
        n = 9
        ranks = {rank_triple(t, n) for t in combinations(range(n), 3)}
        assert ranks == set(range(math.comb(n, 3)))

    def test_monotone_in_colex(self):
        n = 8
        prev = -1
        for t in triples_colex(n):
            r = rank_triple(t, n)
            assert r == prev + 1
            prev = r

    def test_invalid_triples_rejected(self):
        with pytest.raises(ValueError):
            rank_triple((0, 1, 5), 5)
        with pytest.raises(ValueError):
            rank_triple((2, 1, 0), 5)
        with pytest.raises(ValueError):
            rank_triple((0, 0, 1), 5)
        with pytest.raises(ValueError):
            unrank_triple(10, 5)

    def test_edge_ranking(self):
        for n in (3, 6, 10):
            for r, e in enumerate(edges_colex(n)):
                assert rank_edge(e) == r
                assert unrank_edge(r) == e
        last = math.comb(2000, 2) - 1
        for r, e in [(0, (0, 1)), (1, (0, 2)), (last - 1, (1997, 1999)),
                     (last, (1998, 1999))]:
            assert unrank_edge(r) == e
            assert rank_edge(e) == r

    def test_general_face_round_trip(self):
        for k in (2, 3, 4):
            for r in range(math.comb(8, k)):
                assert rank_face(unrank_face(r, k)) == r

    @settings(max_examples=300, deadline=None)
    @given(kr=RANKED_FACES)
    @example(kr=(1, 0))
    @example(kr=(4, 0))
    @example(kr=(1, math.comb(MAX_VERTICES, 1) - 1))
    @example(kr=(2, math.comb(MAX_VERTICES, 2) - 1))
    @example(kr=(3, math.comb(MAX_VERTICES, 3) - 1))
    @example(kr=(4, math.comb(MAX_VERTICES, 4) - 1))
    def test_unrank_round_trip_up_to_max_vertices(self, kr):
        k, r = kr
        face = unrank_face(r, k)
        assert len(face) == k
        assert all(u < v for u, v in zip(face, face[1:]))
        assert rank_face(face) == r
        if r == 0:
            assert face == tuple(range(k))
        if r == math.comb(MAX_VERTICES, k) - 1:
            assert face == tuple(range(MAX_VERTICES - k, MAX_VERTICES))

    def test_unrank_face_rejects_out_of_range(self):
        for k in (1, 2, 3, 4):
            with pytest.raises(ValueError):
                unrank_face(-1, k)
            with pytest.raises(ValueError):
                unrank_face(math.comb(MAX_VERTICES, k), k)


class TestComplex:
    def test_add_face_maintains_cover_counts(self):
        rng = random.Random(5)
        Y = Complex(8)
        faces = list(combinations(range(8), 3))
        rng.shuffle(faces)
        prev_delta = 0
        for f in faces[:30]:
            before = list(Y.edge_cover_count)
            assert Y.add_face(f)
            after = Y.edge_cover_count
            bumped = [i for i in range(len(after)) if after[i] != before[i]]
            assert len(bumped) == 3
            assert all(after[i] == before[i] + 1 for i in bumped)
            delta = min_edge_degree(Y)
            assert delta >= prev_delta
            prev_delta = delta

    def test_add_duplicate_returns_false(self):
        Y = Complex(5)
        assert Y.add_face((0, 1, 2))
        assert not Y.add_face((0, 1, 2))
        assert Y.num_faces == 1

    def test_min_edge_degree_examples(self):
        assert min_edge_degree(Complex(3, 2, [(0, 1, 2)])) == 1
        assert min_edge_degree(Complex(4, 2, [(0, 1, 2)])) == 0
        assert min_edge_degree(Complex.full(4)) == 2  # each edge in n-2 triangles

    def test_uncovered_edges_examples(self):
        Y = Complex(4, 2, [(0, 1, 2)])
        assert set(uncovered_edges(Y)) == {(0, 3), (1, 3), (2, 3)}
        assert uncovered_edges(Complex.full(5)) == []

    def test_rp2_has_no_uncovered_edges(self, rp2):
        assert uncovered_edges(rp2) == []
        assert min_edge_degree(rp2) == 2

    def test_dim_guard(self):
        Y = Complex(5, dim=3)
        with pytest.raises(ValueError):
            min_edge_degree(Y)

    def test_face_validation(self):
        Y = Complex(4)
        with pytest.raises(ValueError):
            Y.add_face((0, 1))
        with pytest.raises(ValueError):
            Y.add_face((0, 1, 4))
        with pytest.raises(ValueError):
            Y.add_face((2, 1, 0))


class TestProcess:
    def test_pinned_stream_prefixes(self):
        # the process order itself: no change to the shuffle or the unranker may move it
        assert ProcessStream(25, 1025).take(10) == [
            (7, 9, 18), (0, 6, 12), (3, 6, 11), (6, 7, 18), (7, 13, 21),
            (7, 16, 18), (4, 11, 19), (4, 9, 22), (9, 18, 20), (10, 20, 23),
        ]
        assert ProcessStream(12, 4000, dim=3).take(10) == [
            (6, 7, 8, 9), (0, 1, 4, 10), (1, 5, 10, 11), (0, 5, 6, 10),
            (1, 2, 7, 11), (3, 9, 10, 11), (1, 2, 4, 9), (0, 1, 8, 10),
            (1, 5, 7, 11), (2, 3, 5, 11),
        ]

    def test_single_triple_stream(self):
        for seed in range(5):
            assert list(ProcessStream(3, seed)) == [(0, 1, 2)]

    def test_permutation_property(self):
        for seed in (0, 1, 99):
            out = list(ProcessStream(5, seed))
            assert len(out) == 10
            assert set(out) == set(combinations(range(5), 3))

    def test_same_seed_same_order(self):
        assert list(ProcessStream(6, 123)) == list(ProcessStream(6, 123))

    def test_different_seeds_differ(self):
        orders = {tuple(ProcessStream(6, s)) for s in range(8)}
        assert len(orders) > 1

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            ProcessStream(2, 0)

    def test_first_element_uniform(self):
        # Monte Carlo: each of the 10 triples should lead ~1/10 of streams
        trials = 100_000
        counts = {}
        for seed in range(trials):
            first = next(ProcessStream(5, seed))
            counts[first] = counts.get(first, 0) + 1
        for t, c in counts.items():
            assert abs(c / trials - 0.1) < 0.01, (t, c)

    def test_lazy_prefix_only(self):
        s = ProcessStream(30, 0)
        s.take(10)
        assert len(s._swap) <= 10

    def test_general_dimension(self):
        out = list(ProcessStream(6, 4, dim=3))
        assert len(out) == math.comb(6, 4)
        assert set(out) == set(combinations(range(6), 4))


class TestBinomial:
    def test_extreme_probabilities(self):
        assert sample_binomial(6, 0.0, 1).num_faces == 0
        assert sample_binomial(6, 1.0, 1).num_faces == math.comb(6, 3)

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            sample_binomial(6, 1.5, 0)
        with pytest.raises(ValueError):
            sample_binomial(6, -0.1, 0)

    def test_mean_face_count(self):
        # |faces| ~ Bin(C(20,3), 1/2): mean 570, sd ~16.9; 10^4 samples
        trials = 10_000
        total = sum(sample_binomial(20, 0.5, seed).num_faces for seed in range(trials))
        mean = total / trials
        stderr = math.sqrt(math.comb(20, 3) * 0.25) / math.sqrt(trials)
        assert abs(mean - 570.0) < 3 * stderr + 1e-9

    def test_fixed_size_model(self):
        Y = sample_fixed_size(10, 17, 5)
        assert Y.num_faces == 17
        assert sample_fixed_size(10, 17, 5) == Y
        with pytest.raises(ValueError):
            sample_fixed_size(5, 11, 0)


class TestSerialization:
    def test_json_round_trip(self):
        Y = sample_binomial(9, 0.3, 11)
        assert complex_from_json(complex_to_json(Y)) == Y

    def test_text_round_trip(self):
        Y = sample_binomial(9, 0.3, 12)
        assert complex_from_text(complex_to_text(Y)) == Y

    def test_one_based_labels(self):
        Y = Complex(4, 2, [(0, 1, 3)])
        assert "[[1, 2, 4]]" in complex_to_json(Y).replace('"', "")
        assert "1 2 4" in complex_to_text(Y)

    def test_text_header_preserves_isolated_vertices(self):
        Y = Complex(10, 2, [(0, 1, 2)])
        assert complex_from_text(complex_to_text(Y)).n == 10

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            complex_from_json('{"n": 4, "dim": 2, "faces": [[0, 1, 2]]}')
        with pytest.raises(ValueError):
            complex_from_json('{"n": 4, "faces": []}')
        with pytest.raises(ValueError, match="line 2"):
            complex_from_text("# n=4 dim=2\n1 2\n")
        with pytest.raises(ValueError, match="line 2"):
            complex_from_text("# n=4 dim=2\n1 2 9\n")
