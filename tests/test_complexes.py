import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homoforge.complexes import (
    MAX_VERTICES,
    Complex,
    ProcessStream,
    TripleSet,
    _binomial_faces,
    _unrank,
    colex_table,
    complex_from_json,
    complex_from_text,
    complex_to_json,
    complex_to_text,
    rank_face,
    rank_triple,
    sample_binomial,
    sample_fixed_size,
    triples_colex,
    uncovered_edges,
    unrank_edge,
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
            expected = sorted(combinations(range(n), 2), key=lambda e: e[::-1])
            for r, e in enumerate(expected):
                assert unrank_edge(r) == e
                assert rank_face(e) == r
        last = math.comb(2000, 2) - 1
        for r, e in [(0, (0, 1)), (1, (0, 2)), (last - 1, (1997, 1999)),
                     (last, (1998, 1999))]:
            assert unrank_edge(r) == e
            assert rank_face(e) == r

    def test_general_face_round_trip(self):
        for k in (2, 3, 4):
            table = colex_table(8, k)
            for r in range(math.comb(8, k)):
                assert rank_face(_unrank(r, table)) == r

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
        face = _unrank(r, colex_table(MAX_VERTICES, k))
        assert len(face) == k
        assert all(u < v for u, v in zip(face, face[1:]))
        assert rank_face(face) == r
        if r == 0:
            assert face == tuple(range(k))
        if r == math.comb(MAX_VERTICES, k) - 1:
            assert face == tuple(range(MAX_VERTICES - k, MAX_VERTICES))

    def test_unrank_triple_rejects_out_of_range(self):
        for n in (3, 7, MAX_VERTICES):
            with pytest.raises(ValueError):
                unrank_triple(-1, n)
            with pytest.raises(ValueError):
                unrank_triple(math.comb(n, 3), n)


class TestTripleSet:
    def test_contains_any_vertex_order(self):
        ts = TripleSet.of(6, [(4, 0, 2), (1, 2, 3)])
        assert ts.size == 2
        for t in permutations((0, 2, 4)):
            assert ts.contains(t)
        assert not ts.contains((5, 1, 0))
        assert list(ts.triples()) == [(1, 2, 3), (0, 2, 4)]

    @pytest.mark.parametrize("t", [(0, 0, 1), (1, 1, 1), (0, 1, 6), (-1, 0, 1), (0, 1)])
    def test_contains_rejects_invalid_triple(self, t):
        with pytest.raises(ValueError):
            TripleSet(6).contains(t)
        with pytest.raises(ValueError):
            TripleSet.of(6, [t])

    def test_complement(self):
        ts = TripleSet.of(5, [(0, 1, 2)])
        assert ts.complement().size == 9
        assert not ts.complement().contains((0, 1, 2))
        assert ts.complement().complement().bits == ts.bits


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
            delta = min(Y.edge_cover_count)
            assert delta >= prev_delta
            prev_delta = delta

    def test_add_duplicate_returns_false(self):
        Y = Complex(5)
        assert Y.add_face((0, 1, 2))
        assert not Y.add_face((0, 1, 2))
        assert Y.num_faces == 1

    def test_edge_cover_count_examples(self):
        assert Complex(3, 2, [(0, 1, 2)]).edge_cover_count == [1, 1, 1]
        assert Complex(4, 2, [(0, 1, 2)]).edge_cover_count == [1, 1, 1, 0, 0, 0]
        assert set(Complex.full(4).edge_cover_count) == {2}  # each edge in n-2 triangles

    def test_uncovered_edges_examples(self):
        Y = Complex(4, 2, [(0, 1, 2)])
        assert set(uncovered_edges(Y)) == {(0, 3), (1, 3), (2, 3)}
        assert uncovered_edges(Complex.full(5)) == []

    def test_rp2_has_no_uncovered_edges(self, rp2):
        assert uncovered_edges(rp2) == []
        assert set(rp2.edge_cover_count) == {2}

    def test_dim_guard(self):
        Y = Complex(5, dim=3)
        with pytest.raises(ValueError):
            uncovered_edges(Y)

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

    def test_ranks_past_int64(self):
        # C(2000, 8) > 2^63, so the batch unranker runs on Python ints
        assert ProcessStream(2000, 0, dim=7).take(2) == [
            (612, 1071, 1142, 1179, 1215, 1253, 1289, 1408),
            (16, 66, 403, 564, 1450, 1499, 1702, 1936),
        ]

    def test_sampled_faces_hold_python_ints(self):
        # Complex rejects numpy ints, so the bulk builders must not leak them
        for Y in (sample_fixed_size(12, 50, 3), sample_binomial(9, 0.3, 5, dim=3)):
            assert Y.faces and all(type(v) is int for f in Y.faces for v in f)
            assert all(type(c) is int for c in Y.edge_cover_count or ())


def shuffle_oracle(n, dim, seed, steps):
    """The first steps face ranks of a plain Fisher-Yates shuffle through randrange."""
    total = math.comb(n, dim + 1)
    rng, perm, out = random.Random(seed), {}, []
    for i in range(min(steps, total)):
        j = rng.randrange(i, total)
        out.append(perm.get(j, j))
        perm[j] = perm.get(i, i)
    return out


# a stream, then its calls: ("next", _), ("take", m) or ("take_array", m)
STREAM_CALLS = st.tuples(
    st.sampled_from([1, 2, 3]).flatmap(
        lambda dim: st.tuples(st.integers(dim + 1, 30), st.just(dim))
    ),
    st.integers(0, 2**32),
    st.lists(
        st.tuples(st.sampled_from(["next", "take", "take_array"]), st.integers(0, 40)),
        max_size=8,
    ),
)


class TestDrawContract:
    # C(2000, 4) > 2^32, so randrange draws getrandbits(k) with k > 32 there
    @settings(max_examples=150, deadline=None)
    @given(case=STREAM_CALLS)
    @example(case=((2000, 3), 7, [("take", 5), ("next", 0), ("take_array", 9), ("next", 0)]))
    @example(case=((4, 2), 1, [("take_array", 3), ("take", 5), ("next", 0)]))
    def test_matches_plain_shuffle(self, case):
        (n, dim), seed, calls = case
        stream = ProcessStream(n, seed, dim)
        steps = sum(1 if kind == "next" else m for kind, m in calls)
        drawn = []
        for kind, m in calls:
            if kind == "next":
                face = next(stream, None)
                if face is None:
                    assert len(drawn) == stream.total
                    continue
                faces = [face]
            elif kind == "take":
                faces = stream.take(m)
            else:
                arr = stream.take_array(m)
                assert arr.shape == (len(arr), dim + 1)
                faces = [tuple(f) for f in arr.tolist()]
            if kind != "take_array":
                assert all(type(v) is int for f in faces for v in f)
            assert all(list(f) == sorted(set(f)) and f[-1] < n for f in faces)
            drawn.extend(rank_face(f) for f in faces)
        assert drawn == shuffle_oracle(n, dim, seed, steps)


class TestBinomial:
    def test_extreme_probabilities(self):
        assert sample_binomial(6, 0.0, 1).num_faces == 0
        assert sample_binomial(6, 1.0, 1).num_faces == math.comb(6, 3)

    def test_zero_probability_at_any_size(self):
        # p = 0 draws nothing and builds no rank table
        assert _binomial_faces(10**9, 0.0, 1, dim=1000).shape == (0, 1001)
        assert sample_binomial(MAX_VERTICES, 0.0, 1, dim=1000).num_faces == 0

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

    @pytest.mark.parametrize(
        "n, p, seed, dim",
        [(20, 0.5, 3, 2), (30, 0.2267, 7000, 2), (6, 1.0, 1, 2), (9, 0.3, 5, 3), (8, 0.5, 2, 1)],
    )
    def test_matches_add_face_reference(self, n, p, seed, dim):
        # one draw per face in combinations order, counts as add_face keeps them
        rng = random.Random(seed)
        ref = Complex(n, dim)
        for f in combinations(range(n), dim + 1):
            if p == 1.0 or rng.random() < p:
                ref.add_face(f)
        Y = sample_binomial(n, p, seed, dim)
        assert Y == ref
        assert Y.edge_cover_count == ref.edge_cover_count

    @pytest.mark.parametrize(
        "n, M, seed, dim",
        [(20, 300, 3, 2), (30, 461, 3000, 2), (6, 20, 1, 2), (9, 40, 5, 3), (8, 12, 2, 1)],
    )
    def test_fixed_size_matches_add_face_reference(self, n, M, seed, dim):
        # the first M stream faces, counts as add_face keeps them
        ref = Complex(n, dim)
        for f in ProcessStream(n, seed, dim).take(M):
            ref.add_face(f)
        Y = sample_fixed_size(n, M, seed, dim)
        assert Y == ref
        assert Y.edge_cover_count == ref.edge_cover_count

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
