import json
import math
import random
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import stream_faces
from homoforge import complexes
from homoforge.complexes import (
    MAX_VERTICES,
    Complex,
    ProcessStream,
    TripleSet,
    _binomial_faces,
    _unrank_array,
    colex_array,
    complex_from_json,
    complex_from_text,
    complex_to_json,
    complex_to_text,
    edge_cover_counts,
    facet_ranks,
    face_ranks,
    rank_face,
    sample_binomial,
    sample_fixed_size,
    uncovered_edges,
)
from homoforge.homology import homology_Z

# (k, r): a face size and a colex rank of a k-face on MAX_VERTICES vertices
RANKED_FACES = st.sampled_from([1, 2, 3, 4]).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(0, math.comb(MAX_VERTICES, k) - 1))
)


def colex_order(n, k):
    """All k-subsets of range(n) in colex order: by reversed tuple."""
    return sorted(combinations(range(n), k), key=lambda t: t[::-1])


def unranked(ranks, n, k):
    return [tuple(f) for f in _unrank_array(ranks, n, k).tolist()]


def cover_counts(Y):
    return edge_cover_counts(Y.n, Y.faces).tolist()


class TestRanking:
    def test_smallest_triple(self):
        assert rank_face((0, 1, 2)) == 0

    def test_largest_triple(self):
        assert rank_face((2, 3, 4)) == math.comb(5, 3) - 1

    def test_colex_enumeration_oracle(self):
        # independent oracle: sort all triples by reversed tuple (colex order)
        for n in (4, 5, 7):
            expected = colex_order(n, 3)
            for r, t in enumerate(expected):
                assert rank_face(t) == r
                assert unranked([r], n, 3) == [t]
        assert rank_face((0, 1, 3)) == 1  # second in colex order

    def test_colex_array_is_binomials(self):
        table = colex_array(30, 3)
        assert table.shape == (4, 31)
        assert table.tolist() == [[math.comb(v, i) for v in range(31)] for i in range(4)]
        table, rng = colex_array(2000, 300), random.Random(1)
        assert table.shape == (301, 2001)
        for _ in range(300):
            i, v = rng.randrange(301), rng.randrange(2001)
            assert table[i, v] == math.comb(v, i)
        assert table[300, 2000] == math.comb(2000, 300)
        # C(2000, 7) > 2^63
        assert colex_array(2000, 6).dtype == np.int64
        assert colex_array(2000, 7).dtype == object

    def test_round_trip_bijection(self):
        n = 9
        ranks = {rank_face(t) for t in combinations(range(n), 3)}
        assert ranks == set(range(math.comb(n, 3)))

    def test_monotone_in_colex(self):
        n = 8
        prev = -1
        for t in colex_order(n, 3):
            r = rank_face(t)
            assert r == prev + 1
            prev = r

    def test_invalid_triples_rejected(self):
        with pytest.raises(ValueError):
            Complex(5, 2, [(0, 1, 5)])
        with pytest.raises(ValueError):
            Complex(5, 2, [(2, 1, 0)])
        with pytest.raises(ValueError):
            Complex(5, 2, [(0, 0, 1)])

    def test_edge_ranking(self):
        for n in (3, 6, 10):
            expected = colex_order(n, 2)
            assert unranked(range(len(expected)), n, 2) == expected
            assert [rank_face(e) for e in expected] == list(range(len(expected)))
        last = math.comb(2000, 2) - 1
        ends = [(0, (0, 1)), (1, (0, 2)), (last - 1, (1997, 1999)), (last, (1998, 1999))]
        assert unranked([r for r, _ in ends], 2000, 2) == [e for _, e in ends]
        assert [rank_face(e) for _, e in ends] == [r for r, _ in ends]

    def test_general_face_round_trip(self):
        for k in (2, 3, 4):
            faces = unranked(range(math.comb(8, k)), 8, k)
            assert [rank_face(f) for f in faces] == list(range(math.comb(8, k)))

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_face_ranks_match_rank_face(self, k):
        # C(2000, 8) > 2^63, so k = 8 sums the object table of Python ints
        rng = random.Random(k)
        for n in (k, 9, MAX_VERTICES):
            faces = [tuple(range(k)), tuple(range(n - k, n))]
            faces += [tuple(sorted(rng.sample(range(n), k))) for _ in range(20)]
            got = face_ranks(n, np.array(faces, dtype=np.int32))
            assert got.dtype == (object if (n, k) == (MAX_VERTICES, 8) else np.int64)
            assert got.tolist() == [rank_face(f) for f in faces]
        assert face_ranks(9, np.empty((0, k), dtype=np.int32)).tolist() == []

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
        (face,) = unranked([r], MAX_VERTICES, k)
        assert len(face) == k
        assert all(u < v for u, v in zip(face, face[1:]))
        assert rank_face(face) == r
        if r == 0:
            assert face == tuple(range(k))
        if r == math.comb(MAX_VERTICES, k) - 1:
            assert face == tuple(range(MAX_VERTICES - k, MAX_VERTICES))


def facet_oracle(faces):
    """rank_face of each face less its vertex i, in column i."""
    return [[rank_face(f[:i] + f[i + 1 :]) for i in range(len(f))] for f in faces]


class TestFacetRanks:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_face_small_n(self, d):
        for n in range(d + 1, 10):
            faces = list(combinations(range(n), d + 1))
            got = facet_ranks(n, np.array(faces, dtype=np.int32))
            assert got.dtype == np.int64
            assert got.tolist() == facet_oracle(faces)

    @pytest.mark.parametrize("d", [2, 6, 7])
    def test_max_vertices(self, d):
        # C(2000, 7) > 2^63, so d = 7 reads the object table of Python ints
        n, rng = MAX_VERTICES, random.Random(d)
        faces = [tuple(range(d + 1)), tuple(range(n - d - 1, n))]
        faces += [tuple(sorted(rng.sample(range(n), d + 1))) for _ in range(5)]
        got = facet_ranks(n, np.array(faces, dtype=np.int32))
        assert got.dtype == (object if d == 7 else np.int64)
        assert got.tolist() == facet_oracle(faces)

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_no_faces(self, k):
        assert facet_ranks(MAX_VERTICES, np.empty((0, k), dtype=np.int32)).shape == (0, k)


class TestTripleSet:
    def test_contains_any_vertex_order(self):
        ts = TripleSet.of(6, [(4, 0, 2), (1, 2, 3)])
        assert ts.size == 2
        for t in permutations((0, 2, 4)):
            assert ts.contains(t)
        assert not ts.contains((5, 1, 0))
        assert list(ts.triples()) == [(1, 2, 3), (0, 2, 4)]

    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_triples_unranks_every_rank(self, n):
        assert list(TripleSet(n).triples()) == []
        assert list(TripleSet(n).complement().triples()) == colex_order(n, 3)

    @pytest.mark.parametrize("t", [(0, 0, 1), (1, 1, 1), (0, 1, 6), (-1, 0, 1), (0, 1)])
    def test_contains_rejects_invalid_triple(self, t):
        with pytest.raises(ValueError):
            TripleSet(6).contains(t)
        with pytest.raises(ValueError):
            TripleSet.of(6, [t])

    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_ranks_match_bit_scan(self, n):
        rng = random.Random(n)
        for _ in range(20):
            bits = rng.getrandbits(math.comb(n, 3))
            ranks = TripleSet(n, bits).ranks()
            assert ranks.dtype == np.int64
            assert ranks.tolist() == [r for r in range(bits.bit_length()) if bits >> r & 1]

    def test_ranks_of_full_set(self):
        full = TripleSet(80).complement()
        assert np.array_equal(full.ranks(), np.arange(math.comb(80, 3)))

    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_mask_matches_ranks(self, n):
        rng = random.Random(n)
        for bits in (0, (1 << math.comb(n, 3)) - 1, rng.getrandbits(math.comb(n, 3))):
            ts = TripleSet(n, bits)
            mask = ts.mask()
            assert mask.dtype == bool and len(mask) == math.comb(n, 3)
            assert np.array_equal(np.flatnonzero(mask), ts.ranks())
            assert TripleSet.from_mask(n, mask).bits == bits

    def test_bits_range_checked(self):
        # a bit past C(5,3) = 10 was kept, and ranks() then overflowed
        with pytest.raises(ValueError, match=r"rank 20 >= C\(5,3\)"):
            TripleSet(5, 1 << 20)
        with pytest.raises(ValueError, match=r"rank 10 >= C\(5,3\)"):
            TripleSet(5, 2**11 - 1)
        with pytest.raises(ValueError, match="nonnegative"):
            TripleSet(5, -1)
        assert TripleSet(5, 2**10 - 1).size == 10

    def test_of_matches_bitwise_or(self):
        rng = random.Random(4)
        n = 9
        all_triples = list(combinations(range(n), 3))
        for size in (0, 1, 30, len(all_triples)):
            picked = rng.sample(all_triples, size)
            shuffled = [rng.sample(t, 3) for t in picked + picked[: size // 2]]
            bits = 0
            for t in picked:
                bits |= 1 << rank_face(t)
            assert TripleSet.of(n, shuffled).bits == bits
            assert TripleSet.of(n, iter(shuffled)).bits == bits

    def test_complement(self):
        ts = TripleSet.of(5, [(0, 1, 2)])
        assert ts.complement().size == 9
        assert not ts.complement().contains((0, 1, 2))
        assert ts.complement().complement().bits == ts.bits


class TestComplex:
    def test_add_face_maintains_cover_counts(self):
        rng = random.Random(5)
        faces = list(combinations(range(8), 3))
        rng.shuffle(faces)
        prev_delta = 0
        for i in range(30):
            before = cover_counts(Complex(8, 2, faces[:i]))
            Y = Complex(8, 2, faces[: i + 1])
            assert len(Y.faces) == i + 1
            after = cover_counts(Y)
            bumped = [i for i in range(len(after)) if after[i] != before[i]]
            assert len(bumped) == 3
            assert all(after[i] == before[i] + 1 for i in bumped)
            delta = min(after)
            assert delta >= prev_delta
            prev_delta = delta

    def test_add_duplicate_returns_false(self):
        Y = Complex(5, 2, [(0, 1, 2), (0, 1, 2)])
        assert len(Y.faces) == 1
        assert Y == Complex(5, 2, [(0, 1, 2)])
        assert Y == Complex(5, 2, np.array([[0, 1, 2], [0, 1, 2]]))

    def test_edge_cover_count_examples(self):
        assert cover_counts(Complex(3, 2, [(0, 1, 2)])) == [1, 1, 1]
        assert cover_counts(Complex(4, 2, [(0, 1, 2)])) == [1, 1, 1, 0, 0, 0]
        assert set(cover_counts(Complex.full(4))) == {2}  # each edge in n-2 triangles

    def test_uncovered_edges_examples(self):
        Y = Complex(4, 2, [(0, 1, 2)])
        assert set(uncovered_edges(Y)) == {(0, 3), (1, 3), (2, 3)}
        assert uncovered_edges(Complex.full(5)) == []

    def test_rp2_has_no_uncovered_edges(self, rp2):
        assert uncovered_edges(rp2) == []
        assert set(cover_counts(rp2)) == {2}

    def test_dim_guard(self):
        Y = Complex(5, dim=3)
        with pytest.raises(ValueError):
            uncovered_edges(Y)

    def test_face_validation(self):
        with pytest.raises(ValueError, match="must have 3 vertices"):
            Complex(4, 2, [(0, 1)])
        with pytest.raises(ValueError, match="out of range"):
            Complex(4, 2, [(0, 1, 4)])
        with pytest.raises(ValueError, match="strictly increasing"):
            Complex(4, 2, [(2, 1, 0)])


class TestConstructor:
    N = 7

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_inputs_give_colex_faces(self, d):
        rng = random.Random(d)
        picked = rng.sample(list(combinations(range(self.N), d + 1)), 12)
        expected = sorted(set(picked), key=lambda f: f[::-1])
        shuffled = rng.sample(picked, len(picked))
        repeated = picked + rng.choices(picked, k=8)
        inputs = [picked, iter(picked), shuffled, repeated, np.array(picked),
                  np.array(shuffled, dtype=np.int64), np.array(repeated, dtype=np.uint8)]
        for faces in inputs:
            Y = Complex(self.N, d, faces)
            assert [tuple(f) for f in Y.faces.tolist()] == expected
            assert Y == Complex(self.N, d, expected)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bad_faces_rejected(self, d):
        good = list(range(d + 1))
        bad = [
            [float(v) for v in good],  # not an integer
            good + [d + 1],  # wrong width
            [-1] + good[1:],  # below 0
            good[:-1] + [self.N],  # at n
            good[::-1],  # not increasing
            [0] + good[:-1],  # a repeated vertex
        ]
        for face in bad:
            with pytest.raises(ValueError):
                Complex(self.N, d, [face])
            with pytest.raises(ValueError):
                Complex(self.N, d, np.array([face]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ragged_rows_rejected(self, d):
        good = tuple(range(d + 1))
        for faces in ([good, good[:-1]], [good, good + (d + 1,)], [good[:-1], good]):
            with pytest.raises(ValueError, match=f"faces must have {d + 1} vertices each"):
                Complex(self.N, d, faces)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_numpy_int_tuples(self, d):
        faces = list(combinations(range(self.N), d + 1))[::3]
        for dtype in (np.int8, np.int32, np.int64, np.uint16):
            rows = [tuple(dtype(v) for v in f) for f in faces]
            assert Complex(self.N, d, rows) == Complex(self.N, d, faces)
            assert Complex(self.N, d, rows) == Complex(self.N, d, np.array(faces))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_empty_iterable(self, d):
        for faces in ([], (), iter([]), (f for f in [])):
            Y = Complex(self.N, d, faces)
            assert Y.faces.shape == (0, d + 1) and Y.faces.dtype == np.int32
            assert Y == Complex(self.N, d) == Complex(self.N, d, np.empty((0, d + 1), int))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_faces_read_only(self, d):
        Y = Complex(self.N, d, [tuple(range(d + 1))])
        with pytest.raises(ValueError):
            Y.faces[0, 0] = 1
        assert Y.faces.dtype == np.int32 and not Y.faces.flags.writeable

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_full(self, d):
        Y = Complex.full(self.N, d)
        assert Y == Complex(self.N, d, combinations(range(self.N), d + 1))
        assert len(Y.faces) == math.comb(self.N, d + 1)


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
            assert list(stream_faces(ProcessStream(3, seed))) == [(0, 1, 2)]

    def test_permutation_property(self):
        for seed in (0, 1, 99):
            out = list(stream_faces(ProcessStream(5, seed)))
            assert len(out) == 10
            assert set(out) == set(combinations(range(5), 3))

    def test_same_seed_same_order(self):
        first, again = (list(stream_faces(ProcessStream(6, 123))) for _ in range(2))
        assert first == again

    def test_different_seeds_differ(self):
        orders = {tuple(stream_faces(ProcessStream(6, s))) for s in range(8)}
        assert len(orders) > 1

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            ProcessStream(2, 0)

    def test_n_too_large(self):
        with pytest.raises(ValueError):
            ProcessStream(MAX_VERTICES + 1, 0)

    def test_first_element_uniform(self):
        # Monte Carlo: each of the 10 triples should lead ~1/10 of streams
        trials = 100_000
        first = [ProcessStream(5, seed)._ranks(1)[0] for seed in range(trials)]
        faces, counts = np.unique(_unrank_array(first, 5, 3), axis=0, return_counts=True)
        assert len(faces) == 10
        for t, c in zip(faces.tolist(), counts.tolist()):
            assert abs(c / trials - 0.1) < 0.01, (t, c)

    def test_lazy_prefix_only(self):
        s = ProcessStream(30, 0)
        s.take(10)
        assert len(s._swap) <= 10

    def test_general_dimension(self):
        out = list(stream_faces(ProcessStream(6, 4, dim=3)))
        assert len(out) == math.comb(6, 4)
        assert set(out) == set(combinations(range(6), 4))

    def test_ranks_past_int64(self):
        # C(2000, 8) > 2^63, so the batch unranker runs on Python ints
        assert ProcessStream(2000, 0, dim=7).take(2) == [
            (612, 1071, 1142, 1179, 1215, 1253, 1289, 1408),
            (16, 66, 403, 564, 1450, 1499, 1702, 1936),
        ]

    def test_sampled_faces_hold_python_ints(self):
        # the samplers' faces are a read-only int32 array in colex order, and
        # its rows as lists hold Python ints, as TripleSet.contains requires
        for Y in (sample_fixed_size(12, 50, 3), sample_binomial(9, 0.3, 5, dim=3)):
            assert Y.faces.dtype == np.int32 and not Y.faces.flags.writeable
            ranks = [rank_face(f) for f in Y.faces.tolist()]
            assert len(ranks) == len(Y.faces) > 0 and ranks == sorted(set(ranks))
        Y = sample_fixed_size(12, 50, 3)
        assert all(TripleSet(12).complement().contains(f) for f in Y.faces.tolist())


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
        assert len(sample_binomial(6, 0.0, 1).faces) == 0
        assert len(sample_binomial(6, 1.0, 1).faces) == math.comb(6, 3)

    def test_zero_probability_at_any_size(self):
        # p = 0 draws nothing and builds no rank table
        assert _binomial_faces(MAX_VERTICES, 0.0, 1, dim=1000).shape == (0, 1001)
        assert len(sample_binomial(MAX_VERTICES, 0.0, 1, dim=1000).faces) == 0

    @pytest.mark.parametrize("dim", [0, -1, -3])
    def test_dimension_below_one(self, dim):
        # checked before anything is drawn, for both samplers
        with pytest.raises(ValueError, match=f"need dim >= 1, got {dim}"):
            ProcessStream(5, 0, dim=dim)
        with pytest.raises(ValueError, match=f"need dim >= 1, got {dim}"):
            _binomial_faces(5, 0.5, 0, dim=dim)

    def test_n_too_large(self):
        # checked before the p = 0 return, so nothing is drawn or allocated
        with pytest.raises(ValueError):
            _binomial_faces(MAX_VERTICES + 1, 0.0, 0)

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            sample_binomial(6, 1.5, 0)
        with pytest.raises(ValueError):
            sample_binomial(6, -0.1, 0)

    def test_mean_face_count(self):
        # |faces| ~ Bin(C(20,3), 1/2): mean 570, sd ~16.9; 10^4 samples
        trials = 10_000
        total = sum(len(sample_binomial(20, 0.5, seed).faces) for seed in range(trials))
        mean = total / trials
        stderr = math.sqrt(math.comb(20, 3) * 0.25) / math.sqrt(trials)
        assert abs(mean - 570.0) < 3 * stderr + 1e-9

    @pytest.mark.parametrize(
        "n, p, seed, dim",
        [(20, 0.5, 3, 2), (30, 0.2267, 7000, 2), (6, 1.0, 1, 2), (9, 0.3, 5, 3), (8, 0.5, 2, 1)],
    )
    def test_matches_add_face_reference(self, n, p, seed, dim, monkeypatch):
        # one draw per face in combinations order; chunks of 1 and 7 draws
        # check that the random words run on across chunks
        rng = random.Random(seed)
        faces = [
            f for f in combinations(range(n), dim + 1) if p == 1.0 or rng.random() < p
        ]
        for chunk in (1, 7, complexes._DRAW_CHUNK):
            monkeypatch.setattr(complexes, "_DRAW_CHUNK", chunk)
            Y = sample_binomial(n, p, seed, dim)
            assert Y == Complex(n, dim, faces), chunk

    @pytest.mark.parametrize(
        "n, M, seed, dim",
        [(20, 300, 3, 2), (30, 461, 3000, 2), (6, 20, 1, 2), (9, 40, 5, 3), (8, 12, 2, 1)],
    )
    def test_fixed_size_matches_add_face_reference(self, n, M, seed, dim):
        # the first M stream faces
        faces = ProcessStream(n, seed, dim).take(M)
        Y = sample_fixed_size(n, M, seed, dim)
        assert Y == Complex(n, dim, faces)

    def test_fixed_size_model(self):
        Y = sample_fixed_size(10, 17, 5)
        assert len(Y.faces) == 17
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

    def test_short_json_face_named(self):
        doc = '{"n": 5, "dim": 2, "faces": [[1, 2, 3], [4, 5]]}'
        with pytest.raises(ValueError, match=r"face \[4, 5\] must have 3 vertices"):
            complex_from_json(doc)

    def test_repeated_text_label_names_line(self):
        with pytest.raises(ValueError, match=r"line 3: face \[1, 1, 2\] repeats a vertex"):
            complex_from_text("# n=4 dim=2\n1 2 3\n1 1 2\n")
        with pytest.raises(ValueError, match="repeats a vertex"):
            complex_from_json('{"n": 4, "dim": 2, "faces": [[2, 1, 2]]}')

    @pytest.mark.parametrize(
        "n, dim, face, message",
        [(4, 0, [1, 2, 3], "need dim >= 1, got 0"), (0, 2, [1, 2, 3], "need n >= 1, got 0"),
         (2001, 2, [1, 2, 2002], "need n <= 2000, got 2001")],
    )
    def test_size_checked_before_faces(self, n, dim, face, message):
        # the face does not fit n or dim either, but the bad size is named
        with pytest.raises(ValueError, match=f"^{message}$"):
            complex_from_json(json.dumps({"n": n, "dim": dim, "faces": [face]}))
        with pytest.raises(ValueError, match=f"^{message}$"):
            complex_from_text(f"# n={n} dim={dim}\n{' '.join(map(str, face))}\n")

    def test_boolean_json_label_rejected(self):
        # bool is an int in Python; true must not load as vertex 1
        with pytest.raises(ValueError, match="must be a list of integer lists"):
            complex_from_json('{"n": 4, "dim": 2, "faces": [[true, 2, 3]]}')

    @pytest.mark.parametrize("header", ["# n=abc dim=2", "# n=4 dim=x"])
    def test_bad_text_header_names_line(self, header):
        with pytest.raises(ValueError, match="^line 1: invalid literal"):
            complex_from_text(f"{header}\n1 2 3\n")

    def test_duplicate_faces_merge(self):
        # a face listed twice, in any vertex order, loads as one face
        once = Complex(4, 2, [(0, 1, 2)])
        assert complex_from_text("# n=4 dim=2\n1 2 3\n3 2 1\n1 2 3\n") == once
        assert complex_from_json('{"n": 4, "dim": 2, "faces": [[1, 2, 3], [3, 2, 1]]}') == once
        assert homology_Z(once).betti == 2
