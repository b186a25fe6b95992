import json
import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import random_complex
from homoforge.complexes import Complex, TripleSet, sample_binomial
from homoforge.homology import shadow
from homoforge.shady_partitions import (
    Thresholds,
    cascade,
    load_labels,
    save_labels,
    verify_shady,
)


def brute_force_cascade(L, T):
    """Recount badness per edge and vertex directly from the definitions."""
    n = L.n
    bad_edges = set()
    for e in combinations(range(n), 2):
        count = sum(
            1
            for t in combinations(range(n), 3)
            if set(e) <= set(t) and L.contains(t)
        )
        if count > T.theta_edge:
            bad_edges.add(e)
    bad_vertices = set()
    for v in range(n):
        count = sum(1 for e in bad_edges if v in e)
        if count > T.theta_vertex:
            bad_vertices.add(v)
    return bad_edges, bad_vertices


def cone_closed_oracle(L):
    """No bad triple t has an apex v outside t whose three cone triangles are all good."""
    for t in L.triples():
        for v in range(L.n):
            if v not in t and not any(
                L.contains(tuple(sorted(set(t) - {u} | {v}))) for u in t
            ):
                return False
    return True


@st.composite
def labelings(draw):
    """A bad set on n <= 9 vertices: random bits, or a shadow's complement, which is closed."""
    n = draw(st.integers(1, 9))
    total = math.comb(n, 3)
    if draw(st.booleans()):
        return TripleSet(n, draw(st.integers(0, 2**total - 1)))
    ranks = draw(st.sets(st.integers(0, max(total - 1, 0)), max_size=total))
    faces = [t for r, t in enumerate(combinations(range(n), 3)) if r in ranks]
    return shadow(Complex(n, 2, faces), draw(st.sampled_from([2, 3]))).complement()


class TestThresholds:
    def test_defaults_shape(self):
        t = Thresholds.defaults(16)
        assert t.theta_edge == t.theta_vertex == 4
        assert t.max_bad_triples == math.ceil(math.comb(16, 3) / math.log(math.log(16)))

    def test_defaults_clamped_positive(self):
        t = Thresholds.defaults(3)
        assert t.theta_edge >= 1 and t.max_bad_triples >= 1

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            Thresholds(0, 1, 1)


class TestCascade:
    def test_no_bad_triples(self):
        L = TripleSet(8)
        c = cascade(L, Thresholds.defaults(8))
        assert c.bad_edges == frozenset() and c.bad_vertices == frozenset()

    def test_everything_bad(self):
        n = 8
        L = TripleSet.of(n, combinations(range(n), 3))
        T = Thresholds(theta_edge=n - 3, theta_vertex=n - 2, max_bad_triples=1)
        c = cascade(L, T)
        # each edge lies in n-2 > theta_edge bad triples, each vertex in n-1 bad edges
        assert len(c.bad_edges) == math.comb(n, 2)
        assert c.bad_vertices == frozenset(range(n))

    def test_single_loaded_edge_against_recount(self):
        n = 8
        bad = [t for t in combinations(range(n), 3) if {1, 2} <= set(t)]
        L = TripleSet.of(n, bad)
        T = Thresholds(theta_edge=3, theta_vertex=4, max_bad_triples=100)
        c = cascade(L, T)
        assert (1, 2) in c.bad_edges
        oracle_edges, oracle_vertices = brute_force_cascade(L, T)
        assert c.bad_edges == oracle_edges
        assert c.bad_vertices == oracle_vertices

    def test_random_against_recount(self):
        rng = random.Random(6)
        n = 7
        all_triples = list(combinations(range(n), 3))
        for _ in range(8):
            bad = rng.sample(all_triples, rng.randint(0, len(all_triples)))
            L = TripleSet.of(n, bad)
            T = Thresholds(
                theta_edge=rng.randint(1, 4),
                theta_vertex=rng.randint(1, 4),
                max_bad_triples=50,
            )
            c = cascade(L, T)
            oracle_edges, oracle_vertices = brute_force_cascade(L, T)
            assert c.bad_edges == oracle_edges
            assert c.bad_vertices == oracle_vertices

    def test_monotone_in_bad_set(self):
        rng = random.Random(8)
        n = 7
        T = Thresholds(theta_edge=2, theta_vertex=2, max_bad_triples=1000)
        ranks = list(range(math.comb(n, 3)))
        rng.shuffle(ranks)
        bits = 0
        prev_edges, prev_vertices = frozenset(), frozenset()
        for r in ranks:
            bits |= 1 << r  # grow the bad set one triple at a time
            c = cascade(TripleSet(n, bits), T)
            assert prev_edges <= c.bad_edges
            assert prev_vertices <= c.bad_vertices
            prev_edges, prev_vertices = c.bad_edges, c.bad_vertices


class TestElementaryComplete:
    def test_completeness(self):
        # a partition is complete iff it labels no triple bad
        assert TripleSet(6).size == 0
        assert TripleSet.of(6, [(0, 1, 2)]).size == 1

    def test_shadow_of_full_complex_is_complete(self):
        sh = shadow(Complex.full(6), 2)
        assert sh.complement().size == 0


class TestVerifyShady:
    def test_shadow_complement_passes(self):
        rng = random.Random(14)
        for _ in range(6):
            Y = random_complex(7, rng.randint(1, 20), rng)
            for p in (2, 3):
                L = shadow(Y, p).complement()
                T = Thresholds(theta_edge=2, theta_vertex=2,
                               max_bad_triples=math.comb(7, 3))
                report = verify_shady(Y, L, T)
                assert report.faces_all_good
                assert report.cone_closed
                assert report.bad_count_within_budget
                assert report.passed

    def test_bad_face_fails_condition(self):
        Y = Complex(6, 2, [(0, 1, 2)])
        L = TripleSet.of(6, [(0, 1, 2)])
        report = verify_shady(Y, L, Thresholds.defaults(6))
        assert not report.faces_all_good
        assert not report.passed

    def test_lone_bad_triple_fails_cone_closure(self):
        Y = Complex(6)
        L = TripleSet.of(6, [(0, 1, 2)])
        report = verify_shady(Y, L, Thresholds.defaults(6))
        assert not report.cone_closed  # every apex gives an all-good cone

    def test_budget_violation(self):
        n = 6
        L = TripleSet.of(n, combinations(range(n), 3))
        T = Thresholds(theta_edge=1, theta_vertex=1, max_bad_triples=3)
        report = verify_shady(Complex(n), L, T)
        assert not report.bad_count_within_budget

    @settings(max_examples=200, deadline=None)
    @given(L=labelings())
    @example(L=TripleSet(9))
    @example(L=TripleSet(9).complement())
    @example(L=TripleSet.of(9, [(0, 1, 2)]))
    @example(L=TripleSet(4, 0b0111))
    @example(L=TripleSet(3).complement())
    def test_cone_closed_matches_scan(self, L):
        T = Thresholds(theta_edge=1, theta_vertex=1, max_bad_triples=10**6)
        assert verify_shady(Complex(L.n), L, T).cone_closed == cone_closed_oracle(L)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            verify_shady(Complex(6), TripleSet(7), Thresholds.defaults(6))

    def test_report_json_schema(self):
        report = verify_shady(Complex(6), TripleSet(6), Thresholds.defaults(6))
        doc = report.to_json_dict()
        assert set(doc) >= {"condII", "condIII", "condI_cone", "bad_counts", "thresholds"}
        assert set(doc["bad_counts"]) == {"triples", "edges", "vertices"}
        assert doc["condII"] is True and doc["condI_cone"] is True



class TestClaimThreeGoodEdges:
    """A bad triple with three good edges and an all-good cone breaks cone closure."""

    def test_complete_partition_no_violations(self):
        L = TripleSet(7)
        T = Thresholds.defaults(7)
        c = cascade(L, T)
        assert c.bad_edges == frozenset() and c.bad_vertices == frozenset()
        assert verify_shady(Complex(7), L, T).cone_closed

    def test_all_bad_no_violations(self):
        # with every triple bad, every edge and vertex is bad and no cone is good
        n = 7
        L = TripleSet.of(n, combinations(range(n), 3))
        T = Thresholds(theta_edge=1, theta_vertex=1, max_bad_triples=10**6)
        c = cascade(L, T)
        assert c.bad_edges == frozenset(combinations(range(n), 2))
        assert c.bad_vertices == frozenset(range(n))
        assert verify_shady(Complex(n), L, T).cone_closed

    def test_manufactured_violation_detected(self):
        # one bad triple, everything else good: its edges are good and
        # any apex gives a good cone
        n = 6
        L = TripleSet.of(n, [(0, 1, 2)])
        T = Thresholds.defaults(n)
        assert cascade(L, T).bad_edges == frozenset()
        report = verify_shady(Complex(n), L, T)
        assert not report.cone_closed and not report.passed

    def test_shadow_labels_smoke(self):
        Y = sample_binomial(10, 2 * math.log(10) / 10, seed=2)
        L = shadow(Y, 2).complement()
        T = Thresholds.defaults(10)
        # shadows satisfy cone closure, so no bad triple has a good cone
        report = verify_shady(Y, L, T)
        assert report.faces_all_good and report.cone_closed


class TestMoves:
    """Shadows are closed under the five-triangle move and the link fan."""

    def test_five_triangle_sound_for_shadows(self):
        # exhaustively at n=6: xyz with xyv, vxw, xzw, zyw, yvw bounds a
        # sphere, so if the five are shadow members xyz must be one too
        rng = random.Random(3)
        for _ in range(4):
            Y = random_complex(6, rng.randint(3, 14), rng)
            sh = shadow(Y, 2)
            for x, y, z, v, w in permutations(range(6), 5):
                around = [(x, y, v), (v, x, w), (x, z, w), (z, y, w), (y, v, w)]
                if all(sh.contains(tuple(sorted(t))) for t in around):
                    assert sh.contains(tuple(sorted((x, y, z))))

    def test_fan_sound_for_shadows(self):
        # a path x = x0, ..., xs = y in the link of v, with every fan
        # triangle {y, xi, xi+1} (i <= s-2) a shadow member, closes vxy
        Y = sample_binomial(9, 0.8, seed=17)
        sh = shadow(Y, 2)
        checked = 0
        for v in range(9):
            link = {u: set() for u in range(9) if u != v}
            for f in Y.faces.tolist():
                if v in f:
                    a, b = (u for u in f if u != v)
                    link[a].add(b)
                    link[b].add(a)
            for x, y in combinations(sorted(link), 2):
                path = _bfs_path(link, x, y)
                if path is None:
                    continue
                fan = zip(path[:-2], path[1:-1])
                if all(sh.contains(tuple(sorted((y, a, b)))) for a, b in fan):
                    assert sh.contains(tuple(sorted((v, x, y))))
                    checked += 1
        assert checked > 10


def _bfs_path(adjacency, x, y):
    prev = {x: None}
    frontier = [x]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adjacency[u]:
                if w not in prev:
                    prev[w] = u
                    nxt.append(w)
        frontier = nxt
    if y not in prev:
        return None
    path = [y]
    while path[-1] != x:
        path.append(prev[path[-1]])
    return path[::-1]

class TestLabelsIO:
    def test_round_trip(self, tmp_path):
        rng = random.Random(1)
        n = 8
        bad = rng.sample(list(combinations(range(n), 3)), 20)
        L = TripleSet.of(n, bad)
        path = tmp_path / "labels.bits"
        save_labels(L, str(path))
        back = load_labels(str(path))
        assert back.n == n
        assert back.size == 20
        assert set(back.triples()) == set(bad)

    def test_header_mismatch_detected(self, tmp_path):
        L = TripleSet.of(6, [(0, 1, 2)])
        path = tmp_path / "labels.bits"
        save_labels(L, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])  # truncate payload
        with pytest.raises(ValueError):
            load_labels(str(path))

    def test_bit_past_last_triple_rejected(self, tmp_path):
        # 11 bad triples claimed and set, but C(5,3) = 10 triples exist
        path = tmp_path / "labels.bits"
        header = json.dumps({"n": 5, "count_bad": 11}).encode()
        path.write_bytes(header + b"\n" + b"\xff\x07")
        with pytest.raises(ValueError, match="rank 10"):
            load_labels(str(path))

    def test_full_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.bits"
        save_labels(TripleSet(5, 2**10 - 1), str(path))
        assert load_labels(str(path)).size == 10

    def test_fewer_than_three_vertices_refused(self, tmp_path):
        path = tmp_path / "labels.bits"
        path.write_bytes(json.dumps({"n": 2, "count_bad": 0}).encode() + b"\n")
        with pytest.raises(ValueError, match="n >= 3"):
            load_labels(str(path))
        with pytest.raises(ValueError, match="n >= 3"):
            save_labels(TripleSet(2), str(path))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_both_formats_round_trip_and_reject_bits_past_total(self, tmp_path, data):
        n = data.draw(st.integers(3, 9))
        total = math.comb(n, 3)
        ts = TripleSet(n, data.draw(st.integers(0, 2**total - 1)))
        path = tmp_path / "labels.bits"
        save_labels(ts, str(path))
        for back in (TripleSet.from_bytes(ts.to_bytes(), n), load_labels(str(path))):
            assert (back.n, back.bits) == (ts.n, ts.bits)
        # a bit at or past C(n,3): a padding bit, or one byte too many
        nbytes = (total + 7) // 8
        k = data.draw(st.integers(total, max(total, 8 * nbytes - 1)))
        bits = ts.bits | 1 << k
        payload = bits.to_bytes(max(nbytes, k // 8 + 1), "little")
        with pytest.raises(ValueError):
            TripleSet.from_bytes(total.to_bytes(8, "little") + payload, n)
        header = json.dumps({"n": n, "count_bad": bits.bit_count()}).encode()
        path.write_bytes(header + b"\n" + payload)
        with pytest.raises(ValueError):
            load_labels(str(path))
