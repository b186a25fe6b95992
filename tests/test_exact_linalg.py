import math
import random
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.domains import ZZ

from conftest import rank_mod_p_oracle, rank_over_Q, random_complex
from homoforge.complexes import (
    Complex,
    ProcessStream,
    edges_colex,
    sample_binomial,
    uncovered_edges,
)
from homoforge.exact_linalg import (
    _INITIAL_CAPACITY,
    EchelonBasis,
    MatrixFormatError,
    SparseIntMatrix,
    _eliminate_mod_p,
    _eliminate_unit_pivots,
    boundary_columns_dense,
    boundary_matrix,
    boundary_vector_dense,
    is_prime,
    minor_gcd_oracle,
    quotient_map_mod_p,
    rank_mod_p,
    read_matrix_file,
    smith_normal_form,
    write_matrix_file,
)


BIG = 10**25


def sympy_invariant_factors(dense):
    """Nonzero diagonal of sympy's Smith normal form, as positive integers."""
    snf = sympy_snf(Matrix(dense), domain=ZZ)
    diagonal = (snf[i, i] for i in range(min(snf.shape)))
    return tuple(abs(int(d)) for d in diagonal if d)


@st.composite
def sparse_dense_matrices(draw):
    """Up to 7x7, mostly zeros, with units, small integers and +-10^25."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 4, -6, BIG, -BIG])
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@st.composite
def wide_unit_free_matrices(draw):
    """1-4 rows by 8-40 columns with no +-1 entry, so all of it is core."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(8, 40))
    entry = st.sampled_from([0, 0, 2, -2, 3, -3, 4, 6, BIG, -BIG])
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@st.composite
def sparse_vectors(draw, nrows, p, count):
    """count vectors of length nrows with one to three entries in [1, p)."""
    vectors = []
    for _ in range(count):
        v = [0] * nrows
        for r in draw(st.lists(st.integers(0, nrows - 1), min_size=1, max_size=3)):
            v[r] = draw(st.integers(1, p - 1))
        vectors.append(v)
    return vectors


@st.composite
def unit_pivot_matrices(draw):
    """Up to 8x8, mostly zeros, nonzero entries in {+-1, +-2, 3, 6}."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 6])
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


def h_delta_prefix(n, seed):
    """The process prefix at h_delta: the first step covering every edge."""
    Y = Complex(n)
    for f in ProcessStream(n, seed):
        Y.add_face(f)
        if not uncovered_edges(Y):
            return Y


def random_sparse(rng, max_dim=8, lo=-9, hi=9):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    dense = [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]
    return SparseIntMatrix.from_dense(dense)


class TestSparseIntMatrix:
    def test_zero_entries_not_stored(self):
        m = SparseIntMatrix(3, 3)
        m.set(0, 0, 5)
        m.set(0, 0, 0)
        assert m.nnz == 0

    def test_bounds_checked(self):
        m = SparseIntMatrix(2, 2)
        with pytest.raises(ValueError):
            m.set(2, 0, 1)

    def test_dense_round_trip(self):
        dense = [[1, 0, -3], [0, 0, 7]]
        assert SparseIntMatrix.from_dense(dense).to_dense() == dense


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        rng = random.Random(0)
        m = random_sparse(rng)
        path = tmp_path / "m.txt"
        write_matrix_file(m, str(path))
        assert read_matrix_file(str(path)) == m

    def test_malformed_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n0 0 1\n1 x 2\n")
        with pytest.raises(MatrixFormatError, match="line 3"):
            read_matrix_file(str(path))
        path.write_text("2\n")
        with pytest.raises(MatrixFormatError, match="line 1"):
            read_matrix_file(str(path))
        path.write_text("2 2\n5 0 1\n")
        with pytest.raises(MatrixFormatError, match="line 2"):
            read_matrix_file(str(path))
        for text in ("2 2\n0 0 1\n0 0 2\n", "2 2\n0 0 0\n0 0 5\n"):
            path.write_text(text)
            with pytest.raises(MatrixFormatError, match="duplicate"):
                read_matrix_file(str(path))


class TestBoundaryMatrix:
    def test_single_triangle_column(self):
        # edges in colex order: (0,1), (0,2), (1,2)
        m = boundary_matrix(Complex(3, 2, [(0, 1, 2)]))
        assert (m.rows, m.cols) == (3, 1)
        assert [m.get(r, 0) for r in range(3)] == [1, -1, 1]

    def test_empty_complex(self):
        m = boundary_matrix(Complex(5))
        assert (m.rows, m.cols) == (10, 0)
        assert m.nnz == 0

    def test_full_tetrahedron_rank(self):
        m = boundary_matrix(Complex.full(4))
        assert (m.rows, m.cols) == (6, 4)
        assert rank_over_Q(m.to_dense()) == 3

    def test_boundary_of_boundary_is_zero(self):
        rng = random.Random(7)
        for _ in range(10):
            Y = random_complex(rng.randint(4, 9), rng.randint(0, 14), rng)
            d2 = np.array(boundary_matrix(Y).to_dense(), dtype=np.int64).reshape(
                math.comb(Y.n, 2), -1
            )
            edges = Complex(Y.n, 1, edges_colex(Y.n))
            d1 = np.array(boundary_matrix(edges).to_dense(), dtype=np.int64)
            assert not (d1 @ d2).any()

    def test_matches_combinations_oracle(self):
        # rows indexed by a dict over all (d-1)-faces sorted colex (by the
        # reversed tuple), columns the faces in the same order, signs (-1)^i
        rng = random.Random(11)
        for d in (1, 2, 3):
            for n in (d + 1, 6, 9):
                all_faces = list(combinations(range(n), d + 1))
                faces = rng.sample(all_faces, rng.randint(0, len(all_faces)))
                row_of = {
                    t: i for i, t in enumerate(
                        sorted(combinations(range(n), d), key=lambda t: t[::-1]))
                }
                expected = {}
                for col, f in enumerate(sorted(faces, key=lambda t: t[::-1])):
                    for i in range(d + 1):
                        expected[(row_of[f[:i] + f[i + 1 :]], col)] = (-1) ** i
                m = boundary_matrix(Complex(n, d, faces))
                assert (m.rows, m.cols) == (len(row_of), len(faces))
                assert m.entries == expected

    def test_dense_builders_agree(self):
        Y = random_complex(7, 10, random.Random(1))
        sparse = boundary_matrix(Y)
        dense = boundary_columns_dense(Y.faces_sorted(), Y.n, 2)
        assert sparse.to_dense() == dense.tolist()
        one = boundary_vector_dense(Y.faces_sorted()[0], Y.n)
        assert one.tolist() == [row[0] for row in sparse.to_dense()]


class TestRankModP:
    def test_zero_matrix(self):
        assert rank_mod_p(SparseIntMatrix(4, 6), 5) == 0

    def test_identity(self):
        ident = SparseIntMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        for p in (2, 3, 7):
            assert rank_mod_p(ident, p) == 3

    def test_full_tetrahedron_mod_2(self):
        assert rank_mod_p(boundary_matrix(Complex.full(4)), 2) == 3

    def test_against_oracle(self):
        rng = random.Random(3)
        for _ in range(60):
            m = random_sparse(rng, max_dim=7)
            for p in (2, 3, 5):
                assert rank_mod_p(m, p) == rank_mod_p_oracle(m.to_dense(), p)

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            rank_mod_p(SparseIntMatrix(2, 2), 6)

    @settings(max_examples=200, deadline=None)
    @given(dense=sparse_dense_matrices(), p=st.sampled_from([2, 3, 2**31 - 1]))
    def test_matches_oracle_on_sparse_matrices(self, dense, p):
        assert rank_mod_p(SparseIntMatrix.from_dense(dense), p) == rank_mod_p_oracle(
            dense, p
        )

    @settings(max_examples=200, deadline=None)
    @given(dense=sparse_dense_matrices(), p=st.sampled_from([2, 3, 2**31 - 1]))
    # a path's boundary: each pivot row is filled from the next pivot row
    @example(dense=[[1, 0, 0], [-1, 1, 0], [0, -1, 1], [0, 0, -1]], p=3)
    # unreduced sums of int64 products below p^2 would wrap here
    @example(
        dense=[
            [0, 2, -6, 4, 3],
            [2, 4, -2, BIG, -1],
            [-6, 1, 2, 1, 0],
            [BIG, 2, -6, BIG, 1],
            [2, 0, 0, -BIG, -2],
            [4, -6, 0, -2, 3],
        ],
        p=2**31 - 1,
    )
    def test_quotient_map(self, dense, p):
        m = SparseIntMatrix.from_dense(dense)
        rank = rank_mod_p_oracle(dense, p)
        Q = quotient_map_mod_p(m, p)
        assert Q.shape == (m.rows, m.rows - rank)
        assert ((0 <= Q) & (Q < p)).all()
        for k in range(Q.shape[1]):
            q = [int(x) for x in Q[:, k]]
            for j in range(m.cols):
                assert sum(q[r] * dense[r][j] for r in range(m.rows)) % p == 0
        pivot_rows = {r for r, _ in _eliminate_mod_p(m, p)}
        free = [r for r in range(m.rows) if r not in pivot_rows]
        assert Q[free].tolist() == np.eye(len(free), dtype=np.int64).tolist()

    def test_is_prime(self):
        primes = {2, 3, 5, 7, 11, 13, 97, 7919}
        for k in range(2, 100):
            assert is_prime(k) == (k in primes or all(k % q for q in range(2, k)))
        assert not is_prime(1)
        assert is_prime(2**31 - 1)


class TestEchelonBasis:
    def test_insert_into_empty(self):
        b = EchelonBasis(2, 4)
        v = np.array([1, 0, 1, 0])
        assert b.insert(v) and b.rank == 1

    def test_double_insert_dependent(self):
        b = EchelonBasis(5, 4)
        v = np.array([2, 0, 3, 1])
        assert b.insert(v)
        assert not b.insert(v)
        assert b.rank == 1

    def test_rank_matches_batch_elimination_any_order(self):
        Y = random_complex(7, 9, random.Random(13))
        m = boundary_matrix(Y)
        cols = boundary_columns_dense(Y.faces_sorted(), Y.n, 2)
        for p in (2, 3):
            expected = rank_mod_p(m, p)
            order = list(range(cols.shape[1]))
            rng = random.Random(0)
            for _ in range(5):
                rng.shuffle(order)
                b = EchelonBasis(p, cols.shape[0])
                for j in order:
                    b.insert(cols[:, j])
                assert b.rank == expected

    def test_colspan_trivial_cases(self):
        b = EchelonBasis(3, 5)
        b.insert(np.array([1, 2, 0, 0, 1]))
        assert b.contains(np.zeros(5, dtype=np.int64))
        assert b.contains(np.array([1, 2, 0, 0, 1]))
        assert not b.contains(np.array([0, 1, 0, 0, 0]))

    def test_colspan_boundary_sum_identity(self):
        # triangles 124,134,234 (1-based): their boundaries sum to d(123) mod 2
        n = 4
        faces = [(0, 1, 3), (0, 2, 3), (1, 2, 3)]
        b = EchelonBasis(2, math.comb(n, 2))
        total = np.zeros(math.comb(n, 2), dtype=np.int64)
        for f in faces:
            v = boundary_vector_dense(f, n)
            total += v
            b.insert(v)
        target = boundary_vector_dense((0, 1, 2), n)
        assert (total % 2 == target % 2).all()  # explicit vector addition
        assert b.contains(target)

    def test_contains_does_not_mutate(self):
        b = EchelonBasis(2, 3)
        b.insert(np.array([1, 1, 0]))
        before = {r: c.tolist() for r, c in b.pivots.items()}
        b.contains(np.array([0, 0, 1]))
        assert {r: c.tolist() for r, c in b.pivots.items()} == before

    def test_dimension_mismatch(self):
        b = EchelonBasis(2, 3)
        with pytest.raises(ValueError):
            b.insert(np.array([1, 0]))
        with pytest.raises(ValueError):
            b.reduce_columns(np.zeros((4, 2), dtype=np.int64))

    def test_batch_reduction_matches_single(self):
        rng = random.Random(21)
        b = EchelonBasis(5, 6)
        for _ in range(3):
            b.insert(np.array([rng.randint(0, 4) for _ in range(6)]))
        V = np.array([[rng.randint(0, 4) for _ in range(8)] for _ in range(6)])
        batch = b.reduce_columns(V)
        for j in range(8):
            assert batch[:, j].tolist() == b.reduce(V[:, j]).tolist()

    def test_largest_prime_is_exact(self):
        # K * (p-1)^2 overflows int64 from K = 3 on; the residuals must not wrap
        p = 2**31 - 1
        rng = random.Random(31)
        basis = [[rng.randrange(p) for _ in range(20)] for _ in range(10)]
        assert rank_mod_p_oracle(basis, p) == 10
        b = EchelonBasis(p, 20)
        for v in basis:
            assert b.insert(np.array(v, dtype=np.int64))
        combos = []
        for _ in range(50):
            coeffs = [rng.randrange(p) for _ in basis]
            combos.append(
                [sum(a * v[i] for a, v in zip(coeffs, basis)) % p for i in range(20)]
            )
        for w in combos:
            w = np.array(w, dtype=np.int64)
            assert b.contains(w)
            assert not b.reduce(w).any()
        assert not b.reduce_columns(np.array(combos, dtype=np.int64).T).any()
        outside = [rng.randrange(p) for _ in range(20)]
        assert rank_mod_p_oracle(basis + [outside], p) == 11
        assert not b.contains(np.array(outside, dtype=np.int64))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sparse_inserts_match_oracle(self, data):
        # a rank above twice the first capacity makes the buffer grow twice
        p = data.draw(st.sampled_from([2, 3, 5, 2**31 - 1]), label="p")
        nrows = data.draw(
            st.integers(4 * _INITIAL_CAPACITY, 5 * _INITIAL_CAPACITY), label="nrows"
        )
        count = data.draw(st.integers(nrows, nrows + 8), label="count")
        vectors = data.draw(sparse_vectors(nrows, p, count), label="vectors")
        rank = rank_mod_p_oracle(vectors, p)
        assume(rank > 2 * _INITIAL_CAPACITY)
        b = EchelonBasis(p, nrows)
        for v in vectors:
            b.insert(np.array(v, dtype=np.int64))
        assert b.rank == rank
        pivots = b.pivots
        for r, col in pivots.items():
            assert col[r] == 1
            assert not any(col[s] for s in pivots if s != r)
        probes = vectors + data.draw(sparse_vectors(nrows, p, 8), label="probes")
        batch = b.reduce_columns(np.array(probes, dtype=np.int64).T)
        for j, w in enumerate(probes):
            assert batch[:, j].tolist() == b.reduce(np.array(w)).tolist()
        assert not batch[:, : len(vectors)].any()


class TestSmithNormalForm:
    def test_identity(self):
        m = SparseIntMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert smith_normal_form(m).invariant_factors == (1, 1, 1)

    def test_two_by_two(self):
        m = SparseIntMatrix.from_dense([[2, 4], [6, 8]])
        res = smith_normal_form(m)
        assert res.invariant_factors == (2, 4)
        # first factor is the entry gcd, product of both is |det| = 8
        assert minor_gcd_oracle(m, 1) == 2
        assert minor_gcd_oracle(m, 2) == 8

    def test_zero_and_empty(self):
        assert smith_normal_form(SparseIntMatrix(3, 4)).invariant_factors == ()
        assert smith_normal_form(SparseIntMatrix(0, 0)).invariant_factors == ()

    def test_input_not_mutated(self):
        m = SparseIntMatrix.from_dense([[2, 4], [6, 8]])
        snapshot = dict(m.entries)
        smith_normal_form(m)
        assert m.entries == snapshot

    def test_rp2_boundary(self, rp2):
        res = smith_normal_form(boundary_matrix(rp2))
        assert res.invariant_factors == (1,) * 9 + (2,)

    def test_rp2_against_minor_gcd(self, rp2):
        m = boundary_matrix(rp2)  # 15 x 10
        res = smith_normal_form(m)
        prod = 1
        for k, d in enumerate(res.invariant_factors, start=1):
            prod *= d
            assert minor_gcd_oracle(m, k) == prod

    def test_matches_minor_gcd_on_random_matrices(self):
        rng = random.Random(11)
        for _ in range(120):
            m = random_sparse(rng, max_dim=6)
            res = smith_normal_form(m)
            for a, b in zip(res.invariant_factors, res.invariant_factors[1:]):
                assert b % a == 0
            prod = 1
            for k, d in enumerate(res.invariant_factors, start=1):
                prod *= d
                assert minor_gcd_oracle(m, k) == prod
            if res.rank < min(m.rows, m.cols):
                assert minor_gcd_oracle(m, res.rank + 1) == 0

    def test_rank_mod_p_vs_invariant_factors(self):
        rng = random.Random(17)
        for _ in range(60):
            m = random_sparse(rng, max_dim=6)
            res = smith_normal_form(m)
            rq = rank_over_Q(m.to_dense())
            assert res.rank == rq
            for p in (2, 3, 5, 7):
                rp = rank_mod_p(m, p)
                assert rp <= rq
                if all(d % p for d in res.invariant_factors):
                    assert rp == rq
                else:
                    assert rp == sum(1 for d in res.invariant_factors if d % p)

    @settings(max_examples=300, deadline=None)
    @given(dense=sparse_dense_matrices())
    # no +-1 entry at all, so the whole matrix is the residual core
    @example(dense=[[2, 4], [6, 8]])
    @example(dense=[[BIG, 0, 6], [2, -BIG, 0], [0, 3, 4]])
    # unit pivots first, then a core with torsion
    @example(dense=[[1, 1, 0], [1, 3, 2], [0, 2, 4]])
    # negative non-unit pivots, where the rounding of a quotient depends on sign
    @example(dense=[[-2, 3], [3, -2]])
    @example(dense=[[-4, 6, -10]])
    # the remainder -1 becomes the pivot and must clear the 2 below it
    @example(dense=[[3], [2]])
    def test_matches_sympy_on_sparse_matrices(self, dense):
        got = smith_normal_form(SparseIntMatrix.from_dense(dense))
        assert got.invariant_factors == sympy_invariant_factors(dense)

    @settings(max_examples=100, deadline=None)
    @given(dense=wide_unit_free_matrices())
    # a unimodular unit-free block beside 30 copies of one of its columns
    @example(dense=[[2, 3] + [2] * 30, [3, 5] + [3] * 30])
    def test_wide_cores_match_sympy(self, dense):
        got = smith_normal_form(SparseIntMatrix.from_dense(dense))
        assert got.invariant_factors == sympy_invariant_factors(dense)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_sympy_on_boundary_matrices(self, data):
        dim = data.draw(st.sampled_from([2, 3]), label="dim")
        n = data.draw(st.integers(dim + 1, 6), label="n")
        all_faces = list(combinations(range(n), dim + 1))
        faces = data.draw(
            st.lists(st.sampled_from(all_faces), unique=True), label="faces"
        )
        dense = boundary_matrix(Complex(n, dim, faces)).to_dense()
        got = smith_normal_form(SparseIntMatrix.from_dense(dense))
        assert got.invariant_factors == sympy_invariant_factors(dense)

    @pytest.mark.parametrize("prime", [2, 3, 2**31 - 1])
    @pytest.mark.parametrize("case", ["criterion7", "h_delta_prefix", "rp2", "torus"])
    def test_rank_mod_p_oracle_at_campaign_sizes(self, case, prime, request):
        # sympy is too slow here; rank over F_p counts the factors p misses
        if case == "criterion7":
            n = 30
            Y = sample_binomial(n, 2 * math.log(n) / n, 7000)
        elif case == "h_delta_prefix":
            Y = h_delta_prefix(25, 1025)
        else:
            Y = request.getfixturevalue(case)
        m = boundary_matrix(Y)
        factors = smith_normal_form(m).invariant_factors
        assert rank_mod_p(m, prime) == sum(1 for d in factors if d % prime)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("case", ["criterion7", "h_delta_prefix"])
    def test_scaled_boundary_factors(self, case, k):
        # k * B has no +-1 entry, so all of it is the residual core
        if case == "criterion7":
            n = 30
            Y = sample_binomial(n, 2 * math.log(n) / n, 7000)
        else:
            Y = h_delta_prefix(25, 1025)
        m = boundary_matrix(Y)
        scaled = SparseIntMatrix(
            m.rows, m.cols, {e: k * v for e, v in m.entries.items()}
        )
        expected = tuple(k * d for d in smith_normal_form(m).invariant_factors)
        assert smith_normal_form(scaled).invariant_factors == expected

    def test_huge_entries_use_exact_arithmetic(self):
        big = 10**40
        m = SparseIntMatrix.from_dense([[big, 2 * big], [3 * big, 4 * big]])
        res = smith_normal_form(m)
        assert res.invariant_factors == (big, 2 * big)

    def test_column_order_irrelevant(self):
        dense = [[3, 0, -2], [1, 4, 1], [0, 6, 2]]
        base = smith_normal_form(SparseIntMatrix.from_dense(dense)).invariant_factors
        for perm in permutations(range(3)):
            shuffled = [[row[j] for j in perm] for row in dense]
            res = smith_normal_form(SparseIntMatrix.from_dense(shuffled))
            assert res.invariant_factors == base


class TestEliminateUnitPivots:
    @settings(max_examples=300, deadline=None)
    @given(dense=unit_pivot_matrices())
    # the first pivot (column 1) leaves the only unit in the swept column 0
    @example(dense=[[2, 1], [3, 1]])
    def test_no_unit_left_and_index_consistent(self, dense):
        cols, rows = {}, {}
        for c in range(len(dense[0])):
            for r, row in enumerate(dense):
                if row[c]:
                    cols.setdefault(c, {})[r] = row[c]
                    rows.setdefault(r, set()).add(c)
        taken = _eliminate_unit_pivots(cols, rows)
        assert all(v not in (1, -1) for col in cols.values() for v in col.values())
        assert all(cols.values())
        indexed = {}
        for c, col in cols.items():
            for r in col:
                indexed.setdefault(r, set()).add(c)
        assert rows == indexed
        core = [[col.get(r, 0) for col in cols.values()] for r in rows]
        assert taken + rank_over_Q(core) == rank_over_Q(dense)


class TestMinorGcdOracle:
    def test_identity(self):
        ident = SparseIntMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert minor_gcd_oracle(ident, 2) == 1

    def test_all_minors_vanish(self):
        m = SparseIntMatrix.from_dense([[1, 2], [2, 4]])
        assert minor_gcd_oracle(m, 2) == 0

    def test_k_validated(self):
        m = SparseIntMatrix.from_dense([[1, 2], [2, 4]])
        with pytest.raises(ValueError):
            minor_gcd_oracle(m, 0)
        with pytest.raises(ValueError):
            minor_gcd_oracle(m, 3)

    def test_size_budget_enforced(self):
        with pytest.raises(ValueError):
            minor_gcd_oracle(SparseIntMatrix(17, 4), 2)
