"""Exact linear algebra for boundary operators.

A sparse matrix is stored by columns, each a {row: nonzero value} dict.
boundary_matrix and the dense builders take every face's rows from one
complexes.facet_ranks call over the face array; no campaign builds a
whole boundary, so boundary_matrix and rank_mod_p serve betti1_mod_p,
the reference for shadows. Both algebras run one sparse pivot loop,
_pivots, on a column store with a row index: over Z a unit is +-1, over
F_p any nonzero entry. It has two pivot choices and one pivot step: the
units of one sweep that takes the shortest columns first, so a lone unit
pivots before any fill-in, then over Z the least entries of what is left.
homology's _cycle_residual peels the lone units of a face array in rounds
before any store is built, in cycle coordinates cut at the vertex in the
most faces: each face through it is a lone unit there, and as the cones
over any vertex are a Z-basis of the cycles, the choice of vertex changes
no answer. The step reduces by division with remainder on Python
integers. Over Z the pivots give the Smith normal form, over F_p the rank
and a quotient map whose kernel is the column space. Dense products mod p
are kept below 2^63.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .complexes import Complex, facet_ranks


class MatrixFormatError(ValueError):
    """Malformed matrix file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# sparse exact matrices


class SparseIntMatrix:
    """Sparse integer matrix with arbitrary-precision entries.

    columns maps a column to {row: value} of its nonzero entries; a
    column without any has no key.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        self.columns: dict[int, dict[int, int]] = {}

    def set(self, r: int, c: int, v: int) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        try:
            v = operator.index(v)
        except TypeError:
            raise ValueError(f"entry ({r},{c}) = {v!r} is not an integer") from None
        if v:
            self.columns.setdefault(c, {})[r] = v
        elif c in self.columns:
            col = self.columns[c]
            col.pop(r, None)
            if not col:
                del self.columns[c]

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns.values()))

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for c, col in self.columns.items():
            for r, v in col.items():
                dense[r][c] = v
        return dense

    @classmethod
    def from_dense(cls, rows2d: Sequence[Sequence[int]]) -> "SparseIntMatrix":
        nrows = len(rows2d)
        ncols = len(rows2d[0]) if nrows else 0
        m = cls(nrows, ncols)
        for r, row in enumerate(rows2d):
            if len(row) != ncols:
                raise ValueError("ragged rows in dense input")
            for c, v in enumerate(row):
                m.set(r, c, v)
        return m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.columns) == (
            other.rows,
            other.cols,
            other.columns,
        )

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def read_matrix_file(path: str) -> SparseIntMatrix:
    """Parse the 'rows cols' + 'row col value' triple format (0-based indices)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header_seen = False
    m: SparseIntMatrix | None = None
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not header_seen:
            if len(parts) != 2:
                raise MatrixFormatError(lineno, "expected header 'rows cols'")
            try:
                rows, cols = int(parts[0]), int(parts[1])
            except ValueError:
                raise MatrixFormatError(lineno, "non-integer header") from None
            if rows < 0 or cols < 0:
                raise MatrixFormatError(lineno, "negative dimension")
            m = SparseIntMatrix(rows, cols)
            header_seen = True
            continue
        if len(parts) != 3:
            raise MatrixFormatError(lineno, "expected 'row col value'")
        try:
            r, c, v = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise MatrixFormatError(lineno, "non-integer entry") from None
        assert m is not None
        if not (0 <= r < m.rows and 0 <= c < m.cols):
            raise MatrixFormatError(lineno, f"index ({r},{c}) outside {m.rows}x{m.cols}")
        if (r, c) in seen:
            raise MatrixFormatError(lineno, f"duplicate entry ({r},{c})")
        seen.add((r, c))
        m.set(r, c, v)
    if m is None:
        raise MatrixFormatError(1, "missing header 'rows cols'")
    return m


def write_matrix_file(m: SparseIntMatrix, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{m.rows} {m.cols}\n")
        entries = sorted(
            (r, c, v) for c, col in m.columns.items() for r, v in col.items()
        )
        for r, c, v in entries:
            fh.write(f"{r} {c} {v}\n")


# ---------------------------------------------------------------------------
# boundary operators


def boundary_matrix(Y: Complex) -> SparseIntMatrix:
    """Boundary operator from d-faces of Y to the full set of (d-1)-faces.

    Rows: all C(n, d) faces of dimension d-1 in colex order. Columns: the
    faces of Y in their colex order, as Y.faces holds them, from one
    facet_ranks call: a column maps the rank of its face less vertex i to
    (-1)^i, as Python ints.
    """
    ranks = facet_ranks(Y.n, Y.faces).tolist()
    signs = [(-1) ** i for i in range(Y.dim + 1)]
    m = SparseIntMatrix(math.comb(Y.n, Y.dim), len(ranks))
    m.columns = {col: dict(zip(row, signs)) for col, row in enumerate(ranks)}
    return m


def boundary_columns_dense(
    faces: Iterable[Sequence[int]], n: int, d: int
) -> np.ndarray:
    """Dense int64 matrix whose columns are the boundaries of the given d-faces."""
    ranks = facet_ranks(n, np.array(list(faces), dtype=np.int64).reshape(-1, d + 1))
    out = np.zeros((math.comb(n, d), len(ranks)), dtype=np.int64)
    out[ranks, np.arange(len(ranks))[:, None]] = [(-1) ** i for i in range(d + 1)]
    return out


def boundary_vector_dense(face: Sequence[int], n: int) -> np.ndarray:
    """Boundary of a single face as a dense int64 column."""
    return boundary_columns_dense([face], n, len(face) - 1)[:, 0]


# ---------------------------------------------------------------------------
# primality (word-sized p)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond word size."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """p as an int, if it is a prime below 2^31; else ValueError."""
    try:
        p = operator.index(p)
    except TypeError:
        raise ValueError(f"modulus {p} is not an integer") from None
    if p >= 2**31:
        raise ValueError(f"modulus {p} exceeds the supported word-sized range")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


# ---------------------------------------------------------------------------
# one sparse pivot elimination over Z and F_p


def _add_column(
    cols: dict[int, dict[int, int]],
    rows: dict[int, set[int]],
    c2: int,
    col: dict[int, int],
    f: int,
    p: int,
) -> None:
    """Column c2 += f * col in place, mod p when p is given; keeps rows in step.

    Column c2 is dropped if it empties.
    """
    col2 = cols[c2]
    for r2, v in col.items():
        w = col2.get(r2, 0) + f * v
        if p:
            w %= p
        if w:
            if r2 not in col2:
                rows[r2].add(c2)
            col2[r2] = w
        elif r2 in col2:
            del col2[r2]
            rows[r2].discard(c2)
    if not col2:
        del cols[c2]


def _pivots(M: SparseIntMatrix, p: int = 0) -> Iterator[tuple[int, dict[int, int], int]]:
    """Eliminate a copy of M over Z/p (Z for p = 0); yields (row, column, u) per pivot.

    The copy is a column store: cols maps column -> {row: nonzero value},
    reduced mod p when p is given, and rows maps row -> its columns. A unit
    is +-1 over Z, its own inverse, and any nonzero entry over F_p.

    One pivot step serves every pivot u at (r, c). Column operations reduce
    row r of every other column by the nearest quotient, exact for a unit
    and (2v + u) // 2u for a non-unit over Z, whose least remainder, if any
    is left, becomes the pivot as the step repeats. Row r is then zero
    outside column c, so row operations would clear the column touching no
    other: a unit's column is dropped as it stands, and a non-unit's is
    reduced by the nearest quotient too, a remainder again becoming the
    pivot. Each remainder is at most |u| / 2, so every step ends.

    The step's pivot is chosen in one loop, in this order:
    1. the next column of one sweep that has a unit, pivoted on the unit
       whose row has the fewest columns. The sweep takes the columns in
       order of their starting length, in insertion order among equals, so
       the lone units pivot first: their steps only delete entries, and no
       longer column has filled the other columns yet;
    2. once the sweep is done, the first remaining column, pivoted on its
       entry of least |u|. Over F_p the sweep leaves no column.

    Each pivot column is yielded as it stood when its row was cleared, so it
    has no entry in an earlier pivot row. The invariant factors are unique,
    so the order changes only the cost. homology peels the lone units of its
    cycle coordinates itself (homology._cycle_residual) before any store is
    built.
    """
    cols = {}
    for c, col in M.columns.items():
        col = {r: w for r, v in col.items() if (w := v % p)} if p else dict(col)
        if col:
            cols[c] = col
    rows: dict[int, set[int]] = {}
    for c, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(c)
    sweep = iter(sorted(cols, key=lambda c: len(cols[c])))
    while cols:
        c = next(sweep, None)
        if c is None:
            c, col = next(iter(cols.items()))
            r = min(col, key=lambda r: abs(col[r]))
        else:
            col = cols.get(c)
            if col is None:
                continue
            units = col if p else [r for r, v in col.items() if v == 1 or v == -1]
            r = min(units, key=lambda r: len(rows[r]), default=None)
            if r is None:
                continue
        while True:
            col = cols[c]
            u = col[r]
            unit = p or u == 1 or u == -1
            inv = pow(u, -1, p) if p else u
            for c2 in list(rows[r]):
                if c2 != c:
                    v = cols[c2][r]
                    # (2v + u) // 2u rounds v / u to the nearest integer for either sign of u
                    q = v * inv if unit else (2 * v + u) // (2 * u)
                    if q:
                        _add_column(cols, rows, c2, col, -q, p)
            if len(rows[r]) > 1:
                # every remainder is below |u|, so the least entry is one of them
                c = min(rows[r], key=lambda c2: abs(cols[c2][r]))
                continue
            if not unit:
                for r2 in list(col):
                    if r2 != r:
                        w = col[r2] - (2 * col[r2] + u) // (2 * u) * u
                        if w:
                            col[r2] = w
                        else:
                            del col[r2]
                            rows[r2].discard(c)
                if len(col) > 1:
                    r = min(col, key=lambda r2: abs(col[r2]))
                    continue
            del cols[c]
            for r2 in col:
                cs = rows[r2]
                cs.discard(c)
                if not cs:
                    del rows[r2]
            yield r, col, u
            break


def rank_mod_p(M: SparseIntMatrix, p: int) -> int:
    """Rank of M over F_p: the pivot count of its sparse elimination."""
    p = check_prime(p)
    return sum(1 for _ in _pivots(M, p))


def quotient_map_mod_p(M: SparseIntMatrix, p: int) -> np.ndarray:
    """Q (rows x (rows - rank), entries in [0, p)) with ker Q^T = col span of M.

    Q is the identity on the free rows, those that are no pivot row. A pivot
    u at row r of column col sets Q[r] = -u^-1 * sum col[r2] * Q[r2] over
    the other rows r2 of col, which are free or later pivot rows, so
    Q^T col = 0 for every pivot column. These span the column space, whose
    dimension rank is that of ker Q^T.

    The pivot rows are filled one level at a time: a pivot's level is one
    more than the deepest later pivot row in its column (0 if none), so a
    level reads only free rows and lower levels. A level takes one gather
    of the rows it reads; each product coeff * Q[r2] is below p^2 < 2^62
    and is reduced mod p before the per-pivot sums. A pivot column with no
    entry besides its pivot leaves its row zero.
    """
    p = check_prime(p)
    pivots = [(r, col) for r, col, _ in _pivots(M, p)]
    pivot_rows = {r for r, _ in pivots}
    free = [r for r in range(M.rows) if r not in pivot_rows]
    Q = np.zeros((M.rows, len(free)), dtype=np.int64)
    Q[free, range(len(free))] = 1
    # a pivot column has no entry in an earlier pivot row, so in reverse
    # pivot order every pivot row it reads already has its level
    level: dict[int, int] = {}
    levels: list[list[tuple[int, dict[int, int]]]] = []
    for r, col in reversed(pivots):
        k = 1 + max((level[r2] for r2 in col if r2 in level), default=-1)
        level[r] = k
        if k == len(levels):
            levels.append([])
        levels[k].append((r, col))
    for group in levels:
        targets, starts, sources, coeffs = [], [], [], []
        for r, col in group:
            neg_inv = p - pow(col.pop(r), -1, p)
            if col:
                targets.append(r)
                starts.append(len(sources))
                sources.extend(col)
                coeffs.extend(v * neg_inv % p for v in col.values())
        if targets:
            terms = Q.take(sources, 0) * np.array(coeffs, dtype=np.int64)[:, None]
            terms %= p
            Q[targets] = np.add.reduceat(terms, starts, axis=0) % p
    return Q


# ---------------------------------------------------------------------------
# incremental echelon basis over F_p


_INITIAL_CAPACITY = 8


class EchelonBasis:
    """Fully reduced basis of a subspace of F_p^nrows, grown one vector at a time.

    Basis vector i is row i of an int64 buffer that doubles when full, so
    no insert copies the whole basis; _pivot_rows[i] is its pivot row.
    Each stored vector has a 1 in its own pivot row and 0 in every other
    pivot row. Reducing v therefore subtracts, for each pivot row r with
    v[r] != 0, v[r] times the vector of r; a boundary vector has at most
    three such coefficients.
    """

    __slots__ = ("p", "nrows", "_buf", "_pivot_rows", "_rank")

    def __init__(self, p: int, nrows: int):
        self.p = check_prime(p)
        if nrows < 0:
            raise ValueError("row dimension must be nonnegative")
        self.nrows = nrows
        self._buf = np.zeros((min(_INITIAL_CAPACITY, nrows), nrows), dtype=np.int64)
        self._pivot_rows = np.zeros(nrows, dtype=np.intp)
        self._rank = 0

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def pivots(self) -> dict[int, np.ndarray]:
        """Pivot row -> reduced basis vector (copies)."""
        k = self._rank
        return {
            int(r): self._buf[i].copy() for i, r in enumerate(self._pivot_rows[:k])
        }

    def _check_vector(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.int64)
        if v.shape != (self.nrows,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.nrows},)")
        return v % self.p

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Residual of v against the basis; the basis is unchanged."""
        v = self._check_vector(v)
        coeff = v[self._pivot_rows[: self._rank]]
        used = np.flatnonzero(coeff)
        if used.size:
            # v is a fresh array here, so it is updated in place
            v -= _matmul_mod(self._buf[used].T, coeff[used], self.p)
            v %= self.p
        return v

    def reduce_columns(self, V: np.ndarray) -> np.ndarray:
        """Residuals of many columns at once (shape nrows x k)."""
        V = np.asarray(V, dtype=np.int64) % self.p
        if V.shape[0] != self.nrows:
            raise ValueError(f"columns have {V.shape[0]} rows, expected {self.nrows}")
        k = self._rank
        if not k:
            return V
        coeff = V[self._pivot_rows[:k], :]
        # V is a fresh array here, so it is updated in place to save a copy
        V -= _matmul_mod(self._buf[:k].T, coeff, self.p)
        V %= self.p
        return V

    def contains(self, v: np.ndarray) -> bool:
        return not self.reduce(v).any()

    def insert(self, v: np.ndarray) -> bool:
        """Reduce v and adjoin the residual if nonzero; True iff independent."""
        res = self.reduce(v)
        nz = np.flatnonzero(res)
        if nz.size == 0:
            return False
        pivot_row = int(nz[0])
        res *= pow(int(res[pivot_row]), -1, self.p)
        res %= self.p
        k = self._rank
        # clear the new pivot row from the stored vectors that have it; each
        # entry takes one product below p^2 < 2^62
        factors = self._buf[:k, pivot_row]
        hit = np.flatnonzero(factors)
        if hit.size:
            self._buf[hit] = (self._buf[hit] - np.outer(factors[hit], res)) % self.p
        if k == len(self._buf):
            # the rank never exceeds nrows, so neither does the capacity
            capacity = min(2 * k, self.nrows)
            buf = np.zeros((capacity, self.nrows), dtype=np.int64)
            buf[:k] = self._buf
            self._buf = buf
        self._buf[k] = res
        self._pivot_rows[k] = pivot_row
        self._rank = k + 1
        return True


def _matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p for entries in [0, p), exact in int64 for every p < 2^31.

    One int64 product is exact while its inner dimension K satisfies
    K * (p-1)^2 < 2^63; longer products are summed in chunks that do, with
    a reduction mod p after each.
    """
    step = (2**63 - 1) // (p - 1) ** 2
    out = (A[:, :step] @ B[:step]) % p
    for k in range(step, A.shape[1], step):
        out += (A[:, k : k + step] @ B[k : k + step]) % p
        out %= p
    return out


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix."""

    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def torsion_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariant_factors if d > 1)


def smith_normal_form(M: SparseIntMatrix) -> SnfResult:
    """Invariant factors of M over the integers; the input is not mutated.

    Two steps, exact over Python integers:

    1. _pivots eliminates a copy of M by unimodular steps, which keep the
       cokernel and hence the torsion, and leaves it diagonal: each pivot
       u drops its row and column and leaves |u|. Boundary matrices have
       +-1 entries, so most pivots are units and count an invariant factor
       1; homology_Z peels the lone units of its cycle coordinates before
       this step.
    2. A gcd/lcm exchange puts the other entries in divisibility order. It
       covers those only: the counted 1s divide every factor already, and
       a pairwise pass over them would be quadratic in the rank, which is
       in the hundreds for a boundary matrix.
    """
    diagonal = [abs(u) for _, _, u in _pivots(M)]
    core = [d for d in diagonal if d != 1]
    ones = len(diagonal) - len(core)
    for i in range(len(core)):
        for j in range(i + 1, len(core)):
            g = math.gcd(core[i], core[j])
            core[i], core[j] = g, core[i] // g * core[j]
    factors = [1] * ones + core
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0, f"invariant factor chain broken: {a} does not divide {b}"
    return SnfResult(tuple(factors))


# ---------------------------------------------------------------------------
# brute-force minor oracle

_MINOR_BUDGET = 5_000_000


def minor_gcd_oracle(M: SparseIntMatrix, k: int) -> int:
    """gcd of all k x k minors, by enumeration (0 if all vanish).

    Intended as an independent check of the invariant-factor products:
    prod_{i<=k} d_i equals this gcd. Enumeration stops early once the
    running gcd reaches 1. Refuses matrices beyond a small work budget
    (roughly 12x12).
    """
    if k < 1 or k > min(M.rows, M.cols):
        raise ValueError(f"k={k} outside [1, min(rows, cols)]")
    if M.rows > 16 or M.cols > 16:
        raise ValueError("matrix too large for minor enumeration")
    count = math.comb(M.rows, k) * math.comb(M.cols, k)
    if count > _MINOR_BUDGET:
        raise ValueError(f"{count} minors exceed the enumeration budget")
    from itertools import combinations

    dense = M.to_dense()
    g = 0
    for rows in combinations(range(M.rows), k):
        picked = [dense[r] for r in rows]
        for cols in combinations(range(M.cols), k):
            sub = [[row[c] for c in cols] for row in picked]
            g = math.gcd(g, _det_bareiss(sub))
            if g == 1:
                return 1
    return g


def _det_bareiss(m: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination (mutates m)."""
    n = len(m)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i]:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[-1][-1]
