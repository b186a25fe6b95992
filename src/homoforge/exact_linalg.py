"""Exact linear algebra for boundary operators.

Integer matrices are kept exact throughout: Smith normal form runs on
Python integers in a sparse column store, first eliminating +-1 pivots
and then the residual core by division with remainder. Over F_p one
sparse column elimination on the same column store gives the rank and a
quotient map whose kernel is the column space; dense products mod p are
kept below 2^63.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .complexes import Complex, colex_table, triangle_edge_ranks


class MatrixFormatError(ValueError):
    """Malformed matrix file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# sparse exact matrices


class SparseIntMatrix:
    """Sparse integer matrix with arbitrary-precision entries.

    Only nonzero entries are stored, keyed by (row, col).
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], int] = {}
        if entries:
            for (r, c), v in entries.items():
                self.set(r, c, v)

    def set(self, r: int, c: int, v: int) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        if v == 0:
            self.entries.pop((r, c), None)
        else:
            self.entries[(r, c)] = int(v)

    def get(self, r: int, c: int) -> int:
        return self.entries.get((r, c), 0)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def copy(self) -> "SparseIntMatrix":
        m = SparseIntMatrix(self.rows, self.cols)
        m.entries = dict(self.entries)
        return m

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
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
                if v:
                    m.entries[(r, c)] = int(v)
        return m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (
            other.rows,
            other.cols,
            other.entries,
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
        if v:
            m.entries[(r, c)] = v
    if m is None:
        raise MatrixFormatError(1, "missing header 'rows cols'")
    return m


def write_matrix_file(m: SparseIntMatrix, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{m.rows} {m.cols}\n")
        for (r, c) in sorted(m.entries):
            fh.write(f"{r} {c} {m.entries[(r, c)]}\n")


# ---------------------------------------------------------------------------
# boundary operators


def boundary_entries(face: Sequence[int], n: int) -> list[tuple[int, int]]:
    """(row_rank, sign) pairs of the boundary of one face on n vertices.

    Dropping vertex i of [v0 < ... < vd] contributes sign (-1)^i at the
    colex rank of the remaining face: the vertices before v_i keep their
    places (C(v_j, j+1), read from colex_table) and those after it move
    down one (C(v_j, j)).
    """
    table = colex_table(n, len(face))
    kept = [table[j + 1][v] for j, v in enumerate(face)]
    moved = [table[j][v] for j, v in enumerate(face)]
    return [
        (sum(kept[:i]) + sum(moved[i + 1 :]), -1 if i % 2 else 1)
        for i in range(len(face))
    ]


def boundary_matrix(Y: Complex) -> SparseIntMatrix:
    """Boundary operator from d-faces of Y to the full set of (d-1)-faces.

    Rows: all C(n, d) faces of dimension d-1 in colex order. Columns: the
    faces of Y in colex order. Entries are +-1; a triangle's three come in
    closed form from triangle_edge_ranks.
    """
    if Y.dim < 1:
        raise ValueError("boundary requires dim >= 1")
    nrows = math.comb(Y.n, Y.dim)
    faces = Y.faces_sorted()
    m = SparseIntMatrix(nrows, len(faces))
    entries = m.entries
    if Y.dim == 2:
        for col, f in enumerate(faces):
            bc, ac, ab = triangle_edge_ranks(f)
            entries[(bc, col)] = 1
            entries[(ac, col)] = -1
            entries[(ab, col)] = 1
    else:
        for col, f in enumerate(faces):
            for row, sign in boundary_entries(f, Y.n):
                entries[(row, col)] = sign
    return m


def boundary_columns_dense(
    faces: Iterable[Sequence[int]], n: int, d: int
) -> np.ndarray:
    """Dense int64 matrix whose columns are the boundaries of the given d-faces."""
    face_list = list(faces)
    out = np.zeros((math.comb(n, d), len(face_list)), dtype=np.int64)
    for col, f in enumerate(face_list):
        for row, sign in boundary_entries(f, n):
            out[row, col] = sign
    return out


def boundary_vector_dense(face: Sequence[int], n: int) -> np.ndarray:
    """Boundary of a single face as a dense int64 column."""
    v = np.zeros(math.comb(n, len(face) - 1), dtype=np.int64)
    for row, sign in boundary_entries(face, n):
        v[row] = sign
    return v


# ---------------------------------------------------------------------------
# primality (word-sized p)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond word size."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def check_prime(p: int) -> None:
    if p >= 2**31:
        raise ValueError(f"modulus {p} exceeds the supported word-sized range")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


# ---------------------------------------------------------------------------
# sparse column store and elimination over F_p


def _column_store(
    M: SparseIntMatrix, p: int = 0
) -> tuple[dict[int, dict[int, int]], dict[int, set[int]]]:
    """(cols, rows) of M, its entries reduced mod p when p is given.

    cols maps column -> {row: nonzero value} and rows maps row -> the set
    of columns with a nonzero entry there; both eliminations work on them.
    """
    cols: dict[int, dict[int, int]] = {}
    rows: dict[int, set[int]] = {}
    for (r, c), v in M.entries.items():
        if p:
            v %= p
        if v:
            cols.setdefault(c, {})[r] = v
            rows.setdefault(r, set()).add(c)
    return cols, rows


def _eliminate_mod_p(M: SparseIntMatrix, p: int) -> list[tuple[int, dict]]:
    """(pivot row, pivot column) pairs of a sparse elimination of M over F_p.

    Each column in turn, if still nonzero, pivots on its entry whose row
    has the fewest columns, and column operations clear that row from
    every other column. A pivot column is returned as it stood when it
    pivoted, so it has no entry in an earlier pivot row.
    """
    check_prime(p)
    cols, rows = _column_store(M, p)
    pivots = []
    for c in list(cols):
        col = cols.pop(c, None)
        if col is None:
            continue
        r = min(col, key=lambda r: len(rows[r]))
        neg_inv = p - pow(col[r], -1, p)
        for c2 in list(rows[r]):
            if c2 == c:
                continue
            col2 = cols[c2]
            f = col2[r] * neg_inv % p
            for r2, v in col.items():
                w = (col2.get(r2, 0) + f * v) % p
                if w:
                    if r2 not in col2:
                        rows[r2].add(c2)
                    col2[r2] = w
                elif r2 in col2:
                    del col2[r2]
                    rows[r2].discard(c2)
            if not col2:
                del cols[c2]
        for r2 in col:
            rows[r2].discard(c)
        pivots.append((r, col))
    return pivots


def rank_mod_p(M: SparseIntMatrix, p: int) -> int:
    """Rank of M over F_p: the pivot count of its sparse elimination."""
    return len(_eliminate_mod_p(M, p))


def quotient_map_mod_p(M: SparseIntMatrix, p: int) -> np.ndarray:
    """Q (rows x (rows - rank), entries in [0, p)) with ker Q^T = col span of M.

    Q is the identity on the free rows, those that are no pivot row. In
    reverse pivot order, a pivot u at row r of column col sets
    Q[r] = -u^-1 * sum col[r2] * Q[r2] over the other rows r2 of col, which
    are free or later pivot rows, so Q^T col = 0 for every pivot column.
    These span the column space, whose dimension rank is that of ker Q^T.
    """
    pivots = _eliminate_mod_p(M, p)
    pivot_rows = {r for r, _ in pivots}
    free = [r for r in range(M.rows) if r not in pivot_rows]
    Q = np.zeros((M.rows, len(free)), dtype=np.int64)
    Q[free, range(len(free))] = 1
    for r, col in reversed(pivots):
        neg_inv = p - pow(col.pop(r), -1, p)
        coeff = np.array([[v * neg_inv % p for v in col.values()]], dtype=np.int64)
        Q[r] = _matmul_mod(coeff, Q[list(col)], p)[0]
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
        check_prime(p)
        if nrows < 0:
            raise ValueError("row dimension must be nonnegative")
        self.p = p
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
        basis = self._buf[:k].T
        if self.p * self.p * k < 2**53:
            # BLAS float64 product is exact while every dot product stays below 2^53
            prod = basis.astype(np.float64) @ coeff.astype(np.float64)
            prod = prod.astype(np.int64)
        else:
            prod = _matmul_mod(basis, coeff, self.p)
        # V is a fresh array here, so it is updated in place to save a copy
        V -= prod
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

    Three steps on one sparse column store, exact over Python integers;
    the eliminations are unimodular, so the cokernel and hence the
    torsion are kept:

    1. Unit-pivot elimination in sweeps over the columns. A column that
       still has a +-1 entry pivots on the one whose row has the fewest
       columns: its row is cleared with column operations, its row and
       column are dropped and one invariant factor 1 is counted. Fill-in
       can create a unit in a column already passed, so sweeps repeat
       until one takes no pivot. The invariant factors of a matrix are
       unique, so the pivot order changes only the cost, never the
       factors. Boundary matrices have +-1 entries, so this usually
       eliminates all of them.
    2. Elimination of the residual core (the rows and columns still
       nonzero) by division with remainder, which leaves it diagonal.
    3. A gcd/lcm exchange puts that diagonal in divisibility order. It
       covers the core only: the counted 1s divide every factor already,
       and a pairwise pass over them would be quadratic in the rank,
       which is in the hundreds for a boundary matrix.
    """
    cols, rows = _column_store(M)
    ones = _eliminate_unit_pivots(cols, rows)
    core = _eliminate_core(cols, rows)
    for i in range(len(core)):
        for j in range(i + 1, len(core)):
            g = math.gcd(core[i], core[j])
            core[i], core[j] = g, core[i] // g * core[j]
    factors = [1] * ones + core
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0, f"invariant factor chain broken: {a} does not divide {b}"
    return SnfResult(tuple(factors))


def _add_column(
    cols: dict[int, dict[int, int]],
    rows: dict[int, set[int]],
    c2: int,
    col: dict[int, int],
    f: int,
) -> None:
    """Column c2 += f * col in place, keeping rows in step; drops c2 if it empties."""
    col2 = cols[c2]
    for r2, v in col.items():
        w = col2.get(r2, 0) + f * v
        if w:
            if r2 not in col2:
                rows[r2].add(c2)
            col2[r2] = w
        elif r2 in col2:
            del col2[r2]
            rows[r2].discard(c2)
    if not col2:
        del cols[c2]


def _eliminate_unit_pivots(
    cols: dict[int, dict[int, int]], rows: dict[int, set[int]]
) -> int:
    """Eliminate +-1 pivots in place; returns how many were taken.

    cols and rows are a column store as _column_store builds it. Emptied
    rows and columns are removed from both.
    """
    taken = 0
    swept = True
    while swept:
        swept = False
        for c in list(cols):
            col = cols.get(c)
            if col is None:
                continue
            r = min(
                (r for r, v in col.items() if v == 1 or v == -1),
                key=lambda r: len(rows[r]),
                default=None,
            )
            if r is None:
                continue
            pivot_col = cols.pop(c)
            u = pivot_col[r]
            # column operations clear row r outside the pivot column
            for c2 in list(rows[r]):
                if c2 != c:
                    _add_column(cols, rows, c2, pivot_col, -cols[c2][r] * u)
            # row r is now zero outside column c, so row operations clear the
            # rest of column c without touching any other column
            for r2 in pivot_col:
                cs = rows[r2]
                cs.discard(c)
                if not cs:
                    del rows[r2]
            taken += 1
            swept = True
    return taken


def _eliminate_core(
    cols: dict[int, dict[int, int]], rows: dict[int, set[int]]
) -> list[int]:
    """Diagonalise what is left, emptying cols and rows; returns the |pivots|.

    The first remaining column pivots on its entry u of least |u|. Column
    operations reduce u's row by the nearest quotient; a nonzero remainder
    becomes the pivot and the step repeats. Once the row is zero elsewhere,
    row operations reduce u's column, touching no other column; again a
    remainder becomes the pivot. Otherwise |u| is a diagonal entry and its
    row and column are dropped. Each remainder is at most |u| / 2, so |u|
    strictly falls and every pivot ends.
    """
    diagonal = []
    while cols:
        c, col = next(iter(cols.items()))
        r = min(col, key=lambda r: abs(col[r]))
        while True:
            col = cols[c]
            u = col[r]
            # (2a + u) // 2u rounds a / u to the nearest integer for either sign of u
            for c2 in list(rows[r]):
                if c2 != c:
                    q = (2 * cols[c2][r] + u) // (2 * u)
                    if q:
                        _add_column(cols, rows, c2, col, -q)
            if len(rows[r]) > 1:
                # every remainder is below |u|, so the least entry is one of them
                c = min(rows[r], key=lambda c2: abs(cols[c2][r]))
                continue
            for r2 in list(col):
                if r2 != r:
                    w = col[r2] - (2 * col[r2] + u) // (2 * u) * u
                    if w:
                        col[r2] = w
                    else:
                        del col[r2]
                        rows[r2].discard(c)
                        if not rows[r2]:
                            del rows[r2]
            if len(col) > 1:
                r = min(col, key=lambda r2: abs(col[r2]))
                continue
            diagonal.append(abs(u))
            del cols[c], rows[r]
            break
    return diagonal


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
