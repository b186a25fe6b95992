"""Simplicial complexes with a full codimension-1 skeleton.

Vertices are 0-based internally; all file formats and CLI output use
1-based labels. Faces of dimension d are sorted (d+1)-tuples of vertex
ids, indexed by their colexicographic rank.
"""

from __future__ import annotations

import functools
import json
import math
import random
from bisect import bisect_right
from typing import Iterable, Iterator, Sequence


# ---------------------------------------------------------------------------
# colexicographic face indexing


def rank_face(face: Sequence[int]) -> int:
    """Colex rank of a strictly increasing vertex tuple.

    rank((v0,..,vk)) = sum_i C(v_i, i+1); a bijection from k-subsets of
    [0, n) onto [0, C(n, k+1)) for every n > max(face).
    """
    return sum(math.comb(v, i + 1) for i, v in enumerate(face))


@functools.lru_cache(maxsize=32)
def colex_table(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Binomial table with table[i][v] = C(v, i) for 0 <= i <= k, 0 <= v <= n.

    Row i is nondecreasing in v, so the largest v with C(v, i) <= r is found
    by bisection. Built on first use for each (n, k) and cached; tuples,
    because every caller shares the cached table.
    """
    return tuple(tuple(math.comb(v, i) for v in range(n + 1)) for i in range(k + 1))


def _unrank(r: int, table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The k-face of colex rank r, for table = colex_table(n, k) and r < C(n, k).

    Greedy from the top: vertex i-1 is the largest v with C(v, i) <= r, and
    the remainder r - C(v, i) < C(v, i-1) puts the next vertex below v.
    """
    k = len(table) - 1
    face = [0] * k
    hi = len(table[0])
    for i in range(k, 0, -1):
        hi = bisect_right(table[i], r, i - 1, hi) - 1
        face[i - 1] = hi
        r -= table[i][hi]
    return tuple(face)


def unrank_face(r: int, k: int) -> tuple[int, ...]:
    """Inverse of rank_face for k-element faces on at most MAX_VERTICES vertices."""
    if r < 0:
        raise ValueError(f"rank must be nonnegative, got {r}")
    table = colex_table(MAX_VERTICES, k)
    if r >= table[k][MAX_VERTICES]:
        raise ValueError(
            f"rank {r} is past the last {k}-face on {MAX_VERTICES} vertices"
        )
    return _unrank(r, table)


def _validate_face(face: Sequence[int], n: int, d: int) -> tuple[int, ...]:
    t = tuple(face)
    if len(t) != d + 1:
        raise ValueError(f"face {t} must have {d + 1} vertices")
    for i, v in enumerate(t):
        if not isinstance(v, int):
            raise ValueError(f"vertex ids must be ints, got {v!r}")
        if v < 0 or v >= n:
            raise ValueError(f"vertex {v} out of range [0, {n})")
        if i > 0 and t[i - 1] >= v:
            raise ValueError(f"face {t} must be strictly increasing")
    return t


def rank_triple(t: Sequence[int], n: int) -> int:
    """Colex rank of a triple among all C(n,3) triples: C(v2,3)+C(v1,2)+C(v0,1)."""
    return rank_face(_validate_face(t, n, 2))


def unrank_triple(r: int, n: int) -> tuple[int, int, int]:
    if not 0 <= r < math.comb(n, 3):
        raise ValueError(f"rank {r} out of range [0, C({n},3))")
    return _unrank(r, colex_table(n, 3))  # type: ignore[return-value]


def triples_colex(n: int) -> Iterator[tuple[int, int, int]]:
    """All triples of [0, n) in colex order, i.e. by increasing rank_face."""
    for c in range(2, n):
        for b in range(1, c):
            for a in range(b):
                yield (a, b, c)


def rank_edge(e: Sequence[int]) -> int:
    a, b = e
    return math.comb(b, 2) + a


def unrank_edge(r: int) -> tuple[int, int]:
    # the largest b with C(b, 2) = b(b-1)/2 <= r
    b = (1 + math.isqrt(1 + 8 * r)) // 2
    return (r - b * (b - 1) // 2, b)


def edges_colex(n: int) -> Iterator[tuple[int, int]]:
    for b in range(1, n):
        for a in range(b):
            yield (a, b)


def triangle_edge_ranks(face: Sequence[int]) -> tuple[int, int, int]:
    """Colex ranks of the edges bc, ac, ab of a triangle (a, b, c).

    The boundary of (a, b, c) is bc - ac + ab, so the ranks come in the order
    of the signs +, -, +. Works elementwise on numpy arrays a, b, c too.
    """
    a, b, c = face
    cc = c * (c - 1) // 2
    return cc + b, cc + a, b * (b - 1) // 2 + a


def face_edges(face: Sequence[int]) -> list[tuple[int, int]]:
    """The three edges of a triangle (or all 2-subsets of a larger face)."""
    k = len(face)
    return [(face[i], face[j]) for i in range(k) for j in range(i + 1, k)]


def iter_set_bits(bits: int) -> Iterator[int]:
    """Positions of the set bits of a rank bitset, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


# ---------------------------------------------------------------------------
# the complex


# Every later step works on vectors and matrices with C(n, 2) rows, so n is
# bounded before the first of them (the edge counters) is allocated.
MAX_VERTICES = 2_000


class Complex:
    """An n-vertex complex with full (dim-1)-skeleton and an explicit face set.

    Lower-dimensional faces are implicit: every edge (and vertex) exists.
    For dim=2 a per-edge count of incident triangles is maintained
    incrementally, indexed by colex edge rank. n may be at most
    MAX_VERTICES = 2,000; a larger n is a ValueError raised before anything
    is allocated.
    """

    __slots__ = ("n", "dim", "faces", "edge_cover_count")

    def __init__(self, n: int, dim: int = 2, faces: Iterable[Sequence[int]] = ()):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if n > MAX_VERTICES:
            raise ValueError(f"need n <= {MAX_VERTICES}, got {n}")
        if dim < 1:
            raise ValueError(f"need dim >= 1, got {dim}")
        self.n = n
        self.dim = dim
        self.faces: set[tuple[int, ...]] = set()
        self.edge_cover_count: list[int] | None = (
            [0] * math.comb(n, 2) if dim == 2 else None
        )
        for f in faces:
            self.add_face(f)

    def add_face(self, face: Sequence[int]) -> bool:
        """Insert a face; returns False if it was already present."""
        t = _validate_face(face, self.n, self.dim)
        if t in self.faces:
            return False
        self.faces.add(t)
        if self.edge_cover_count is not None:
            for r in triangle_edge_ranks(t):
                self.edge_cover_count[r] += 1
        return True

    def has_face(self, face: Sequence[int]) -> bool:
        return tuple(face) in self.faces

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def total_possible_faces(self) -> int:
        return math.comb(self.n, self.dim + 1)

    def faces_sorted(self) -> list[tuple[int, ...]]:
        """Faces in colex order (deterministic column order for boundary maps).

        For faces of one size, colex order is the lexicographic order of the
        reversed tuples.
        """
        return sorted(self.faces, key=lambda f: f[::-1])

    def copy(self) -> "Complex":
        other = Complex.__new__(Complex)
        other.n = self.n
        other.dim = self.dim
        other.faces = set(self.faces)
        other.edge_cover_count = (
            list(self.edge_cover_count) if self.edge_cover_count is not None else None
        )
        return other

    @classmethod
    def full(cls, n: int, dim: int = 2) -> "Complex":
        from itertools import combinations

        return cls(n, dim, combinations(range(n), dim + 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return (self.n, self.dim, self.faces) == (other.n, other.dim, other.faces)

    def __repr__(self) -> str:
        return f"Complex(n={self.n}, dim={self.dim}, faces={len(self.faces)})"


def min_edge_degree(Y: Complex) -> int:
    """Smallest number of triangles covering any edge (delta)."""
    _require_dim2(Y)
    assert Y.edge_cover_count is not None
    return min(Y.edge_cover_count)


def uncovered_edges(Y: Complex) -> list[tuple[int, int]]:
    """Edges contained in no triangle; empty iff min_edge_degree > 0."""
    _require_dim2(Y)
    assert Y.edge_cover_count is not None
    return [unrank_edge(r) for r, c in enumerate(Y.edge_cover_count) if c == 0]


def _require_dim2(Y: Complex) -> None:
    if Y.dim != 2:
        raise ValueError(f"operation requires a 2-dimensional complex, got dim={Y.dim}")


# ---------------------------------------------------------------------------
# random models


class ProcessStream:
    """All C(n, dim+1) faces in a uniformly random order, emitted lazily.

    A seeded Fisher-Yates shuffle over face ranks, materialized only as far
    as the stream has been consumed, so early hitting times touch a prefix.
    Identical seed gives an identical order.
    """

    __slots__ = ("n", "dim", "seed", "total", "_rng", "_swap", "_pos", "_table")

    def __init__(self, n: int, seed: int, dim: int = 2):
        if n < dim + 1:
            raise ValueError(f"need n >= {dim + 1} for dimension {dim}, got n={n}")
        self.n = n
        self.dim = dim
        self.seed = seed
        self.total = math.comb(n, dim + 1)
        self._rng = random.Random(seed)
        self._swap: dict[int, int] = {}
        self._pos = 0
        self._table = colex_table(n, dim + 1)

    @property
    def position(self) -> int:
        """Number of faces emitted so far."""
        return self._pos

    def __iter__(self) -> "ProcessStream":
        return self

    def __next__(self) -> tuple[int, ...]:
        i = self._pos
        if i >= self.total:
            raise StopIteration
        j = self._rng.randrange(i, self.total)
        emitted = self._swap.pop(j, j)
        if j != i:
            self._swap[j] = self._swap.pop(i, i)
        self._pos = i + 1
        return _unrank(emitted, self._table)

    def take(self, m: int) -> list[tuple[int, ...]]:
        return [next(self) for _ in range(min(m, self.total - self._pos))]


def sample_fixed_size(n: int, M: int, seed: int, dim: int = 2) -> Complex:
    """The fixed-size model: the first M faces of the seeded process."""
    stream = ProcessStream(n, seed, dim=dim)
    if not 0 <= M <= stream.total:
        raise ValueError(f"M={M} out of range [0, {stream.total}]")
    return Complex(n, dim, stream.take(M))


def sample_binomial(n: int, p: float, seed: int, dim: int = 2) -> Complex:
    """The binomial model: each face included independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p={p} outside [0, 1]")
    if n < dim + 1:
        raise ValueError(f"need n >= {dim + 1}, got n={n}")
    rng = random.Random(seed)
    Y = Complex(n, dim)
    if p == 0.0:
        return Y
    from itertools import combinations

    for f in combinations(range(n), dim + 1):
        if p == 1.0 or rng.random() < p:
            Y.add_face(f)
    return Y


# ---------------------------------------------------------------------------
# serialization (1-based vertex labels)


def complex_to_json(Y: Complex) -> str:
    doc = {
        "n": Y.n,
        "dim": Y.dim,
        "faces": [[v + 1 for v in f] for f in Y.faces_sorted()],
    }
    return json.dumps(doc)


def json_int_field(doc, key: str, what: str) -> int:
    """doc[key] of a parsed JSON object; ValueError naming the field otherwise."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{what} missing field {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} field {key!r} must be an integer, got {value!r}")
    return value


def complex_from_json(text: str) -> Complex:
    doc = json.loads(text)
    n = json_int_field(doc, "n", "complex JSON")
    dim = json_int_field(doc, "dim", "complex JSON")
    if "faces" not in doc:
        raise ValueError("complex JSON missing field 'faces'")
    faces = doc["faces"]
    if not isinstance(faces, list) or not all(
        isinstance(f, list) and all(isinstance(v, int) for v in f) for f in faces
    ):
        raise ValueError("complex JSON field 'faces' must be a list of integer lists")
    Y = Complex(n, dim)
    for raw in faces:
        Y.add_face(_shift_to_internal(raw, n))
    return Y


def complex_to_text(Y: Complex) -> str:
    lines = [f"# n={Y.n} dim={Y.dim}"]
    lines.extend(" ".join(str(v + 1) for v in f) for f in Y.faces_sorted())
    return "\n".join(lines) + "\n"


def complex_from_text(text: str) -> Complex:
    n = dim = None
    face_rows: list[tuple[int, list[int]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            for token in stripped[1:].split():
                if token.startswith("n="):
                    n = int(token[2:])
                elif token.startswith("dim="):
                    dim = int(token[4:])
            continue
        try:
            ids = [int(tok) for tok in stripped.split()]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        face_rows.append((lineno, ids))
    if not face_rows and n is None:
        raise ValueError("empty complex file without an '# n=.. dim=..' header")
    if dim is None:
        dim = len(face_rows[0][1]) - 1 if face_rows else 2
    if n is None:
        n = max(max(ids) for _, ids in face_rows)
    Y = Complex(n, dim)
    for lineno, ids in face_rows:
        try:
            Y.add_face(_shift_to_internal(ids, n))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return Y


def _shift_to_internal(ids: Sequence[int], n: int) -> tuple[int, ...]:
    shifted = []
    for v in ids:
        if not 1 <= v <= n:
            raise ValueError(f"vertex label {v} outside [1, {n}]")
        shifted.append(v - 1)
    return tuple(sorted(shifted))


def save_complex(Y: Complex, path: str, fmt: str | None = None) -> None:
    fmt = fmt or ("json" if str(path).endswith(".json") else "text")
    text = complex_to_json(Y) + "\n" if fmt == "json" else complex_to_text(Y)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def load_complex(path: str, fmt: str | None = None) -> Complex:
    with open(path) as fh:
        text = fh.read()
    if fmt is None:
        fmt = "json" if text.lstrip().startswith("{") else "text"
    return complex_from_json(text) if fmt == "json" else complex_from_text(text)
