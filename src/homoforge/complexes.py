"""Simplicial complexes with a full codimension-1 skeleton.

Vertices are 0-based internally; all file formats and CLI output use
1-based labels. Faces of dimension d are sorted (d+1)-tuples of vertex
ids, indexed by their colexicographic rank.

TripleSet is the one bitset over the C(n,3) triple ranks, used for shadows
and for the bad side of a partition. A shadow .bits file holds its
to_bytes(); a labels file holds a JSON header line, then its payload().
"""

from __future__ import annotations

import functools
import json
import math
import random
from bisect import bisect_right
from itertools import chain, repeat, starmap
from typing import Iterable, Iterator, Sequence

import numpy as np


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


def colex_array(n: int, k: int) -> np.ndarray:
    """colex_table(n, k) as an array: int64, or Python ints past it."""
    rows = colex_table(n, k)
    return np.array(rows, dtype=np.int64 if max(map(max, rows)) < 2**63 else object)


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


def _unrank_array(r, n: int, k: int) -> np.ndarray:
    """The k-faces of the colex ranks r, each below C(n, k), as the rows of an int32 array."""
    table = colex_array(n, k)
    r = np.asarray(r, dtype=table.dtype)
    faces = np.empty((len(r), k), dtype=np.int32)
    for i in range(k, 0, -1):
        faces[:, i - 1] = v = np.searchsorted(table[i], r, side="right") - 1
        r = r - table[i, v]
    return faces


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


def unrank_edge(r: int) -> tuple[int, int]:
    # the largest b with C(b, 2) = b(b-1)/2 <= r
    b = (1 + math.isqrt(1 + 8 * r)) // 2
    return (r - b * (b - 1) // 2, b)


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


# ---------------------------------------------------------------------------
# sets of triples


class TripleSet:
    """A set of triples of [0, n), stored as a bitset over their colex ranks.

    Bit r of bits is set iff the triple of colex rank r is a member. The
    payload is the bitset little-endian in (C(n,3) + 7) // 8 bytes; to_bytes
    prefixes it with the bit count C(n,3) as 8 little-endian bytes. Both
    readers reject a wrong length and a bit at or past C(n,3).
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        self.n = n
        self.bits = bits

    @classmethod
    def of(cls, n: int, triples: Iterable[Sequence[int]]) -> "TripleSet":
        """The set of the given triples, each in any vertex order."""
        bits = 0
        for t in triples:
            bits |= 1 << rank_triple(sorted(t), n)
        return cls(n, bits)

    @property
    def total(self) -> int:
        return math.comb(self.n, 3)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def complement(self) -> "TripleSet":
        return TripleSet(self.n, ((1 << self.total) - 1) & ~self.bits)

    def contains_rank(self, r: int) -> bool:
        return bool(self.bits >> r & 1)

    def contains(self, t: Sequence[int]) -> bool:
        """Membership of a triple in any vertex order; ValueError if it is invalid."""
        return self.contains_rank(rank_triple(sorted(t), self.n))

    def ranks(self) -> Iterator[int]:
        """Member ranks, lowest first."""
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def triples(self) -> Iterator[tuple[int, int, int]]:
        """Members in colex order."""
        for r in self.ranks():
            yield unrank_triple(r, self.n)

    def payload(self) -> bytes:
        return self.bits.to_bytes((self.total + 7) // 8, "little")

    @classmethod
    def from_payload(cls, payload: bytes, n: int) -> "TripleSet":
        total = math.comb(n, 3)
        if len(payload) != (total + 7) // 8:
            raise ValueError(
                f"bitset payload has {len(payload)} bytes, expected {(total + 7) // 8}"
            )
        bits = int.from_bytes(payload, "little")
        if bits >> total:
            raise ValueError(f"bitset sets rank {bits.bit_length() - 1} >= C({n},3)")
        return cls(n, bits)

    @classmethod
    def from_mask(cls, n: int, member: np.ndarray) -> "TripleSet":
        """The set of the ranks r with member[r], for a boolean array of length C(n,3)."""
        return cls.from_payload(np.packbits(member, bitorder="little").tobytes(), n)

    def to_bytes(self) -> bytes:
        return self.total.to_bytes(8, "little") + self.payload()

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "TripleSet":
        nbits = int.from_bytes(data[:8], "little")
        if nbits != math.comb(n, 3):
            raise ValueError(f"bitset length {nbits} does not match C({n},3)")
        return cls.from_payload(data[8:], n)


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

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def face_array(self) -> np.ndarray:
        """The faces as the rows of an int32 array, in no particular order."""
        return np.fromiter(chain.from_iterable(self.faces), np.int32).reshape(-1, self.dim + 1)

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


def uncovered_edges(Y: Complex) -> list[tuple[int, int]]:
    """Edges contained in no triangle, in colex order."""
    _require_dim2(Y)
    assert Y.edge_cover_count is not None
    return [unrank_edge(r) for r, c in enumerate(Y.edge_cover_count) if c == 0]


def _require_dim2(Y: Complex) -> None:
    if Y.dim != 2:
        raise ValueError(f"operation requires a 2-dimensional complex, got dim={Y.dim}")


# ---------------------------------------------------------------------------
# random models


class ProcessStream:
    """All C(n, dim+1) faces in a uniformly random order, drawn lazily.

    A seeded Fisher-Yates shuffle over face ranks, materialized only as far
    as the stream has been consumed. _ranks, its one draw loop, swaps step i
    with i + randrange(total - i), inlined as CPython >= 3.10 computes it:
    getrandbits(w.bit_length()) until below w = total - i. So every seed
    keeps its order (TestDrawContract in tests/test_complexes.py). take_array
    unranks a batch on numpy, in int64 or, for a table past it, Python ints;
    take gives tuples of Python ints, as Complex requires.
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

    def __iter__(self) -> "ProcessStream":
        return self

    def _ranks(self, m: int) -> list[int]:
        """Face ranks of the next min(m, remaining) steps of the shuffle."""
        start, total, swap = self._pos, self.total, self._swap
        stop = max(start, min(start + m, total))
        getrandbits, pop, out = self._rng.getrandbits, swap.pop, []
        for i in range(start, stop):
            w = total - i
            k = w.bit_length()
            r = getrandbits(k)
            while r >= w:
                r = getrandbits(k)
            j = i + r
            out.append(pop(j, j))
            if r:
                swap[j] = pop(i, i)
        self._pos = stop
        return out

    def __next__(self) -> tuple[int, ...]:
        for r in self._ranks(1):
            return _unrank(r, self._table)
        raise StopIteration

    def take_array(self, m: int) -> np.ndarray:
        """The next min(m, remaining) faces as the rows of an int32 array."""
        return _unrank_array(self._ranks(m), self.n, self.dim + 1)

    def take(self, m: int) -> list[tuple[int, ...]]:
        return list(zip(*self.take_array(m).T.tolist()))


def edge_cover_counts(n: int, faces: np.ndarray) -> np.ndarray:
    """The number of the triangles faces, an (m, 3) array, on each edge, by colex rank."""
    return np.bincount(np.concatenate(triangle_edge_ranks(faces.T)), minlength=math.comb(n, 2))


def _bulk_complex(n: int, dim: int, faces: np.ndarray) -> Complex:
    """Complex(n, dim, faces) for faces valid by construction: no add_face checks."""
    Y = Complex(n, dim)
    Y.faces = set(zip(*faces.T.tolist()))
    if Y.edge_cover_count is not None:
        Y.edge_cover_count = edge_cover_counts(n, faces).tolist()
    return Y


def sample_fixed_size(n: int, M: int, seed: int, dim: int = 2) -> Complex:
    """The fixed-size model: the first M faces of the seeded process."""
    stream = ProcessStream(n, seed, dim=dim)
    if not 0 <= M <= stream.total:
        raise ValueError(f"M={M} out of range [0, {stream.total}]")
    return _bulk_complex(n, dim, stream.take_array(M))


_DRAW_CHUNK = 1 << 16  # draws per chunk of _binomial_faces, to bound its float array


def _binomial_faces(n: int, p: float, seed: int, dim: int = 2) -> np.ndarray:
    """The faces of sample_binomial(n, p, seed, dim) as the rows of an int32 array.

    One rng.random() is drawn per face, in the lexicographic order of
    combinations, and none when p is 0 or 1. The face of lexicographic
    index i mirrors, under v -> n-1-v, the face of colex rank total-1-i.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p={p} outside [0, 1]")
    if n < dim + 1:
        raise ValueError(f"need n >= {dim + 1}, got n={n}")
    if not p:
        return np.empty((0, dim + 1), dtype=np.int32)
    total = math.comb(n, dim + 1)
    picked = np.arange(total)
    if p < 1.0:
        draw = random.Random(seed).random
        sizes = (min(_DRAW_CHUNK, total - s) for s in range(0, total, _DRAW_CHUNK))
        below = [np.fromiter(starmap(draw, repeat((), k)), float, k) < p for k in sizes]
        picked = np.flatnonzero(np.concatenate(below))
    return n - 1 - _unrank_array(total - 1 - picked, n, dim + 1)[:, ::-1]


def sample_binomial(n: int, p: float, seed: int, dim: int = 2) -> Complex:
    """The binomial model: each face included independently with probability p."""
    return _bulk_complex(n, dim, _binomial_faces(n, p, seed, dim))


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
