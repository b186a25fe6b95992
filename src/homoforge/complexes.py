"""Simplicial complexes with a full codimension-1 skeleton.

Vertices are 0-based internally; all file formats and CLI output use
1-based labels. A face of dimension d is a strictly increasing (d+1)-tuple
of vertex ids, ranked colexicographically by rank_face, or by face_ranks
for the rows of an array. A Complex holds its d-faces as the rows of one
read-only int32 array in colex order; its constructor checks every face set.

TripleSet is the one bitset over the C(n,3) triple ranks, used for shadows
and for the bad side of a partition. A shadow .bits file holds its
to_bytes(); a labels file holds a JSON header line, then its payload().
"""

from __future__ import annotations

import functools
import json
import math
import random
from itertools import accumulate
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
def colex_array(n: int, k: int) -> np.ndarray:
    """Binomial table with table[i, v] = C(v, i) for 0 <= i <= k, 0 <= v <= n.

    Row i is nondecreasing in v, so the largest v with C(v, i) <= r is found
    by bisection. int64, or Python ints once an entry passes 2^63. Built on
    first use for each (n, k), cached and read-only: every caller shares it.
    """
    # Pascal's rule: C(v, i) = sum of C(u, i-1) over u < v
    rows = [[1] * (n + 1)]
    for _ in range(k):
        rows.append([0, *accumulate(rows[-1][:-1])])
    table = np.array(rows, dtype=np.int64 if max(map(max, rows)) < 2**63 else object)
    table.setflags(write=False)
    return table


def _unrank_array(r, n: int, k: int) -> np.ndarray:
    """The k-faces of the colex ranks r, each below C(n, k), as the rows of an int32 array.

    Greedy from the top: vertex i-1 is the largest v with C(v, i) <= r, and
    the remainder r - C(v, i) < C(v, i-1) puts the next vertex below v.
    """
    table = colex_array(n, k)
    r = np.asarray(r, dtype=table.dtype)
    faces = np.empty((len(r), k), dtype=np.int32)
    for i in range(k, 0, -1):
        faces[:, i - 1] = v = np.searchsorted(table[i], r, side="right") - 1
        r = r - table[i].take(v)
    return faces


def face_ranks(n: int, faces: np.ndarray) -> np.ndarray:
    """Colex ranks of the increasing rows of faces, an (m, k) array, from colex_array(n, k)."""
    table = colex_array(n, faces.shape[1])
    return sum(table[i + 1].take(faces[:, i]) for i in range(faces.shape[1]))


def facet_ranks(n: int, faces: np.ndarray) -> np.ndarray:
    """Colex ranks of the facets of faces, an (m, k) array of increasing rows.

    Column i holds the rank of each face less its vertex i, which has sign
    (-1)^i in the face's boundary. Vertex j < i keeps its place, C(v_j, j+1),
    and vertex j > i moves down one, C(v_j, j). The dtype is that of
    colex_array(n, k-1): int64, or object (Python ints) once an entry passes
    2^63. Each term is a 1-D gather from one row of the table. No faces give
    an empty int64 array and build no table: it holds k(n+1) binomials,
    Python ints for large k, and only faces read it.
    """
    k = faces.shape[1]
    if not len(faces):
        return np.empty((0, k), dtype=np.int64)
    table = colex_array(n, k - 1)
    kept = [table[j].take(faces[:, j - 1]) for j in range(1, k)]
    moved = [table[j].take(faces[:, j]) for j in range(1, k)]
    before = list(accumulate(kept))  # before[i-1]: the sum over j < i
    after = list(accumulate(moved[::-1]))[::-1]  # after[i]: the sum over j > i
    return np.stack([after[0], *map(np.add, before, after[1:]), before[-1]], 1)


# ---------------------------------------------------------------------------
# sets of triples


class TripleSet:
    """A set of triples of [0, n), stored as a bitset over their colex ranks.

    Bit r of bits is set iff the triple of colex rank r is a member, and no
    bit at or past C(n,3) may be set. The payload is the bitset little-endian
    in (C(n,3) + 7) // 8 bytes; to_bytes prefixes it with the bit count
    C(n,3) as 8 little-endian bytes. Triples are checked by Complex.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if bits < 0:
            raise ValueError(f"bitset must be nonnegative, got {bits}")
        if bits >> math.comb(n, 3):
            raise ValueError(f"bitset sets rank {bits.bit_length() - 1} >= C({n},3)")
        self.n = n
        self.bits = bits

    @classmethod
    def of(cls, n: int, triples: Iterable[Sequence[int]]) -> "TripleSet":
        """The set of the given triples, each in any vertex order."""
        member = np.zeros(math.comb(n, 3), dtype=bool)
        member[face_ranks(n, Complex(n, 2, map(sorted, triples)).faces)] = True
        return cls.from_mask(n, member)

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
        return self.contains_rank(rank_face(Complex(self.n, 2, [sorted(t)]).faces[0]))

    def mask(self) -> np.ndarray:
        """A boolean array of length C(n,3), true at the member ranks."""
        bytes_ = np.frombuffer(self.payload(), np.uint8)
        return np.unpackbits(bytes_, count=self.total, bitorder="little").view(bool)

    def ranks(self) -> np.ndarray:
        """Member ranks, ascending, as an int64 array."""
        return np.flatnonzero(self.mask())

    def triples(self) -> Iterator[tuple[int, int, int]]:
        """Members in colex order."""
        return map(tuple, _unrank_array(self.ranks(), self.n, 3).tolist())

    def payload(self) -> bytes:
        return self.bits.to_bytes((self.total + 7) // 8, "little")

    @classmethod
    def from_payload(cls, payload: bytes, n: int) -> "TripleSet":
        total = math.comb(n, 3)
        if len(payload) != (total + 7) // 8:
            raise ValueError(
                f"bitset payload has {len(payload)} bytes, expected {(total + 7) // 8}"
            )
        return cls(n, int.from_bytes(payload, "little"))

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


# Every later step works on vectors and matrices with C(n, 2) rows or on
# C(n, 3) face ranks, so Complex, ProcessStream and the binomial sampler bound
# n before they draw or allocate anything. dim gets the same bound, so an
# empty complex of huge dimension is no huge computation.
MAX_VERTICES = 2_000


def _check_size(n: int, dim: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"need n <= {MAX_VERTICES}, got {n}")
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
    if dim > MAX_VERTICES:
        raise ValueError(f"need dim <= {MAX_VERTICES}, got {dim}")


def _check_model_size(n: int, dim: int) -> None:
    """_check_size for the random models, which also need a face to draw."""
    _check_size(n, dim)
    if n < dim + 1:
        raise ValueError(f"need n >= {dim + 1} for dimension {dim}, got n={n}")


class Complex:
    """An n-vertex complex with full (dim-1)-skeleton and an explicit face set.

    Lower-dimensional faces are implicit: every edge (and vertex) exists.
    faces holds the distinct dim-faces as the rows of a read-only int32
    array in colex order, so equal complexes have equal arrays. They may be
    given as an integer array of increasing rows or as an iterable of such
    rows, which becomes one; either way the array is checked in bulk, then
    sorted and merged by face_ranks. n may be at most MAX_VERTICES = 2,000.
    """

    __slots__ = ("n", "dim", "faces")

    def __init__(self, n: int, dim: int = 2, faces: Iterable[Sequence[int]] | np.ndarray = ()):
        _check_size(n, dim)
        k = dim + 1
        if not isinstance(faces, np.ndarray):
            rows = list(faces) or np.empty((0, k), dtype=np.int32)
            try:
                faces = np.array(rows)
            except ValueError:
                raise ValueError(f"faces must have {k} vertices each") from None
        if not np.issubdtype(faces.dtype, np.integer):
            raise ValueError(f"vertex ids must be ints, got dtype {faces.dtype}")
        if faces.ndim != 2 or faces.shape[1] != k:
            raise ValueError(f"faces must have {k} vertices each, got shape {faces.shape}")
        if faces.size and (faces.min() < 0 or faces.max() >= n):
            raise ValueError(f"vertex ids out of range [0, {n})")
        if (faces[:, 1:] <= faces[:, :-1]).any():
            raise ValueError("faces must be strictly increasing")
        if len(faces) > 1:  # sort and merge by colex rank; one face needs no table
            ranks = face_ranks(n, faces)
            order = ranks.argsort()  # not stable: rows of equal rank are equal
            ranks = ranks.take(order)
            order = order[np.concatenate(([True], ranks[1:] != ranks[:-1]))]
            faces = faces.take(order, 0)
        self.n = n
        self.dim = dim
        self.faces = faces.astype(np.int32)
        self.faces.setflags(write=False)

    @classmethod
    def full(cls, n: int, dim: int = 2) -> "Complex":
        return cls(n, dim, _unrank_array(np.arange(math.comb(n, dim + 1)), n, dim + 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        same = (self.n, self.dim) == (other.n, other.dim)
        return same and np.array_equal(self.faces, other.faces)

    def __repr__(self) -> str:
        return f"Complex(n={self.n}, dim={self.dim}, faces={len(self.faces)})"


def uncovered_edges(Y: Complex) -> list[tuple[int, int]]:
    """Edges contained in no triangle, in colex order."""
    _require_dim2(Y)
    counts = edge_cover_counts(Y.n, Y.faces)
    return list(map(tuple, _unrank_array(np.flatnonzero(counts == 0), Y.n, 2).tolist()))


def edge_cover_counts(n: int, faces: np.ndarray) -> np.ndarray:
    """The number of the triangles faces, an (m, 3) array, on each edge, by colex rank."""
    return np.bincount(facet_ranks(n, faces).ravel(), minlength=math.comb(n, 2))


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
    keeps its order (TestDrawContract in tests/test_complexes.py). Every
    face comes from take_array, which unranks a batch with _unrank_array
    into an int32 array; take and next give its rows as tuples of Python
    ints.
    """

    __slots__ = ("n", "dim", "seed", "total", "_rng", "_swap", "_pos")

    def __init__(self, n: int, seed: int, dim: int = 2):
        _check_model_size(n, dim)
        self.n = n
        self.dim = dim
        self.seed = seed
        self.total = math.comb(n, dim + 1)
        self._rng = random.Random(seed)
        self._swap: dict[int, int] = {}
        self._pos = 0

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
        for face in self.take(1):
            return face
        raise StopIteration

    def take_array(self, m: int) -> np.ndarray:
        """The next min(m, remaining) faces as the rows of an int32 array."""
        return _unrank_array(self._ranks(m), self.n, self.dim + 1)

    def take(self, m: int) -> list[tuple[int, ...]]:
        return list(zip(*self.take_array(m).T.tolist()))


def sample_fixed_size(n: int, M: int, seed: int, dim: int = 2) -> Complex:
    """The fixed-size model: the first M faces of the seeded process."""
    stream = ProcessStream(n, seed, dim=dim)
    if not 0 <= M <= stream.total:
        raise ValueError(f"M={M} out of range [0, {stream.total}]")
    return Complex(n, dim, stream.take_array(M))


_DRAW_CHUNK = 1 << 16  # draws per chunk of _binomial_faces, to bound its word and float arrays


def _binomial_faces(n: int, p: float, seed: int, dim: int = 2) -> np.ndarray:
    """The faces of sample_binomial(n, p, seed, dim) as the rows of an int32 array.

    One rng.random() is drawn per face, in the lexicographic order of
    combinations, and none when p is 0 or 1. The face of lexicographic
    index i mirrors, under v -> n-1-v, the face of colex rank total-1-i.
    A chunk of k draws is one getrandbits(64k), whose 32-bit words, low first,
    are those k random() calls read: each call's words a, b give
    ((a >> 5) * 2^26 + (b >> 6)) / 2^53, exactly as CPython computes it.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p={p} outside [0, 1]")
    _check_model_size(n, dim)
    if not p:
        return np.empty((0, dim + 1), dtype=np.int32)
    total = math.comb(n, dim + 1)
    if p < 1.0:
        bits = random.Random(seed).getrandbits
        sizes = (min(_DRAW_CHUNK, total - s) for s in range(0, total, _DRAW_CHUNK))
        words = (np.frombuffer(bits(64 * k).to_bytes(8 * k, "little"), "<u4") for k in sizes)
        below = [((w[0::2] >> 5) * 2.0**26 + (w[1::2] >> 6)) / 2.0**53 < p for w in words]
        picked = np.flatnonzero(np.concatenate(below))
    else:
        picked = np.arange(total)
    return n - 1 - _unrank_array(total - 1 - picked, n, dim + 1)[:, ::-1]


def sample_binomial(n: int, p: float, seed: int, dim: int = 2) -> Complex:
    """The binomial model: each face included independently with probability p."""
    return Complex(n, dim, _binomial_faces(n, p, seed, dim))


# ---------------------------------------------------------------------------
# serialization (1-based vertex labels)


def complex_to_json(Y: Complex) -> str:
    return json.dumps({"n": Y.n, "dim": Y.dim, "faces": (Y.faces + 1).tolist()})


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
    # bool is a subclass of int, but true is no vertex label
    if not isinstance(faces, list) or not all(
        isinstance(f, list) and all(type(v) is int for v in f) for f in faces
    ):
        raise ValueError("complex JSON field 'faces' must be a list of integer lists")
    _check_size(n, dim)
    return Complex(n, dim, [_shift_to_internal(raw, n, dim + 1) for raw in faces])


def complex_to_text(Y: Complex) -> str:
    lines = [f"# n={Y.n} dim={Y.dim}"]
    lines.extend(" ".join(map(str, f)) for f in (Y.faces + 1).tolist())
    return "\n".join(lines) + "\n"


def complex_from_text(text: str) -> Complex:
    n = dim = None
    face_rows: list[tuple[int, list[int]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            if stripped.startswith("#"):
                for token in stripped[1:].split():
                    if token.startswith("n="):
                        n = int(token[2:])
                    elif token.startswith("dim="):
                        dim = int(token[4:])
            else:
                face_rows.append((lineno, [int(tok) for tok in stripped.split()]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not face_rows and n is None:
        raise ValueError("empty complex file without an '# n=.. dim=..' header")
    if dim is None:
        dim = len(face_rows[0][1]) - 1 if face_rows else 2
    if n is None:
        n = max(max(ids) for _, ids in face_rows)
    _check_size(n, dim)
    faces = []
    for lineno, ids in face_rows:
        try:
            faces.append(_shift_to_internal(ids, n, dim + 1))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return Complex(n, dim, faces)


def _shift_to_internal(ids: Sequence[int], n: int, k: int) -> list[int]:
    """The sorted 0-based vertices of a face of k distinct 1-based labels in [1, n]."""
    if len(ids) != k:
        raise ValueError(f"face {ids} must have {k} vertices")
    for v in ids:
        if not 1 <= v <= n:
            raise ValueError(f"vertex label {v} outside [1, {n}]")
    if len(set(ids)) != k:
        raise ValueError(f"face {ids} repeats a vertex")
    return sorted(v - 1 for v in ids)


def save_complex(Y: Complex, path: str, fmt: str | None = None) -> None:
    fmt = fmt or ("json" if str(path).endswith(".json") else "text")
    text = complex_to_json(Y) + "\n" if fmt == "json" else complex_to_text(Y)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def load_complex(path: str) -> Complex:
    with open(path) as fh:
        text = fh.read()
    return complex_from_json(text) if text.lstrip().startswith("{") else complex_from_text(text)
