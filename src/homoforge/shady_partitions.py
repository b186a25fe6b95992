"""Good/bad triple labelings and the deterministic badness machinery.

A labeling marks every triple of [0, n) good or bad. Badness cascades to
edges (too many bad triples through an edge) and vertices (too many bad
edges), with explicit thresholds: the asymptotic iterated-log thresholds
are undefined at any feasible n, so every consumer takes concrete values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .complexes import (
    Complex,
    face_edges,
    iter_set_bits,
    json_int_field,
    rank_triple,
    triple_bits_from_bytes,
    unrank_triple,
)
from .homology import ShadowSet


@dataclass(frozen=True)
class Thresholds:
    """Badness budgets: per-edge, per-vertex, and the global bad-triple cap."""

    theta_edge: int
    theta_vertex: int
    max_bad_triples: int

    def __post_init__(self):
        for name in ("theta_edge", "theta_vertex", "max_bad_triples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def defaults(cls, n: int) -> "Thresholds":
        """Linear-in-n edge/vertex budgets and a C(n,3)/lnln(n) triple cap."""
        if n < 3:
            raise ValueError(f"need n >= 3, got {n}")
        theta = max(1, math.ceil(n / 4))
        lnln = math.log(math.log(n))
        cap = max(1, math.ceil(math.comb(n, 3) / lnln))
        return cls(theta_edge=theta, theta_vertex=theta, max_bad_triples=cap)

    def to_dict(self) -> dict:
        return {
            "theta_edge": self.theta_edge,
            "theta_vertex": self.theta_vertex,
            "max_bad_triples": self.max_bad_triples,
        }


class PartitionLabels:
    """A good/bad partition of all C(n,3) triples, bad side stored as a bitset."""

    __slots__ = ("n", "_bad")

    def __init__(self, n: int, bad_bits: int = 0):
        if n < 3:
            raise ValueError(f"need n >= 3, got {n}")
        self.n = n
        self._bad = bad_bits

    @classmethod
    def from_bad_triples(cls, n: int, bad: Iterable[Sequence[int]]) -> "PartitionLabels":
        bits = 0
        for t in bad:
            bits |= 1 << rank_triple(tuple(sorted(t)), n)
        return cls(n, bits)

    @classmethod
    def from_shadow_complement(cls, sh: ShadowSet) -> "PartitionLabels":
        """Bad = triples outside the shadow (the shadow members are good)."""
        full = (1 << math.comb(sh.n, 3)) - 1
        return cls(sh.n, full & ~sh.bits)

    @property
    def total(self) -> int:
        return math.comb(self.n, 3)

    @property
    def count_bad(self) -> int:
        return self._bad.bit_count()

    def is_bad_rank(self, r: int) -> bool:
        return bool(self._bad >> r & 1)

    def is_bad(self, t: Sequence[int]) -> bool:
        return self.is_bad_rank(rank_triple(tuple(sorted(t)), self.n))

    def is_good(self, t: Sequence[int]) -> bool:
        return not self.is_bad(t)

    def bad_ranks(self):
        return iter_set_bits(self._bad)

    def bad_triples(self):
        for r in self.bad_ranks():
            yield unrank_triple(r, self.n)

    def well_formed_for(self, Y: Complex) -> bool:
        """No face of Y may be labeled bad."""
        return all(not self.is_bad(f) for f in Y.faces)

    # -- file format: one JSON header line {n, count_bad}, then the raw bitset

    def save(self, path: str) -> None:
        header = json.dumps({"n": self.n, "count_bad": self.count_bad}, sort_keys=True)
        payload = self._bad.to_bytes((self.total + 7) // 8, "little")
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\n" + payload)

    @classmethod
    def load(cls, path: str) -> "PartitionLabels":
        with open(path, "rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
        header = json.loads(header_line.decode())
        n = json_int_field(header, "n", "labels header")
        count_bad = json_int_field(header, "count_bad", "labels header")
        labels = cls(n, triple_bits_from_bytes(payload, n))
        if labels.count_bad != count_bad:
            raise ValueError("labels header count_bad does not match payload")
        return labels


@dataclass(frozen=True)
class CascadeResult:
    """Edges and vertices that exceed their badness thresholds."""

    bad_edges: frozenset[tuple[int, int]]
    bad_vertices: frozenset[int]


def cascade(L: PartitionLabels, T: Thresholds) -> CascadeResult:
    """Extend triple badness to edges and vertices by exact counting.

    An edge is bad iff it lies in more than theta_edge bad triples; a
    vertex is bad iff it lies in more than theta_vertex bad edges.
    """
    edge_counts: dict[tuple[int, int], int] = {}
    for t in L.bad_triples():
        for e in face_edges(t):
            edge_counts[e] = edge_counts.get(e, 0) + 1
    bad_edges = frozenset(e for e, c in edge_counts.items() if c > T.theta_edge)
    vertex_counts: dict[int, int] = {}
    for a, b in bad_edges:
        vertex_counts[a] = vertex_counts.get(a, 0) + 1
        vertex_counts[b] = vertex_counts.get(b, 0) + 1
    bad_vertices = frozenset(v for v, c in vertex_counts.items() if c > T.theta_vertex)
    return CascadeResult(bad_edges=bad_edges, bad_vertices=bad_vertices)


def _has_good_cone(L: PartitionLabels, t: tuple[int, int, int]) -> bool:
    """Some apex v outside t with all three cone triangles over t good."""
    x, y, z = t
    for v in range(L.n):
        if v in t:
            continue
        if (
            L.is_good(tuple(sorted((x, y, v))))
            and L.is_good(tuple(sorted((x, z, v))))
            and L.is_good(tuple(sorted((y, z, v))))
        ):
            return True
    return False


@dataclass(frozen=True)
class ShadyReport:
    """Outcome of checking a labeling against a complex.

    Triangulation-closure is decided for cone triangulations only (the
    single-apex move); closure under arbitrary sphere triangulations is
    not decided here.
    """

    faces_all_good: bool
    bad_count_within_budget: bool
    cone_closed: bool
    bad_triples: int
    bad_edges: int
    bad_vertices: int
    thresholds: Thresholds

    @property
    def passed(self) -> bool:
        return self.faces_all_good and self.bad_count_within_budget and self.cone_closed

    def to_json_dict(self) -> dict:
        return {
            "condII": self.faces_all_good,
            "condIII": self.bad_count_within_budget,
            "condI_cone": self.cone_closed,
            "condI_note": "triangulation closure checked for cone apexes only",
            "bad_counts": {
                "triples": self.bad_triples,
                "edges": self.bad_edges,
                "vertices": self.bad_vertices,
            },
            "thresholds": self.thresholds.to_dict(),
        }


def verify_shady(Y: Complex, L: PartitionLabels, T: Thresholds) -> ShadyReport:
    """Check a labeling: faces good, bad-triple budget, cone closure."""
    if Y.dim != 2:
        raise ValueError("verify_shady requires a 2-dimensional complex")
    if Y.n != L.n:
        raise ValueError(f"complex has n={Y.n} but labels have n={L.n}")
    faces_good = L.well_formed_for(Y)
    within_budget = L.count_bad <= T.max_bad_triples
    cone_closed = all(not _has_good_cone(L, t) for t in L.bad_triples())
    casc = cascade(L, T)
    return ShadyReport(
        faces_all_good=faces_good,
        bad_count_within_budget=within_budget,
        cone_closed=cone_closed,
        bad_triples=L.count_bad,
        bad_edges=len(casc.bad_edges),
        bad_vertices=len(casc.bad_vertices),
        thresholds=T,
    )
