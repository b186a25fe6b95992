"""Good/bad triple labelings and the deterministic badness machinery.

A labeling marks every triple of [0, n) good or bad; it is given by its bad
side, a complexes.TripleSet (the complement of a shadow, for instance).
Badness cascades to edges (too many bad triples through an edge) and
vertices (too many bad edges), with explicit thresholds: the asymptotic
iterated-log thresholds are undefined at any feasible n, so every consumer
takes concrete values. A labels file is one JSON header line
{"count_bad", "n"}, then the bad set's payload (see save_labels).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .complexes import Complex, TripleSet, _require_dim2, face_edges, json_int_field


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


def save_labels(bad: TripleSet, path: str) -> None:
    """Write the bad side of a partition as a labels file."""
    if bad.n < 3:
        raise ValueError(f"need n >= 3, got {bad.n}")
    header = json.dumps({"n": bad.n, "count_bad": bad.size}, sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n" + bad.payload())


def load_labels(path: str) -> TripleSet:
    """The bad side stored in a labels file; ValueError if it is malformed."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    header = json.loads(header_line.decode())
    n = json_int_field(header, "n", "labels header")
    count_bad = json_int_field(header, "count_bad", "labels header")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    bad = TripleSet.from_payload(payload, n)
    if bad.size != count_bad:
        raise ValueError("labels header count_bad does not match payload")
    return bad


@dataclass(frozen=True)
class CascadeResult:
    """Edges and vertices that exceed their badness thresholds."""

    bad_edges: frozenset[tuple[int, int]]
    bad_vertices: frozenset[int]


def cascade(bad: TripleSet, T: Thresholds) -> CascadeResult:
    """Extend triple badness to edges and vertices by exact counting.

    An edge is bad iff it lies in more than theta_edge bad triples; a
    vertex is bad iff it lies in more than theta_vertex bad edges.
    """
    edge_counts: dict[tuple[int, int], int] = {}
    for t in bad.triples():
        for e in face_edges(t):
            edge_counts[e] = edge_counts.get(e, 0) + 1
    bad_edges = frozenset(e for e, c in edge_counts.items() if c > T.theta_edge)
    vertex_counts: dict[int, int] = {}
    for a, b in bad_edges:
        vertex_counts[a] = vertex_counts.get(a, 0) + 1
        vertex_counts[b] = vertex_counts.get(b, 0) + 1
    bad_vertices = frozenset(v for v, c in vertex_counts.items() if c > T.theta_vertex)
    return CascadeResult(bad_edges=bad_edges, bad_vertices=bad_vertices)


def _has_good_cone(bad: TripleSet, t: tuple[int, int, int]) -> bool:
    """Some apex v outside t with all three cone triangles over t good."""
    x, y, z = t
    for v in range(bad.n):
        if v in t:
            continue
        if not (
            bad.contains((x, y, v)) or bad.contains((x, z, v)) or bad.contains((y, z, v))
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
            "thresholds": asdict(self.thresholds),
        }


def verify_shady(Y: Complex, bad: TripleSet, T: Thresholds) -> ShadyReport:
    """Check the bad side of a labeling: faces good, bad-triple budget, cone closure."""
    _require_dim2(Y)
    if Y.n != bad.n:
        raise ValueError(f"complex has n={Y.n} but labels have n={bad.n}")
    faces_good = not any(bad.contains(f) for f in Y.faces)
    within_budget = bad.size <= T.max_bad_triples
    cone_closed = all(not _has_good_cone(bad, t) for t in bad.triples())
    casc = cascade(bad, T)
    return ShadyReport(
        faces_all_good=faces_good,
        bad_count_within_budget=within_budget,
        cone_closed=cone_closed,
        bad_triples=bad.size,
        bad_edges=len(casc.bad_edges),
        bad_vertices=len(casc.bad_vertices),
        thresholds=T,
    )
