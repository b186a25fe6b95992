"""First homology over Z and F_p, triviality tests, and homological shadows.

shadow returns a complexes.TripleSet; the CLI's shadow command writes its
to_bytes() as <out>.bits and {n, p, size, deficit} as <out>.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import Complex, TripleSet, _require_dim2, colex_array
from .complexes import triangle_edge_ranks, uncovered_edges
from .exact_linalg import (
    SparseIntMatrix,
    boundary_columns_dense,  # unused; perfbench's tracer wraps this binding
    boundary_matrix,
    quotient_map_mod_p,
    rank_mod_p,
    smith_normal_form,
)


def cycle_space_dim(n: int, d: int = 2) -> int:
    """Dimension of the (d-1)-cycle space of the full (d-1)-skeleton: C(n-1, d)."""
    return math.comb(n - 1, d)


@dataclass(frozen=True)
class HomologySummary:
    """Rank and torsion of a first (or (d-1)-st) homology group over Z."""

    betti: int
    torsion: tuple[int, ...]  # invariant factors > 1, divisibility-ordered

    @property
    def trivial(self) -> bool:
        return self.betti == 0 and not self.torsion

    def betti_mod(self, p: int) -> int:
        """dim H_{d-1}(Y; F_p) for a prime p: betti + #{factors divisible by p}.

        Universal coefficients, since H_{d-2} of a full skeleton is free.
        """
        return self.betti + sum(1 for t in self.torsion if t % p == 0)

    def ln_torsion_order(self) -> float:
        return sum(math.log(d) for d in self.torsion)


def betti1_mod_p(Y: Complex, p: int) -> int:
    """dim H_1(Y; F_p) = C(n,2) - (n-1) - rank_p(boundary)."""
    _require_dim2(Y)
    rank = rank_mod_p(boundary_matrix(Y), p)
    return math.comb(Y.n, 2) - (Y.n - 1) - rank


def _peel_cycle_boundary(n: int, d: int, faces: np.ndarray) -> tuple[np.ndarray, ...]:
    """The lone-unit peel of the cut boundary of faces, an (m, d+1) array.

    Returns (rows, peeled, pos, live): the rows below C(n-1, d) that the faces
    meet, ascending, and a mask of the peeled ones; then, per residual column
    in colex order, the index in rows of each boundary row of its face, the
    i-th of sign (-1)^i, and a mask of its live rows (below C(n-1, d), unpeeled).

    A column counts and XORs the indices of its live rows, so at count 1 the
    XOR names its row. Each round peels every row that a lone column names
    from every column on it, until no column is lone: the synchronous rounds of
    parallel peeling (Jiang, Mitzenmacher and Thaler, 2014). A row that no
    face meets costs nothing.
    """
    if d == 2:
        rows = np.stack(triangle_edge_ranks(faces.T), 1)
    else:  # boundary_column: C(v_j, j+1) before the dropped vertex, C(v_j, j) after
        table, j = colex_array(n, d), np.arange(1, d + 1)
        kept, moved = table[j, faces[:, :-1]], table[j, faces[:, 1:]]
        zero = np.zeros((len(faces), 1), dtype=table.dtype)
        rows = np.cumsum(np.hstack((zero, kept)), 1)
        rows += np.cumsum(np.hstack((moved, zero))[:, ::-1], 1)[:, ::-1]
    live = rows < cycle_space_dim(n, d)
    rows, number = np.unique(rows[live], return_inverse=True)
    pos = np.zeros(live.shape, dtype=np.intp)
    pos[live] = number
    count = live.sum(1)
    xor = np.bitwise_xor.reduce(pos, 1)
    peeled = np.zeros(len(rows), dtype=bool)
    while (lone := count == 1).any():
        newly = np.zeros(len(rows), dtype=bool)
        newly[xor[lone]] = True
        peeled |= newly
        hit = newly[pos] & live
        live ^= hit
        count -= hit.sum(1)
        xor ^= np.bitwise_xor.reduce(np.where(hit, pos, 0), 1)
    kept = np.flatnonzero(count > 1)
    kept = kept[np.lexsort(faces[kept].T)]
    return rows, peeled, pos[kept], live[kept]


def _residual(pos, live, index, nrows: int) -> SparseIntMatrix:
    """The residual columns of a peel's (pos, live) on nrows rows, renumbered by index[pos]."""
    signs = [(-1) ** i for i in range(pos.shape[1])]
    cols = zip(index[pos].tolist(), live.tolist())
    m = SparseIntMatrix(nrows, len(pos))
    m.columns = dict(enumerate({r: s for r, ok, s in zip(*c, signs) if ok} for c in cols))
    return m


def homology_Z_faces(n: int, d: int, faces: np.ndarray) -> HomologySummary:
    """H_{d-1}(Y; Z) via Smith form, for Y on n vertices with full (d-1)-skeleton
    whose d-faces are faces, the distinct increasing rows of an integer array.

    The Smith form runs in cycle coordinates. The cones boundary(s + {n-1}),
    over the (d-1)-faces s that avoid vertex n-1, are a Z-basis of the
    (d-1)-cycles: a cycle z minus the sum of z_s times the cone of s is a
    cycle on the faces through n-1 alone, and such a chain n-1 * c has
    boundary c -+ n-1 * boundary(c), which vanishes only for c = 0. So the
    cut to the rows below C(n-1, d) maps the cycles isomorphically onto
    Z^C(n-1, d) and the boundaries onto its column lattice; the cokernel is
    H_{d-1}. Every face through n-1 is a lone +-1 there.

    _peel_cycle_boundary peels the lone units, each a unimodular step and an
    invariant factor 1, so betti = C(n-1, d) - peeled - rank(residual) and
    the torsion is the residual's, on the live rows its columns meet. As
    peeling a row only shrinks columns, the peeled rows are a closure, the
    same in every order (a row peeled in one order has its column's other
    rows peeled first, so by induction no order stops short of it). So the
    residual is what the unit-pivot kernel leaves of the whole cut matrix
    once its lone stack is empty, before its first sweep column: the same
    columns and entries in the same order, less zero rows: the sweeps agree.
    """
    rows, peeled, pos, live = _peel_cycle_boundary(n, d, faces)
    met = np.bincount(pos[live], minlength=len(rows)) > 0
    snf = smith_normal_form(_residual(pos, live, np.cumsum(met) - 1, int(met.sum())))
    betti = cycle_space_dim(n, d) - int(peeled.sum()) - snf.rank
    return HomologySummary(betti, snf.torsion_factors())


def homology_Z(Y: Complex) -> HomologySummary:
    """H_{d-1}(Y; Z) of a complex with full (d-1)-skeleton (homology_Z_faces)."""
    return homology_Z_faces(Y.n, Y.dim, Y.face_array())


def is_H1_trivial_Z(Y: Complex) -> bool:
    """Whether H_1(Y; Z) = 0.

    An uncovered edge forces a nontrivial class over every coefficient
    group, so that count decides first; otherwise one Smith form does.
    """
    if uncovered_edges(Y):
        return False
    return homology_Z(Y).trivial


# ---------------------------------------------------------------------------
# shadows


_SHADOW_CHUNK = 4096


def shadow(Y: Complex, p: int) -> TripleSet:
    """The F_p-shadow of Y over all C(n,3) triples.

    A triple belongs to the shadow iff adding it leaves H_1(.; F_p)
    unchanged, equivalently iff its boundary lies in the span of the
    boundary columns of the existing faces.

    Membership is tested in cycle coordinates (see homology_Z_faces), an
    isomorphism of the 1-cycles onto Z^C(n-1, 2) and so injective on cycles
    over every F_p: a triple boundary lies in the span iff its cut does.
    quotient_map_mod_p of the residual, on every live row, gives Q there
    with ker Q^T = its column span; a peeled row gets a zero row, as a lone
    pivot gives it. Off the peeled rows a cut column is a residual column
    or zero, so ker Q^T holds every cut column, and as peeled +
    rank(residual) is their rank, it is their span. By the closure of
    homology_Z_faces, eliminating the whole cut matrix gives this same Q.
    R is Q with zero rows for the edges through n-1, so it has
    betti1_mod_p(Y, p) columns, and the boundary of a < b < c lies in the
    span iff R[bc] - R[ac] + R[ab] vanishes mod p. Its entries lie in
    (-p, 2p), so that is 0 or p. Only the C(n,2) edge vectors are mapped,
    not the C(n,3) triples.
    """
    _require_dim2(Y)
    n = Y.n
    rows, peeled, pos, live = _peel_cycle_boundary(n, 2, Y.face_array())
    # the index of an unpeeled row among the unpeeled rows below C(n-1, 2)
    index = rows - np.cumsum(peeled)
    top = cycle_space_dim(n)
    Q = quotient_map_mod_p(_residual(pos, live, index, top - int(peeled.sum())), p)
    free = np.arange(math.comb(n, 2)) < top
    free[rows[peeled]] = False
    R = np.zeros((len(free), Q.shape[1]), dtype=np.int64)
    R[free] = Q
    total = math.comb(n, 3)
    # colex order lists, for each c, the C(c, 2) edges ab below c in colex order
    v = np.arange(n, dtype=np.int64)
    c = np.repeat(v, v * (v - 1) // 2)
    ab = np.arange(total, dtype=np.int64) - c * (c - 1) * (c - 2) // 6
    edge_b = np.repeat(v, v)
    edge_a = np.arange(edge_b.size, dtype=np.int64) - edge_b * (edge_b - 1) // 2
    bc, ac, ab = triangle_edge_ranks((edge_a[ab], edge_b[ab], c))
    member = np.empty(total, dtype=bool)
    for start in range(0, total, _SHADOW_CHUNK):
        chunk = slice(start, start + _SHADOW_CHUNK)
        residual = R[bc[chunk]] - R[ac[chunk]] + R[ab[chunk]]
        member[chunk] = ((residual == 0) | (residual == p)).all(1)
    return TripleSet.from_mask(n, member)


def shadow_size_deficit(Y: Complex, p: int) -> int:
    """C(n,3) minus the shadow size; zero iff H_1(Y; F_p) = 0."""
    sh = shadow(Y, p)
    return sh.total - sh.size
