"""First homology over Z and F_p, triviality tests, and homological shadows.

shadow returns a complexes.TripleSet; the CLI's shadow command writes its
to_bytes() as <out>.bits and {n, p, size, deficit} as <out>.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import Complex, TripleSet, _require_dim2, triangle_edge_ranks, uncovered_edges
from .exact_linalg import (
    SparseIntMatrix,
    boundary_column,
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


def _peel_cycle_boundary(Y: Complex) -> tuple[set[int], list[tuple[int, ...]]]:
    """Peeled rows and the rows of the residual columns, in colex order.

    A face's rows (triangle_edge_ranks if d = 2, else boundary_column) have
    signs +, -, +, ... in turn; its live rows are those below C(n-1, d) (see
    homology_Z) not yet peeled. A column counts and XORs them, so at count 1
    the XOR names its row, which is peeled from every column on it; the
    columns left lone follow. Rows that no face meets cost nothing.
    """
    n, d, top, faces = Y.n, Y.dim, math.comb(Y.n - 1, Y.dim), list(Y.faces)
    face_rows = [
        triangle_edge_ranks(f) if d == 2 else tuple(boundary_column(f, n)) for f in faces
    ]
    count, xor = [], []
    on_row: dict[int, list[int]] = {}
    for c, rows in enumerate(face_rows):
        x = k = 0
        for r in rows:
            if r < top:
                x ^= r
                k += 1
                on_row.setdefault(r, []).append(c)
        count.append(k)
        xor.append(x)
    peeled = set()
    lone = [c for c, k in enumerate(count) if k == 1]
    while lone:
        c = lone.pop()
        if count[c] == 1:
            r = xor[c]
            peeled.add(r)
            for c2 in on_row[r]:
                k = count[c2] = count[c2] - 1
                xor[c2] ^= r
                if k == 1:
                    lone.append(c2)
    kept = sorted((c for c, k in enumerate(count) if k > 1), key=lambda c: faces[c][::-1])
    return peeled, [face_rows[c] for c in kept]


def _residual(columns: list[tuple[int, ...]], live_rows: list[int]) -> SparseIntMatrix:
    """The columns on live_rows, renumbered; a column's i-th row has sign (-1)^i."""
    index = {r: i for i, r in enumerate(live_rows)}
    signed = ({index[r]: (-1) ** i for i, r in enumerate(c) if r in index} for c in columns)
    m = SparseIntMatrix(len(live_rows), len(columns))
    m.columns = dict(enumerate(signed))
    return m


def homology_Z(Y: Complex) -> HomologySummary:
    """H_{d-1}(Y; Z) of a complex with full (d-1)-skeleton, via Smith form.

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
    peeled, columns = _peel_cycle_boundary(Y)
    top = cycle_space_dim(Y.n, Y.dim)
    live_rows = sorted({r for c in columns for r in c if r < top} - peeled)
    snf = smith_normal_form(_residual(columns, live_rows))
    return HomologySummary(top - len(peeled) - snf.rank, snf.torsion_factors())


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

    Membership is tested in cycle coordinates (see homology_Z), an
    isomorphism of the 1-cycles onto Z^C(n-1, 2) and so injective on cycles
    over every F_p: a triple boundary lies in the span iff its cut does.
    quotient_map_mod_p of the residual, on every live row, gives Q there
    with ker Q^T = its column span; a peeled row gets a zero row, as a lone
    pivot gives it. Off the peeled rows a cut column is a residual column
    or zero, so ker Q^T holds every cut column, and as peeled +
    rank(residual) is their rank, it is their span. By the closure of
    homology_Z, eliminating the whole cut matrix gives this same Q. R is
    Q^T with zero columns for the edges through n-1, so it has
    betti1_mod_p(Y, p) rows, and the boundary of a < b < c lies in the
    span iff R[:, bc] - R[:, ac] + R[:, ab] vanishes mod p. Only the
    C(n,2) edge vectors are mapped, not the C(n,3) triples.
    """
    _require_dim2(Y)
    n = Y.n
    peeled, columns = _peel_cycle_boundary(Y)
    live_rows = [r for r in range(math.comb(n - 1, 2)) if r not in peeled]
    Q = quotient_map_mod_p(_residual(columns, live_rows), p)
    R = np.zeros((Q.shape[1], math.comb(n, 2)), dtype=np.int64)
    R[:, live_rows] = Q.T
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
        residual = R[:, bc[chunk]] - R[:, ac[chunk]] + R[:, ab[chunk]]
        residual %= p
        member[chunk] = ~residual.any(axis=0)
    return TripleSet.from_mask(n, member)


def shadow_size_deficit(Y: Complex, p: int) -> int:
    """C(n,3) minus the shadow size; zero iff H_1(Y; F_p) = 0."""
    sh = shadow(Y, p)
    return sh.total - sh.size
