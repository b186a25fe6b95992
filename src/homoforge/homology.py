"""First homology over Z and F_p, triviality tests, and homological shadows.

shadow returns a complexes.TripleSet; the CLI's shadow command writes its
to_bytes() as <out>.bits and {n, p, size, deficit} as <out>.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import Complex, TripleSet, triangle_edge_ranks, uncovered_edges
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
    if Y.dim != 2:
        raise ValueError("betti1_mod_p requires a 2-dimensional complex")
    rank = rank_mod_p(boundary_matrix(Y), p)
    return math.comb(Y.n, 2) - (Y.n - 1) - rank


def homology_Z(Y: Complex) -> HomologySummary:
    """H_{d-1}(Y; Z) of a complex with full (d-1)-skeleton, via Smith form.

    The Smith form runs in cycle coordinates, on _cycle_boundary(Y), by the
    cone-basis argument of shadow in any d. The cones boundary(s + {n-1}),
    over the (d-1)-faces s that avoid vertex n-1, are a Z-basis of the
    (d-1)-cycles: a cycle z minus the sum of z_s times the cone of s is a
    cycle on the faces through n-1 alone, and such a chain n-1 * c has
    boundary c -+ n-1 * boundary(c), which vanishes only for c = 0. So a
    cycle's coordinates are its entries on the rows below C(n-1, d), and
    the cut maps the cycles isomorphically onto Z^C(n-1, d) and the
    boundaries onto its column lattice. Its cokernel is exactly H_{d-1}:
    betti = C(n-1, d) - rank, and the torsion is that of the Smith form.
    Every face through n-1 is a lone +-1 there, which the unit-pivot
    elimination peels first and without fill-in.
    """
    snf = smith_normal_form(_cycle_boundary(Y))
    betti = cycle_space_dim(Y.n, Y.dim) - snf.rank
    return HomologySummary(betti=betti, torsion=snf.torsion_factors())


def is_H1_trivial_Z(Y: Complex) -> bool:
    """Whether H_1(Y; Z) = 0.

    An uncovered edge forces a nontrivial class over every coefficient
    group, so that count decides first; otherwise one Smith form does.
    """
    if Y.dim != 2:
        raise ValueError("is_H1_trivial_Z requires a 2-dimensional complex")
    if uncovered_edges(Y):
        return False
    return homology_Z(Y).trivial


# ---------------------------------------------------------------------------
# shadows


_SHADOW_CHUNK = 4096


def _cycle_boundary(Y: Complex) -> SparseIntMatrix:
    """boundary_matrix(Y) on the rows below C(n-1, d): the (d-1)-faces that
    avoid vertex n-1, which give a cycle's coordinates in the cone basis
    (see shadow). A face keeps at least its facet without its top vertex;
    a face through n-1 keeps only that facet, a lone +-1.
    """
    B = boundary_matrix(Y)
    B.rows = math.comb(Y.n - 1, Y.dim)
    # columns are in colex order, so those of the faces through n-1 come last
    for col in reversed(B.columns.values()):
        if max(col) < B.rows:
            break
        for r in [r for r in col if r >= B.rows]:
            del col[r]
    return B


def shadow(Y: Complex, p: int) -> TripleSet:
    """The F_p-shadow of Y over all C(n,3) triples.

    A triple belongs to the shadow iff adding it leaves H_1(.; F_p)
    unchanged, equivalently iff its boundary lies in the span of the
    boundary columns of the existing faces.

    Membership is tested in cycle coordinates. Every boundary column and
    every triple boundary is a 1-cycle of the full 1-skeleton. The cones
    boundary(a, b, n-1), over the edges ab that avoid vertex n-1, are a
    Z-basis of those cycles: a cycle z minus the sum of z_ab times the cone
    of ab has no entry off the star of n-1, a tree, so it is zero. A cycle's
    coordinates in that basis are thus its entries on the rows below
    C(n-1, 2), so restricting to those rows is injective on cycles over
    every F_p, and a triple boundary lies in the span of the boundary
    columns iff its restriction lies in the span of theirs. The n-1 vertex
    coboundaries, which vanish on every cycle, drop out of the quotient.

    One sparse elimination of the restricted matrix B over F_p gives a
    quotient map Q with ker Q^T = col span of B (see quotient_map_mod_p).
    R is Q^T padded with zero columns for the edges through n-1, so it has
    betti1_mod_p(Y, p) rows, and the boundary of a < b < c lies in the
    span iff R[:, bc] - R[:, ac] + R[:, ab] vanishes mod p. Only the C(n,2)
    edge vectors are mapped, not the C(n,3) triples.
    """
    if Y.dim != 2:
        raise ValueError("shadow requires a 2-dimensional complex")
    n = Y.n
    Q = quotient_map_mod_p(_cycle_boundary(Y), p)
    R = np.zeros((Q.shape[1], math.comb(n, 2)), dtype=np.int64)
    R[:, : Q.shape[0]] = Q.T
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
