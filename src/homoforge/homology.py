"""First homology over Z and F_p, and homological shadows.

Both run in cycle coordinates cut at one vertex v: the rows of the
(d-1)-faces that avoid v. The cones over any vertex are a Z-basis of the
(d-1)-cycles, so any v gives the same answers; the cut takes the vertex in
the most d-faces (the lowest such label), because each face through v is a
lone unit there and the peel starts from those faces.

shadow returns a complexes.TripleSet; the CLI's shadow command writes its
to_bytes() as <out>.bits and {n, p, size, deficit} as <out>.json.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .complexes import (
    Complex,
    TripleSet,
    _require_dim2,
    _unrank_array,
    face_ranks,
    facet_ranks,
)
from .exact_linalg import (
    SparseIntMatrix,
    boundary_columns_dense,  # unused; perfbench's tracer wraps this binding
    boundary_matrix,
    check_prime,
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
        p = check_prime(p)
        return self.betti + sum(1 for t in self.torsion if t % p == 0)

    def ln_torsion_order(self) -> float:
        return sum(math.log(d) for d in self.torsion)


def betti1_mod_p(Y: Complex, p: int) -> int:
    """dim H_1(Y; F_p) = C(n,2) - (n-1) - rank_p(boundary)."""
    _require_dim2(Y)
    rank = rank_mod_p(boundary_matrix(Y), p)
    return math.comb(Y.n, 2) - (Y.n - 1) - rank


def _cycle_residual(n: int, d: int, faces: np.ndarray) -> tuple[int, np.ndarray, SparseIntMatrix]:
    """The lone-unit peel of the boundary of faces, an (m, d+1) array, cut at
    the vertex v in the most faces (the lowest such label).

    The cut keeps the rows of the (d-1)-faces that avoid v, each numbered by
    the colex rank of the face of [0, n-1) that u -> u - (u > v) makes of
    it; the relabeling keeps colex order, and the rows are C(n-1, d). Returns
    v, the peeled rows in that numbering, ascending, and the residual: the
    unpeeled columns in colex order, each mapping the live rows (avoiding v,
    unpeeled) of its face's boundary, the i-th of sign (-1)^i. A live row is
    numbered among the C(n-1, d) - len(peeled) unpeeled rows.

    A column is lone when it keeps one live row. Each round recounts the
    live rows of every column and peels every row that a lone column keeps
    from every column on it, until no column is lone: the synchronous rounds
    of parallel peeling (Jiang, Mitzenmacher and Thaler, 2014). A row that
    no face meets costs nothing. Every face through v keeps only its facet
    opposite v, so the first round peels from all of them; at the busiest
    vertex the residual of sample_fixed_size(30, 461, s) has about 50
    columns, against about 190 when cut at n-1. The state is vertex-major,
    (d+1, m) arrays, so each round counts, peels and masks along the long
    face axis, not across each face's d+1 entries (numpy's slow 2-D paths).
    The count's dtype must hold d+1: a uint8 count wraps 257 live rows to 1.
    """
    F = np.ascontiguousarray(faces.T)
    v = int(np.bincount(F.ravel(), minlength=n).argmax())
    at = F == v
    live = at | ~at.any(0)
    # the relabeled rows of a face through v repeat a vertex, so only its
    # live facet, the one opposite v, gets a true rank
    rows = np.ascontiguousarray(facet_ranks(n, faces - (faces > v)).T)
    rows, number = np.unique(rows[live], return_inverse=True)
    pos = np.zeros(live.shape, dtype=np.intp)
    pos[live] = number
    peeled = np.zeros(len(rows), dtype=bool)
    while (lone := (count := live.sum(0, dtype=np.min_scalar_type(d + 1))) == 1).any():
        peeled[pos[live & lone]] = True
        live &= ~peeled[pos]
    kept = np.flatnonzero(count > 1)
    kept = kept[np.lexsort(F[:, kept])]
    # the index of an unpeeled row among the unpeeled rows
    index = (rows - np.cumsum(peeled))[pos[:, kept].T]
    signs = [(-1) ** i for i in range(d + 1)]
    cols = zip(index.tolist(), live[:, kept].T.tolist())
    m = SparseIntMatrix(cycle_space_dim(n, d) - int(peeled.sum()), len(kept))
    m.columns = dict(enumerate({r: s for r, ok, s in zip(*c, signs) if ok} for c in cols))
    return v, rows[peeled], m


def homology_Z_faces(n: int, d: int, faces: np.ndarray) -> HomologySummary:
    """H_{d-1}(Y; Z) via Smith form, for Y on n vertices with full (d-1)-skeleton
    whose d-faces are faces, the distinct increasing rows of an integer array.

    The Smith form runs in cycle coordinates cut at a vertex v, for
    _cycle_residual the vertex in the most faces. The cones
    boundary(s + {v}), over the (d-1)-faces s that avoid v, are a Z-basis of
    the (d-1)-cycles for every v: a cycle z minus the sum of +-z_s times the
    cone of s is a cycle on the faces through v alone, and such a chain
    v * c has boundary c -+ v * boundary(c), which vanishes only for c = 0.
    So the cut to the C(n-1, d) rows that avoid v maps the cycles
    isomorphically onto Z^C(n-1, d) and the boundaries onto its column
    lattice; the cokernel is H_{d-1}, whichever v is cut. Every face through
    v is a lone +-1 there.

    _cycle_residual peels the lone units, each a unimodular step and an
    invariant factor 1, so betti = C(n-1, d) - peeled - rank(residual), the
    residual's rows less its rank, and the torsion is the residual's. As
    peeling a row only shrinks columns, the peeled rows are a closure, the
    same in every order (a row peeled in one order has its column's other
    rows peeled first, so by induction no order stops short of it).
    """
    residual = _cycle_residual(n, d, faces)[2]
    snf = smith_normal_form(residual)
    return HomologySummary(residual.rows - snf.rank, snf.torsion_factors())


def homology_Z(Y: Complex) -> HomologySummary:
    """H_{d-1}(Y; Z) of a complex with full (d-1)-skeleton: homology_Z_faces of Y.faces."""
    return homology_Z_faces(Y.n, Y.dim, Y.faces)


# ---------------------------------------------------------------------------
# shadows


_SHADOW_CHUNK = 4096


@functools.lru_cache(maxsize=4)
def _triple_facets(n: int) -> np.ndarray:
    """facet_ranks of all C(n,3) triples in colex order: columns bc, ac, ab.

    Built on first use for each n, cached and read-only, like colex_array.
    """
    facets = facet_ranks(n, Complex.full(n).faces)
    facets.setflags(write=False)
    return facets


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
    rank(residual) is their rank, it is their span. The cut vertex v is
    _cycle_residual's, the vertex in the most faces: any vertex gives the
    same span, and so the same bits. R has a row for every edge, in colex
    order: Q's rows go, in order, to the unpeeled edges that avoid v (the
    relabeling u -> u - (u > v) keeps their order), and every other row is
    zero. So R has betti1_mod_p(Y, p) columns, and the boundary
    of a < b < c lies in the span iff R[bc] - R[ac] + R[ab] vanishes mod p.
    Its entries lie in (-p, 2p), so that is 0 or p, and R takes the
    narrowest signed dtype that holds them: int8 for p < 64, int64 for
    p > 2^30. Each triple's edge ranks are its row of _triple_facets, the
    boundary builder's facet_ranks of all triples. Only the C(n,2) edge
    vectors are mapped, not the C(n,3) triples. A chunk gathers R's rows
    with take(.., 0) and reduces along its long triple axis, not across R's
    columns (about 18 at shadow_p3's size), to avoid numpy's slow 2-D paths.
    """
    _require_dim2(Y)
    n = Y.n
    v, peeled, residual = _cycle_residual(n, 2, Y.faces)
    Q = quotient_map_mod_p(residual, p)
    # the edges that avoid v, in the cut's order: the edges of [0, n-1) with
    # u -> u + (u >= v), the inverse of the relabeling
    cut = _unrank_array(np.arange(cycle_space_dim(n)), n, 2)
    free = np.delete(face_ranks(n, cut + (cut >= v)), peeled)
    R = np.zeros((math.comb(n, 2), Q.shape[1]), dtype=np.min_scalar_type(-2 * p))
    R[free] = Q
    facets = _triple_facets(n)
    member = np.empty(len(facets), dtype=bool)
    for start in range(0, len(facets), _SHADOW_CHUNK):
        bc, ac, ab = facets[start:start + _SHADOW_CHUNK].T
        image = R.take(bc, 0) - R.take(ac, 0) + R.take(ab, 0)
        ok = (image == 0) | (image == p)
        member[start:start + _SHADOW_CHUNK] = np.ascontiguousarray(ok.T).all(0)
    return TripleSet.from_mask(n, member)


def shadow_size_deficit(Y: Complex, p: int) -> int:
    """C(n,3) minus the shadow size; zero iff H_1(Y; F_p) = 0."""
    sh = shadow(Y, p)
    return sh.total - sh.size
