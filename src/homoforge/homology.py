"""First homology over Z and F_p, triviality tests, and homological shadows."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .complexes import (
    Complex,
    iter_set_bits,
    triangle_edge_ranks,
    uncovered_edges,
    unrank_triple,
)
from .exact_linalg import (
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

    The boundary matrix is used raw, without passing to cycle coordinates:
    the quotient of the (d-1)-chains by the kernel of their boundary is free,
    so C_{d-1}/im(boundary) splits as H_{d-1} plus a free group and the two
    have identical torsion. The Betti number comes from the rational rank,
    betti = C(n-1, d) - rank.
    """
    snf = smith_normal_form(boundary_matrix(Y))
    betti = cycle_space_dim(Y.n, Y.dim) - snf.rank
    return HomologySummary(betti=betti, torsion=snf.torsion_factors())


def is_H1_trivial_Z(Y: Complex) -> bool:
    """Whether H_1(Y; Z) = 0, cheapest-first.

    An uncovered edge forces a nontrivial class over every coefficient
    group, and a nonzero F_2 Betti number rules out triviality before any
    integer elimination is attempted.
    """
    if Y.dim != 2:
        raise ValueError("is_H1_trivial_Z requires a 2-dimensional complex")
    if uncovered_edges(Y):
        return False
    if betti1_mod_p(Y, 2) != 0:
        return False
    return homology_Z(Y).trivial


# ---------------------------------------------------------------------------
# shadows


class ShadowSet:
    """Membership bitset over triple ranks: the F_p-shadow of a complex.

    A triple belongs to the shadow iff adding it leaves H_1(.; F_p)
    unchanged, equivalently iff its boundary lies in the span of the
    boundary columns of the existing faces. Bit r of bits is set iff the
    triple of colex rank r is a member.
    """

    __slots__ = ("n", "p", "bits")

    def __init__(self, n: int, p: int, bits: int = 0):
        self.n = n
        self.p = p
        self.bits = bits

    @property
    def total(self) -> int:
        return math.comb(self.n, 3)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    @property
    def deficit(self) -> int:
        return self.total - self.size

    def contains_rank(self, r: int) -> bool:
        return bool(self.bits >> r & 1)

    def contains(self, t) -> bool:
        from .complexes import rank_triple

        return self.contains_rank(rank_triple(t, self.n))

    def member_ranks(self):
        return iter_set_bits(self.bits)

    def members(self):
        for r in self.member_ranks():
            yield unrank_triple(r, self.n)

    def summary_dict(self) -> dict:
        return {"n": self.n, "p": self.p, "size": self.size, "deficit": self.deficit}

    def to_bytes(self) -> bytes:
        """Length-prefixed bitset: 8-byte little-endian bit count, then payload."""
        nbits = self.total
        payload = self.bits.to_bytes((nbits + 7) // 8, "little")
        return nbits.to_bytes(8, "little") + payload

    @classmethod
    def from_bytes(cls, data: bytes, n: int, p: int) -> "ShadowSet":
        nbits = int.from_bytes(data[:8], "little")
        if nbits != math.comb(n, 3):
            raise ValueError(f"bitset length {nbits} does not match C({n},3)")
        bits = int.from_bytes(data[8 : 8 + (nbits + 7) // 8], "little")
        return cls(n, p, bits)

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path: str, n: int, p: int) -> "ShadowSet":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read(), n, p)

    def save_summary(self, path: str) -> None:
        with open(path, "w", newline="\n") as fh:
            json.dump(self.summary_dict(), fh, sort_keys=True)
            fh.write("\n")


_SHADOW_CHUNK = 4096


def shadow(Y: Complex, p: int) -> ShadowSet:
    """The F_p-shadow of Y over all C(n,3) triples.

    One sparse elimination of the boundary matrix B over F_p gives a
    quotient map Q with ker Q^T = col span of B (see quotient_map_mod_p):
    Q is the identity on the free rows, and each pivot row is filled in
    reverse pivot order, which suffices because a pivot column has entries
    only in its own row, later pivot rows and free rows. With R = Q^T, the
    boundary of a < b < c lies in the span iff
    R[:, bc] - R[:, ac] + R[:, ab] vanishes mod p. R has C(n,2) - rank rows,
    and only the C(n,2) edge vectors are mapped, not the C(n,3) triples.
    """
    if Y.dim != 2:
        raise ValueError("shadow requires a 2-dimensional complex")
    n = Y.n
    R = quotient_map_mod_p(boundary_matrix(Y), p).T
    total = math.comb(n, 3)
    # colex order lists, for each c, the C(c, 2) edges ab below c in colex order
    v = np.arange(n, dtype=np.int64)
    c = np.repeat(v, v * (v - 1) // 2)
    ab = np.arange(total, dtype=np.int64) - c * (c - 1) * (c - 2) // 6
    edge_b = np.repeat(v, v)
    edge_a = np.arange(edge_b.size, dtype=np.int64) - edge_b * (edge_b - 1) // 2
    bc, ac, ab = triangle_edge_ranks((edge_a[ab], edge_b[ab], c))
    bits = 0
    for start in range(0, total, _SHADOW_CHUNK):
        chunk = slice(start, start + _SHADOW_CHUNK)
        residual = R[:, bc[chunk]] - R[:, ac[chunk]] + R[:, ab[chunk]]
        residual %= p
        member = ~residual.any(axis=0)
        packed = np.packbits(member, bitorder="little").tobytes()
        bits |= int.from_bytes(packed, "little") << start
    return ShadowSet(n, p, bits)


def shadow_size_deficit(Y: Complex, p: int) -> int:
    """C(n,3) minus the shadow size; zero iff H_1(Y; F_p) = 0."""
    return shadow(Y, p).deficit
