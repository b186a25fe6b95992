"""Shared fixtures and independent oracles for the test suite.

The oracles here (Fraction-based elimination, brute-force mod-p rank,
shadow membership from sympy's GF(p) null space) deliberately avoid the
library's own linear algebra so they can catch it lying.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import pytest

from homoforge.complexes import Complex, edge_cover_counts, load_complex

DATA = Path(__file__).parent / "data"


def validate_closed_surface(Y: Complex, expected_euler: int) -> None:
    """Fixture sanity: every edge in exactly two faces, Euler characteristic right."""
    assert Y.dim == 2
    counts = edge_cover_counts(Y.n, Y.faces)
    assert (counts == 2).all(), "an edge is not in exactly 2 faces"
    euler = Y.n - math.comb(Y.n, 2) + len(Y.faces)
    assert euler == expected_euler


@pytest.fixture(scope="session")
def rp2() -> Complex:
    Y = load_complex(str(DATA / "rp2_n6.txt"))
    validate_closed_surface(Y, expected_euler=1)
    return Y


@pytest.fixture(scope="session")
def torus() -> Complex:
    Y = load_complex(str(DATA / "torus_n7.txt"))
    validate_closed_surface(Y, expected_euler=0)
    return Y


def rank_over_Q(dense: list[list[int]]) -> int:
    """Row-reduction rank over the rationals, exact via Fraction."""
    A = [[Fraction(x) for x in row] for row in dense]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, nrows) if A[r][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = 1 / A[rank][c]
        A[rank] = [x * inv for x in A[rank]]
        for r in range(nrows):
            if r != rank and A[r][c]:
                f = A[r][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[rank])]
        rank += 1
    return rank


def rank_mod_p_oracle(dense: list[list[int]], p: int) -> int:
    """Plain-python Gaussian elimination rank over F_p."""
    A = [[x % p for x in row] for row in dense]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, nrows) if A[r][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][c], -1, p)
        A[rank] = [x * inv % p for x in A[rank]]
        for r in range(rank + 1, nrows):
            if A[r][c]:
                f = A[r][c]
                A[r] = [(x - f * y) % p for x, y in zip(A[r], A[rank])]
        rank += 1
    return rank


def stream_faces(stream):
    """The faces left in a ProcessStream, one next() at a time, until it runs out."""
    return iter(lambda: next(stream, None), None)


def random_complex(n: int, faces_wanted: int, rng) -> Complex:
    """A complex with up to faces_wanted distinct random triangles."""
    from itertools import combinations

    all_faces = list(combinations(range(n), 3))
    picked = rng.sample(all_faces, min(faces_wanted, len(all_faces)))
    return Complex(n, 2, picked)


def shadow_oracle(Y: Complex, p: int) -> set[tuple[int, int, int]]:
    """The F_p-shadow of Y from sympy's null space over GF(p).

    With K a basis of the left null space of the boundary matrix, a
    triple lies in the shadow iff K annihilates its boundary.
    """
    from itertools import combinations

    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    from homoforge.exact_linalg import boundary_matrix

    K = GF(p)
    B = boundary_matrix(Y).to_dense()
    D = DomainMatrix([[K(x) for x in row] for row in B], (len(B), len(Y.faces)), K)
    left_null = [[int(x) % p for x in row] for row in D.transpose().nullspace().to_list()]

    def edge(x, y):
        return y * (y - 1) // 2 + x

    return {
        (a, b, c)
        for a, b, c in combinations(range(Y.n), 3)
        if all((k[edge(b, c)] - k[edge(a, c)] + k[edge(a, b)]) % p == 0 for k in left_null)
    }
