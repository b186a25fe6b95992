"""Layer micro-benchmarks on frozen inputs.

The inputs do not depend on --seed: one n=40 process prefix of 2,000 faces
(seed 40) and the first criterion-7 matrix (uncovered_rank, n=30,
p = 2 ln n / n, seed 7000). Each benchmark is repeated while its share of
the budget lasts, at least once, and reports the median seconds of one
whole operation.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from homoforge.complexes import Complex, ProcessStream, sample_binomial
from homoforge.exact_linalg import (
    EchelonBasis,
    boundary_columns_dense,
    boundary_matrix,
    rank_mod_p,
    smith_normal_form,
)

PREFIX_N, PREFIX_SEED, PREFIX_FACES = 40, 40, 2000
SNF_N, SNF_SEED = 30, 7000
MAX_REPEATS = 15


def _inserts(vectors, p: int, nrows: int) -> int:
    basis = EchelonBasis(p, nrows)
    for v in vectors:
        basis.insert(v)
    return basis.rank


def benchmarks() -> dict:
    """Metric name -> zero-argument callable, inputs built once up front."""
    faces = ProcessStream(PREFIX_N, PREFIX_SEED).take(PREFIX_FACES)
    prefix = Complex(PREFIX_N, 2, faces)
    prefix_matrix = boundary_matrix(prefix)
    nrows = math.comb(PREFIX_N, 2)
    vectors = list(np.ascontiguousarray(boundary_columns_dense(faces, PREFIX_N, 2).T))
    snf_matrix = boundary_matrix(
        sample_binomial(SNF_N, 2.0 * math.log(SNF_N) / SNF_N, SNF_SEED))
    return {
        "complexes.stream.take.micro":
            lambda: ProcessStream(PREFIX_N, PREFIX_SEED).take(PREFIX_FACES),
        "exact_linalg.boundary.micro": lambda: boundary_matrix(prefix),
        "exact_linalg.rank_mod_p.micro": lambda: rank_mod_p(prefix_matrix, 2),
        "exact_linalg.echelon.insert_p2.micro": lambda: _inserts(vectors, 2, nrows),
        "exact_linalg.echelon.insert_p3.micro": lambda: _inserts(vectors, 3, nrows),
        "exact_linalg.snf.micro": lambda: smith_normal_form(snf_matrix),
    }


def run(budget_s: float) -> dict:
    benches = benchmarks()
    share = budget_s / len(benches)
    out = {}
    for name, fn in benches.items():
        times: list[float] = []
        while not times or (sum(times) < share and len(times) < MAX_REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out[name] = {"value": statistics.median(times), "unit": "s"}
    return out
