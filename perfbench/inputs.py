"""Seeded benchmark inputs: the representative suite, vectors, SPD systems.

The 21 matrices are drawn from the same generator families and parameters
as ``repro.matrices.representative_suite`` (paper Table 2), with each
entry's generator seed offset by the benchmark seed.  Seed 0 reproduces
the suite exactly (``selftest.py`` checks that), other seeds give fresh
matrices with the same row-length profile, so every benchmark seed sees
different inputs of the same shape class.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats import CSRMatrix
from repro.matrices import generators

#: Seed offset between consecutive benchmark seeds.  Larger than the
#: spread of the suite's own base seeds (101..121), so no two
#: (entry, seed) pairs share a generator seed.
SEED_STRIDE = 1000

#: name -> (generator, positional args, keyword args, base seed); the
#: parameters of ``repro/matrices/suite.py``.
SUITE = {
    "pwtk": ("fem_blocked", (12000, 53), {"block": 3}, 101),
    "FullChip": ("circuit", (30000, 8.9),
                 {"n_dense_rows": 4, "dense_frac": 0.25}, 102),
    "mip1": ("dense_row_block", (6000,),
             {"dense_rows": 60, "dense_len": 4000, "base_len": 120}, 103),
    "mc2depi": ("grid2d", (200, 200), {"drop": 0.02, "diagonal": False}, 104),
    "webbase-1M": ("power_law", (50000, 3.1),
                   {"alpha": 1.6, "locality": 0.3}, 105),
    "circuit5M": ("circuit", (50000, 10.7),
                  {"n_dense_rows": 6, "dense_frac": 0.2}, 106),
    "Si41Ge41H72": ("quantum_chem", (9000, 81), {"tail": 0.95}, 107),
    "Ga41As41H72": ("quantum_chem", (10000, 69), {"tail": 1.05}, 108),
    "in-2004": ("power_law", (30000, 12.2),
                {"alpha": 1.7, "locality": 0.6}, 109),
    "eu-2005": ("power_law", (25000, 22.3),
                {"alpha": 1.8, "locality": 0.6}, 110),
    "shipsec1": ("fem_blocked", (10000, 55), {"block": 3}, 111),
    "mac_econ_fwd500": ("uniform_random", (20000, 20000, 6.2), {}, 112),
    "scircuit": ("circuit", (17000, 5.6),
                 {"n_dense_rows": 2, "dense_frac": 0.02}, 113),
    "pdb1HYS": ("fem_blocked", (4000, 119), {"block": 3}, 114),
    "consph": ("fem_blocked", (6000, 72), {"block": 3}, 115),
    "cant": ("fem_blocked", (6200, 64), {"block": 3}, 116),
    "cop20k_A": ("fem_blocked", (12000, 26),
                 {"block": 3, "empty_rows": 2100}, 117),
    "dc2": ("circuit", (25000, 6.0),
            {"n_dense_rows": 3, "dense_frac": 0.35}, 118),
    "rma10": ("fem_blocked", (4700, 50), {"block": 3}, 119),
    "conf5_4-8x8-10": ("qcd_regular", (4900, 39), {}, 120),
    "ASIC_680k": ("circuit", (34000, 5.6),
                  {"n_dense_rows": 4, "dense_frac": 0.5}, 121),
}


def suite_matrix(name: str, seed: int) -> CSRMatrix:
    """FP64 CSR of suite entry *name* drawn for benchmark seed *seed*."""
    family, args, kwargs, base = SUITE[name]
    gen = getattr(generators, family)
    return gen(*args, **kwargs, seed=base + SEED_STRIDE * seed)


def vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Dense FP64 right-hand side with entries uniform in [-1, 1)."""
    return rng.uniform(-1.0, 1.0, n)


def to_scipy(csr) -> sp.csr_matrix:
    """The reference operator: the same CSR arrays, as scipy sees them."""
    return sp.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)


#: Diagonal dominance margin of the CG systems.
SPD_MARGIN = 0.05


def spd_system(csr) -> CSRMatrix:
    """``A + A^T`` with a diagonal ``1 + SPD_MARGIN`` times each row's
    off-diagonal absolute sum (plus one): symmetric, strictly diagonally
    dominant with a positive diagonal, hence SPD."""
    a = to_scipy(csr)
    s = (a + a.T).tocsr()
    s.setdiag(0.0)
    s.eliminate_zeros()
    d = (1.0 + SPD_MARGIN) * np.asarray(abs(s).sum(axis=1)).ravel() + 1.0
    s = (s + sp.diags(d)).tocsr()
    s.sum_duplicates()
    s.sort_indices()
    return CSRMatrix.from_scipy(s)
