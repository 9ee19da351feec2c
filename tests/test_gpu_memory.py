"""Tests for the x-gather traffic / bandwidth-ramp model."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.formats import CSRMatrix
from repro.gpu import A100, effective_bandwidth, sector_counts, x_traffic_bytes
from repro.matrices import representative_suite
from tests.conftest import random_csr


def csr_with_cols(cols_per_row, n):
    """Build a CSR matrix with explicit column lists per row."""
    indptr = np.cumsum([0] + [len(c) for c in cols_per_row])
    indices = np.concatenate([np.asarray(c, dtype=np.int64) for c in cols_per_row]) \
        if indptr[-1] else np.zeros(0, np.int64)
    return CSRMatrix((len(cols_per_row), n), indptr, indices,
                     np.ones(int(indptr[-1])))


class TestSectorCounts:
    def test_dense_row_one_sector_fp64(self):
        # 4 consecutive FP64 columns share one 32-byte sector
        csr = csr_with_cols([[0, 1, 2, 3]], 8)
        per_row, uniq = sector_counts(csr, 8)
        assert per_row == 1 and uniq == 1

    def test_scattered_row(self):
        csr = csr_with_cols([[0, 4, 8, 12]], 16)
        per_row, uniq = sector_counts(csr, 8)
        assert per_row == 4 and uniq == 4

    def test_fp16_wider_sectors(self):
        # 16 consecutive FP16 values share one sector
        csr = csr_with_cols([list(range(16))], 32)
        per_row, uniq = sector_counts(csr, 2)
        assert per_row == 1

    def test_cross_row_reuse_counted_once_globally(self):
        csr = csr_with_cols([[0], [0], [0]], 4)
        per_row, uniq = sector_counts(csr, 8)
        assert per_row == 3 and uniq == 1

    def test_empty(self):
        assert sector_counts(CSRMatrix.empty((3, 3)), 8) == (0, 0)


def unique_sector_counts(csr, value_bytes):
    """Reference: the counts by hashing (row, sector) keys with np.unique."""
    elems_per_sector = max(1, 32 // value_bytes)
    if csr.nnz == 0:
        return 0, 0
    sectors = csr.indices.astype(np.int64) // elems_per_sector
    rows = np.repeat(np.arange(csr.shape[0], dtype=np.int64), csr.row_lengths())
    keys = rows * (int(sectors.max()) + 2) + sectors
    return int(np.unique(keys).size), int(np.unique(sectors).size)


@st.composite
def structures(draw):
    """CSR structures with empty rows, duplicate and unsorted columns,
    nnz = 0, a single row and rectangular shapes."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 300))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=40),
                         min_size=m, max_size=m))
    if draw(st.booleans()):
        rows = [sorted(r) for r in rows]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.asarray([c for r in rows for c in r], dtype=np.int64)
    return CSRMatrix((m, n), indptr, indices, np.ones(indices.size))


class TestSectorCountsDifferential:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(structures(), st.sampled_from([2, 4, 8]))
    def test_matches_unique_reference(self, csr, vb):
        assert sector_counts(csr, vb) == unique_sector_counts(csr, vb)

    def test_unsorted_row_among_sorted(self):
        csr = csr_with_cols([[0, 4, 8], [9, 1, 9, 0], [], [2, 3]], 12)
        assert sector_counts(csr, 8) == unique_sector_counts(csr, 8) == (6, 3)

    def test_representative_suite_exact(self):
        for entry in representative_suite():
            csr = entry.matrix()
            for vb in (2, 4, 8):
                assert sector_counts(csr, vb) == \
                    unique_sector_counts(csr, vb), (entry.name, vb)


class TestXTraffic:
    def test_zero_for_empty(self):
        assert x_traffic_bytes(CSRMatrix.empty((3, 3)), 8, A100) == 0.0

    def test_reuse_cheaper_than_scatter(self, rng):
        dense_cols = csr_with_cols([[0, 1, 2, 3]] * 64, 8)
        scattered = csr_with_cols(
            [[int(c) for c in rng.choice(4096, 4, replace=False)]
             for _ in range(64)], 4096)
        assert x_traffic_bytes(dense_cols, 8, A100) < x_traffic_bytes(scattered, 8, A100)

    def test_bypass_reduces_traffic(self, rng):
        csr = random_csr(200, 5000, rng)
        with_bypass = x_traffic_bytes(csr, 8, A100, bypass_l1=True)
        without = x_traffic_bytes(csr, 8, A100, bypass_l1=False)
        assert with_bypass <= without

    def test_monotone_in_nnz(self, rng):
        small = random_csr(50, 1000, rng)
        big = random_csr(500, 1000, rng)
        if big.nnz > small.nnz * 2:
            assert x_traffic_bytes(big, 8, A100) > x_traffic_bytes(small, 8, A100)

    def test_accepts_device_name(self, rng):
        csr = random_csr(10, 10, rng)
        assert x_traffic_bytes(csr, 8, "A100") == x_traffic_bytes(csr, 8, A100)


class TestEffectiveBandwidth:
    def test_ramp_floor(self):
        assert effective_bandwidth(A100, 1) >= 0.14 * A100.measured_bw

    def test_saturates(self):
        assert effective_bandwidth(A100, 10_000_000) == pytest.approx(A100.measured_bw)

    def test_monotone(self):
        bws = [effective_bandwidth(A100, t) for t in (10, 1000, 50_000, 500_000)]
        assert bws == sorted(bws)

    def test_zero_threads_safe(self):
        assert effective_bandwidth(A100, 0) > 0
