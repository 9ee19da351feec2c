"""DRAM / cache traffic model for the random accesses to ``x``.

SpMV's vector gather is the classic RANDOM ACCESS cost (Figure 2 of the
paper).  GPUs fetch DRAM in 32-byte sectors, so the cost of gathering
``x[ColIdx[j]]`` depends on how the column indices cluster:

* within a row, consecutive nonzeros often live in nearby columns — every
  distinct 32-byte sector a row touches is one fetch;
* across rows, sectors are reused through L2; how often depends on whether
  the active slice of ``x`` fits in L2.

``x_traffic_bytes`` turns both effects into an estimated DRAM byte count,
computed *exactly* from the matrix structure (per-row distinct sectors and
global distinct sectors) plus a capacity-miss factor.  The sector counts
are a linear pass, run once per CSR structure.
"""

from __future__ import annotations

import numpy as np

from .device import DeviceSpec

#: DRAM sector granularity on Ampere/Hopper.
SECTOR_BYTES = 32

#: L2 sectors served per SM per cycle for random gathers.  Even when x
#: fits in L2, every distinct sector a warp touches is one L2
#: transaction, and that throughput — not DRAM bytes — is what makes
#: RANDOM ACCESS ~25% of CSR SpMV time in the paper's Figure 2.
L2_SECTORS_PER_SM_CYCLE = 0.8


def sector_counts(csr, value_bytes: int) -> tuple[int, int]:
    """(per-row distinct sector fetches summed, globally distinct sectors).

    A "sector" is a 32-byte aligned span of ``x``; ``value_bytes`` is the
    size of one x element, so a sector holds ``32 // value_bytes``
    consecutive elements.

    One O(nnz) pass: with sectors ascending inside each row, a row's
    distinct sectors are its first entry plus every within-row sector
    change, and a boolean mark over ``max_sector + 1`` counts the global
    ones.  Column indices need not be sorted (``CSRMatrix.validate``
    does not require it): a row whose sectors descend anywhere sends
    the whole pass through one ``(row, sector)`` key sort first.
    """
    elems_per_sector = max(1, SECTOR_BYTES // value_bytes)
    if csr.nnz == 0:
        return 0, 0
    sectors = csr.indices // elems_per_sector
    indptr = csr.indptr
    starts = indptr[:-1][indptr[:-1] < indptr[1:]]   # nonempty rows
    within = _within_row_steps(sectors, starts)
    if within.min() < 0:
        rows = np.repeat(np.arange(csr.shape[0], dtype=np.int64),
                         csr.row_lengths())
        span = rows * (int(sectors.max()) + 1)
        keys = span + sectors
        keys.sort()
        sectors = keys - span
        within = _within_row_steps(sectors, starts)
    mark = np.zeros(int(sectors.max()) + 1, dtype=bool)
    mark[sectors] = True
    per_row = starts.size + np.count_nonzero(within)
    return int(per_row), int(np.count_nonzero(mark))


def _within_row_steps(sectors: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sector step to each entry from its predecessor, 0 at row starts.

    Has at least one element (a leading 0), so ``min()`` is defined.
    """
    steps = np.empty(sectors.size, dtype=np.int64)
    steps[0] = 0
    np.subtract(sectors[1:], sectors[:-1], out=steps[1:])
    steps[starts] = 0
    return steps


def cached_sector_counts(csr, value_bytes: int) -> tuple[int, int]:
    """:func:`sector_counts`, computed once per CSR structure.

    The counts depend only on ``indptr`` / ``indices``, so they live in
    :attr:`CSRMatrix.structure_memo <repro.formats.CSRMatrix.structure_memo>`:
    every cost query on a plan, on its value-patched versions and by the
    baselines over the same CSR pays the pass once.  Two threads missing
    together both run the pass and store equal tuples.
    """
    key = ("sector_counts", int(value_bytes))
    got = csr.structure_memo.get(key)
    if got is None:
        got = csr.structure_memo[key] = sector_counts(csr, value_bytes)
    return got


def x_traffic_bytes(csr, value_bytes: int, device: DeviceSpec,
                    *, bypass_l1: bool = False) -> float:
    """Estimated DRAM bytes fetched for ``x`` during one SpMV.

    Model: every *globally distinct* sector must come from DRAM at least
    once (compulsory misses).  Re-fetches of a sector by later rows hit L2
    when the touched slice of ``x`` fits there; otherwise they miss with
    probability proportional to the capacity overflow.  ``bypass_l1``
    models the paper's cache-bypass optimization (Section 3.3), which
    stops the streamed matrix data from evicting ``x`` — we credit it with
    a modestly lower capacity-miss rate.
    """
    from .device import get_device

    device = get_device(device)
    per_row, uniq = cached_sector_counts(csr, value_bytes)
    if uniq == 0:
        return 0.0
    touched_bytes = uniq * SECTOR_BYTES
    # Effective L2 available to x: matrix streaming pollutes the cache
    # unless the kernel bypasses it for streamed data.
    l2_share = 0.75 if bypass_l1 else 0.5
    capacity = device.l2_bytes * l2_share
    if touched_bytes <= capacity:
        miss_rate = 0.0
    else:
        miss_rate = 1.0 - capacity / touched_bytes
    refetches = max(per_row - uniq, 0)
    dram_bytes = (uniq + refetches * miss_rate) * SECTOR_BYTES
    # L2-hit gathers are not free: every distinct sector per row is one
    # L2 transaction.  Convert that transaction time into equivalent DRAM
    # bytes so one number drives the cost model.
    l2_rate = device.sms * device.clock_hz * L2_SECTORS_PER_SM_CYCLE
    equiv_bytes_per_sector = device.measured_bw / l2_rate
    gather_factor = 0.72 if bypass_l1 else 1.0
    return dram_bytes + per_row * equiv_bytes_per_sector * gather_factor


def rhs_block_traffic_factor(csr, value_bytes: int, k: int) -> float:
    """Gather-traffic scaling for a row-major ``(n, k)`` RHS block (SpMM).

    SpMV gathers scattered single elements: every distinct 32-byte sector
    a row touches moves a full sector however few useful elements it
    holds.  With ``k`` right-hand sides stored row-major, one column
    index addresses ``k`` *contiguous* values, so each former
    one-sector transaction becomes a dense burst of
    ``ceil(occupancy * k * value_bytes / 32)`` sectors, where
    ``occupancy`` is the average number of useful x elements the SpMV
    sector carried.  The factor therefore sits between ~``k * vb / 32``
    (fully scattered columns) and ``k`` (densely clustered columns) —
    never above the naive per-RHS rescan.
    """
    if k <= 1:
        return 1.0
    per_row, _ = cached_sector_counts(csr, value_bytes)
    if per_row == 0:
        return 1.0
    occupancy = csr.nnz / per_row
    burst_bytes = occupancy * k * value_bytes
    burst_sectors = -(-int(np.ceil(burst_bytes)) // SECTOR_BYTES)
    return float(min(k, max(1, burst_sectors)))


def effective_bandwidth(device: DeviceSpec, threads: int) -> float:
    """Achievable DRAM bandwidth (bytes/s) given the launched thread count.

    Small kernels cannot saturate HBM: bandwidth ramps with the number of
    outstanding threads until the device's latency-hiding capacity is
    reached.  The ramp floor (15%) reflects single-wave latency-bound
    transfers.
    """
    if threads <= 0:
        threads = 1
    # HBM saturates at roughly 16 resident warps per SM of memory
    # parallelism — far below the occupancy ceiling.
    saturation = device.sms * 16 * 32
    utilization = min(1.0, threads / saturation)
    ramp = 0.15 + 0.85 * utilization
    return device.measured_bw * ramp
