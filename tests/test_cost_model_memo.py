"""Lifetime of the cost model's structure-only memos.

Two memos keep the x-traffic model off the per-batch path:

* sector counts live in ``CSRMatrix.structure_memo``, shared by every
  value-only copy (``CSRMatrix.with_data``);
* ``DASPMethod().events(plan, device)`` lives on the plan.

Value patches keep the structure and must reuse the memo; structural
patches, compactions and ``.daspz`` loads must get counts equal to a
fresh build of the same CSR.  Modeled times must not move by a bit.
"""

import sys
import threading

import numpy as np
import pytest

import repro.gpu.memory as memory
import repro.serve.server as server_mod
from repro.baselines import all_method_names, make_method
from repro.core import (
    DASPMatrix,
    DASPMethod,
    apply_structural_update,
    apply_value_update,
    clone_for_patch,
    compact_plan,
    random_delta,
    spmm_events,
)
from repro.formats import CSRMatrix
from repro.gpu import A100, get_device, x_traffic_bytes
from repro.gpu.memory import cached_sector_counts, rhs_block_traffic_factor
from repro.serve import SpMVRequest, SpMVServer
from repro.serve.driver import ReplicaSim, WorkloadConfig
from repro.serve.plan_cache import matrix_fingerprint
from repro.store import load_artifact, save_artifact

from .conftest import ROW_PROFILES, random_csr
from .test_delta_versioning import evolve

VB = 8


@pytest.fixture
def matrix(rng):
    return random_csr(90, 500, rng, row_len_sampler=ROW_PROFILES["mixed"])


@pytest.fixture
def count_calls(monkeypatch):
    """Counts every uncached :func:`sector_counts` pass."""
    calls = []
    real = memory.sector_counts

    def counting(csr, value_bytes):
        calls.append(value_bytes)
        return real(csr, value_bytes)

    monkeypatch.setattr(memory, "sector_counts", counting)
    return calls


def copied(csr) -> CSRMatrix:
    """Same matrix over freshly allocated arrays (a cold memo)."""
    return CSRMatrix(csr.shape, csr.indptr.copy(), csr.indices.copy(),
                     csr.data.copy())


def assert_counts_match_fresh(plan):
    fresh = DASPMatrix.from_csr(copied(plan.csr))
    for vb in (2, 4, 8):
        assert cached_sector_counts(plan.csr, vb) == \
            memory.sector_counts(fresh.csr, vb)
    assert x_traffic_bytes(plan.csr, VB, A100, bypass_l1=True) == \
        x_traffic_bytes(fresh.csr, VB, A100, bypass_l1=True)
    for k in (2, 8):
        assert rhs_block_traffic_factor(plan.csr, VB, k) == \
            rhs_block_traffic_factor(fresh.csr, VB, k)


class TestStructureMemo:
    def test_lazy_not_built_by_from_csr(self, matrix, count_calls):
        plan = DASPMatrix.from_csr(copied(matrix))
        assert plan._events == {}
        assert plan.csr.structure_memo == {}
        assert count_calls == []
        spmm_events(plan, A100, 4)
        assert count_calls == [VB]

    def test_one_pass_per_structure(self, matrix, count_calls):
        plan = DASPMatrix.from_csr(matrix)
        for k in (1, 2, 8, 1, 8):
            spmm_events(plan, A100, k)
            spmm_events(plan, "H800", k)
        for name in all_method_names():
            method = make_method(name)
            method.events(method.prepare(matrix), A100)
        assert count_calls == [VB]

    def test_events_returns_a_copy(self, matrix):
        plan = DASPMatrix.from_csr(matrix)
        ev = DASPMethod().events(plan, A100)
        ev.bytes_x = -1.0
        assert DASPMethod().events(plan, "A100").bytes_x > 0.0

    def test_value_patch_reuses_memo(self, matrix, rng, count_calls):
        plan = DASPMatrix.from_csr(matrix)
        before = spmm_events(plan, A100, 8)
        patched = clone_for_patch(plan)
        apply_value_update(patched, random_delta(matrix, rng, n_entries=12))
        assert patched.csr.structure_memo is plan.csr.structure_memo
        assert spmm_events(patched, A100, 8) == before
        assert count_calls == [VB]

    def test_structural_patch_fresh_counts(self, matrix, rng):
        plan = DASPMatrix.from_csr(matrix)
        spmm_events(plan, A100, 8)
        delta = random_delta(matrix, rng, structural=True, n_entries=40)
        patched, _ = apply_structural_update(plan, delta, auto_compact=False)
        assert patched.csr.structure_memo is not plan.csr.structure_memo
        assert patched._events == {}
        assert_counts_match_fresh(patched)

    def test_compacted_plan_fresh_counts(self, matrix, rng):
        plan = DASPMatrix.from_csr(matrix)
        spmm_events(plan, A100, 8)
        delta = random_delta(matrix, rng, structural=True, n_entries=40)
        patched, _ = apply_structural_update(plan, delta, auto_compact=False)
        spmm_events(patched, A100, 8)
        compacted, _ = compact_plan(patched)
        assert compacted._events == {}
        assert_counts_match_fresh(compacted)
        fresh = DASPMatrix.from_csr(copied(compacted.csr))
        assert DASPMethod().events(compacted, A100) == \
            DASPMethod().events(fresh, A100)

    def test_loaded_plan_fresh_counts(self, matrix, tmp_path):
        plan = DASPMatrix.from_csr(matrix)
        spmm_events(plan, A100, 8)
        path = tmp_path / "m.daspz"
        save_artifact(path, plan)
        loaded, _ = load_artifact(path)
        assert loaded.csr.structure_memo is not plan.csr.structure_memo
        assert loaded.csr.structure_memo == {} and loaded._events == {}
        assert_counts_match_fresh(loaded)
        assert spmm_events(loaded, A100, 8) == spmm_events(plan, A100, 8)


class TestModeledParity:
    def _sim(self, csr):
        fp = matrix_fingerprint(csr)
        sim = ReplicaSim(WorkloadConfig(), device=get_device("A100"),
                         dtype=np.dtype(np.float64), pool=[("m", fp, csr)])
        return sim, fp

    def test_patched_versions_price_like_rebuilds(self, matrix, rng):
        """A version chain of value patches, then structural patches
        that end in compaction: each version's modeled batch times equal
        those of a plan rebuilt from the evolved CSR, bit for bit."""
        sim, fp = self._sim(matrix)
        sim.registry.get(matrix, fingerprint=fp)
        csr = matrix
        for i in range(6):
            structural = i >= 3
            delta = random_delta(csr, rng, structural=structural,
                                 n_entries=30)
            v, info, plan = sim.registry.update(fp, delta)
            csr = evolve(csr, delta)
            if structural and not info.compacted:
                plan, _ = compact_plan(plan)
            rebuilt = DASPMatrix.from_csr(csr)
            for k in (1, 4, 8):
                assert sim.modeled.batch_cost(f"{fp}@v{v}", plan, k) == \
                    sim.modeled.batch_cost(f"rebuilt{i}", rebuilt, k)


class TestConcurrentPricing:
    def test_two_workers_price_identically(self, matrix, rng, monkeypatch):
        """Batches of one matrix never run concurrently, so two matrices
        over one structure (one structure memo) are served; both
        workers enter ``spmm_events`` together on a cold memo, and every
        batch is priced with the same bits as a serial pass on an
        independent copy."""
        barrier = threading.Barrier(2, timeout=10)
        lock = threading.Lock()
        entered = []
        priced = []
        real_events, real_estimate = server_mod.spmm_events, \
            server_mod.estimate_time

        def racing_events(plan, device, k):
            with lock:
                entered.append(threading.get_ident())
                first_two = len(entered) <= 2
            if first_two:
                barrier.wait()
            return real_events(plan, device, k)

        def recording_estimate(ev, device, **kw):
            t = real_estimate(ev, device, **kw)
            with lock:
                priced.append((ev, t.total))
            return t

        monkeypatch.setattr(server_mod, "spmm_events", racing_events)
        monkeypatch.setattr(server_mod, "estimate_time", recording_estimate)
        a = copied(matrix)
        b = a.with_data(2.0 * a.data)
        with SpMVServer(max_batch=1, workers=2) as server:
            fps = [server.register(a), server.register(b)]
            futs = [server.submit(SpMVRequest(
                        fps[i % 2], rng.standard_normal(a.shape[1])))
                    for i in range(12)]
            for f in futs:
                f.result(timeout=30)
        assert len(set(entered[:2])) == 2
        ref_ev = spmm_events(DASPMatrix.from_csr(copied(matrix)), A100, 1)
        ref_t = real_estimate(ref_ev, A100, dtype_bits=64).total
        assert len(priced) == len(futs)
        for ev, t in priced:
            assert ev == ref_ev and t == ref_t

    def test_stress_cold_memos(self, matrix):
        """More threads than cores price one cold plan under a short
        switch interval; each sees the serial result."""
        ref = spmm_events(DASPMatrix.from_csr(copied(matrix)), A100, 8)
        plan = DASPMatrix.from_csr(copied(matrix))
        n = 8
        start = threading.Barrier(n, timeout=10)
        results = []

        def work():
            start.wait()
            results.append(spmm_events(plan, A100, 8))

        threads = [threading.Thread(target=work) for _ in range(n)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == n and all(r == ref for r in results)
