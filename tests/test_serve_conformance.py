"""Conformance: both serving clocks make the same decisions.

Every scenario runs one request list through the threaded
:class:`SpMVServer` (``workers=1, max_batch=1``, awaiting each future in
turn so batching cannot depend on the wall clock) and through a
virtual-time :class:`ReplicaSim` (``max_batch=1``).  Both must report
the same per-request outcome (served / degraded / failed), the same
per-batch modeled device seconds and useful/issued MMA flops, the same
modeled preprocess time and the same breaker state.  Deadlines are left
out: they depend on the clock.  A last scenario updates the matrix
between two requests: both clocks must price the second batch on the
patched version, and the server must compute it on that version.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.delta import random_delta
from repro.gpu import get_device
from repro.overload import OverloadConfig, OverloadContext, RetryBudgetConfig
from repro.resilience import BreakerConfig, FaultInjector, FaultPlan, FaultRule
from repro.serve import (
    SpMMRequest,
    SpMVRequest,
    SpMVServer,
    matrix_fingerprint,
)
from repro.serve.driver import ReplicaSim, WorkloadConfig
from tests.conftest import random_csr

#: recovery far beyond any run: an opened circuit stays open on both clocks
BREAKER = BreakerConfig(recovery_s=1e9)
DRY = RetryBudgetConfig(ratio=0.0, initial=0.0, cap=0.0)


@pytest.fixture(scope="module")
def csr():
    rng = np.random.default_rng(11)
    return random_csr(96, 128, rng,
                      row_len_sampler=lambda r, m: r.integers(0, 48, m))


def _recorder(stats):
    """Log every batch outcome the stats facade sees, in order."""
    log = []
    for name in ("observe_batch", "observe_degraded", "observe_failed"):
        inner = getattr(stats, name)

        def record(*args, _name=name, _inner=inner, **kwargs):
            log.append((_name, args, tuple(sorted(kwargs.items()))))
            return _inner(*args, **kwargs)

        setattr(stats, name, record)
    return log


def _outcomes(log):
    """Per-request outcomes (one request per batch) and per-batch
    ``(k, device seconds, useful flops, issued flops)``."""
    outcomes, batches, degraded = [], [], False
    for name, args, kwargs in log:
        if name == "observe_degraded":
            degraded = True
        elif name == "observe_failed":
            outcomes.append("failed")
        else:
            kw = dict(kwargs)
            outcomes.append("degraded" if degraded else "served")
            batches.append((args[0], args[1], kw["useful_mma"],
                            kw["issued_mma"]))
            degraded = False
    return outcomes, batches


def _run_server(csr, requests, *, rules=(), shards=None, fallback=True,
                budget=None, dry_budget=False):
    injector = FaultInjector(FaultPlan(list(rules))) if rules else None
    kwargs = {} if budget is None else {"cache_budget_bytes": budget}
    with SpMVServer(workers=1, max_batch=1, shards=shards,
                    fault_injector=injector, fallback=fallback,
                    breaker=BREAKER, retry_budget=DRY if dry_budget else None,
                    **kwargs) as server:
        log = _recorder(server.stats)
        server.register(csr)
        for req in requests:
            fut = server.submit(req)
            if fut.exception(timeout=30) is None:
                assert fut.result().shape[0] == csr.shape[0]
        server.drain(timeout=30)
        state = server.breaker.snapshot()
        preprocess_s = server.stats.preprocess_s
    return _outcomes(log), state, preprocess_s


def _run_sim(csr, requests, *, rules=(), shards=None, fallback=True,
             budget=None, dry_budget=False):
    fp = matrix_fingerprint(csr)
    cfg = WorkloadConfig(max_batch=1, shards=shards, shard_workers=1,
                         fallback=fallback, breaker=BREAKER)
    if budget is not None:
        cfg = replace(cfg, cache_budget_bytes=budget)
    injector = FaultInjector(FaultPlan(list(rules))) if rules else None
    overload = (OverloadContext(OverloadConfig(retry_budget=DRY))
                if dry_budget else None)
    sim = ReplicaSim(cfg, device=get_device("A100"),
                     dtype=np.dtype(np.float64), pool=[("m", fp, csr)],
                     injector=injector, overload=overload)
    log = _recorder(sim.stats)
    now = 0.0
    for i, req in enumerate(requests):
        now = float(i)  # far apart: each batch finishes before the next
        sim.advance_to(now)
        assert sim.offer(replace(req, req_id=i, arrival_s=now), now)
    sim.drain(now)
    return _outcomes(log), sim.breaker.snapshot(), sim.stats.preprocess_s


def _assert_conform(csr, requests, **kwargs):
    server = _run_server(csr, requests, **kwargs)
    sim = _run_sim(csr, requests, **kwargs)
    (s_out, s_batches), s_state, s_pre = server
    (v_out, v_batches), v_state, v_pre = sim
    assert s_out == v_out
    assert s_batches == v_batches
    assert s_state == v_state
    assert s_pre == v_pre
    return s_out, s_state


def _spmv(csr, n, **kw):
    rng = np.random.default_rng(3)
    fp = matrix_fingerprint(csr)
    return [SpMVRequest(fp, rng.uniform(-1, 1, csr.shape[1]), **kw)
            for _ in range(n)]


def _spmm(csr, n, k):
    rng = np.random.default_rng(5)
    fp = matrix_fingerprint(csr)
    return [SpMMRequest(fp, rng.uniform(-1, 1, (csr.shape[1], k)))
            for _ in range(n)]


def test_healthy_spmv(csr):
    outcomes, _ = _assert_conform(csr, _spmv(csr, 3))
    assert outcomes == ["served"] * 3


@pytest.mark.parametrize("k", [4, 32])
def test_spmm(csr, k):
    outcomes, _ = _assert_conform(csr, _spmm(csr, 2, k))
    assert outcomes == ["served"] * 2


def test_sharded(csr):
    reqs = _spmv(csr, 2) + _spmm(csr, 1, 4)
    outcomes, _ = _assert_conform(csr, reqs, shards=2)
    assert outcomes == ["served"] * 3


def test_per_request_shard_hint(csr):
    reqs = _spmv(csr, 1, shards=2) + _spmv(csr, 2)
    _assert_conform(csr, reqs)
    # the hint changed the price: it differs from the unhinted run
    (_, hinted), _, _ = _run_sim(csr, reqs)
    (_, plain), _, _ = _run_sim(csr, _spmv(csr, 3))
    assert hinted != plain


@pytest.mark.parametrize("fallback", [True, False])
def test_poisoned_matrix(csr, fallback):
    rule = FaultRule(kind="kernel_error", rate=1.0,
                     fingerprint=matrix_fingerprint(csr))
    outcomes, state = _assert_conform(csr, _spmv(csr, 4), rules=[rule],
                                      fallback=fallback)
    assert outcomes == ["degraded" if fallback else "failed"] * 4
    assert state == {matrix_fingerprint(csr): "open"}


def test_plan_over_cache_budget(csr):
    outcomes, state = _assert_conform(csr, _spmv(csr, 4), budget=1)
    assert outcomes == ["degraded"] * 4
    assert state == {matrix_fingerprint(csr): "open"}


def test_dry_retry_budget(csr):
    rule = FaultRule(kind="kernel_error", rate=1.0, max_count=1,
                     fingerprint=matrix_fingerprint(csr))
    outcomes, state = _assert_conform(csr, _spmv(csr, 3), rules=[rule],
                                      dry_budget=True)
    # no token to retry with: the faulted batch degrades at once
    assert outcomes == ["degraded", "served", "served"]
    assert state == {matrix_fingerprint(csr): "closed"}


@pytest.mark.parametrize("structural,k", [(False, 32), (True, 4)])
def test_matrix_update_reprices(csr, structural, k):
    """A batch after an update is priced — and, for large k, executed —
    on the patched version on both clocks, never on the stale base."""
    fp = matrix_fingerprint(csr)
    delta = random_delta(csr, np.random.default_rng(2),
                         structural=structural, n_entries=30)
    before, after = _spmm(csr, 2, k)
    with SpMVServer(workers=1, max_batch=1, breaker=BREAKER) as server:
        log = _recorder(server.stats)
        server.register(csr)
        server.submit(before).result(timeout=30)
        _, _, plan = server.registry.update(fp, delta, csr=csr)
        got = server.submit(after).result(timeout=30)
    np.testing.assert_allclose(
        got, np.stack([plan.csr.matvec(c) for c in after.x.T], axis=1),
        rtol=1e-12)
    sim = ReplicaSim(WorkloadConfig(max_batch=1, breaker=BREAKER),
                     device=get_device("A100"), dtype=np.dtype(np.float64),
                     pool=[("m", fp, csr)])
    sim_log = _recorder(sim.stats)
    sim.offer(replace(before, req_id=0, arrival_s=0.0), 0.0)
    sim.advance_to(1.0)
    sim.apply_update(fp, delta, 1.0)
    sim.advance_to(2.0)
    sim.offer(replace(after, req_id=1, arrival_s=2.0), 2.0)
    sim.drain(2.0)
    assert _outcomes(log) == _outcomes(sim_log)
