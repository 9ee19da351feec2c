"""Conformance: both routing clocks make the same routing decisions.

Every scenario builds a threaded :class:`Router` over small
:class:`SpMVServer` replicas and a virtual-time ``_Cluster`` over
``ReplicaSim`` replicas with the same members, vnodes and ring seed.
Health and latency state is scripted directly through each side's
``ReplicaHealth.observe`` and ``LatencyTracker.observe`` (plus one
probe where a scenario needs the latency signal in the health monitor),
so no decision depends on timing.  The same fingerprints are then
routed through both, and both must pick the same replica and the same
hedge target and count the same routed / failover / unroutable totals.
A last test drives a real slow replica through a ``Router`` configured
with ``straggler_factor`` alone.
"""

import threading
import time

import numpy as np
import pytest

from repro._util import default_rng
from repro.cluster import (
    ClusterConfig,
    HashRing,
    HealthConfig,
    NoHealthyReplicaError,
    ReplicaSignals,
    Router,
)
from repro.cluster.driver import _Cluster
from repro.gpu import get_device
from repro.obs import Obs
from repro.overload import HedgeConfig, OverloadConfig
from repro.serve import SpMVRequest, SpMVServer, matrix_fingerprint
from repro.serve.policy import ModeledDevice
from tests.conftest import random_csr

MEMBERS = ("r0", "r1", "r2")
VNODES = 16
RING_SEED = 2
#: one probe with these signals marks a replica down (down_after=1)
DOWN = ReplicaSignals(queue_depth=10**6)
#: A vanishing smoothing weight freezes the scripted EWMAs: the wall
#: latency the Router feeds on every settled future cannot move them.
FROZEN_HEDGE = HedgeConfig(factor=3.0, ewma_alpha=1e-9)


@pytest.fixture(scope="module")
def pool():
    rng = np.random.default_rng(21)
    out = []
    for i in range(6):
        csr = random_csr(32 + 8 * i, 32 + 8 * i, rng)
        out.append((f"m{i}", matrix_fingerprint(csr), csr))
    return out


class SimSide:
    """The virtual-time side: one ``_Cluster``; nothing ever advances
    its clock, so requests stay queued where they were placed."""

    def __init__(self, pool, *, health, overload, queue_depth):
        cfg = ClusterConfig(n_requests=1, n_replicas=len(MEMBERS),
                            vnodes=VNODES, ring_seed=RING_SEED,
                            health=health, overload=overload,
                            queue_depth=queue_depth, max_batch=1)
        device = get_device(cfg.device)
        self.cluster = _Cluster(
            cfg, device=device, dtype=np.dtype(cfg.dtype), pool=pool,
            modeled=ModeledDevice(device), retry_rng=default_rng(0),
            obs=Obs())
        self.policy = self.cluster.policy
        self.obs = self.cluster.obs
        self.x = {fp: np.ones(csr.shape[1]) for _, fp, csr in pool}
        self._n = 0

    def send(self, fp):
        """Route one request; returns the replicas holding a hedge copy."""
        req = SpMVRequest(fp, self.x[fp], req_id=self._n, arrival_s=0.0)
        self._n += 1
        self.cluster.submit(req, 0.0, fp)
        return {req.pair.hedge_rid} if req.pair is not None else set()

    def probe(self):
        self.cluster.probe()

    def cut(self, rid):
        self.cluster.partitioned.add(rid)

    def block(self, rid):
        pass  # the sim's backlog only drains when its clock advances

    def close(self):
        pass


class RouterSide:
    """The wall-clock side: a ``Router`` over real servers."""

    def __init__(self, pool, *, health, overload, queue_depth):
        self.servers = {rid: SpMVServer(workers=1, queue_depth=queue_depth,
                                        max_batch=1)
                        for rid in MEMBERS}
        self.router = Router(self.servers, vnodes=VNODES, seed=RING_SEED,
                             health=health, overload=overload)
        self.policy = self.router.policy
        self.obs = self.router.obs
        self.x = {}
        for _, fp, csr in pool:
            assert self.router.register(csr) == fp
            self.x[fp] = np.ones(csr.shape[1])
        self.futures = []
        self._gate = threading.Event()

    def send(self, fp):
        """Route one request; when it was hedged, returns the replicas
        that took a copy of it (the primary among them)."""
        before = {rid: s.stats.n_requests for rid, s in self.servers.items()}
        issued = self.obs.registry.counter("overload.hedge.issued_total")
        hedges = issued.value
        try:
            self.futures.append(
                self.router.submit(SpMVRequest(fp, self.x[fp])))
        except NoHealthyReplicaError:
            return set()
        if issued.value == hedges:
            return set()
        return {rid for rid, s in self.servers.items()
                if s.stats.n_requests > before[rid]}

    def probe(self):
        self.router.probe()

    def cut(self, rid):
        self.servers[rid].close()

    def block(self, rid):
        """Park *rid*'s only worker, so queued batches stay queued."""
        started = threading.Event()
        self.servers[rid].scheduler.submit_task(
            lambda: (started.set(), self._gate.wait(30)))
        assert started.wait(30)

    def close(self):
        self._gate.set()
        for fut in self.futures:
            fut.result(timeout=30)
        self.router.close()


def routed(obs):
    reg = obs.registry
    return {rid: reg.counter("cluster.router.replica_routed_total",
                             {"replica": rid}).value for rid in MEMBERS}


def totals(obs):
    reg = obs.registry
    return {name: reg.counter(f"cluster.router.{name}_total").value
            for name in ("routed", "failover", "unroutable")}


def route(side, fp):
    """``(placed replica or None, hedge replica or None)`` for one
    request; the placement is read off the per-replica routed counter."""
    before = routed(side.obs)
    copies = side.send(fp)
    after = routed(side.obs)
    placed = [rid for rid in MEMBERS if after[rid] > before[rid]]
    primary = placed[0] if placed else None
    return primary, next(iter(copies - {primary}), None)


def run(pool, scenario, *, health=None, overload=None, queue_depth=64,
        rounds=1):
    """Script *scenario* on both sides, route every fingerprint
    ``rounds`` times through each, and return both decision logs."""
    health = health if health is not None else HealthConfig(down_after=1)
    logs = []
    for side_cls in (RouterSide, SimSide):
        side = side_cls(pool, health=health, overload=overload,
                        queue_depth=queue_depth)
        try:
            scenario(side)
            decisions = [route(side, fp)
                         for _ in range(rounds) for _, fp, _ in pool]
            logs.append((decisions, totals(side.obs)))
        finally:
            side.close()
    return logs


def homes(pool):
    ring = HashRing(MEMBERS, vnodes=VNODES, seed=RING_SEED)
    return {fp: ring.lookup(fp) for _, fp, _ in pool}


def test_every_member_homes_a_fingerprint(pool):
    """The ring seed homes a fingerprint on every replica, so each
    scenario below exercises all three."""
    assert set(homes(pool).values()) == set(MEMBERS)


def assert_conform(logs):
    (router_log, router_totals), (sim_log, sim_totals) = logs
    assert router_log == sim_log
    assert router_totals == sim_totals
    return sim_log, sim_totals


class TestConformance:
    def test_all_healthy(self, pool):
        log, tot = assert_conform(run(pool, lambda side: None))
        assert [p for p, _ in log] == list(homes(pool).values())
        assert tot == {"routed": 6, "failover": 0, "unroutable": 0}

    def test_home_marked_down(self, pool):
        def script(side):
            side.policy.health.observe("r0", DOWN)

        log, tot = assert_conform(run(pool, script))
        assert "r0" not in [p for p, _ in log]
        n_r0 = sum(1 for h in homes(pool).values() if h == "r0")
        assert tot == {"routed": 6, "failover": n_r0, "unroutable": 0}

    def test_every_replica_down_uses_the_sick_home(self, pool):
        def script(side):
            for rid in MEMBERS:
                side.policy.health.observe(rid, DOWN)

        log, tot = assert_conform(run(pool, script))
        assert [p for p, _ in log] == list(homes(pool).values())
        assert tot == {"routed": 6, "failover": 0, "unroutable": 0}

    def test_straggler_factor_without_overload(self, pool):
        """The latency EWMA reaches the health monitor through a probe
        and demotes the slow replica behind its healthy peers."""
        def script(side):
            for rid, lat in (("r0", 1.0), ("r1", 0.01), ("r2", 0.01)):
                side.policy.latency.observe(rid, lat)
            side.probe()

        log, tot = assert_conform(run(
            pool, script, health=HealthConfig(straggler_factor=2.0)))
        assert "r0" not in [p for p, _ in log]
        assert all(h is None for _, h in log)
        assert tot["failover"] > 0

    def test_straggler_primary_is_hedged(self, pool):
        def script(side):
            for rid, lat in (("r0", 1.0), ("r1", 0.01), ("r2", 0.01)):
                side.policy.latency.observe(rid, lat)

        log, tot = assert_conform(run(
            pool, script, overload=OverloadConfig(hedge=FROZEN_HEDGE)))
        hedged = [(p, h) for p, h in log if h is not None]
        assert hedged and all(p == "r0" and h != "r0" for p, h in hedged)
        assert len(hedged) == sum(1 for p, _ in log if p == "r0")
        assert tot["failover"] == 0

    def test_equal_replicas_are_not_hedged(self, pool):
        def script(side):
            for rid in MEMBERS:
                side.policy.latency.observe(rid, 1e-6)

        log, _ = assert_conform(run(
            pool, script, overload=OverloadConfig(hedge=FROZEN_HEDGE)))
        assert all(h is None for _, h in log)

    def test_unreachable_home(self, pool):
        """Partitioned in the sim, closed behind the Router."""
        log, tot = assert_conform(run(pool, lambda side: side.cut("r0")))
        assert "r0" not in [p for p, _ in log]
        n_r0 = sum(1 for h in homes(pool).values() if h == "r0")
        assert tot == {"routed": 6, "failover": n_r0, "unroutable": 0}

    def test_every_replica_unreachable_is_unroutable(self, pool):
        def script(side):
            for rid in MEMBERS:
                side.cut(rid)

        log, tot = assert_conform(run(pool, script))
        assert log == [(None, None)] * 6
        assert tot == {"routed": 0, "failover": 0, "unroutable": 6}

    def test_backpressure_walks_to_the_next_replica(self, pool):
        """Depth-2 queues that never drain: r0 homes three fingerprints,
        so its third request walks on; once all six slots are taken,
        nobody accepts and the rest are unroutable."""
        def script(side):
            for rid in MEMBERS:
                side.block(rid)

        log, tot = assert_conform(run(pool, script, queue_depth=2,
                                      rounds=2))
        assert [p for p, _ in log[6:]] == [None] * 6
        assert tot["routed"] == 6 and tot["unroutable"] == 6
        assert tot["failover"] > 0


def test_router_straggler_factor_alone_demotes_a_slow_replica(pool):
    """``straggler_factor`` with no overload config: the Router feeds
    each settled future's wall latency into the EWMA that ``probe``
    reports, so a replica whose worker stalls is demoted in
    ``select``."""
    fp_of = {}
    for fp, home in homes(pool).items():
        fp_of.setdefault(home, fp)
    side = RouterSide(pool, health=HealthConfig(straggler_factor=2.0),
                      overload=None, queue_depth=64)
    try:
        stall = side.servers["r1"].scheduler
        stall.submit_task(lambda: time.sleep(0.5))
        for rid in MEMBERS:
            side.send(fp_of[rid])
        for fut in side.futures:
            fut.result(timeout=30)
        deadline = time.monotonic() + 10.0
        while True:  # done-callbacks may still be running
            side.probe()
            snap = side.router.health.snapshot()
            if all(snap[rid]["latency_ewma_s"] > 0.0 for rid in MEMBERS):
                break
            assert time.monotonic() < deadline, snap
            time.sleep(0.01)
        assert side.router.health.is_straggler("r1")
        order = side.router.select(fp_of["r1"])
        assert order[-1] == "r1" and sorted(order) == list(MEMBERS)
    finally:
        side.close()
