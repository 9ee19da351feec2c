"""One routing policy for both clocks.

:class:`~repro.cluster.router.Router` (threads, futures, wall clock)
and the cluster driver's ``_Cluster`` (virtual time) route the same
way, so :class:`RoutingPolicy` makes every routing decision once: the
preference walk, placement on the first candidate that accepts,
admission, the hedge rule, probe folding and the ring lookups.  It owns
the ring, the :class:`~repro.cluster.health.ReplicaHealth` monitor, the
:class:`~repro.overload.LatencyTracker` and the
:class:`~repro.overload.OverloadContext`.  Each adapter keeps only its
clock: how a replica is offered a request, how latency samples are
measured, and which replicas are unreachable.
"""

from __future__ import annotations

from ..obs import Obs
from ..overload import LatencyTracker, OverloadConfig, OverloadContext
from .health import HealthConfig, ReplicaHealth, ReplicaSignals
from .ring import DEFAULT_VNODES, HashRing


class RoutingPolicy:
    """Placement, hedging and health decisions over one hash ring.

    ``obs`` carries the ``cluster.router.{routed,failover,unroutable}_total``
    and ``cluster.router.replica_routed_total{replica}`` counters, the
    health monitor's instruments and the overload counters.
    """

    def __init__(self, members=(), *, vnodes: int = DEFAULT_VNODES,
                 seed: int = 0, health: HealthConfig | None = None,
                 overload: OverloadConfig | None = None,
                 obs: Obs | None = None) -> None:
        if obs is None or not obs.enabled:
            obs = Obs()
        self.obs = obs
        self.ring = HashRing(members, vnodes=vnodes, seed=seed)
        self.health = ReplicaHealth(health, obs=obs)
        self.overload = (OverloadContext(overload, obs=obs)
                         if overload is not None else None)
        self.hedge = overload.hedge if overload is not None else None
        self.latency = (self.overload.latency if self.hedge is not None
                        else LatencyTracker())
        #: Latency samples only matter to a reader: the hedge rule or
        #: straggler demotion.  Adapters feed :attr:`latency` only then.
        self.track_latency = (self.hedge is not None
                              or self.health.config.straggler_factor
                              is not None)
        self._routed = obs.counter("cluster.router.routed_total")
        self._failover = obs.counter("cluster.router.failover_total")
        self._unroutable = obs.counter("cluster.router.unroutable_total")
        # previous cumulative (deadline_exceeded, requests) per replica
        self._prev: dict[str, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    def home(self, fingerprint: str) -> str:
        """The fingerprint's ring placement, health ignored."""
        return self.ring.lookup(fingerprint)

    def assignments(self, fingerprints) -> dict[str, list[str]]:
        """replica id -> its ring-assigned fingerprints, in input order
        (the ring-scoped warm set)."""
        return self.ring.assignments(fingerprints)

    def candidates(self, fingerprint: str, unreachable=()) -> list[str]:
        """Preference walk: healthy-fast, healthy-straggler, then sick.

        Unreachable replicas are dropped; each group keeps ring order.
        Sick replicas stay as a last resort: when every replica is
        down, the home beats dropping the request.
        """
        return self._walk(self.ring.preference(fingerprint), unreachable)

    def _walk(self, prefs, unreachable) -> list[str]:
        fast: list[str] = []
        slow: list[str] = []
        sick: list[str] = []
        for rid in prefs:
            if rid in unreachable:
                continue
            if not self.health.is_healthy(rid):
                sick.append(rid)
            elif self.health.is_straggler(rid):
                slow.append(rid)
            else:
                fast.append(rid)
        return fast + slow + sick

    # ------------------------------------------------------------------
    def admit(self, priority: str, now: float) -> bool:
        """Admission control; always True without an admission config."""
        ctx = self.overload
        return (ctx is None or ctx.admission is None
                or ctx.admission.try_admit(priority, now))

    def place(self, fingerprint: str, offer, unreachable=()) -> str | None:
        """Offer to each candidate in turn; returns the first replica
        whose ``offer(rid)`` accepts, or ``None`` (counted unroutable)
        when none does.  A placement off the home counts a failover."""
        prefs = self.ring.preference(fingerprint)
        for rid in self._walk(prefs, unreachable):
            if offer(rid):
                self._routed.inc()
                self.obs.counter("cluster.router.replica_routed_total",
                                 {"replica": rid}).inc()
                if rid != prefs[0]:
                    self._failover.inc()
                return rid
        self._unroutable.inc()
        return None

    def hedge_target(self, fingerprint: str, primary: str,
                     unreachable=()) -> str | None:
        """Where to send a hedge copy, or ``None`` for no hedge.

        Hedge only when *primary*'s latency EWMA marks it a straggler
        under ``hedge.factor``; the copy goes to the next reachable
        healthy replica after it in ring order.
        """
        if self.hedge is None or not self.latency.is_straggler(
                primary, factor=self.hedge.factor):
            return None
        for rid in self.ring.preference(fingerprint):
            if (rid != primary and rid not in unreachable
                    and self.health.is_healthy(rid)):
                return rid
        return None

    # ------------------------------------------------------------------
    def observe(self, replica_id: str, raw: dict | None) -> bool:
        """Fold one probe into the health monitor; returns the health.

        *raw* is a replica's ``signals()`` dict (instantaneous
        ``queue_depth``/``open_circuits``, cumulative
        ``deadline_exceeded``/``requests``), or ``None`` when the probe
        could not reach it.  The cumulative counts become a miss rate
        since the previous reachable probe.
        """
        if raw is None:
            return self.health.observe_unreachable(replica_id)
        prev_miss, prev_req = self._prev.get(replica_id, (0, 0))
        d_req = raw["requests"] - prev_req
        d_miss = raw["deadline_exceeded"] - prev_miss
        self._prev[replica_id] = (raw["deadline_exceeded"], raw["requests"])
        return self.health.observe(replica_id, ReplicaSignals(
            queue_depth=raw["queue_depth"],
            open_circuits=raw["open_circuits"],
            miss_rate=(d_miss / d_req) if d_req > 0 else 0.0,
            latency_ewma_s=(self.latency.ewma(replica_id)
                            if self.track_latency else 0.0)))
