"""`Router` — consistent-hash request placement over SpMV replicas.

A threaded adapter over :class:`~repro.cluster.policy.RoutingPolicy`,
the routing policy the cluster driver simulates at scale:

* **cache affinity** — a fingerprint's requests all land on its ring
  home (:class:`~repro.cluster.ring.HashRing`), so each replica's plan
  cache and store tier only ever hold the fingerprints assigned to it;
* **health-aware failover** — the preference walk puts replicas the
  :class:`~repro.cluster.health.ReplicaHealth` monitor has marked down
  last, and placement walks past replicas that refuse with queue-full
  backpressure, so requests reroute instead of failing;
* **straggler demotion** — with ``HealthConfig(straggler_factor=...)``
  every settled future feeds its wall latency into the per-replica
  EWMA that :meth:`probe` reports, and healthy stragglers move behind
  their healthy peers (soft drain) without being downed;
* **overload control** — with an :class:`~repro.overload.OverloadConfig`
  installed, ``submit`` admission-checks each request first (shedding
  with a typed :class:`~repro.overload.AdmissionRejectedError` before
  any replica sees it) and **hedges** requests placed on a straggler:
  a copy goes to the next reachable healthy replica at once, the
  returned future takes the first result, and the loser is counted
  under ``overload.hedge.wasted_total``;
* **ring-scoped warm-up** — :meth:`warm` preloads each replica's
  assigned fingerprints from the shared
  :class:`~repro.store.PlanStore`, concurrently across replicas (the
  store's advisory read lock makes the shared directory safe).

Matrices are registered on *every* replica (the CSR is cheap to hold;
plans are built lazily), so any failover target can serve any
fingerprint — at worst it rebuilds the plan its cache never saw.

After :meth:`close`, ``submit``/``warm`` raise
:class:`RouterClosedError` — callers get a typed signal instead of
whichever replica error the close race happened to surface, and no
future is ever handed out that nobody will complete.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

from .._util import ReproError, check
from ..obs import Obs
from ..overload import AdmissionRejectedError, HedgePair, OverloadConfig
from ..resilience.errors import ServerClosedError
from ..serve.request import SpMMRequest, SpMVRequest
from ..serve.scheduler import QueueFullError
from .health import HealthConfig
from .policy import RoutingPolicy
from .ring import DEFAULT_VNODES


class NoHealthyReplicaError(ReproError):
    """Every preference-list replica refused the request."""


class RouterClosedError(ReproError):
    """``submit``/``warm`` called on a router after ``close()``."""


class Router:
    """Place requests onto replicas by fingerprint (see module docstring).

    Parameters
    ----------
    servers:
        ``{replica_id: SpMVServer}``, or a sequence of servers that get
        ids ``r0, r1, …`` in order.
    vnodes / seed:
        Ring construction knobs (:class:`HashRing`).
    health:
        :class:`HealthConfig` thresholds for the probe-driven monitor
        (pass ``None`` for defaults).
    overload:
        :class:`~repro.overload.OverloadConfig` enabling admission
        control and/or hedged requests at the router; ``None`` (the
        default) turns both off.
    obs:
        Shared handle for the ``cluster.router.*`` counters and the
        health monitor's instruments; fresh private one by default.
    """

    def __init__(self, servers, *, vnodes: int = DEFAULT_VNODES,
                 seed: int = 0, health: HealthConfig | None = None,
                 overload: OverloadConfig | None = None,
                 obs: Obs | None = None) -> None:
        if not isinstance(servers, dict):
            servers = {f"r{i}": s for i, s in enumerate(servers)}
        check(bool(servers), "need at least one replica")
        self.servers: dict[str, object] = dict(servers)
        self.policy = RoutingPolicy(self.servers, vnodes=vnodes, seed=seed,
                                    health=health, overload=overload,
                                    obs=obs)
        self.obs = self.policy.obs
        self.health = self.policy.health
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def register(self, csr) -> str:
        """Register *csr* on every replica; returns its fingerprint.

        All replicas can serve all matrices (failover capability); only
        the ring home gets the fingerprint's traffic while healthy.
        """
        fp = None
        for server in self.servers.values():
            fp = server.register(csr)
        return fp

    def home(self, fingerprint: str) -> str:
        """The fingerprint's ring placement, health ignored."""
        return self.policy.home(fingerprint)

    def select(self, fingerprint: str) -> list[str]:
        """Preference order (:meth:`RoutingPolicy.candidates`)."""
        return self.policy.candidates(fingerprint)

    # ------------------------------------------------------------------
    def _offer(self, rid: str, request):
        """Submit to one replica; ``None`` when it refuses (queue full
        or closed).  Replicas never mutate the submitted object, so a
        hedge re-issues it safely."""
        try:
            future = self.servers[rid].submit(request)
        except (QueueFullError, ServerClosedError):
            return None
        if self.policy.track_latency:
            start = time.monotonic()
            future.add_done_callback(lambda _f: self.policy.latency.observe(
                rid, time.monotonic() - start))
        return future

    def submit(self, request):
        """Route one typed request; returns a Future for its result.

        Takes the same :class:`~repro.serve.SpMVRequest` /
        :class:`~repro.serve.SpMMRequest` objects as
        :meth:`repro.serve.SpMVServer.submit` — one request vocabulary
        across the stack, with ``deadline_us`` / ``priority`` /
        ``shards`` keyword-only on the request.

        Places the request on the first replica of :meth:`select` that
        accepts it; a placement off the ring home counts a failover.
        Raises :class:`NoHealthyReplicaError` when every replica
        refused, :class:`~repro.overload.AdmissionRejectedError` when
        admission control sheds the request, and
        :class:`RouterClosedError` after :meth:`close`.

        When the policy hedges, the returned Future is a router-owned
        wrapper resolved by whichever replica answers first.
        """
        check(isinstance(request, (SpMVRequest, SpMMRequest)),
              "submit() takes a repro.serve.SpMVRequest or SpMMRequest")
        if self._closed:
            raise RouterClosedError("router is closed")
        policy = self.policy
        if not policy.admit(request.priority, time.monotonic()):
            rate = policy.overload.admission.config.rate_rps
            raise AdmissionRejectedError(
                f"{request.priority} request shed by admission control "
                f"(sustained rate {rate:g} req/s)")
        futures: dict[str, Future] = {}

        def offer(rid: str) -> bool:
            future = self._offer(rid, request)
            if future is not None:
                futures[rid] = future
            return future is not None

        fp = request.fingerprint
        rid = policy.place(fp, offer)
        if rid is None:
            if self._closed:
                raise RouterClosedError("router is closed")
            raise NoHealthyReplicaError(
                f"no replica accepted matrix {fp[:8]}… "
                f"(tried {len(self.servers)})")
        hedge_rid = policy.hedge_target(fp, rid)
        hedge = (self._offer(hedge_rid, request)
                 if hedge_rid is not None else None)
        if hedge is None:
            return futures[rid]
        policy.overload.hedges_issued.inc()
        return self._first_wins(futures[rid], hedge)

    def _first_wins(self, primary: Future, hedge: Future) -> Future:
        """One Future resolved by whichever copy succeeds first; it
        fails only when both copies fail."""
        ctx = self.policy.overload
        pair = HedgePair()
        outer: Future = Future()
        outer.set_running_or_notify_cancel()

        def settle(side: str, fut: Future) -> None:
            err = fut.exception()
            if err is not None:
                if pair.mark_failed(side):
                    outer.set_exception(err)
            elif pair.resolve(side):
                if side == "hedge":
                    ctx.hedges_won.inc()
                outer.set_result(fut.result())
            else:
                ctx.hedges_wasted.inc()

        primary.add_done_callback(lambda f: settle("primary", f))
        hedge.add_done_callback(lambda f: settle("hedge", f))
        return outer

    # ------------------------------------------------------------------
    def probe(self) -> dict[str, bool]:
        """Sample every replica's signals into the health monitor.

        Returns ``{replica_id: healthy}`` after hysteresis.  Call
        periodically (the real deployment's probe loop); the monitor
        itself is clock-free.  The per-replica latency EWMA rides along
        as the straggler signal whenever hedging or straggler demotion
        reads it.
        """
        with self._lock:
            return {rid: self.policy.observe(rid, server.signals())
                    for rid, server in self.servers.items()}

    # ------------------------------------------------------------------
    def assignments(self, fingerprints) -> dict[str, list[str]]:
        """replica id -> assigned fingerprints (ring homes)."""
        return self.policy.assignments(fingerprints)

    def warm(self, fingerprints) -> dict[str, int]:
        """Concurrently preload each replica's assigned fingerprints.

        Every replica warms only its ring-assigned subset from its
        registry's store tier, on its own thread — the cold-start path
        of a whole cluster restarting against one shared store
        directory.  Returns ``{replica_id: plans_warmed}``.
        """
        if self._closed:
            raise RouterClosedError("router is closed")
        assigned = self.assignments(fingerprints)
        warmed: dict[str, int] = {rid: 0 for rid in self.servers}

        def work(rid: str) -> None:
            server = self.servers[rid]
            if server.registry.store is None:
                return
            count = 0
            for fp in assigned[rid]:
                load_s = server.registry.warm(fp)
                if load_s is not None:
                    server.stats.observe_preprocess(load_s)
                    count += 1
            warmed[rid] = count

        threads = [threading.Thread(target=work, args=(rid,),
                                    name=f"cluster-warm-{rid}")
                   for rid in self.servers]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(warmed.values())
        if total:
            self.obs.counter("cluster.router.warmed_total").inc(total)
        return warmed

    # ------------------------------------------------------------------
    def close(self, timeout: float | None = None) -> None:
        """Close every replica (drains by default; never leaks futures).

        Subsequent ``submit``/``warm`` raise :class:`RouterClosedError`;
        hedge wrappers settle through the replicas' own close-time
        future fail-out.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for server in self.servers.values():
            server.close(timeout)

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
