"""Workload driver — open-loop synthetic traffic replay in virtual time.

Replays a serving workload against the batching + plan-caching pipeline
as a deterministic discrete-event simulation: Poisson arrivals at a
configured offered rate, matrix popularity drawn from a Zipf
distribution over the representative suite, a single modeled device
executing flushed batches in FIFO order, and a bounded device backlog
applying backpressure.  Every batch is charged its modeled device time
(:class:`~repro.serve.policy.ModeledDevice`), cache
misses additionally pay the modeled preprocessing cost (Figure 13), and
per-request latency is ``completion - arrival`` in virtual seconds.

**Chaos mode** (:class:`ChaosConfig`) injects a seeded fault mix over
the same traffic: preprocessing failures, transient kernel failures
(retried with the configured backoff, charged in virtual time),
NaN-corrupted outputs (caught by validation), extra latency, and an
optional permanently-poisoned matrix that drives its circuit breaker
open.  Un-servable batches degrade to the modeled merge-CSR fallback;
requests past their deadline fail fast and are counted.

Being single-threaded and clocked virtually, the driver is exactly
reproducible for a given seed — the property the serving benchmarks
rely on — while every serving decision (shards, plan acquisition,
pricing, retry and degradation) comes from the same
:class:`~repro.serve.policy.ReplicaPolicy` the real-threaded server
runs.

The per-replica simulation state (device clock, backlog, batcher, plan
registry, breaker, stats) lives in :class:`ReplicaSim` so that
:func:`run_workload` (one replica) and the cluster driver
(:mod:`repro.cluster.driver`, N replicas behind a consistent-hash
router) execute the *same* code — the cluster's N=1 exact-parity gate
rests on this shared core.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .._util import ReproError, check, default_rng
from ..core.delta import apply_delta_to_csr, random_delta
from ..core.format import DASPMatrix
# The cost-model entry points stay importable here by name (traced
# benchmark runs patch them); batch pricing itself lives in `.policy`.
from ..core.spmm import mma_utilization, spmm_events  # noqa: F401
from ..gpu.cost_model import estimate_time  # noqa: F401
from ..gpu.device import get_device
from ..obs import Obs
from ..resilience import (
    BreakerConfig,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultRule,
    KernelFault,
    NumericFault,
    RetryPolicy,
)
from ..pipeline import (
    PipelineConfig,
    PrefetchLane,
    SpeculativeWarmer,
    WarmerConfig,
    warm_action,
)
from .batcher import Batch, DEFAULT_FLUSH_TIMEOUT_S, MMA_N, RequestBatcher
from .plan_cache import DEFAULT_BUDGET_BYTES, PlanRegistry, matrix_fingerprint
from .policy import ModeledDevice, ReplicaPolicy
from .request import SpMMRequest, SpMVRequest
from .stats import ServerStats


@dataclass
class ChaosConfig:
    """Seeded fault mix injected over the synthetic workload.

    Attributes
    ----------
    fault_rate:
        Total firing probability, split evenly over *kinds* (0.05 =
        5% of eligible calls hit some fault).
    seed:
        RNG seed of the injector (independent of the traffic seed).
    latency_us:
        Extra modeled microseconds charged when a latency rule fires.
    kinds:
        Which fault kinds participate in the even split.
    poison_rank / poison_rate:
        Optionally make the ``poison_rank``-th pool matrix fail its
        kernel with probability ``poison_rate`` — the deterministic way
        to exercise the circuit breaker under Zipf traffic.
    """

    fault_rate: float = 0.05
    seed: int = 7
    latency_us: float = 300.0
    kinds: tuple = ("preprocess_error", "kernel_error", "kernel_nan",
                    "latency")
    poison_rank: int | None = None
    poison_rate: float = 1.0


@dataclass
class WorkloadConfig:
    """Knobs of one synthetic serving workload.

    Attributes
    ----------
    n_requests / rate_rps / zipf_s / seed:
        Open-loop traffic shape: request count, Poisson arrival rate
        (requests per virtual second), Zipf popularity exponent over
        the matrix pool, RNG seed.  ``rate_rps=None`` auto-picks a rate
        that saturates the modeled device (~4x its unbatched capacity).
    n_matrices / dtype / device:
        Pool size (taken from the representative suite in order) and
        the modeled precision/hardware.
    max_batch / flush_timeout_s:
        Batching policy (``max_batch=1`` is the request-at-a-time
        baseline).
    cache_budget_bytes / plan_cache:
        Plan-registry byte budget; ``plan_cache=False`` rebuilds the
        plan for every batch (the re-preprocessing baseline).
    queue_depth:
        Bounded device backlog (flushed-but-unstarted batches); arrivals
        beyond it are rejected.
    deadline_s / retry / breaker / fallback / chaos:
        Resilience knobs (virtual-time deadlines per request, retry
        policy for transient kernel failures, circuit-breaker
        thresholds, merge-CSR degradation on/off, fault mix).  All
        inert by default: with ``chaos=None`` and ``deadline_s=None``
        the driver behaves exactly like the resilience-free baseline.
    shards / shard_workers:
        Row sharding (:mod:`repro.shard`): ``shards=None`` keeps the
        single-kernel path, an integer partitions every pool matrix
        into that many nnz-balanced row bands, ``"auto"`` picks the
        count per matrix from the makespan cost model.  A sharded
        batch is charged the LPT makespan of its per-shard modeled
        times over ``shard_workers`` concurrent lanes instead of the
        single-chain time.
    store / warm_start:
        Durable plan tier (:class:`repro.store.PlanStore` or a
        path-like): builds write through as ``.daspz`` artifacts and
        cache misses try a disk load first, charging the *modeled*
        load time instead of the rebuild.  ``warm_start=True``
        additionally preloads every pool matrix's artifact before
        traffic starts — off the virtual clock, like a server
        restarting from its previous run's store.
    pipeline:
        Async pipelined execution (:mod:`repro.pipeline`): ``True`` or
        a :class:`~repro.pipeline.PipelineConfig` charges cold-matrix
        plan loads/builds to a modeled prefetch lane instead of the
        device clock — the batch parks until the lane finishes while
        the device keeps executing resident matrices — and prices
        shard bands / SpMM column tiles with the double-buffered
        overlap schedule.  Results are bitwise-identical to
        pipeline-off; only the timeline changes.  ``False`` (default)
        keeps the pre-pipeline driver bit-exactly.
    warmer:
        Speculative plan warmer (``True`` or a
        :class:`~repro.pipeline.WarmerConfig`): watches the Zipf
        popularity estimate from the run's obs counters and
        preloads/prebuilds not-yet-requested pool matrices on the
        prefetch lane, choosing load vs rebuild with the store's
        modeled gate.  Implies the prefetch lane even when
        ``pipeline`` is off.
    spmm_mix / spmm_ks:
        Large-k SpMM traffic: ``spmm_mix`` is the fraction of requests
        issued as :class:`~repro.serve.SpMMRequest` blocks (bypassing
        the coalescing batcher, exactly like the real server), with
        ``k`` drawn uniformly from ``spmm_ks``.  The mix uses a
        dedicated RNG stream (``seed + 13``), drawn only when the mix
        is nonzero — an SpMV-only workload stays bit-identical to the
        pre-mix driver.
    update_mix / structural_frac / update_entries:
        Dynamic-matrix traffic: ``update_mix`` is the fraction of
        arrival slots that carry a matrix *delta* instead of a read —
        the replica patches the resident plan through
        :meth:`repro.serve.PlanRegistry.update` (advancing the version
        chain; queued reads drain against their pinned version) rather
        than rebuilding it.  ``structural_frac`` of the updates change
        the sparsity pattern (:class:`repro.core.StructuralUpdate`);
        the rest touch values only.  Deltas draw ``update_entries``
        coordinates each from a dedicated RNG stream (``seed + 17``),
        touched only when the mix is nonzero — a static workload stays
        bit-identical to the pre-delta driver.
    """

    n_requests: int = 2000
    rate_rps: float | None = None
    zipf_s: float = 1.1
    seed: int = 2023
    n_matrices: int = 4
    dtype: str = "float64"
    device: str = "A100"
    max_batch: int = MMA_N
    flush_timeout_s: float = DEFAULT_FLUSH_TIMEOUT_S
    cache_budget_bytes: int = DEFAULT_BUDGET_BYTES
    plan_cache: bool = True
    queue_depth: int = 256
    entries: list = field(default_factory=list)  # overrides the suite pool
    deadline_s: float | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    fallback: bool = True
    chaos: ChaosConfig | None = None
    shards: int | str | None = None
    shard_workers: int = 4
    store: object = None
    warm_start: bool = False
    pipeline: PipelineConfig | bool = False
    warmer: WarmerConfig | bool = False
    spmm_mix: float = 0.0
    spmm_ks: tuple = (16, 32, 64)
    update_mix: float = 0.0
    structural_frac: float = 0.3
    update_entries: int = 8


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized Zipf popularity over ``n`` ranked items."""
    check(n >= 1, "need at least one item")
    w = np.arange(1, n + 1, dtype=np.float64) ** -float(s)
    return w / w.sum()


def _resolve_pipeline(cfg: WorkloadConfig) -> PipelineConfig | None:
    """Normalize the ``pipeline`` field (bool shorthand) to a config."""
    if isinstance(cfg.pipeline, PipelineConfig):
        return cfg.pipeline
    return PipelineConfig() if cfg.pipeline else None


def _resolve_warmer(cfg: WorkloadConfig) -> WarmerConfig | None:
    """Normalize the ``warmer`` field (bool shorthand) to a config."""
    if isinstance(cfg.warmer, WarmerConfig):
        return cfg.warmer
    return WarmerConfig() if cfg.warmer else None


def _modeled_for(cfg: WorkloadConfig, device, dtype) -> ModeledDevice:
    """The run's memoized device model (double-buffered pricing in
    pipeline mode)."""
    pcfg = _resolve_pipeline(cfg)
    return ModeledDevice(
        device, np.dtype(dtype).itemsize * 8, workers=cfg.shard_workers,
        double_buffer=pcfg.double_buffer if pcfg is not None else False)


def _matrix_pool(cfg: WorkloadConfig):
    """Build the (fingerprint-keyed) CSR pool for the workload."""
    if cfg.entries:
        entries = cfg.entries
    else:
        from ..matrices import representative_suite

        entries = representative_suite()[:cfg.n_matrices]
    dtype = np.dtype(cfg.dtype)
    pool = []
    for e in entries:
        csr = e.matrix().astype(dtype)
        pool.append((e.name, matrix_fingerprint(csr), csr))
    return pool


def _build_injector(cfg: WorkloadConfig, pool) -> FaultInjector | None:
    chaos = cfg.chaos
    if chaos is None:
        return None
    plan = FaultPlan.chaos_mix(chaos.fault_rate, seed=chaos.seed,
                               latency_s=chaos.latency_us * 1e-6,
                               kinds=chaos.kinds)
    if chaos.poison_rank is not None:
        check(0 <= chaos.poison_rank < len(pool),
              "poison_rank outside the matrix pool")
        plan.rules.append(FaultRule(
            kind="kernel_error", rate=chaos.poison_rate,
            fingerprint=pool[chaos.poison_rank][1]))
    return FaultInjector(plan)


class ReplicaSim:
    """One modeled serving replica in virtual time.

    The virtual-clock adapter over
    :class:`~repro.serve.policy.ReplicaPolicy`: it owns the modeled
    device clock (``device_free``), the bounded backlog, a
    :class:`RequestBatcher`, a :class:`PlanRegistry` (optionally backed
    by a :class:`repro.store.PlanStore`), the prefetch lane and the
    per-replica :class:`ServerStats`; the policy makes every decision.

    :func:`run_workload` drives exactly one instance; the cluster
    driver drives N of them behind a consistent-hash router, each with
    its own ``obs`` handle so queue-depth gauges and breaker counters
    stay per-replica (the signals :class:`repro.cluster.ReplicaHealth`
    consumes).

    Parameters
    ----------
    cfg:
        The :class:`WorkloadConfig` whose serving knobs (batching,
        cache budget, queue depth, resilience) this replica applies.
    device / dtype:
        Resolved device object and numpy dtype (shared by the run).
    pool:
        ``(name, fingerprint, csr)`` triples of the matrix pool.
    obs:
        Per-replica observability handle (fresh private one when
        omitted).
    injector:
        Optional per-replica :class:`FaultInjector`.
    retry_rng:
        Retry-jitter RNG stream; *shared* across the run's replicas so
        the N=1 cluster draws exactly the single-driver sequence.
    modeled:
        Memoized :class:`~repro.serve.policy.ModeledDevice`; shareable
        across replicas (plan costs are deterministic per fingerprint).
    store:
        Optional disk tier for this replica's plan registry (a
        :class:`repro.store.PlanStore` or a path-like; replicas of one
        cluster each open their own instance over a shared directory).
    replica_id:
        Stable identifier used in cluster routing and span attribution.
    materialize_results:
        ``False`` skips allocating per-request result vectors (the
        virtual driver scatters zeros anyway) — the memory lever that
        lets the cluster driver replay millions of requests.
    time_scale:
        Multiplier on every modeled device second this replica charges
        (kernels, preprocessing, fallback) — the ``slow_replica`` chaos
        scenario: a straggler that is alive and correct, just slow.
        The default 1.0 skips the multiply entirely, keeping bit-exact
        parity with pre-overload runs.
    overload:
        Shared :class:`repro.overload.OverloadContext` of the run
        (cluster-wide retry budget, hedge counters and pair
        accounting); ``None`` keeps all overload machinery inert.
    """

    def __init__(self, cfg: WorkloadConfig, *, device, dtype, pool,
                 obs: Obs | None = None, injector=None, retry_rng=None,
                 modeled: ModeledDevice | None = None, store=None,
                 replica_id: str = "r0",
                 materialize_results: bool = True,
                 time_scale: float = 1.0,
                 overload=None) -> None:
        if obs is None or not obs.enabled:
            obs = Obs()
        self.cfg = cfg
        self.device = device
        self.dtype = dtype
        self.obs = obs
        self.tracing = obs.tracing
        self.replica_id = replica_id
        self.materialize_results = bool(materialize_results)
        self.injector = injector
        if injector is not None:
            injector.bind(obs)
        self.registry = PlanRegistry(cfg.cache_budget_bytes,
                                     fault_injector=injector, obs=obs,
                                     store=store, device=device)
        self.batcher = RequestBatcher(cfg.max_batch, cfg.flush_timeout_s)
        self.modeled = modeled if modeled is not None \
            else _modeled_for(cfg, device, dtype)
        self.stats = ServerStats(device=device.name, dtype=str(dtype), obs=obs)
        self.breaker = CircuitBreaker(cfg.breaker, obs=obs)
        self.overload = overload
        self.policy = ReplicaPolicy(
            device=device, registry=self.registry, stats=self.stats, obs=obs,
            pricer=self.modeled, retry=cfg.retry,
            retry_rng=(retry_rng if retry_rng is not None
                       else default_rng(cfg.seed + 1)),
            breaker=self.breaker, injector=injector,
            retry_budget=(overload.retry_budget if overload is not None
                          else None),
            fallback=cfg.fallback, shards=cfg.shards, max_batch=cfg.max_batch,
            time_scale=time_scale, recoverable=ReproError)
        self.csr_by_fp = {fp: csr for _, fp, csr in pool}
        self.device_free = 0.0      # when the modeled device next idles
        self.backlog: deque = deque()  # flushed batches awaiting the device
        self.completed: list[SpMVRequest] = []
        # --- async pipeline / speculative warming state ---------------
        self.pipeline_cfg = _resolve_pipeline(cfg)
        warmer_cfg = _resolve_warmer(cfg)
        # the warmer needs a lane to charge speculative loads to, even
        # with the request pipeline itself off
        if self.pipeline_cfg is not None or warmer_cfg is not None:
            lanes = self.pipeline_cfg.lanes if self.pipeline_cfg else 1
            self._lane = PrefetchLane(obs=obs, lanes=lanes)
            self._parked_total = obs.counter("pipeline.parked_total")
        else:
            self._lane = None
        if warmer_cfg is not None:
            self._warmer = SpeculativeWarmer(warmer_cfg, obs=obs)
            for _, fp, _csr in pool:
                self._warmer.register(fp)
        else:
            self._warmer = None
        #: fingerprint -> modeled completion time of an in-flight plan
        #: acquisition on the lane.  The plan is already resident on
        #: the Python side (the sim is single-threaded); batches must
        #: still park until the lane clock says the load finished.
        self._prefetching: dict[str, float] = {}
        self._parked: list[tuple[float, int, Batch]] = []
        self._park_seq = 0

    # ------------------------------------------------------------------
    # signals (consumed by the cluster health monitor)
    # ------------------------------------------------------------------
    @property
    def backlog_depth(self) -> int:
        """Flushed-but-unstarted batches (the queue-depth signal)."""
        return len(self.backlog)

    def open_circuits(self) -> int:
        """Fingerprints whose circuit is currently not closed."""
        return sum(1 for state in self.breaker.snapshot().values()
                   if state != "closed")

    # ------------------------------------------------------------------
    # plan acquisition
    # ------------------------------------------------------------------
    def warm(self, fingerprints) -> float:
        """Preload *fingerprints* from the disk tier (off the virtual
        clock — a restart reading its previous run's artifacts).
        Returns the total modeled load seconds charged."""
        total = 0.0
        if self.registry.store is None:
            return total
        for fp in fingerprints:
            load_s = self.registry.warm(fp)
            if load_s:
                self.stats.observe_preprocess(load_s)
                total += load_s
        return total

    def warm_many(self, fingerprints, now: float = 0.0) -> None:
        """Warm-start entry point (startup preload, router warm-up,
        post-rebalance re-warm).  With the speculative warmer enabled
        the warm rides its machinery — the modeled load-vs-rebuild
        gate and lane-charged acquisition; otherwise it is the legacy
        store-only preload."""
        if self._warmer is None or self._lane is None:
            self.warm(fingerprints)
            return
        for fp in fingerprints:
            self._warmer.register(fp)
            if fp in self._prefetching or self.registry.peek(fp) is not None:
                continue
            self._speculative_warm(fp, now)

    def _start_prefetch(self, fp: str, now: float) -> None:
        """Acquire *fp*'s plan off the device clock (pipeline mode).

        The load/build happens immediately on the Python side through
        the registry's single-flight; its modeled cost is booked on the
        prefetch lane, and batches needing the plan park until the
        lane's completion time."""
        try:
            _, source, cost = self.policy.acquire(fp, self.csr_by_fp[fp])
        except ReproError:
            # a failed speculative acquisition must not take traffic
            # down; the demand path retries (and pays) later
            self.obs.counter("pipeline.warm_failed_total").inc()
            return
        if source == "ram":             # already resident (or pending)
            return
        kind = "build" if source == "built" else "load"
        self._prefetching[fp] = self._lane.schedule(now, cost, kind=kind)

    def _speculative_warm(self, fp: str, now: float) -> None:
        """One warmer nomination: load vs rebuild by the store's
        modeled gate, charged to the prefetch lane."""
        action = warm_action(self.registry.store, fp, self.device)
        self.obs.counter("pipeline.warm_total", {"action": action}).inc()
        if action == "load":
            load_s = self.registry.warm(fp)
            if load_s is None:      # quarantined/corrupt: rebuild
                self._start_prefetch(fp, now)
                return
            cost = self.policy.scale(load_s)
            if cost:
                self.stats.observe_preprocess(cost)
            self.obs.counter("pipeline.warm_load_total").inc()
            self._prefetching[fp] = self._lane.schedule(now, cost,
                                                        kind="warm.load")
        else:
            self.obs.counter("pipeline.warm_build_total").inc()
            self._start_prefetch(fp, now)

    def _warm_tick(self, now: float) -> None:
        """Let the warmer nominate and dispatch speculative warms."""
        due = self._warmer.due(resident=lambda f: (
            f in self._prefetching or self.registry.peek(f) is not None))
        for fp in due:
            self._speculative_warm(fp, now)

    def _park_if_pending(self, batch, fp: str) -> bool:
        """Park *batch* while its plan is still in flight on the lane.

        Returns True when parked; the device stays free for batches of
        resident matrices — the pipelining win."""
        ready = self._prefetching.get(fp)
        if ready is None:
            return False
        if ready > max(self.device_free, batch.formed_s):
            self._parked.append((ready, self._park_seq, batch))
            self._park_seq += 1
            self._parked_total.inc()
            return True
        self._prefetching.pop(fp, None)
        return False

    def _release_parked(self, now: float) -> None:
        """Re-enqueue parked batches whose plan acquisition finished."""
        due = [e for e in self._parked if e[0] <= now]
        if not due:
            return
        due.sort()
        self._parked = [e for e in self._parked if e[0] > now]
        for ready, _seq, batch in due:
            self._prefetching.pop(batch.fingerprint, None)
            # the batch cannot start before its plan is usable
            batch.formed_s = max(batch.formed_s, ready)
            self.backlog.append(batch)

    def _acquire(self, fp: str, key: str):
        """The batch's plan, its acquisition charged to the device
        timeline.  Raises when the plan cannot be had.

        With ``plan_cache=False`` (the re-preprocessing baseline) the
        plan is rebuilt — and paid for — on every batch."""
        csr = self.csr_by_fp[fp]
        if self.cfg.plan_cache:
            plan, _, cost = self.policy.acquire(fp, csr, key)
        else:
            plan, cost = self.policy.build(fp, csr)
            cost = self.policy.scale(cost)
            self.stats.observe_preprocess(cost)
        self.device_free += cost
        return plan

    # ------------------------------------------------------------------
    # dynamic matrices — delta application
    # ------------------------------------------------------------------
    def apply_update(self, fp: str, delta, now: float, *,
                     persist: bool = True) -> int:
        """Apply one matrix *delta* at virtual time *now*.

        Pending reads for the matrix are fenced out of the batcher
        first (they were admitted against the old version and must
        execute against it), then the registry patches the resident
        plan and advances the version chain; the modeled patch time
        occupies the device timeline exactly like the rebuild it
        replaces would.  ``persist=False`` suppresses the store delta
        write — cluster replicas other than the matrix's home replica.

        With the plan cache off there is no plan to patch: the
        reference CSR evolves through
        :func:`repro.core.apply_delta_to_csr` and the next batch's
        rebuild pays the full preprocessing cost, which is exactly the
        rebuild-per-update baseline the patch path is gated against.
        Returns the new version (0 on the no-cache path).
        """
        fence = self.batcher.flush(fp, now)
        if fence is not None:
            self.enqueue([fence])
        if not self.cfg.plan_cache:
            self.csr_by_fp[fp] = apply_delta_to_csr(self.csr_by_fp[fp], delta)
            kind = "structural" if hasattr(delta, "insert_rows") else "value"
            self.obs.counter(f"delta.{kind}_total").inc()
            return 0
        with self.obs.span("plan.patch", attrs={"matrix": fp[:8]}
                           if self.tracing else None) as sp:
            version, info, plan = self.registry.update(
                fp, delta, csr=self.csr_by_fp[fp], persist=persist)
            patch_s = self.policy.scale(info.seconds(self.device))
            sp.set_device_time(patch_s)
            if self.tracing:
                sp.set_attr("version", version)
                sp.set_attr("kind", info.kind)
        self.stats.observe_preprocess(patch_s)
        self.device_free += patch_s
        # keep the reference CSR at the head of the chain — the next
        # delta is drawn against (and the fallback partitions) this
        self.csr_by_fp[fp] = plan.csr
        return version

    # ------------------------------------------------------------------
    # batch execution on the modeled device
    # ------------------------------------------------------------------
    @staticmethod
    def _side(req: SpMVRequest) -> str:
        return "hedge" if req.shadow else "primary"

    def _terminal_count(self, reqs) -> int:
        """How many of *reqs* are terminal *logical* failures.

        Pair-less requests always are; a hedged copy only when its
        failure is the pair's second (both copies dead, neither won) —
        so each logical request gets exactly one counted outcome no
        matter how its two copies fare."""
        if self.overload is None:
            return len(reqs)
        return sum(1 for r in reqs
                   if r.pair is None or r.pair.mark_failed(self._side(r)))

    def _complete(self, batch, result, degraded: bool = False) -> None:
        """Finish *batch* at ``result = (done, seconds, useful,
        issued)``: resolve hedge pairs and record every winner."""
        done, t, useful, issued = result
        self.device_free = done
        if self.materialize_results:
            plan_rows = self.csr_by_fp[batch.fingerprint].shape[0]
            batch.scatter(np.zeros((plan_rows, batch.k)), done)
        else:
            for req in batch.requests:
                req.completion_s = done
        ctx = self.overload
        if ctx is None:
            winners = batch.requests
        else:
            # first processed completion wins a hedge pair; the loser's
            # work is burned (device time above) but produces no
            # user-visible outcome
            winners = []
            for req in batch.requests:
                if req.pair is None or req.pair.resolve(self._side(req)):
                    if req.pair is not None and req.shadow:
                        ctx.hedges_won.inc()
                    winners.append(req)
                else:
                    ctx.hedges_wasted.inc()
        if degraded:
            self.stats.observe_degraded(len(winners))
        self.stats.observe_batch(batch.k, t, useful_mma=useful,
                                 issued_mma=issued, completed=len(winners))
        for req in winners:
            self.stats.observe_latency(req.latency_s)
            self.completed.append(req)

    # -- clock hooks of ReplicaPolicy.serve -----------------------------
    def _clock(self, batch) -> float:
        return max(self.device_free, batch.formed_s)

    def _degrade(self, batch, key: str, cause: Exception) -> None:
        """Serve *batch* from the merge-CSR fallback, or fail it when
        the fallback is off."""
        if not self.policy.fallback:
            self.stats.observe_failed(self._terminal_count(batch.requests))
            return
        start = self._clock(batch)
        fp = batch.fingerprint
        with self.policy.fallback_span(fp, cause) as sp:
            t, pre_s = self.policy.charge_fallback(sp, key,
                                                   self.csr_by_fp[fp], batch.k)
        self._complete(batch, (start + pre_s + t, t, 0.0, 0.0),
                       degraded=True)

    def _attempt(self, batch, fp: str, key: str, plan, strategy,
                 attempt: int):
        """One modeled kernel attempt inside a ``kernel`` span; the
        device is busy for its time even when it fails.

        *key* keys the price memo (versioned once the matrix has a
        delta chain); the bare *fp* names the matrix for the chaos
        injector, whose poison rules match bare fingerprints."""
        start = self._clock(batch)
        with self.obs.span("kernel", attrs={"attempt": attempt}
                           if self.tracing else None) as sp:
            t, useful, issued = self.policy.price(key, plan, batch.k)
            fault: Exception | None = None
            extra_s = 0.0
            if self.injector is not None:
                try:
                    decision = self.injector.check_kernel(fp)
                    extra_s = self.policy.scale(decision.latency_s)
                    if decision.corrupt:
                        fault = NumericFault("injected NaN output")
                except KernelFault as exc:
                    fault = exc
            if fault is None:
                self.policy.attribute(sp, key, plan, batch.k, t + extra_s,
                                      strategy)
            elif self.tracing:
                sp.status = "error"
                sp.set_attr("fault", type(fault).__name__)
        self.device_free = start + t + extra_s
        if fault is not None:
            raise fault
        return self.device_free, t + extra_s, useful, issued

    def _backoff(self, batch, seconds: float) -> bool:
        self.device_free += seconds
        return True

    def _run_one(self, batch) -> None:
        """Execute one batch on the modeled device, chaos included."""
        fp = batch.fingerprint
        if self._lane is not None and self._park_if_pending(batch, fp):
            return
        with self.obs.span("batch", attrs={"matrix": fp[:8], "k": batch.k}
                           if self.tracing else None):
            self._run_one_inner(batch, fp)

    def _run_one_inner(self, batch, fp: str) -> None:
        start = max(self.device_free, batch.formed_s)
        if self.overload is not None:
            # drop copies whose hedge pair the other replica already
            # won — first-wins cancellation before any work or expiry
            # accounting happens here
            live = []
            for r in batch.requests:
                if r.pair is not None and r.pair.cancelled(self._side(r)):
                    self.overload.hedges_wasted.inc()
                else:
                    live.append(r)
            batch.requests = live
            if not batch.requests:
                return
        if self.cfg.deadline_s is not None:
            expired = batch.split_expired(start)
            if expired:
                self.stats.observe_deadline_exceeded(
                    self._terminal_count(expired))
            if not batch.requests:
                return
        # the version the batch's requests were admitted against
        key = self.policy.plan_key(fp, batch.requests[0].version)
        self.policy.serve(self, batch, fp, key)

    # ------------------------------------------------------------------
    # virtual-time event loop hooks
    # ------------------------------------------------------------------
    def start_batches(self, now: float) -> None:
        """Run every backlog batch whose start time has been reached."""
        while True:
            if self._parked:
                self._release_parked(now)
            if not self.backlog or self.device_free > now:
                return
            self._run_one(self.backlog.popleft())

    def enqueue(self, batches) -> None:
        for b in batches:
            self.backlog.append(b)

    def advance_to(self, now: float) -> None:
        """Process every timeout flush and device start due before *now*."""
        while True:
            deadline = self.batcher.next_deadline()
            if deadline >= now:
                break
            # nextafter guards against (arrival + timeout) - arrival
            # rounding below the timeout and stalling the flush
            batches = self.batcher.due(np.nextafter(deadline, np.inf))
            if not batches:
                break
            self.enqueue(batches)
            self.start_batches(deadline)
        self.start_batches(now)

    def offer(self, req: SpMVRequest, now: float) -> bool:
        """Admit one request (False = rejected under backpressure)."""
        self.stats.observe_request()
        if len(self.backlog) >= self.cfg.queue_depth:
            self.stats.observe_rejected()
            return False
        # pin the request to the matrix version current at admission;
        # updates landing while it queues must not change its answer
        req.version = self.registry.version_of(req.fingerprint)
        self.policy.note_shard_hint(req.fingerprint, req.shards)
        if self._warmer is not None:
            self._warmer.observe(req.fingerprint)
            self._warm_tick(now)
        if self.pipeline_cfg is not None and self.cfg.plan_cache \
                and req.fingerprint not in self._prefetching \
                and self.registry.peek(req.fingerprint) is None:
            self._start_prefetch(req.fingerprint, now)
        if isinstance(req, SpMMRequest):
            # an SpMM block already is a batch; bypass the coalescer
            self.enqueue([Batch(req.fingerprint, [req], now)])
        else:
            full = self.batcher.add(req, now)
            if full is not None:
                self.enqueue([full])
        ctx = self.overload
        if ctx is not None and ctx.retry_budget is not None and not req.shadow:
            ctx.retry_budget.on_request()
        return True

    def drain(self, last_arrival: float) -> float:
        """End of arrivals: flush stragglers and let the device empty.

        Returns the virtual end time (last arrival or last flush
        deadline, whichever is later) and leaves ``stats.duration_s``
        set to the final completion time."""
        end = float(last_arrival)
        while True:
            deadline = self.batcher.next_deadline()
            if deadline == float("inf"):
                break
            batches = self.batcher.due(np.nextafter(deadline, np.inf))
            if not batches:
                break
            self.enqueue(batches)
            end = max(end, deadline)
        self.enqueue(self.batcher.flush_all(end))
        self.device_free = max(self.device_free, end)
        self.start_batches(float("inf"))
        self.stats.duration_s = max(
            (r.completion_s for r in self.completed), default=end)
        # Cache, breaker and fault counters already live in the shared
        # registry (one source of truth); only the non-counter breaker
        # state map is copied for the report.
        self.stats.breaker_state = self.breaker.snapshot()
        return end


def auto_rate(pool, modeled: ModeledDevice, *, replicas: int = 1) -> float:
    """Saturating default offered rate: 4x the unbatched modeled
    capacity of the most popular matrix per replica (open-loop overload
    is the regime where batching pays; an idle server degenerates to
    singletons).  Built directly — going through a registry would
    pollute the cache/store counters the run reports, and the probe
    must give the same rate (hence the same traffic trace) whether or
    not a warm-start already populated the cache."""
    plan0 = DASPMatrix.from_csr(pool[0][2])
    t1, _, _ = modeled.batch_cost(pool[0][1], plan0, 1)
    return 4.0 * replicas / t1


def run_workload(cfg: WorkloadConfig, *, obs: Obs | None = None) -> ServerStats:
    """Simulate *cfg* and return the populated :class:`ServerStats`.

    ``obs`` is the run's observability handle (fresh private one by
    default); the plan registry, breaker, injector and stats facade all
    share it.  Pass one carrying a :class:`repro.obs.Tracer` to record
    ``batch -> preprocess / kernel / fallback`` span trees in *virtual*
    clock coordinates — the simulation itself stays bit-identical, as
    instrumentation never touches the RNG streams or modeled times.
    """
    check(cfg.n_requests >= 1, "n_requests must be >= 1")
    check(0.0 <= cfg.spmm_mix <= 1.0, "spmm_mix must be in [0, 1]")
    check(0.0 <= cfg.update_mix < 1.0, "update_mix must be in [0, 1)")
    if obs is None or not obs.enabled:
        obs = Obs()
    device = get_device(cfg.device)
    dtype = np.dtype(cfg.dtype)
    rng = default_rng(cfg.seed)
    pool = _matrix_pool(cfg)
    weights = zipf_weights(len(pool), cfg.zipf_s)
    injector = _build_injector(cfg, pool)
    modeled = _modeled_for(cfg, device, dtype)
    replica = ReplicaSim(cfg, device=device, dtype=dtype, pool=pool, obs=obs,
                         injector=injector, modeled=modeled, store=cfg.store)
    stats = replica.stats

    if cfg.warm_start and replica.registry.store is not None:
        # Startup preload (a server restart reading its previous run's
        # artifacts): charged to preprocess_s but off the virtual
        # device clock — it happens before traffic exists.  With the
        # speculative warmer enabled it rides the warmer machinery
        # (load-vs-rebuild gate, persisted reorder permutations).
        replica.warm_many([fp for _, fp, _csr in pool])

    rate = cfg.rate_rps
    if rate is None:
        rate = auto_rate(pool, modeled)

    # Pre-draw arrivals and matrix choices (deterministic given seed).
    gaps = rng.exponential(1.0 / rate, cfg.n_requests)
    arrivals = np.cumsum(gaps)
    choices = rng.choice(len(pool), size=cfg.n_requests, p=weights)
    # Requests reuse a tiny per-matrix pool of x vectors: the driver
    # models traffic, the numeric path is covered by the server tests.
    xs = {fp: rng.uniform(-1, 1, csr.shape[1]).astype(dtype)
          for _, fp, csr in pool}

    # SpMM block traffic draws from its own stream (seed+13), touched
    # only when the mix is on — spmm_mix=0 runs stay bit-identical.
    is_spmm = k_idx = None
    xblocks: dict[tuple[str, int], np.ndarray] = {}
    if cfg.spmm_mix > 0.0:
        check(len(cfg.spmm_ks) >= 1, "spmm_ks must be non-empty")
        spmm_rng = default_rng(cfg.seed + 13)
        is_spmm = spmm_rng.random(cfg.n_requests) < cfg.spmm_mix
        k_idx = spmm_rng.integers(0, len(cfg.spmm_ks), size=cfg.n_requests)

    # Delta traffic draws from its own stream (seed+17), touched only
    # when the mix is on — update_mix=0 runs stay bit-identical.
    is_update = delta_rng = None
    if cfg.update_mix > 0.0:
        delta_rng = default_rng(cfg.seed + 17)
        is_update = delta_rng.random(cfg.n_requests) < cfg.update_mix

    deadline_for = (lambda now: now + cfg.deadline_s) \
        if cfg.deadline_s is not None else (lambda now: float("inf"))

    for i in range(cfg.n_requests):
        now = float(arrivals[i])
        replica.advance_to(now)
        _, fp, csr = pool[choices[i]]
        if is_update is not None and is_update[i]:
            # this arrival slot carries a delta, not a read
            structural = bool(delta_rng.random() < cfg.structural_frac)
            d = random_delta(replica.csr_by_fp[fp], delta_rng,
                             structural=structural,
                             n_entries=cfg.update_entries)
            replica.apply_update(fp, d, now)
            continue
        if is_spmm is not None and is_spmm[i]:
            k = int(cfg.spmm_ks[k_idx[i]])
            X = xblocks.get((fp, k))
            if X is None:
                X = spmm_rng.uniform(-1, 1, (csr.shape[1], k)).astype(dtype)
                xblocks[(fp, k)] = X
            req = SpMMRequest(req_id=i, fingerprint=fp, x=X, arrival_s=now,
                              deadline_s=deadline_for(now))
        else:
            req = SpMVRequest(req_id=i, fingerprint=fp, x=xs[fp],
                              arrival_s=now, deadline_s=deadline_for(now))
        replica.offer(req, now)

    replica.drain(float(arrivals[-1]))
    return stats


def compare_batched_unbatched(cfg: WorkloadConfig, *,
                              obs: Obs | None = None) -> dict[str, ServerStats]:
    """Run *cfg* batched and as request-at-a-time; same traffic trace.

    ``obs`` (if given) observes the *batched* run — the one whose trace
    the comparison is about; the unbatched baseline keeps its private
    handle so the two runs' counters never mix.
    """
    batched = run_workload(cfg, obs=obs)
    unbatched = run_workload(replace(cfg, max_batch=1))
    return {"batched": batched, "unbatched": unbatched}
