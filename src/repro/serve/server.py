"""`SpMVServer` — the real-threaded SpMV inference service.

Wires the serving components together: :class:`SpMVRequest` s
submitted with :meth:`SpMVServer.submit` are coalesced per matrix by
the :class:`~repro.serve.batcher.RequestBatcher` and executed as
:func:`~repro.core.spmm.dasp_spmm` batches (singletons included —
``dasp_spmm`` column folds are bitwise ``dasp_spmv``) on the
:class:`~repro.serve.scheduler.Scheduler` worker pool, against plans
cached in the :class:`~repro.serve.plan_cache.PlanRegistry`.
:class:`SpMMRequest` blocks skip the coalescer (the ``(n, k)`` block
already is a batch); widths beyond ``MMA_N`` execute through the
tuner-chosen large-k strategy
(:func:`~repro.core.spmm_block.choose_spmm_strategy` — looped /
column-tiled / reordered+tiled, all bitwise-identical).  Each submit
returns a ``concurrent.futures.Future`` resolving to the result.

Alongside the numeric result, every batch is charged its *modeled*
device time (A100/H800 cost model over the measured SpMM events), so
the server reports hardware-meaningful throughput even though the
kernels run as NumPy on the host.

Partial failure is a first-class citizen (see :mod:`repro.resilience`):

* requests carry **deadlines** — expired ones fail fast with
  :class:`DeadlineExceededError` at dequeue time instead of occupying
  a batch slot;
* transient kernel failures are **retried** with exponential backoff
  and seeded jitter, bounded by a :class:`RetryPolicy`;
* a per-matrix **circuit breaker** quarantines fingerprints that keep
  failing (closed -> open -> half-open probe);
* when DASP preprocessing fails, blows its deadline, the plan cannot
  fit the cache, or the breaker is open, the batch **degrades** to the
  merge-CSR fallback path — no plan needed, modeled cost charged
  honestly — and ``ServerStats`` reports the degradation;
* :meth:`close` never leaks futures: anything still parked fails with
  :class:`ServerClosedError`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import replace
from functools import partial

import numpy as np

from .._util import ReproError, check, default_rng
# The cost-model entry points stay importable here by name (traced
# benchmark runs patch them); batch pricing itself lives in `.policy`.
from ..core.spmm import (  # noqa: F401
    dasp_spmm,
    dasp_spmm_on_plan,
    mma_utilization,
    spmm_events,
)
from ..core.spmm_block import DEFAULT_TILE_K, dasp_spmm_large, dasp_spmm_tiled
from ..gpu.cost_model import estimate_time  # noqa: F401
from ..gpu.device import get_device
from ..obs import Obs
from ..overload import (
    AdmissionConfig,
    AdmissionController,
    RetryBudget,
    RetryBudgetConfig,
)
from ..pipeline import PlanPrefetcher, SpeculativeWarmer, WarmerConfig
from ..resilience import (
    BreakerConfig,
    CircuitBreaker,
    DeadlineExceededError,
    NumericFault,
    RetryPolicy,
    ServerClosedError,
)
from ..shard import ShardedPlan
from .batcher import DEFAULT_FLUSH_TIMEOUT_S, MMA_N, Batch, RequestBatcher
from .plan_cache import DEFAULT_BUDGET_BYTES, PlanRegistry, matrix_fingerprint
from .policy import ModeledDevice, ReplicaPolicy
from .request import SpMMRequest, SpMVRequest
from .scheduler import QueueFullError, Scheduler
from .stats import ServerStats


class RequestShedError(ReproError):
    """Set on futures whose batch was shed under backpressure."""


class SpMVServer:
    """Batched, plan-cached, failure-hardened SpMV serving.

    Matrices must be :meth:`register`-ed before requests can address
    them (by the returned fingerprint).  Use as a context manager, or
    call :meth:`close` to drain and stop the workers.

    Resilience parameters
    ---------------------
    default_deadline_s:
        Deadline applied to every request that does not pass its own
        (``None`` = no deadline).
    preprocess_deadline_s:
        Budget for one modeled preprocessing pass; exceeding it counts
        as a preprocess failure and degrades the batch (``None`` = no
        budget).
    retry:
        :class:`RetryPolicy` for transiently-failed batches.
    breaker:
        :class:`BreakerConfig` for the per-matrix circuit breaker, or
        ``None`` to disable it.
    fault_injector:
        Optional :class:`repro.resilience.FaultInjector` installed into
        the plan registry, the preprocessing builder and the batch
        executor.
    fallback:
        Serve un-servable batches from the merge-CSR path (default).
        When ``False`` they fail with the causing exception instead.
    admission:
        Optional :class:`repro.overload.AdmissionConfig` (or a shared
        :class:`~repro.overload.AdmissionController`) installing
        token-bucket admission control at :meth:`submit`: shed
        requests fail immediately with a typed
        :class:`~repro.overload.AdmissionRejectedError` — distinct
        from queue-full backpressure — and batch-priority traffic is
        shed first.
    retry_budget:
        Optional :class:`repro.overload.RetryBudgetConfig` (or a
        shared :class:`~repro.overload.RetryBudget` instance, e.g. one
        pool spanning every replica of a cluster) bounding aggregate
        retries: when the pool is dry, a transiently-failed batch
        skips its remaining attempts and degrades straight to the
        merge-CSR fallback instead of amplifying a cluster-wide fault
        into a retry storm.
    shards:
        ``None`` (default) serves each batch with one kernel chain.
        An integer ``S >= 2`` partitions every registered matrix into
        ``S`` nnz-balanced row bands (:mod:`repro.shard`) and executes
        a batch's shards concurrently across this server's worker
        pool, gathering bit-identically; ``"auto"`` picks ``S`` per
        matrix from the makespan cost model
        (:func:`repro.shard.choose_shards`).  Fault rules can target
        one shard via the ``{fingerprint}#s{i}`` fingerprint; a
        transiently-failed shard is retried at shard granularity
        before the whole batch retries or degrades.
    store:
        Optional durable plan tier: a :class:`repro.store.PlanStore`
        (or a path-like to open one at) backing the plan registry.
        Freshly-built plans are written through as ``.daspz``
        artifacts, cache misses try a disk load before rebuilding, and
        plans over the RAM budget are served load-through instead of
        degrading to the fallback path.
    warm_start:
        With a store configured, :meth:`register` preloads the
        matrix's plan from disk (bypassing the load-vs-rebuild gate —
        registration is off the serving clock), so the first request
        skips preprocessing entirely.  The modeled load time is
        charged to ``preprocess_s`` like any other plan-acquisition
        cost.
    pipeline:
        Install a :class:`repro.pipeline.PlanPrefetcher` — a small
        background executor feeding the plan registry through the same
        per-fingerprint single-flight as demand misses.  ``warm_start``
        registration preloads become non-blocking, and the speculative
        warmer (below) gets an execution vehicle.  Results are bitwise
        identical with the pipeline on or off; only *where* plan
        acquisition runs changes.
    warmer:
        Enable the speculative plan warmer
        (:class:`repro.pipeline.SpeculativeWarmer`; pass a
        :class:`~repro.pipeline.WarmerConfig` for custom thresholds,
        or ``True`` for defaults).  The warmer watches the Zipf
        popularity estimate over per-matrix request counters and
        prefetches registered-but-cold matrices before their first
        request.  Implies the background prefetcher even when
        ``pipeline`` is off.
    obs:
        :class:`repro.obs.Obs` handle shared by every component of this
        server — the plan registry, scheduler, breaker, fault injector
        and :class:`ServerStats` all read/write its registry, so the
        stats facade needs no copy-at-close step.  Pass one with a
        :class:`repro.obs.Tracer` to record ``batch -> preprocess /
        kernel / fallback`` span trees; defaults to a fresh private
        metrics-only handle.
    """

    def __init__(self, *, device: str = "A100",
                 max_batch: int = MMA_N,
                 flush_timeout_s: float = DEFAULT_FLUSH_TIMEOUT_S,
                 cache_budget_bytes: int = DEFAULT_BUDGET_BYTES,
                 workers: int = 2, queue_depth: int = 64,
                 policy: str = "reject",
                 default_deadline_s: float | None = None,
                 preprocess_deadline_s: float | None = None,
                 retry: RetryPolicy | None = None,
                 breaker: BreakerConfig | None = BreakerConfig(),
                 fault_injector=None,
                 fallback: bool = True,
                 admission: AdmissionConfig | AdmissionController | None = None,
                 retry_budget: RetryBudgetConfig | RetryBudget | None = None,
                 shards: int | str | None = None,
                 store=None,
                 warm_start: bool = False,
                 pipeline: bool = False,
                 warmer: WarmerConfig | bool = False,
                 seed: int = 0,
                 obs: Obs | None = None) -> None:
        self.device = get_device(device)
        if obs is None or not obs.enabled:
            obs = Obs()
        self.obs = obs
        if fault_injector is not None:
            fault_injector.bind(obs)
        self.registry = PlanRegistry(cache_budget_bytes,
                                     fault_injector=fault_injector, obs=obs,
                                     store=store, device=self.device)
        self.warm_start = bool(warm_start)
        self.batcher = RequestBatcher(max_batch, flush_timeout_s)
        self.stats = ServerStats(device=self.device.name, obs=obs)
        self.default_deadline_s = default_deadline_s
        self.breaker = (CircuitBreaker(breaker, obs=obs)
                        if breaker is not None else None)
        if admission is None or isinstance(admission, AdmissionController):
            self.admission = admission
        else:
            self.admission = AdmissionController(admission, obs=obs)
        if retry_budget is None or isinstance(retry_budget, RetryBudget):
            self.retry_budget = retry_budget
        else:
            self.retry_budget = RetryBudget(retry_budget, obs=obs)
        self.scheduler = Scheduler(
            self._execute_batch, workers=workers, queue_depth=queue_depth,
            policy=policy, on_shed=self._shed_batch,
            on_error=self._fail_batch, prune=self._prune_batch, obs=obs)
        self.policy = ReplicaPolicy(
            device=self.device, registry=self.registry, stats=self.stats,
            obs=obs, pricer=ModeledDevice(self.device, workers=workers),
            retry=retry if retry is not None else RetryPolicy(),
            retry_rng=default_rng(seed), breaker=self.breaker,
            injector=fault_injector, retry_budget=self.retry_budget,
            fallback=fallback, shards=shards, max_batch=max_batch,
            preprocess_deadline_s=preprocess_deadline_s)
        if warmer:
            self._warmer = SpeculativeWarmer(
                warmer if isinstance(warmer, WarmerConfig) else None, obs=obs)
        else:
            self._warmer = None
        self.prefetcher = (PlanPrefetcher(self.registry, obs=obs)
                           if (pipeline or self._warmer is not None) else None)
        self._matrices: dict[str, object] = {}
        self._futures: dict[int, Future] = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._t0 = time.perf_counter()
        self._closed = False
        self._stop = threading.Event()
        self._flusher = threading.Thread(target=self._flush_loop,
                                         name="serve-flusher", daemon=True)
        self._flusher.start()

    @property
    def fault_injector(self):
        """The installed fault injector (``None`` = none).  Settable
        after construction (it then reports into this server's
        metrics); set ``registry.fault_injector`` too so registry-level
        faults fire."""
        return self.policy.injector

    @fault_injector.setter
    def fault_injector(self, injector) -> None:
        if injector is not None:
            injector.bind(self.obs)
        self.policy.injector = injector

    # ------------------------------------------------------------------
    def register(self, csr) -> str:
        """Make *csr* servable; returns its routing fingerprint.

        With ``warm_start=True`` and a store configured, the matrix's
        plan is preloaded from its on-disk artifact here (best-effort:
        a missing or corrupt artifact just means the first request
        builds as usual)."""
        fp = matrix_fingerprint(csr)
        with self._lock:
            if self._closed:
                raise ServerClosedError("server is closed")
            self._matrices[fp] = csr
        if self._warmer is not None:
            self._warmer.register(fp)
        if self.warm_start and self.registry.store is not None:
            if self.prefetcher is not None:
                # async pipeline: the preload happens off the caller's
                # thread (single-flight shared with any demand miss)
                self.prefetcher.prefetch(fp)
            else:
                load_s = self.registry.warm(fp)
                if load_s:
                    self.stats.observe_preprocess(load_s)
        return fp

    def submit(self, request) -> Future:
        """Queue one request; the future resolves to its result.

        Takes a typed request object —
        :class:`~repro.serve.SpMVRequest` for ``y = A @ x`` (future
        resolves to the ``(m,)`` vector) or
        :class:`~repro.serve.SpMMRequest` for ``Y = A @ X`` (future
        resolves to the ``(m, k)`` block) — carrying its keyword-only
        ``deadline_us`` / ``priority`` / ``shards``.  The submitted
        object is never mutated; bookkeeping happens on a private
        copy, so the same request may be re-issued (e.g. by the
        router's hedging path).

        Invalid inputs fail immediately on the caller thread: an
        unknown fingerprint, a wrong-shape or non-finite payload, or a
        closed server (:class:`ServerClosedError`).  Deadlines are
        relative budgets from now (falling back to the server-wide
        default); once passed, the future fails with
        :class:`DeadlineExceededError` instead of occupying a slot.
        With admission control installed, an over-rate request fails
        here with :class:`~repro.overload.AdmissionRejectedError`
        (``priority="batch"`` traffic is shed first).  Raises
        :class:`~repro.serve.scheduler.QueueFullError` under
        ``"reject"`` backpressure; under ``"shed"`` the displaced
        batch's futures fail with :class:`RequestShedError`.
        """
        check(isinstance(request, (SpMVRequest, SpMMRequest)),
              "submit() takes a repro.serve.SpMVRequest or SpMMRequest")
        fingerprint = request.fingerprint
        with self._lock:
            if self._closed:
                raise ServerClosedError("server is closed")
            csr = self._matrices.get(fingerprint)
        if csr is None:
            raise ReproError(f"unknown matrix fingerprint {fingerprint!r}")
        x = np.asarray(request.x)
        if isinstance(request, SpMMRequest):
            check(x.ndim == 2 and x.shape[0] == csr.shape[1]
                  and x.shape[1] >= 1,
                  f"X must have shape ({csr.shape[1]}, k) with k >= 1")
        else:
            check(x.shape == (csr.shape[1],),
                  f"x must have shape ({csr.shape[1]},)")
        check(bool(np.isfinite(x).all()), "x must be finite (no NaN/Inf)")
        if self.admission is not None:
            self.admission.admit(request.priority, self._now())  # may raise
        self.policy.note_shard_hint(fingerprint, request.shards)
        deadline_rel = (request.deadline_us * 1e-6
                        if request.deadline_us is not None
                        else self.default_deadline_s)
        now = self._now()
        deadline = (float("inf") if deadline_rel is None
                    else now + deadline_rel)
        future: Future = Future()
        with self._lock:
            req_id = self._next_id
            self._next_id += 1
            self._futures[req_id] = future
        # Private bookkeeping copy: the caller's object stays pristine.
        req = replace(request, x=x, req_id=req_id, arrival_s=now,
                      deadline_s=deadline, result=None,
                      completion_s=float("nan"), pair=None, shadow=False)
        self.stats.observe_request()
        if self._warmer is not None:
            self._warmer.observe(fingerprint)
            self._warm_tick()
        try:
            if isinstance(req, SpMMRequest):
                # A block is already a batch — skip the coalescer.
                self.scheduler.submit(Batch(
                    fingerprint=fingerprint, requests=[req],
                    formed_s=self._now()))
            else:
                full = self.batcher.add(req, self._now())
                if full is not None:
                    self.scheduler.submit(full)
        except QueueFullError:
            with self._lock:
                self._futures.pop(req_id, None)
            self.stats.observe_rejected()
            raise
        if self.retry_budget is not None:
            self.retry_budget.on_request()
        return future

    def signals(self) -> dict:
        """Raw health signals for cluster routing (:mod:`repro.cluster`).

        ``queue_depth`` and ``open_circuits`` are instantaneous;
        ``deadline_exceeded`` / ``requests`` are cumulative so the
        router can compute a miss *rate* between its own probes.
        """
        return {
            "queue_depth": self.scheduler.backlog(),
            "open_circuits": (self.breaker.open_count()
                              if self.breaker is not None else 0),
            "deadline_exceeded": self.stats.n_deadline_exceeded,
            "requests": self.stats.n_requests,
        }

    def flush(self) -> None:
        """Force-flush all pending partial batches to the workers."""
        for batch in self.batcher.flush_all(self._now()):
            self.scheduler.submit(batch)

    def drain(self, timeout: float | None = None) -> bool:
        """Flush then wait for every in-flight batch to finish."""
        self.flush()
        return self.scheduler.drain(timeout)

    def close(self, timeout: float | None = None, *, drain: bool = True) -> None:
        """Shut down; never leaks a future.

        ``drain=True`` (default) executes what it can first; with
        ``drain=False`` (abort) pending batches are dropped.  Either
        way, every future still unresolved afterwards — parked in the
        batcher, dropped from the queue, or raced in by a concurrent
        :meth:`submit` — fails with :class:`ServerClosedError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        if self.prefetcher is not None:
            self.prefetcher.close()
        if drain:
            try:
                self.drain(timeout)
            except ReproError:
                pass  # backpressure mid-shutdown: leftovers swept below
        self.scheduler.close(drain=drain, timeout=timeout)
        self._flusher.join(timeout)
        self._fail_parked()
        self.stats.duration_s = self._now()
        # Cache, breaker and fault counters already live in the shared
        # registry (one source of truth); only the non-counter breaker
        # state map is copied for the report.
        if self.breaker is not None:
            self.stats.breaker_state = self.breaker.snapshot()

    def __enter__(self) -> "SpMVServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _flush_loop(self) -> None:
        # Wake a few times per timeout window; wall-clock flushing only
        # bounds latency, it does not affect modeled throughput.  The
        # stop event (not a sleep) keeps shutdown prompt even when the
        # flush timeout is long.
        interval = max(self.batcher.flush_timeout_s / 4, 1e-4)
        while not self._stop.wait(interval):
            try:
                for batch in self.batcher.due(self._now()):
                    self.scheduler.submit(batch)
            except (QueueFullError, ReproError):
                continue  # backpressure: leave batches queued in batcher

    def _fail_parked(self) -> None:
        """Fail every still-unresolved future with ServerClosedError."""
        for batch in self.batcher.flush_all(self._now()):
            for req in batch.requests:
                fut = self._pop_future(req.req_id)
                if fut is not None:
                    self.stats.observe_closed()
                    fut.set_exception(ServerClosedError(
                        f"request {req.req_id} unserved at shutdown"))
        with self._lock:
            leftovers = list(self._futures.items())
            self._futures.clear()
        for req_id, fut in leftovers:
            self.stats.observe_closed()
            fut.set_exception(ServerClosedError(
                f"request {req_id} unserved at shutdown"))

    def _warm_tick(self) -> None:
        """Dispatch the warmer's nominations to the prefetcher."""
        due = self._warmer.due(
            resident=lambda f: self.registry.peek(f) is not None)
        for fp in due:
            self.obs.counter("pipeline.warm_total",
                             {"action": "prefetch"}).inc()
            with self._lock:
                csr = self._matrices.get(fp)
            self.prefetcher.prefetch(fp, csr)

    # ------------------------------------------------------------------
    # batch execution (scheduler worker context)
    # ------------------------------------------------------------------
    def _prune_batch(self, batch: Batch) -> Batch | None:
        """Scheduler dequeue hook: drop expired requests before work."""
        self._fail_expired(batch, self._now())
        return batch if batch.requests else None

    def _fail_expired(self, batch: Batch, now: float) -> None:
        for req in batch.split_expired(now):
            self.stats.observe_deadline_exceeded()
            fut = self._pop_future(req.req_id)
            if fut is not None:
                fut.set_exception(DeadlineExceededError(
                    f"request {req.req_id} missed its deadline "
                    f"({req.deadline_s - req.arrival_s:.6f}s budget)"))

    def _execute_batch(self, batch: Batch) -> None:
        self._fail_expired(batch, self._now())
        if not batch.requests:
            return
        fp = batch.fingerprint
        attrs = None
        if self.obs.tracing:
            attrs = {"matrix": fp[:8], "k": batch.k}
        with self.obs.span("batch", attrs=attrs):
            key = self.policy.plan_key(fp, self.registry.version_of(fp))
            self.policy.serve(self, batch, fp, key)

    # -- clock hooks of ReplicaPolicy.serve -----------------------------
    def _clock(self, batch: Batch) -> float:
        return self._now()

    def _acquire(self, fp: str, key: str):
        return self.policy.acquire(fp, self._matrices[fp], key)[0]

    def _backoff(self, batch: Batch, seconds: float) -> bool:
        time.sleep(seconds)
        self._fail_expired(batch, self._now())
        return bool(batch.requests)

    def _attempt(self, batch: Batch, fp: str, key: str, plan, strategy,
                 attempt: int):
        """One DASP SpMV/SpMM attempt; raises on (injected) failure.

        ``k == 1`` routes through the same SpMM path as 2..8
        (``dasp_spmm`` column folds are bitwise ``dasp_spmv``); wider
        batches run the tuner-chosen large-k *strategy*, bitwise the
        column-wise ``dasp_spmv`` as well.  The batch is charged the
        policy's price plus any injected latency."""
        attrs = {"attempt": attempt} if self.obs.tracing else None
        with self.obs.span("kernel", attrs=attrs) as sp:
            X = batch.assemble_x()
            extra_s, shard_extra_s = 0.0, None
            if isinstance(plan, ShardedPlan):
                Y, shard_extra_s = self._run_sharded(plan, X, fp)
            elif strategy is not None:
                Y, extra_s = self._checked(
                    fp, partial(dasp_spmm_large, plan, X, strategy))
            else:
                Y, extra_s = self._checked(
                    fp, partial(dasp_spmm, plan, X, obs=self.obs))
            device_s, useful, issued = self.policy.price(
                key, plan, batch.k, shard_extra_s)
            device_s += extra_s
            self.policy.attribute(sp, key, plan, batch.k, device_s,
                                  strategy, shard_extra_s)
        return Y, device_s, useful, issued

    def _checked(self, target: str, run):
        """``(run(), injected latency)`` under the fault injector rules
        for *target*; raises on an injected or non-finite failure."""
        extra_s, corrupt = 0.0, False
        if self.fault_injector is not None:
            decision = self.fault_injector.check_kernel(target)  # may raise
            extra_s, corrupt = decision.latency_s, decision.corrupt
        Y = run()
        if corrupt:
            Y = self.fault_injector.corrupt_output(Y)
        if not np.isfinite(Y).all():
            raise NumericFault(f"non-finite kernel output for {target}")
        return Y, extra_s

    def _run_sharded(self, plan, X, fp: str):
        """Fan one attempt's shards out over idle workers; returns the
        gathered block and each shard's injected latency.

        The join is **claim-based** and deadlock-free: helper closures
        submitted via :meth:`Scheduler.submit_task` and this (worker)
        thread all pull shard indices from a shared claim counter, so
        the batch's worker finishes every shard no helper picked up —
        whether the pool is busy, sized 1, or mid-shutdown — and then
        waits only on shards a live helper is actively executing.
        """
        S = plan.n_shards
        results: list = [None] * S
        errors: list[Exception] = []
        state = {"next": 0, "done": 0}
        cond = threading.Condition()

        def helper() -> None:
            while True:
                with cond:
                    if state["next"] >= S or errors:
                        return
                    i = state["next"]
                    state["next"] += 1
                try:
                    out = self._run_shard(plan.shards[i], X, fp)
                    with cond:
                        results[i] = out
                except Exception as exc:  # noqa: BLE001 — joined below
                    with cond:
                        errors.append(exc)
                finally:
                    with cond:
                        state["done"] += 1
                        cond.notify_all()

        for _ in range(min(S, self.scheduler.workers) - 1):
            self.scheduler.submit_task(helper)
        helper()  # this worker participates; returns when all claimed
        with cond:
            cond.wait_for(lambda: state["done"] >= state["next"])
            if errors:
                raise errors[0]
        return (np.concatenate([r[0] for r in results], axis=0),
                [r[1] for r in results])

    def _run_shard(self, shard, X, fp: str):
        """Run one shard's kernels with shard-level retry.

        Fault rules target a shard via the ``{fp}#s{i}`` fingerprint;
        a transient shard fault burns retry budget here — at shard
        granularity — before the whole batch's retry/degrade machinery
        sees anything.  Helper threads use the un-spanned kernel entry
        points (they must not open root spans in the thread-local
        tracer); wide blocks are column-tiled, bitwise the same."""
        self.obs.counter("core.shard_executions_total").inc()
        if X.shape[1] > MMA_N:
            run = partial(dasp_spmm_tiled, shard.dasp, X,
                          tile_k=DEFAULT_TILE_K)
        else:
            run = partial(dasp_spmm_on_plan, shard.dasp, X)
        attempt = 0
        while True:
            try:
                return self._checked(f"{fp}#s{shard.index}", run)
            except Exception as exc:  # noqa: BLE001
                if not self.policy.may_retry(exc, attempt):
                    raise
                time.sleep(self.policy.backoff_s(attempt))
                attempt += 1

    def _degrade(self, batch: Batch, key: str, cause: Exception) -> None:
        """Serve the batch from the merge-CSR path (or fail it)."""
        policy = self.policy
        if not policy.fallback:
            self.stats.observe_failed(len(batch.requests))
            self._fail_batch(batch, cause)
            return
        csr = self._matrices[batch.fingerprint]
        with policy.fallback_span(batch.fingerprint, cause) as sp:
            try:
                Y = policy.fallback_exec.run(key, csr, batch.assemble_x())
                device_s, _ = policy.charge_fallback(sp, key, csr, batch.k)
            except Exception as exc:  # noqa: BLE001 — fallback itself broke
                if self.obs.tracing:
                    sp.status = "error"
                self.stats.observe_failed(len(batch.requests))
                self._fail_batch(batch, exc)
                return
        self.stats.observe_degraded(len(batch.requests))
        # degraded batches issue no MMA work — utilization stays honest
        self._complete(batch, (Y, device_s, 0.0, 0.0))

    def _complete(self, batch: Batch, result) -> None:
        Y, device_s, useful, issued = result
        now = self._now()
        batch.scatter(Y, now)
        self.stats.observe_batch(batch.k, device_s,
                                 useful_mma=useful, issued_mma=issued,
                                 completed=len(batch.requests))
        for req in batch.requests:
            self.stats.observe_latency(req.latency_s)
            fut = self._pop_future(req.req_id)
            if fut is not None:
                fut.set_result(req.result)

    def _shed_batch(self, batch: Batch) -> None:
        self.stats.observe_shed(len(batch.requests))
        for req in batch.requests:
            fut = self._pop_future(req.req_id)
            if fut is not None:
                fut.set_exception(RequestShedError(
                    f"request {req.req_id} shed under backpressure"))

    def _fail_batch(self, batch: Batch, exc: Exception) -> None:
        for req in batch.requests:
            fut = self._pop_future(req.req_id)
            if fut is not None:
                fut.set_exception(exc)

    def _pop_future(self, req_id: int) -> Future | None:
        with self._lock:
            return self._futures.pop(req_id, None)
