"""One replica policy for both clocks.

:class:`~repro.serve.server.SpMVServer` (threads, wall clock) and
:class:`~repro.serve.driver.ReplicaSim` (virtual time) make the same
serving decisions, so :class:`ReplicaPolicy` makes them once: the
shard count (setting, ``"auto"``, per-request hints), plan acquisition
and its charge, the large-k strategy and its stored reorder hint, the
phase-span split, and the batch lifecycle (:meth:`ReplicaPolicy.serve`:
breaker gate, retries while the retry budget has a token, then
merge-CSR degradation or failure).  :class:`ModeledDevice` is the only
batch pricer.  Each adapter keeps only its clock, behind the hooks
``serve`` calls.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from .._util import check
from ..core.preprocess import traced_preprocess
from ..core.spmm import mma_phase_fraction, mma_utilization, spmm_events
from ..core.spmm_block import (
    choose_spmm_strategy,
    reorder_from_perm,
    spmm_tiled_overlap_cost,
)
from ..gpu.cost_model import estimate_time
from ..resilience import (
    CircuitOpenError,
    DeadlineExceededError,
    FallbackExecutor,
)
from ..shard import (
    ShardedPlan,
    choose_shards,
    lpt_makespan,
    sharded_batch_cost,
    sharded_spmm_events,
    traced_preprocess_sharded,
)
from .batcher import MMA_N


class Price(NamedTuple):
    """One memoized batch price; ``shards`` is the
    :class:`repro.shard.ShardCost` of a sharded plan, else ``None``."""

    seconds: float
    useful_mma: float
    issued_mma: float
    events: object
    shards: object = None


class ModeledDevice:
    """Memoized modeled batch prices for ``(key, k)`` pairs.

    ``key`` names one plan structure (a versioned registry key once the
    matrix has a delta chain).  Unsharded ``k <= MMA_N`` batches cost
    the cost model over :func:`~repro.core.spmm.spmm_events`, wider ones
    the tuner-chosen large-k strategy, a :class:`~repro.shard.ShardedPlan`
    the LPT makespan of its shards over ``workers`` lanes.
    ``dtype_bits=None`` prices each plan at its own precision;
    ``double_buffer`` uses the overlapped schedule (pipeline mode).
    Racing memo misses compute equal prices and the first stored wins.
    """

    def __init__(self, device, dtype_bits: int | None = None, *,
                 workers: int = 1, double_buffer: bool = False) -> None:
        self.device = device
        self.dtype_bits = dtype_bits
        self.workers = int(workers)
        self.double_buffer = bool(double_buffer)
        #: key -> ReorderResult from a stored ``aux.`` permutation (or
        #: ``None`` once looked up); the tuner's hint on a strategy miss.
        self.reorder_hints: dict[str, object] = {}
        self._prices: dict[tuple[str, int], Price] = {}
        self._strategies: dict[tuple[str, int], object] = {}

    def strategy(self, key: str, plan, k: int):
        """Memoized tuner choice for one unsharded ``(key, k)`` pair."""
        strat = self._strategies.get((key, k))
        if strat is None:
            built = choose_spmm_strategy(
                plan, k, self.device, reorder_hint=self.reorder_hints.get(key))
            strat = self._strategies.setdefault((key, k), built)
        return strat

    def _compute(self, key: str, plan, k: int) -> Price:
        bits = (self.dtype_bits if self.dtype_bits is not None
                else plan.dtype.itemsize * 8)
        if isinstance(plan, ShardedPlan):
            cost = sharded_batch_cost(plan, self.device, k,
                                      workers=self.workers, dtype_bits=bits,
                                      double_buffer=self.double_buffer)
            evs = sharded_spmm_events(plan, self.device, k)
            combined = evs[0]
            for e in evs[1:]:
                combined = combined.combine(e)
            return Price(cost.makespan, cost.useful_mma, cost.issued_mma,
                         combined, cost)
        ev = spmm_events(plan, self.device, k)
        if k > plan.mma_shape.n:
            strat = self.strategy(key, plan, k)
            t = strat.modeled_s
            if self.double_buffer and strat.name != "looped":
                _, t = spmm_tiled_overlap_cost(
                    plan, self.device, k, tile_k=strat.tile_k,
                    stats=strat.stats, dtype_bits=bits)
        else:
            t = estimate_time(ev, self.device, dtype_bits=bits).total
        util = mma_utilization(plan, k)
        return Price(t, util * ev.flops_mma, ev.flops_mma, ev)

    def price(self, key: str, plan, k: int) -> Price:
        """The memoized :class:`Price` of a k-wide batch over *plan*."""
        got = self._prices.get((key, k))
        if got is None:
            got = self._prices.setdefault((key, k),
                                          self._compute(key, plan, k))
        return got

    def batch_cost(self, key: str, plan,
                   k: int) -> tuple[float, float, float]:
        """(device seconds, useful MMA flops, issued MMA flops)."""
        return self.price(key, plan, k)[:3]


class ReplicaPolicy:
    """Clock-agnostic serving decisions of one replica.

    Times are passed in by the caller (the codebase-wide convention).
    ``time_scale`` multiplies every modeled second the replica charges
    and is identity — not even a multiply — at 1.0.  ``breaker`` and
    ``retry_budget`` (a shared :class:`repro.overload.RetryBudget`) may
    be ``None``.  Failures of type ``recoverable`` degrade the batch;
    anything else propagates.
    """

    def __init__(self, *, device, registry, stats, obs, pricer: ModeledDevice,
                 retry, retry_rng, breaker=None, injector=None,
                 retry_budget=None, fallback: bool = True, shards=None,
                 max_batch: int = MMA_N,
                 preprocess_deadline_s: float | None = None,
                 time_scale: float = 1.0,
                 recoverable: type = Exception) -> None:
        check(time_scale > 0.0, "time_scale must be > 0")
        if shards is not None and shards != "auto":
            check(int(shards) >= 1, "shards must be >= 1 (or 'auto')")
            shards = int(shards) if int(shards) > 1 else None
        self.device = device
        self.registry = registry
        self.stats = stats
        self.obs = obs
        self.pricer = pricer
        self.retry = retry
        self.breaker = breaker
        self.injector = injector
        self.retry_budget = retry_budget
        self.fallback = bool(fallback)
        self.fallback_exec = FallbackExecutor(device)
        self.shards = shards
        self.max_batch = int(max_batch)
        self.preprocess_deadline_s = preprocess_deadline_s
        self.time_scale = float(time_scale)
        self.recoverable = recoverable
        self._retry_rng = retry_rng
        self._lock = threading.Lock()
        self._shard_hints: dict[str, int | str] = {}
        self._auto_shards: dict[str, int] = {}

    def scale(self, seconds: float) -> float:
        return seconds if self.time_scale == 1.0 else seconds * self.time_scale

    # ------------------------------------------------------------------
    # shard count and plan acquisition
    # ------------------------------------------------------------------
    def note_shard_hint(self, fp: str, shards) -> None:
        """Record a per-request shard hint (first one per matrix wins;
        consulted only until its plan is built)."""
        if shards is not None:
            with self._lock:
                self._shard_hints.setdefault(fp, shards)

    def shards_for(self, fp: str, csr) -> int:
        """Resolve the shard count for one matrix (memoized for auto)."""
        with self._lock:
            setting = self._shard_hints.get(fp, self.shards)
        if setting is None or setting != "auto":
            return int(setting or 1)
        S = self._auto_shards.get(fp)
        if S is None:
            # Offline model sweep; the winning plan is built — and
            # charged — through the traced path in `build`.
            S = self._auto_shards[fp] = int(choose_shards(
                csr, self.pricer.workers, device=self.device,
                k=self.max_batch).best_value)
        return S

    def build(self, fp: str, csr):
        """Traced (possibly sharded) preprocessing: ``(plan, seconds)``.
        Raises on injected faults and past the preprocess budget."""
        S = self.shards_for(fp, csr)
        if S > 1:
            plan, pre = traced_preprocess_sharded(
                csr, self.device, S, obs=self.obs, injector=self.injector,
                fingerprint=fp)
        else:
            plan, pre = traced_preprocess(
                csr, self.device, obs=self.obs, injector=self.injector,
                fingerprint=fp)
        if (self.preprocess_deadline_s is not None
                and pre > self.preprocess_deadline_s):
            raise DeadlineExceededError(
                f"preprocess needs {pre:.6f}s modeled, over the "
                f"{self.preprocess_deadline_s:.6f}s budget")
        return plan, pre

    def acquire(self, fp: str, csr, key: str | None = None):
        """Fetch or build a plan through the registry and charge it;
        returns ``(plan, source, charged seconds)``.

        ``key`` is the (possibly versioned) registry key; the bare *fp*
        names the matrix for the injector, shard choice and spans."""
        cell: dict[str, float] = {}

        def build(matrix):
            plan, cell["s"] = self.build(fp, matrix)
            return plan

        plan, source, load_s = self.registry.get_ex(
            csr, fingerprint=key if key is not None else fp, builder=build)
        cost = 0.0
        if source in ("built", "store"):
            cost = self.scale(cell.get("s", 0.0) if source == "built"
                              else load_s)
            self.stats.observe_preprocess(cost)
        return plan, source, cost

    def plan_key(self, fp: str, version: int) -> str:
        """Registry/price key for work admitted against *version*;
        static matrices keep the bare fingerprint."""
        if version == 0 and self.registry.version_of(fp) == 0:
            return fp
        return self.registry.versioned_key(fp, version)

    # ------------------------------------------------------------------
    # large-k strategy, price and phase spans
    # ------------------------------------------------------------------
    def strategy_for(self, key: str, plan, k: int):
        """The large-k strategy a k-wide batch runs, or ``None``
        (``k <= MMA_N`` or a sharded plan).  Counted once per batch.

        The first lookup per key consults the store's persisted
        ``spmm.reorder_perm`` before the tuner re-derives it (counted
        as ``spmm.reorder.{loaded,derived}``); a versioned key never
        takes the base artifact's permutation."""
        if isinstance(plan, ShardedPlan) or k <= plan.mma_shape.n:
            return None
        hints = self.pricer.reorder_hints
        if key not in hints:
            base, version = self.registry.split_version(key)
            aux = self.registry.load_aux(base) if not version else None
            hint = None
            if aux and "spmm.reorder_perm" in aux:
                hint = reorder_from_perm(
                    plan.csr, np.asarray(aux["spmm.reorder_perm"]),
                    mma_shape=plan.mma_shape)
                self.obs.counter("spmm.reorder.loaded_total").inc()
            else:
                self.obs.counter("spmm.reorder.derived_total").inc()
            hints.setdefault(key, hint)
        strat = self.pricer.strategy(key, plan, k)
        self.stats.observe_spmm_large(strat.name)
        return strat

    def price(self, key: str, plan, k: int, shard_extra_s=None):
        """``(device seconds, useful, issued MMA flops)`` of one
        attempt before whole-batch injected latency; per-shard injected
        latency (``shard_extra_s``) re-runs the LPT schedule."""
        p = self.pricer.price(key, plan, k)
        seconds = p.seconds
        if shard_extra_s is not None and any(shard_extra_s):
            seconds = lpt_makespan(
                [t + e for t, e in zip(p.shards.per_shard, shard_extra_s)],
                self.pricer.workers)
        return self.scale(seconds), p.useful_mma, p.issued_mma

    def attribute(self, sp, key: str, plan, k: int, total: float,
                  strategy=None, shard_extra_s=None) -> None:
        """Split a successful attempt's charged *total* over phase spans
        (failed attempts never reach the stats counters either)."""
        if not self.obs.tracing:
            return
        p = self.pricer.price(key, plan, k)
        if isinstance(plan, ShardedPlan):
            # one `shard` span per band, scaled so the attributed sum
            # equals the makespan the batch is charged
            sp.set_attr("shards", plan.n_shards)
            times = list(p.shards.per_shard)
            if shard_extra_s is not None:
                times = [t + e for t, e in zip(times, shard_extra_s)]
            serial = sum(times)
            scale = total / serial if serial else 0.0
            for i, band in enumerate(plan.shards):
                frac = mma_phase_fraction(band.dasp)
                ssp = sp.child("shard", attrs={"shard": i,
                                               "modeled_s": times[i]})
                ssp.child("regular_mma", device_s=times[i] * scale * frac)
                ssp.child("irregular_csr",
                          device_s=times[i] * scale * (1.0 - frac))
        else:
            frac = mma_phase_fraction(plan)
            sp.child("regular_mma", device_s=total * frac)
            sp.child("irregular_csr", device_s=total * (1.0 - frac))
        if strategy is not None:
            sp.set_attr("spmm_strategy", strategy.name)
            sp.set_attr("tile_k", strategy.tile_k)
        for name, value in p.events.as_attrs().items():
            sp.set_attr(name, value)

    # ------------------------------------------------------------------
    # the batch lifecycle: breaker, retry and degradation
    # ------------------------------------------------------------------
    def serve(self, replica, batch, fp: str, key: str) -> None:
        """Run one batch through *replica*'s clock hooks: ``_clock(batch)``
        (now), ``_acquire(fp, key)`` (the plan, charged),
        ``_attempt(batch, fp, key, plan, strategy, n)`` (one charged
        kernel attempt: its result, or raises), ``_backoff(batch, s)``
        (False once no request is left), ``_complete(batch, result)``
        and ``_degrade(batch, key, cause)``."""
        if self.breaker is not None and not self.breaker.allow(
                fp, replica._clock(batch)):
            replica._degrade(batch, key, CircuitOpenError(
                f"circuit open for matrix {fp[:8]}…"))
            return
        try:
            plan = replica._acquire(fp, key)
        except self.recoverable as exc:
            self._record_failure(fp, replica._clock(batch))
            replica._degrade(batch, key, exc)
            return
        strategy = self.strategy_for(key, plan, batch.k)
        attempt = 0
        while True:
            try:
                result = replica._attempt(batch, fp, key, plan, strategy,
                                          attempt)
            except self.recoverable as exc:
                self._record_failure(fp, replica._clock(batch))
                if not self.may_retry(exc, attempt):
                    replica._degrade(batch, key, exc)
                    return
                if not replica._backoff(batch, self.backoff_s(attempt)):
                    return
                attempt += 1
                continue
            if self.breaker is not None:
                self.breaker.record_success(fp, replica._clock(batch))
            replica._complete(batch, result)
            return

    def _record_failure(self, fp: str, now: float) -> None:
        if self.breaker is not None:
            self.breaker.record_failure(fp, now)

    def may_retry(self, exc: Exception, attempt: int) -> bool:
        """Retry failed *attempt* (0-based)?  Only transient failures,
        within the retry policy, and only while the retry budget has a
        token: a dry budget sends the work straight to the fallback
        instead of amplifying a cluster-wide fault into a retry storm."""
        if (getattr(exc, "transient", False)
                and attempt < self.retry.max_retries
                and (self.retry_budget is None
                     or self.retry_budget.try_spend())):
            self.stats.observe_retry()
            return True
        return False

    def backoff_s(self, attempt: int) -> float:
        """Jittered backoff before retrying failed *attempt*."""
        with self._lock:
            return self.retry.backoff_s(attempt + 1, self._retry_rng)

    def fallback_span(self, fp: str, cause: Exception):
        """The ``fallback`` span a degraded batch runs inside."""
        attrs = None
        if self.obs.tracing:
            attrs = {"matrix": fp[:8], "cause": type(cause).__name__}
        return self.obs.span("fallback", attrs=attrs)

    def charge_fallback(self, sp, key: str, csr, k: int):
        """Modeled merge-CSR ``(device seconds, one-time partition
        seconds)`` of a degraded k-wide batch, memoized per key so an
        updated matrix never reuses a stale partition."""
        t, pre_s = self.fallback_exec.modeled_cost(key, csr, k)
        t, pre_s = self.scale(t), self.scale(pre_s)
        sp.set_device_time(t)
        if pre_s:
            self.stats.observe_preprocess(pre_s)
            if self.obs.tracing:
                sp.child("preprocess", device_s=pre_s)
        return t, pre_s
