"""`serve` workload: the threaded ``SpMVServer(workers=2)``, one client.

Traffic is Zipf(1.1) over eight smaller suite matrices, all registered
and warmed (one request each) before timing; all eight plans fit the
plan-cache budget.  Phase A is an open loop: Poisson arrivals at
``RATE_A`` requests/s, each request timed from its due time, so a stall
also delays every later request.  Phase B keeps ``WINDOW_B`` requests
outstanding (saturation) and counts completions per wall second.  The
session alternates ``CYCLES`` short segments of each phase; calibration
units before each open-loop segment scale its latencies.  Every result
is checked against scipy CSR; a rejected or failed request counts as
failed and as missing any latency limit.

The request mix is stratified: a segment carries each matrix in its
exact Zipf share and the exponential gaps at their exact quantiles, in
a seeded order — the seed moves arrivals around without changing how
much work a run offers.

The kernel metrics (``spmv_gflops``, ``spmm_gflops``, ``solve_s``,
``modeled_gflops``) come from :func:`kernels.probe` on the plans the
server holds after the session, measured after the server has closed.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import ReproError
from repro.serve import SpMVRequest, SpMVServer

import kernels
from common import Calibrator, Reference, Result, geomean, median
from inputs import spd_system, suite_matrix, to_scipy, vector

POOL = ("scircuit", "mac_econ_fwd500", "rma10", "conf5_4-8x8-10", "dc2",
        "cop20k_A", "mc2depi", "webbase-1M")
ZIPF_S = 1.1
#: Phase A offered rate, requests/s — well below the ~30 req/s the
#: server saturates at on two cores.
RATE_A = 8.0
#: Phase B outstanding-request window.  Below the scheduler's default
#: queue depth (64), so saturation never turns into rejections.
WINDOW_B = 16
SHARE_A = 0.6
CYCLES = 10
WORKERS = 2
SETUP_REPS = 5
CG_SYSTEMS = ("rma10", "conf5_4-8x8-10")
#: Generator lateness (p90) beyond this share of the mean inter-arrival
#: gap flags the open loop as fallen behind.
LATE_FLAG = 0.1
WAIT_S = 120.0
#: Calibration units before each open-loop segment.
CAL_UNITS = 5

SPECS = [
    ("repro.serve.server:SpMVServer._execute_batch", "serve.batch",
     lambda a, k: a[1].k,
     lambda a, k: a[1].requests[0].req_id if a[1].requests else None),
    ("repro.serve.server:SpMVServer.submit", "serve.submit", None, None),
    ("repro.serve.server:spmm_events", "gpu.cost_model.spmm_events",
     None, None),
    ("repro.serve.server:mma_utilization", "gpu.cost_model.mma_utilization",
     None, None),
    ("repro.serve.server:estimate_time", "gpu.cost_model.estimate_time",
     None, None),
    ("repro.gpu.memory:sector_counts", "gpu.memory.sector_counts", None, None),
    ("repro.serve.server:dasp_spmm", "core.spmm",
     lambda a, k: a[0].nnz * a[1].shape[1], None),
    ("repro.serve.plan_cache:PlanRegistry.get_ex", "serve.plan_cache",
     None, None),
    ("repro.serve.batcher:Batch.assemble_x", "serve.batcher.assemble",
     None, None),
    ("repro.serve.batcher:Batch.scatter", "serve.batcher.scatter", None, None),
]
COST_MODEL = ("gpu.cost_model.spmm_events", "gpu.cost_model.mma_utilization",
              "gpu.cost_model.estimate_time")


class Pool:
    """The matrix pool with its x vectors and scipy references."""

    def __init__(self, seed: int, rng: np.random.Generator) -> None:
        self.csrs = [suite_matrix(n, seed) for n in POOL]
        self.xs = [vector(c.shape[1], rng) for c in self.csrs]
        self.refs = [Reference(to_scipy(c), x, np.float64)
                     for c, x in zip(self.csrs, self.xs)]
        w = np.arange(1, len(POOL) + 1, dtype=np.float64) ** -ZIPF_S
        self.weights = w / w.sum()

    def mix(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """*n* matrix indices in their exact Zipf shares, seeded order."""
        raw = n * self.weights
        counts = np.floor(raw).astype(int)
        short = n - counts.sum()
        counts[np.argsort(counts - raw)[:short]] += 1
        return rng.permutation(np.repeat(np.arange(len(POOL)), counts))


def start_server(pool: Pool, res: Result):
    """Construct, register every matrix, warm each plan with one request."""
    srv = SpMVServer(workers=WORKERS)
    fps = [srv.register(c) for c in pool.csrs]
    futs = [srv.submit(SpMVRequest(fp, x)) for fp, x in zip(fps, pool.xs)]
    for i, f in enumerate(futs):
        res.check(pool.refs[i].ok(f.result(timeout=WAIT_S)),
                  f"warm {POOL[i]} vs scipy")
    return srv, fps


class _Phase:
    """Bookkeeping of one traffic phase over all its segments."""

    def __init__(self) -> None:
        self.records = []      # (matrix, due or submit time, future|None)
        self.done: dict[int, float] = {}
        self.ok: list[bool] = []
        self.queue_wait: list[float] = []

    def submit(self, srv, fps, pool: Pool, c: int, t: float, tracer,
               release=None) -> bool:
        """Submit one request for matrix *c*; False when refused."""
        i = len(self.records)
        submitted = time.perf_counter()
        try:
            fut = srv.submit(SpMVRequest(fps[c], pool.xs[c]))
        except ReproError:
            fut = None
        self.records.append((c, t, fut))
        if fut is None:
            return False

        def cb(_fut) -> None:
            self.done[i] = time.perf_counter()
            if tracer is not None:
                start = tracer.root_start()  # the batch span, on a worker
                if start is not None:
                    self.queue_wait.append(start - submitted)
            if release is not None:
                release()

        fut.add_done_callback(cb)
        return True

    def settle(self, pool: Pool, res: Result) -> None:
        """Wait for the unsettled futures and check each result."""
        for c, _t, fut in self.records[len(self.ok):]:
            good = False
            if fut is not None:
                try:
                    y = fut.result(timeout=WAIT_S)
                except ReproError:
                    y = None
                if y is not None:
                    good = pool.refs[c].ok(y)
                    if not good:
                        res.correct = False
                        res.notes.append(f"MISMATCH: serve {POOL[c]} vs scipy")
            self.ok.append(good)
            res.attempted += 1
            res.failed += not good

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def segment_a(ph: _Phase, srv, fps, pool: Pool, rng, duration: float,
              res: Result, tracer) -> tuple[list, list]:
    """Open-loop segment: (latencies from due time, inf when failed;
    generator lateness), both in wall seconds."""
    n = max(int(round(RATE_A * duration)), 1)
    q = (np.arange(n) + 0.5) / n
    gaps = rng.permutation(-np.log1p(-q) / RATE_A)
    start = len(ph.records)
    late = []
    t0 = time.perf_counter()
    for due, c in zip(t0 + np.cumsum(gaps), pool.mix(rng, n)):
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        late.append(time.perf_counter() - due)
        ph.submit(srv, fps, pool, int(c), float(due), tracer)
    ph.settle(pool, res)
    lat = [ph.done[i] - ph.records[i][1] if ph.ok[i] else float("inf")
           for i in range(start, len(ph.records))]
    return lat, late


def segment_b(ph: _Phase, srv, fps, pool: Pool, rng, duration: float,
              res: Result, tracer) -> int:
    """Saturation segment; requests completed correctly inside it."""
    sem = threading.Semaphore(WINDOW_B)
    start = len(ph.records)
    mix = iter(())
    t_end = time.perf_counter() + duration
    while sem.acquire(timeout=max(t_end - time.perf_counter(), 0.0)):
        if time.perf_counter() >= t_end:
            sem.release()
            break
        c = next(mix, None)
        if c is None:
            mix = iter(pool.mix(rng, 64))
            c = next(mix)
        if not ph.submit(srv, fps, pool, int(c), time.perf_counter(), tracer,
                         sem.release):
            sem.release()
    ph.settle(pool, res)
    return sum(1 for i in range(start, len(ph.records))
               if ph.ok[i] and ph.done[i] <= t_end)


def session(srv, fps, pool: Pool, rng, seconds: float, res: Result, tracer,
            cal: Calibrator) -> dict:
    """``CYCLES`` alternations of an A and a B segment.  Calibration units
    run before every A segment, while the server is idle, and scale its
    latencies onto the reference machine.  Saturation throughput stays
    raw, summed over the B segments: a single-threaded unit tracks two
    busy workers worse than the raw figures repeat."""
    a, b = _Phase(), _Phase()
    lat, late = [], []
    done = 0
    for _ in range(CYCLES):
        scale = cal.scale(CAL_UNITS)
        seg_lat, seg_late = segment_a(a, srv, fps, pool, rng,
                                      seconds * SHARE_A / CYCLES, res, tracer)
        lat += [v * scale for v in seg_lat]
        late += seg_late
        done += segment_b(b, srv, fps, pool, rng,
                          seconds * (1 - SHARE_A) / CYCLES, res, tracer)
    plans = {n: srv.registry.peek(fp) for n, fp in zip(POOL, fps)}
    hit_ratio = srv.stats.cache_hit_rate
    srv.close()
    return {"a": a, "b": b, "lat_ms": [v * 1e3 for v in lat], "late": late,
            "rps": done / (seconds * (1 - SHARE_A)), "plans": plans,
            "hit_ratio": hit_ratio}


def _notes(res: Result, s: dict) -> None:
    for name, ph in (("A (open loop)", s["a"]), ("B (saturation)", s["b"])):
        res.notes.append(f"phase {name}: sent {len(ph.records)}, "
                         f"succeeded {len(ph.records) - ph.failed}, "
                         f"failed {ph.failed}")
    late_p90 = float(np.percentile(s["late"], 90))
    if late_p90 > LATE_FLAG / RATE_A:
        res.notes.append(f"WARNING: open-loop generator fell behind "
                         f"(p90 lateness {late_p90 * 1e3:.1f} ms)")


def run(seed: int, seconds: float, tracer, import_s: float) -> Result:
    rng = np.random.default_rng(seed)
    pool = Pool(seed, rng)
    res = Result()
    traffic = np.random.default_rng([seed, 1])
    cal = Calibrator("unique")
    if tracer is None:
        import_scale = cal.import_scale()
        walls = []
        for rep in range(SETUP_REPS):
            scale = cal.unit()
            t0 = time.perf_counter()
            srv, fps = start_server(pool, res)
            walls.append((time.perf_counter() - t0) * scale)
            if rep < SETUP_REPS - 1:
                srv.close()
        s = session(srv, fps, pool, traffic, seconds, res, None, cal)
        _notes(res, s)
        # kernel probe on the plans the last server ended with
        csrs = {n: p.csr for n, p in s["plans"].items()}
        ops = kernels.Operands(
            csrs, {n: spd_system(csrs[n]) for n in CG_SYSTEMS}, rng)
        _, cg_ops = ops.build()
        out = kernels.probe(ops, s["plans"], {n: cg_ops[n]
                                              for n in CG_SYSTEMS}, res,
                            Calibrator("gather"),
                            budget_s=kernels.PROBE_S,
                            min_reps=kernels.PROBE_REPS)
        res.metrics = {
            "setup_s": import_s * import_scale + median(walls),
            "spmv_gflops": out["spmv_gflops"],
            "spmm_gflops": out["spmm_gflops"],
            "solve_s": out["solve_s"],
            "modeled_gflops": geomean(kernels.modeled(s["plans"]).values()),
            "throughput_rps": s["rps"],
            "latency_p50_ms": median(s["lat_ms"]),
        }
        res.notes.append(kernels.calibration_note(cal) + "; raw saturation "
                         "throughput")
        return res

    # traced run: an untraced half, then a fresh server with the layers
    # wrapped (the scheduler binds the batch executor at construction)
    srv, fps = start_server(pool, res)
    plain = session(srv, fps, pool, traffic, seconds / 2, res, None, cal)
    tracer.install(SPECS)
    try:
        srv, fps = start_server(pool, res)
        tracer.spans.clear()
        s = session(srv, fps, pool, traffic, seconds / 2, res, tracer, cal)
    finally:
        tracer.restore()
    _notes(res, s)
    timed = tracer.under_roots(("serve.batch",))
    table = tracer.layer_table(timed)
    submits = tracer.layer_table(
        [sp for sp in tracer.spans if sp[1] == "serve.submit"])
    wall, cover = tracer.coverage(timed, ("serve.batch",))

    def total(name, key="total_s"):
        return table.get(name, {}).get(key, 0.0)

    batches = max(total("serve.batch", "calls"), 1)
    cost = sum(total(n) for n in COST_MODEL)
    kernel = total("core.spmm")
    qw = s["a"].queue_wait + s["b"].queue_wait
    sub = submits.get("serve.submit", {"calls": 0, "total_s": 0.0})
    res.metrics = {
        "gpu.cost_model.ms_per_batch": cost / batches * 1e3,
        "gpu.memory.sector_counts.calls_per_batch":
            total("gpu.memory.sector_counts", "calls") / batches,
        "serve.kernel_ms_per_batch": kernel / batches * 1e3,
        "serve.other_ms_per_batch":
            (total("serve.batch") - kernel - cost) / batches * 1e3,
        "serve.batch_mean_size": total("serve.batch", "work") / batches,
        "serve.queue_wait_ms": median(qw) * 1e3 if qw else 0.0,
        "serve.plan_cache.hit_ratio": s["hit_ratio"],
        "serve.submit_us": sub["total_s"] / max(sub["calls"], 1) * 1e6,
        "serve.latency_p90_ms": float(np.percentile(s["lat_ms"], 90)),
        "serve.generator_late_ms": float(np.percentile(s["late"], 90)) * 1e3,
        "serve.phase_a.sent": len(s["a"].records),
        "serve.phase_a.failed": s["a"].failed,
        "serve.phase_b.sent": len(s["b"].records),
        "serve.phase_b.failed": s["b"].failed,
        "obs.wall_coverage": cover,
        "obs.trace_overhead_frac": plain["rps"] / s["rps"] - 1.0,
    }
    res.notes.append(f"worker busy {wall:.3f} s over {int(batches)} batches; "
                     f"coverage is of worker busy time; per-layer times are "
                     f"raw wall clock")
    res.table = (table, wall)
    return res
