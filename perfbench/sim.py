"""`sim_dynamic` workload: the virtual-time cluster with matrix updates.

``run_cluster_workload`` over two replicas and four smaller suite
matrices, ``update_mix=0.1`` with ``structural_frac=0.3``, each episode
with a ``PlanStore`` in a fresh directory inside the checkout.  Every
delta adds a plan version on both replicas, so the plan cache churns,
the cost model re-runs per version, ``repro.core.delta`` patches, the
store writes and the cluster broadcasts.  ``RATE`` is an offered rate at
which both replicas stay healthy.  Shard, pipeline, overload and
resilience features stay off.

A run repeats one seeded episode until the time is spent.  Modeled
outputs must be identical in every episode (they are bit-deterministic);
wall metrics are medians over episodes.  The kernel metrics come from
:func:`kernels.probe` on the patched plans the store holds after an
episode, checked against scipy on the matrices those plans now hold.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.cluster.driver import ClusterConfig, run_cluster_workload
from repro.serve import matrix_fingerprint
from repro.store import PlanStore

import kernels
from common import Calibrator, Result, geomean, median
from inputs import spd_system, suite_matrix

POOL = ("scircuit", "mac_econ_fwd500", "rma10", "dc2")
N_REPLICAS = 2
#: Offered rate, simulated requests/s: both replicas stay healthy (no
#: DOWN marks); several times higher rates mark both replicas DOWN.
RATE = 30000.0
#: Seed of the arrival and update schedule, fixed so that every run
#: offers the same amount of work; the benchmark seed draws the matrices
#: (and, through them, where each delta lands).
TRAFFIC_SEED = 2023
EPISODE = 200
UPDATE_MIX = 0.1
STRUCTURAL_FRAC = 0.3
SETUP_REPS = 5
CG_SYSTEMS = ("rma10", "scircuit")
CAL_UNITS = 4
TMP = Path(__file__).resolve().parent.parent / ".perfbench_tmp"

SPECS = [
    ("repro.serve.driver:spmm_events", "gpu.cost_model.spmm_events",
     None, None),
    ("repro.serve.driver:mma_utilization", "gpu.cost_model.mma_utilization",
     None, None),
    ("repro.serve.driver:estimate_time", "gpu.cost_model.estimate_time",
     None, None),
    ("repro.gpu.memory:sector_counts", "gpu.memory.sector_counts", None, None),
    ("repro.core.format:DASPMatrix.from_csr", "core.preprocess", None, None),
    ("repro.serve.plan_cache:PlanRegistry.get_ex", "serve.plan_cache",
     None, None),
    ("repro.serve.plan_cache:PlanRegistry.update", "serve.plan_cache.update",
     None, None),
    ("repro.core.delta:apply_value_update", "core.delta.value_patch",
     None, None),
    ("repro.core.delta:apply_structural_update", "core.delta.structural_patch",
     None, None),
    ("repro.store.store:PlanStore.put", "store.put", None, None),
    ("repro.store.store:PlanStore.put_delta", "store.put", None, None),
    ("repro.store.store:PlanStore.load", "store.load", None, None),
    ("repro.cluster.driver:random_delta", "cluster.random_delta", None, None),
    ("repro.serve.batcher:RequestBatcher.add", "serve.batcher.add", None, None),
    ("repro.serve.batcher:RequestBatcher.due", "serve.batcher.due", None, None),
]
COST_MODEL = ("gpu.cost_model.spmm_events", "gpu.cost_model.mma_utilization",
              "gpu.cost_model.estimate_time")


class _Entry:
    """A pool matrix in the shape ``ClusterConfig.entries`` expects."""

    def __init__(self, name: str, csr) -> None:
        self.name = name
        self._csr = csr

    def matrix(self):
        return self._csr


def episode(entries, n: int, *, keep_plans: bool = False, tracer=None):
    """One simulation in a fresh store: (wall s, stats, store bytes, plans)."""
    TMP.mkdir(exist_ok=True)
    root = tempfile.mkdtemp(dir=TMP)
    try:
        cfg = ClusterConfig(
            n_replicas=N_REPLICAS, n_requests=n, rate_rps=RATE, zipf_s=1.1,
            seed=TRAFFIC_SEED, entries=entries, update_mix=UPDATE_MIX,
            structural_frac=STRUCTURAL_FRAC, store=PlanStore(root))
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("sim.episode"):
                stats = run_cluster_workload(cfg)
        else:
            stats = run_cluster_workload(cfg)
        wall = time.perf_counter() - t0
        nbytes = sum(f.stat().st_size for f in Path(root).rglob("*")
                     if f.is_file())
        plans, versions = {}, 0
        if keep_plans:
            store = PlanStore(root)
            for e in entries:
                fp = matrix_fingerprint(e.matrix())
                versions += store.current_version(fp) or 0
                loaded = store.load(fp, mmap=False, gate=False)
                if loaded is not None:
                    plans[e.name] = loaded[0]
        return wall, stats, nbytes, plans, versions
    finally:
        shutil.rmtree(root, ignore_errors=True)


def modeled_outputs(stats) -> tuple:
    """Every modeled number an episode reports, for exact comparison."""
    pct = stats.latency_percentiles((50.0, 95.0, 99.0))
    reps = stats.replicas.values()
    return (tuple(pct.values()), stats.duration_s, stats.n_completed,
            stats.n_updates, stats.device_busy_s,
            tuple(r.preprocess_s for r in reps),
            tuple(r.delta_compactions for r in reps),
            tuple(r.delta_patch_modeled_s for r in reps),
            tuple(r.delta_rebuild_modeled_s for r in reps),
            tuple(r.cache_hits for r in reps), tuple(stats.routed.values()))


def goodput(stats) -> float:
    """Completed requests per modeled busy second (kernels plus plan
    acquisition and patches), summed over replicas."""
    return sum(r.goodput_rps for r in stats.replicas.values())


def _account(res: Result, stats, n: int) -> None:
    res.attempted += n
    res.failed += stats.n_requests - stats.n_completed


def timed(entries, seconds: float, res: Result, cal: Calibrator,
          tracer=None):
    """Episodes until *seconds* are spent (at least one); each wall time
    is scaled by the calibration units run just before and just after."""
    walls, raw, outputs = [], [], []
    t_end = time.perf_counter() + seconds
    after = cal.scale(CAL_UNITS)
    while not walls or time.perf_counter() < t_end:
        before = after
        wall, stats, nbytes, got, versions = episode(
            entries, EPISODE, keep_plans=not walls, tracer=tracer)
        after = cal.scale(CAL_UNITS)
        scale = (before + after) / 2
        if not walls:
            plans = got
            res.check(len(plans) == len(POOL) and versions == stats.n_updates,
                      "store holds every matrix at its final version")
        _account(res, stats, EPISODE)
        walls.append(wall * scale)
        raw.append(wall)
        outputs.append(modeled_outputs(stats))
    res.check(all(o == outputs[0] for o in outputs),
              "modeled outputs differ between identical episodes")
    return walls, raw, outputs[0], stats, nbytes, plans


def run(seed: int, seconds: float, tracer, import_s: float) -> Result:
    rng = np.random.default_rng(seed)
    entries = [_Entry(n, suite_matrix(n, seed)) for n in POOL]
    res = Result()
    cal = Calibrator("unique")
    if tracer is None:
        import_scale = cal.import_scale()
        setups = []
        for _ in range(SETUP_REPS):
            scale = cal.unit()
            wall, stats, _, _, _ = episode(entries, 1)
            _account(res, stats, 1)
            setups.append(wall * scale)
        walls, raw, _, _, _, plans = timed(entries, seconds, res, cal)
        # the patched plans an episode ends with: checked and probed
        csrs = {n: p.csr for n, p in plans.items()}
        ops = kernels.Operands(
            csrs, {n: spd_system(csrs[n]) for n in CG_SYSTEMS}, rng)
        _, cg_ops = ops.build()
        out = kernels.probe(ops, plans, {n: cg_ops[n] for n in CG_SYSTEMS},
                            res, Calibrator("gather"),
                            budget_s=kernels.PROBE_S,
                            min_reps=kernels.PROBE_REPS)
        res.metrics = {
            "setup_s": import_s * import_scale + median(setups),
            "spmv_gflops": out["spmv_gflops"],
            "spmm_gflops": out["spmm_gflops"],
            "solve_s": out["solve_s"],
            "modeled_gflops": geomean(kernels.modeled(plans).values()),
            "throughput_rps": EPISODE / median(walls),
            "latency_p50_ms": median(walls) * 1e3,
        }
        res.notes.append(f"{len(walls)} episodes of {EPISODE} arrivals, raw "
                         f"median {median(raw) * 1e3:.1f} ms; "
                         f"latency_p50_ms is one episode's wall time; "
                         + kernels.calibration_note(cal))
        return res

    plain_walls, _, plain_out, _, _, _ = timed(entries, seconds / 2, res, cal)
    tracer.install(SPECS)
    try:
        walls, _, out, stats, nbytes, _ = timed(entries, seconds / 2, res, cal,
                                             tracer)
    finally:
        tracer.restore()
    res.check(out == plain_out, "modeled outputs traced vs untraced")
    n_ep = len(walls)
    spans = tracer.under_roots(("sim.episode",))
    table = tracer.layer_table(spans)
    wall, cover = tracer.coverage(spans, ("sim.episode",))

    def total(name, key="total_s"):
        return table.get(name, {}).get(key, 0.0)

    def mean_ms(name):
        calls = total(name, "calls")
        return total(name) / calls * 1e3 if calls else 0.0

    reps = list(stats.replicas.values())
    hits = sum(r.cache_hits for r in reps)
    looks = hits + sum(r.cache_misses for r in reps)
    versions = (total("core.preprocess", "calls")
                + total("core.delta.value_patch", "calls")
                + total("core.delta.structural_patch", "calls"))
    rebuild = sum(r.delta_rebuild_modeled_s for r in reps)
    pct = stats.latency_percentiles((50.0, 90.0))
    routed = list(stats.routed.values())
    res.metrics = {
        "gpu.cost_model.ms": sum(total(n) for n in COST_MODEL) / n_ep * 1e3,
        "gpu.memory.sector_counts.calls_per_plan_version":
            total("gpu.memory.sector_counts", "calls") / max(versions, 1),
        "core.preprocess.calls": total("core.preprocess", "calls") / n_ep,
        "core.preprocess.ms": total("core.preprocess") / n_ep * 1e3,
        "core.delta.value_patch_ms": mean_ms("core.delta.value_patch"),
        "core.delta.structural_patch_ms":
            mean_ms("core.delta.structural_patch"),
        "core.delta.compactions": sum(r.delta_compactions for r in reps),
        "core.delta.modeled_patch_vs_rebuild":
            sum(r.delta_patch_modeled_s for r in reps) / rebuild
            if rebuild else 0.0,
        "store.put_ms": mean_ms("store.put"),
        "store.load_ms": mean_ms("store.load"),
        "store.bytes_written": nbytes,
        "cluster.broadcasts": stats.n_updates,
        "cluster.max_replica_share": max(routed) / max(sum(routed), 1),
        "cluster.modeled_p50_us": pct[50.0] * 1e6,
        "cluster.modeled_p90_us": pct[90.0] * 1e6,
        "cluster.modeled_goodput_rps": goodput(stats),
        "serve.plan_cache.hit_ratio": hits / looks if looks else 0.0,
        "obs.wall_coverage": cover,
        "obs.trace_overhead_frac": median(walls) / median(plain_walls) - 1.0,
    }
    res.notes.append(f"{n_ep} traced episodes, {wall:.3f} s; store bytes are "
                     f"the store directory's size after an episode")
    res.table = (table, wall)
    return res
