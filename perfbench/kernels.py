"""`kernels` workload: the numeric library path, single-threaded.

Preprocess all 21 representative-suite matrices (FP64), then time
repeated ``dasp_spmv`` and ``dasp_spmm`` (k=8) calls on the ready plans
and ``repro.solvers.conjugate_gradient`` on SPD systems built from four
suite matrices.  An FP16 SpMV pass over all 21 matrices follows, as a
correctness check only.  The cost model and the serving stack do no
work inside the timed phases.

:func:`probe` is also the kernel probe the ``serve`` and ``sim_dynamic``
workloads run on the plans they end with.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

import repro.core as core
import repro.solvers as solvers
from repro.core import DASPMethod
from repro.gpu import get_device
from repro.gpu.cost_model import estimate_time
from repro.serve import plan_nbytes

from common import (Calibrator, Result, geomean, high_percentile, matches,
                    median)
from inputs import SUITE, spd_system, suite_matrix, to_scipy, vector

K = 8
CG_TOL = 1e-8
#: Suite matrices whose ``A + A^T`` (made diagonally dominant) CG solves.
CG_SYSTEMS = ("cant", "rma10", "conf5_4-8x8-10", "shipsec1")
SETUP_REPS = 5
#: Shares of the timed budget given to the SpMV, SpMM and CG phases.
PHASES = (0.35, 0.3, 0.35)
#: Seconds and minimum rounds of SpMV, SpMM and CG for the probe the
#: serve and sim_dynamic workloads run on their final plans.
PROBE_S = 6.0
PROBE_REPS = (12, 6, 6)
DEVICE = get_device("A100")

#: Layers the traced run wraps: (attribute its caller resolves, span
#: name, work per call, request id).  The benchmark itself calls
#: ``repro.core.dasp_spmv`` / ``dasp_spmm`` / ``repro.solvers.
#: conjugate_gradient`` through those module attributes.
SPECS = [
    ("repro.core.format:DASPMatrix.from_csr", "core.preprocess", None, None),
    ("repro.core.format:classify_rows", "core.classify", None, None),
    ("repro.core.format:build_long_rows", "core.pack.long", None, None),
    ("repro.core.format:build_medium_rows", "core.pack.medium", None, None),
    ("repro.core.format:build_short_rows", "core.pack.short", None, None),
    ("repro.core:dasp_spmv", "core.spmv", lambda a, k: a[0].nnz, None),
    ("repro.core.method:dasp_spmv", "core.spmv", lambda a, k: a[0].nnz, None),
    ("repro.core.spmv:run_long_rows", "core.long_rows",
     lambda a, k: a[0].orig_nnz, None),
    ("repro.core.spmv:run_medium_rows", "core.medium_rows",
     lambda a, k: a[0].orig_nnz, None),
    ("repro.core.spmv:run_short_rows", "core.short_rows",
     lambda a, k: a[0].orig_nnz, None),
    ("repro.core:dasp_spmm", "core.spmm",
     lambda a, k: a[0].nnz * a[1].shape[1], None),
    ("repro.solvers:conjugate_gradient", "solvers.cg", None, None),
    ("repro.gpu.memory:sector_counts", "gpu.memory.sector_counts", None, None),
]
#: The timed phases: the traced run's roots.
ROOTS = ("bench.spmv", "bench.spmm", "bench.cg")
#: Calibration units inside the roots: the benchmark's own work, left
#: out of the wall that ``obs.wall_coverage`` divides.
CALIBRATE = "bench.calibrate"


class Operands:
    """Matrices, right-hand sides and scipy references of one probe."""

    def __init__(self, csrs: dict, spd: dict, rng: np.random.Generator):
        self.csrs = csrs
        self.refs = {n: to_scipy(c) for n, c in csrs.items()}
        self.xs = {n: vector(c.shape[1], rng) for n, c in csrs.items()}
        self.Xs = {n: rng.uniform(-1.0, 1.0, (c.shape[1], K))
                   for n, c in csrs.items()}
        self.spd = spd
        self.spd_refs = {n: to_scipy(c) for n, c in spd.items()}
        self.bs = {n: vector(c.shape[0], rng) for n, c in spd.items()}

    def build(self):
        """Preprocess every matrix: ``(plans, CG operators)``."""
        plans = {n: core.dasp_preprocess(c)[0] for n, c in self.csrs.items()}
        ops = {n: solvers.SpMVOperator(c) for n, c in self.spd.items()}
        return plans, ops


def _timed_loop(names, call, budget_s: float, min_reps: int, res: Result,
                what: str, check, cal: Calibrator, tracer=None) -> dict:
    """Call ``call(name)`` round-robin until the budget is spent and every
    name ran *min_reps* times; returns name -> list of call seconds on the
    reference machine (each round follows one calibration unit that
    scales it).  The first output per name is checked against scipy,
    later ones must be bitwise equal to it."""
    times = {n: [] for n in names}
    first = {}
    t_end = time.perf_counter() + budget_s
    reps = 0
    while reps < min_reps or time.perf_counter() < t_end:
        if tracer is None:
            scale = cal.unit()
        else:
            with tracer.span(CALIBRATE):
                scale = cal.unit()
        for n in names:
            t0 = time.perf_counter()
            out = call(n)
            times[n].append((time.perf_counter() - t0) * scale)
            if n not in first:
                first[n] = out
                res.check(check(n, out), f"{what} {n} vs scipy")
            else:
                res.check(np.array_equal(out, first[n]),
                          f"{what} {n} not repeatable")
        reps += 1
    return times


def probe(ops: Operands, plans: dict, cg_ops: dict, res: Result,
          cal: Calibrator, *, budget_s: float = 0.0, min_reps=PROBE_REPS,
          tracer=None) -> dict:
    """Time SpMV, SpMM (k=8) and CG on ready plans; check every output.

    Times and rates are on the reference machine (see
    :class:`common.Calibrator`).
    """
    names = list(plans)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("bench.spmv"):
        spmv = _timed_loop(
            names, lambda n: core.dasp_spmv(plans[n], ops.xs[n]),
            budget_s * PHASES[0], min_reps[0], res, "spmv",
            lambda n, y: matches(y, ops.refs[n], ops.xs[n], np.float64),
            cal, tracer)
    with span("bench.spmm"):
        spmm = _timed_loop(
            names, lambda n: core.dasp_spmm(plans[n], ops.Xs[n]),
            budget_s * PHASES[1], min_reps[1], res, "spmm",
            lambda n, y: matches(y, ops.refs[n], ops.Xs[n], np.float64),
            cal, tracer)
    iters, converged = {}, {}

    def solve(n):
        out = solvers.conjugate_gradient(cg_ops[n], ops.bs[n], tol=CG_TOL)
        iters.setdefault(n, out.iterations)
        converged.setdefault(n, out.converged)
        return out.x

    def solved(n, x):
        a, b = ops.spd_refs[n], ops.bs[n]
        resid = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
        return bool(converged[n] and resid <= 10 * CG_TOL)

    cg_names = list(cg_ops)
    with span("bench.cg"):
        cg = _timed_loop(cg_names, solve, budget_s * PHASES[2], min_reps[2],
                         res, "cg", solved, cal, tracer)
    nnz = {n: plans[n].nnz for n in names}
    all_calls = [t for n in names for t in spmv[n]]
    return {
        "spmv_gflops": geomean(2 * nnz[n] / median(spmv[n]) / 1e9
                               for n in names),
        "spmm_gflops": geomean(2 * nnz[n] * K / median(spmm[n]) / 1e9
                               for n in names),
        "solve_s": sum(median(cg[n]) for n in cg_names),
        "spmv_calls_per_s": len(all_calls) / sum(all_calls),
        "spmv_p50_ms": median(all_calls) * 1e3,
        "spmv_p90_ms": high_percentile(all_calls, 90) * 1e3,
        "spmv_median_s": {n: median(spmv[n]) for n in names},
        "cg_iterations": sum(iters.values()),
    }


def modeled(plans: dict) -> dict:
    """Modeled A100 DASP GFLOP/s per plan (``DASPMethod`` events through
    the cost model) — bit-deterministic for a given plan."""
    out = {}
    for n, plan in plans.items():
        ev = DASPMethod().events(plan, DEVICE)
        t = estimate_time(ev, DEVICE, dtype_bits=plan.dtype.itemsize * 8).total
        out[n] = 2 * plan.nnz / t / 1e9
    return out


def fp16_pass(ops: Operands, res: Result) -> None:
    """FP16 SpMV on every matrix, checked against scipy (not timed)."""
    for n, csr in ops.csrs.items():
        c16 = csr.astype(np.float16)
        x16 = ops.xs[n].astype(np.float16)
        y = core.dasp_spmv(core.dasp_preprocess(c16)[0], x16)
        a = to_scipy(c16).astype(np.float64)
        res.check(matches(y, a, x16, np.float16), f"fp16 spmv {n}")


def setup(ops: Operands, cal: Calibrator) -> tuple:
    """Preprocess everything ``SETUP_REPS`` times: (plans, cg ops, median s)."""
    walls = []
    for _ in range(SETUP_REPS):
        scale = cal.unit()
        t0 = time.perf_counter()
        plans, cg_ops = ops.build()
        walls.append((time.perf_counter() - t0) * scale)
    return plans, cg_ops, median(walls)


def calibration_note(cal: Calibrator) -> str:
    return (f"wall-clock metrics are on the reference machine: median "
            f"{cal.kind} unit {median(cal.samples) * 1e3:.2f} ms over "
            f"{len(cal.samples)} units against "
            f"{cal.REF_S[cal.kind] * 1e3:.0f} ms")


def run(seed: int, seconds: float, tracer, import_s: float) -> Result:
    rng = np.random.default_rng(seed)
    csrs = {n: suite_matrix(n, seed) for n in SUITE}
    ops = Operands(csrs, {n: spd_system(csrs[n]) for n in CG_SYSTEMS}, rng)
    res = Result()
    cal = Calibrator("gather")
    if tracer is None:
        import_scale = cal.import_scale()
        plans, cg_ops, setup_s = setup(ops, cal)
        out = probe(ops, plans, cg_ops, res, cal, budget_s=seconds,
                    min_reps=(5, 3, 3))
        model = modeled(plans)
        fp16_pass(ops, res)
        res.metrics = {
            "setup_s": import_s * import_scale + setup_s,
            "spmv_gflops": out["spmv_gflops"],
            "spmm_gflops": out["spmm_gflops"],
            "solve_s": out["solve_s"],
            "modeled_gflops": geomean(model.values()),
            "throughput_rps": out["spmv_calls_per_s"],
            "latency_p50_ms": out["spmv_p50_ms"],
        }
        res.notes.append(calibration_note(cal)
                         + f"; spmv call p90 {out['spmv_p90_ms']:.3f} ms")
        return res

    # traced run: untraced half, then the same work traced
    tracer.install(SPECS)
    plans, cg_ops, _ = setup(ops, cal)
    setup_spans = list(tracer.spans)
    tracer.restore()
    plain = probe(ops, plans, cg_ops, res, cal, budget_s=seconds / 2,
                  min_reps=(5, 2, 2))
    model_plain = modeled(plans)
    tracer.install(SPECS)
    tracer.spans.clear()
    out = probe(ops, plans, cg_ops, res, cal, budget_s=seconds / 2,
                min_reps=(5, 2, 2), tracer=tracer)
    model_traced = modeled(plans)
    timed = tracer.under_roots(ROOTS)
    tracer.restore()
    res.check(model_traced == model_plain, "modeled outputs traced vs untraced")
    # scipy CSR in rounds like the probe's, on the reference machine
    scipy_walls = {n: [] for n in plans}
    for _ in range(5):
        scale = cal.unit()
        for n in plans:
            t0 = time.perf_counter()
            ops.refs[n] @ ops.xs[n]
            scipy_walls[n].append((time.perf_counter() - t0) * scale)
    scipy_s = {n: median(w) for n, w in scipy_walls.items()}
    fp16_pass(ops, res)

    table = tracer.layer_table(timed)
    setup_table = tracer.layer_table(setup_spans)
    wall, cover = tracer.coverage(timed, ROOTS, exclude=(CALIBRATE,))

    def per(name, key="total_s"):
        return table.get(name, {}).get(key, 0.0)

    def ns_per_work(name):
        w = per(name, "work")
        return per(name) / w * 1e9 if w else 0.0

    stored = sum(p.stored_elements for p in plans.values())
    real = sum(p.nnz for p in plans.values())
    calls_bytes = [plan_nbytes(p) + ops.xs[n].nbytes + p.shape[0] * 8
                   for n, p in plans.items()]
    pack = sum(setup_table.get(f"core.pack.{c}", {}).get("total_s", 0.0)
               for c in ("long", "medium", "short"))
    iters = out["cg_iterations"]
    res.metrics = {
        "core.classify.ms":
            setup_table.get("core.classify", {}).get("total_s", 0.0)
            / SETUP_REPS * 1e3,
        "core.pack.ms": pack / SETUP_REPS * 1e3,
        "core.long_rows.ns_per_nnz": ns_per_work("core.long_rows"),
        "core.medium_rows.ns_per_nnz": ns_per_work("core.medium_rows"),
        "core.short_rows.ns_per_nnz": ns_per_work("core.short_rows"),
        "core.spmv.scipy_ratio": geomean(out["spmv_median_s"][n] / scipy_s[n]
                                         for n in plans),
        "core.spmm.ns_per_nnz_col": ns_per_work("core.spmm"),
        "core.spmv.bytes_per_call": sum(calls_bytes) / len(calls_bytes),
        "core.spmv.padding_frac": (stored - real) / stored,
        "solvers.cg.iterations": iters,
        "solvers.cg.ms_per_iter": per("solvers.cg") * 1e3 / (
            per("solvers.cg", "calls") / len(cg_ops) * iters),
        "gpu.cost_model.ms": per("gpu.memory.sector_counts") * 1e3,
        "obs.wall_coverage": cover,
        "obs.trace_overhead_frac":
            plain["spmv_calls_per_s"] / out["spmv_calls_per_s"] - 1.0,
    }
    res.notes.append(f"timed wall {wall:.3f} s; scipy CSR is the base of "
                     f"core.spmv.scipy_ratio; bytes_per_call is computed "
                     f"from plan array sizes plus x and y")
    res.table = (table, wall)
    return res

