"""Self-test of the benchmark's exact-count metrics and its failure mode.

Usage (from the repository root)::

    python3 perfbench/selftest.py [--seconds 4]

Checks, each printed as PASS/FAIL (exit code 1 on any FAIL):

* seed 0 of ``inputs.suite_matrix`` reproduces
  ``repro.matrices.representative_suite`` exactly;
* every exact count — the ``modeled_*`` values, CG iterations,
  ``sector_counts`` calls, preprocess calls, plan-cache hits,
  compactions, ``bytes_per_call`` and ``padding_frac`` — is identical
  across two runs of the command with one seed, and those marked
  seed-dependent change with another seed;
* the command fails (non-zero exit, no JSON result) in a directory that
  holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: workload -> (trace flag, metric, changes with the seed?).  The
#: threaded server's counts (batches, cache hits, ``sector_counts``
#: calls per batch) depend on how requests happen to coalesce, so they
#: are not exact and are not listed.  ``sim_dynamic`` replays a fixed
#: arrival and update schedule, so its broadcast count and plan-cache
#: hit ratio are fixed by that schedule, and no episode grows the
#: rebuild debt to a compaction: those three only have to repeat.
EXACT = {
    "kernels": [
        (0, "modeled_gflops", True),
        (1, "solvers.cg.iterations", True),
        (1, "core.spmv.bytes_per_call", True),
        (1, "core.spmv.padding_frac", True),
    ],
    "serve": [
        (0, "modeled_gflops", True),
    ],
    "sim_dynamic": [
        (0, "modeled_gflops", True),
        (1, "cluster.modeled_p50_us", True),
        (1, "cluster.modeled_p90_us", True),
        (1, "cluster.modeled_goodput_rps", True),
        (1, "gpu.memory.sector_counts.calls_per_plan_version", True),
        (1, "core.preprocess.calls", True),
        (1, "serve.plan_cache.hit_ratio", False),
        (1, "core.delta.compactions", False),
        (1, "cluster.broadcasts", False),
    ],
}


def bench(workload: str, seed: int, seconds: float, trace: int,
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def metrics(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = bench(workload, seed, seconds, trace)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in out["metrics"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    failures = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {what}")

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    from inputs import SUITE, suite_matrix
    from repro.matrices import suite_by_name

    for name in SUITE:
        a, b = suite_matrix(name, 0), suite_by_name(name).matrix()
        report(a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
               and np.array_equal(a.indices, b.indices)
               and np.array_equal(a.data, b.data),
               f"seed 0 reproduces suite matrix {name}")

    for workload, checks in EXACT.items():
        for trace in sorted({t for t, _, _ in checks}):
            runs = [metrics(workload, s, args.seconds, trace)
                    for s in (args.seed, args.seed, args.seed + 1)]
            for t, name, seeded in checks:
                if t != trace:
                    continue
                a, b, c = (r[name] for r in runs)
                report(a == b, f"{workload} {name} repeats with one seed "
                               f"({a!r})")
                if seeded:
                    report(a != c, f"{workload} {name} changes with the seed "
                                   f"({a!r} -> {c!r})")

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("kernels", args.seed, args.seconds, 0, cwd=bare)
        report(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"fails without the program (exit {proc.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
