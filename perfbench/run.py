"""Repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 25 --trace 0

``--trace 0`` measures with nothing wrapped and reports every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` wraps the
program's layers (see ``spans.py``), prints a per-layer self-time table
and reports every per-layer metric; a layer the workload does not use
reports 0.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Any output that
disagrees with scipy makes ``correct`` false and the exit code 1.

The program is imported from ``src/`` next to this directory and from
nowhere else; without it the command exits with code 2 and prints no
result.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("kernels", "serve", "sim_dynamic")


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> float:
    """Import ``repro`` from this checkout; seconds since process start."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _die(f"no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _die(f"imported repro from {repro.__file__}, not from {SRC}")
    return time.perf_counter() - T_START


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        _die("--seconds must be positive")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _die(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    import_s = _import_program()

    import kernels
    import serve
    import sim
    from spans import Tracer, self_time_report

    module = {"kernels": kernels, "serve": serve, "sim_dynamic": sim}
    tracer = Tracer() if args.trace else None
    res = module[args.workload].run(args.seed, args.seconds, tracer, import_s)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        res.metrics["ok_frac"] = ((res.attempted - res.failed)
                                  / max(res.attempted, 1))
    unknown = set(res.metrics) - {m["name"] for m in wanted}
    if unknown:
        _die(f"workload reported undeclared metrics {sorted(unknown)}")
    metrics = {}
    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}")
    for m in wanted:
        if not args.trace and m["name"] not in res.metrics:
            _die(f"workload did not report {m['name']}")
        value = float(res.metrics.get(m["name"], 0.0))
        if not math.isfinite(value):
            res.correct = False
            res.notes.append(f"metric {m['name']} is not finite")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:44s} {value:16.6g} {m['unit']}")
    for note in res.notes:
        print(note)
    if res.table is not None:
        table, wall = res.table
        for line in self_time_report(table, wall):
            print(line)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-{args.seed}.tsv")
    print(json.dumps({"correct": bool(res.correct),
                      "attempted": int(res.attempted),
                      "failed": int(res.failed),
                      "metrics": metrics}))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
