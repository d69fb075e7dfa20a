#!/usr/bin/env python3
"""Benchmark of the hklm pretrain -> fine-tune pipeline.

    python3 pipebench/run.py --workload joint-short --seed 1 --seconds 30 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the line before
it holds the run's context (thread environment, input make-up, checkpoint
hash, downstream scores). With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` the workload runs once untraced and once traced, and
the metrics are the per-module ones computed from the traced run's spans.
See pipebench/README.md.
"""

from __future__ import annotations

import os
import sys
import time

T_PROCESS = time.perf_counter()

# One BLAS/OpenMP thread: steadier on a shared two-core machine, and the
# trained weights depend on the BLAS thread count, so it is fixed per result.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
# Bytecode is cached as usual: the first run in a checkout compiles the
# sources into __pycache__, later runs read it.

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="nominal length of the measured regions; the work per workload is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "threads": THREAD_ENV,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hklm" / "__init__.py").is_file():
        print(f"error: no hklm sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import numpy  # noqa: F401  (timed from process start: imports are part of set-up)

    import bench
    import spans
    from speed import NOMINAL_S, Speedometer
    import_s = time.perf_counter() - T_PROCESS

    w = bench.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = OUT / f"{w.name}-s{args.seed}-p{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger = bench.Ledger()
    meter = Speedometer()
    try:
        imports = (T_PROCESS, T_PROCESS + import_s, import_s)
        meter.probe()
        repeats = 1 if args.trace else w.setup_repeats
        inputs, setup = bench.setup_runs(w, args.seed, ledger, repeats, meter)
        p = bench.run_pass(w, inputs, out_dir, ledger, meter)
        context = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                   "machine": machine(), "facts": bench.facts(w, inputs, p)}
        if args.trace:
            traced_dir = out_dir / "traced"
            traced_dir.mkdir()
            with spans.Tracer() as tracer:
                tp = bench.run_pass(w, inputs, traced_dir, ledger, meter)
            ledger.check("tracing_changes_nothing", bench.checks.ensure,
                         tp.ckpt_sha256 == p.ckpt_sha256, "traced run trained different weights")
            tracer.write(OUT / f"trace-{w.name}-s{args.seed}.jsonl")
            metrics = spans.per_layer_metrics(
                tracer, len(tp.step_tokens), tp.ckpt_path.stat().st_size, tp.wall_s, p.wall_s)
            units = {name: unit for name, (unit, _better) in spans.PER_LAYER.items()}
            context["missing_spans"] = tracer.missing
            if tracer.missing:
                print(f"warning: traced functions not found: {tracer.missing}", file=sys.stderr)
        else:
            first_steps = bench.extra_first_steps(w, inputs, ledger, meter)
            metrics = bench.end_to_end(meter.normalize, imports, setup, p, first_steps, inputs, w)
            units = bench.UNITS
            context["wall_metrics"] = bench.end_to_end(bench.wall, imports, setup, p, first_steps, inputs, w)
            probes = [d for _t, d in meter.probes]
            context["probe_s"] = {"nominal": NOMINAL_S, "median": statistics.median(probes),
                                  "min": min(probes), "max": max(probes), "count": len(probes)}
        context["checks"] = bench.run_checks(w, inputs, p, args.seed, ledger)
    except bench.StageFailed:
        print(json.dumps({"correct": False, "attempted": ledger.attempted,
                          "failed": len(ledger.failures), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    context["failures"] = ledger.failures
    print(json.dumps({"context": context}, default=str))
    print(json.dumps({
        "correct": ledger.check_failures == 0,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
