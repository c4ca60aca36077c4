"""Benchmark for toricsolve: closed-loop solves, checked, timed, traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lines27 --seed 1 --seconds 30 --trace 0

It imports toricsolve from the checkout's `src/`, sets up the workload
(import, input generator, warm-up solves), then runs one client in a
closed loop for a fixed number of steps, sized to take about `--seconds`
on a 2-vCPU VM, checking every output. The count depends only on the
arguments, so a seed always solves the same draws and any two runs of
it agree on attempted and failed solves, however loaded the machine.
With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` untraced and traced steps
alternate, and the last line holds the per-layer metrics from the
traced steps, the stage times `solve` records itself from the untraced
ones, and the tracing overhead between the two. The line before it is
a report with the environment, sample counts, wall-clock latency
(median and tail), throughput, failure fraction, accuracy, peak memory
and the failure messages. Traced runs write their spans to
`.perfbench/spans-<workload>-<seed>.jsonl`.

Solve latency and throughput are gated in units of a fixed reference
kernel (`workloads.reference_ms`) timed around every solve, because on a
shared machine wall time alone swings by a quarter from run to run. The
wall-clock figures stay in the report. For the same reason `setup_s` is
the set-up wall time scaled by the reference kernel's time before and
after the warm-ups to its nominal `REF_NOMINAL_MS`: seconds at the speed
the machine has when that kernel takes `REF_NOMINAL_MS`.

`--selftest` runs the benchmark's own short checks instead.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from tracing import SPAN_NAMES, Tracer, layer_metrics

# Pinned before numpy loads OpenBLAS: one thread keeps the cokernel SVD
# time and the last digits of the residuals independent of what else
# shares the machine's cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
# warm-up repetitions; setup_s takes their median
SETUP_REPS = 3
# reference kernel: runs timed on either side of the warm-ups, and its
# usual time in ms on a 2-vCPU VM, to which setup_s is scaled
SETUP_REF_REPS = 40
REF_NOMINAL_MS = 6.0

E2E_UNITS = {
    "solve_p50_ref": "ref",
    "solves_per_ref": "1/ref",
    "setup_s": "s",
}


def layer_units():
    units = {}
    for stage in ("homogenize", "pair", "cokernel", "family", "schur", "recover"):
        units[f"solver.{stage}_ms"] = "ms"
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "calls/solve"
        units[f"{name}.ms"] = "ms/solve"
        units[f"{name}.self_ms"] = "ms/solve"
    units.update({
        "lattice.lattice_points.hit_ratio": "ratio",
        "regularity.graded_basis.calls": "calls/solve",
        "eigensolver.res_rows": "rows",
        "eigensolver.res_cols": "cols",
        "eigensolver.res_bytes": "bytes",
        "eigensolver.cokernel.gap_log10": "log10",
        "eigensolver.svd_flops": "Gflop_est/solve",
        "eigensolver.family.members": "matrices",
        "eigensolver.family.cond_log10": "log10",
        "eigensolver.schur.clusters": "clusters",
        "eigensolver.schur.widenings": "log10",
        "eigensolver.schur.leakage_log10": "log10",
        "recovery.torus.ok_ratio": "ratio",
        "cli.sweep.overhead_ms": "ms/pass",
        "trace.overhead_frac": "ratio",
    })
    return units


def environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def in_ref(records):
    """Solve time in units of the reference kernel timed around it.

    The median over the solves of each support, averaged over supports:
    dense alternates two shapes, and the median of the pooled times would
    fall in the gap between them.
    """
    by_support = {}
    for r in records:
        by_support.setdefault(r["support"], []).append(r["wall_ms"] / r["ref_ms"])
    return statistics.mean(statistics.median(v) for v in by_support.values())


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return {"value": sorted(samples)[rank - 1], "unit": "ms",
            "percentile": 100.0 * rank / n, "samples": n}


def step_count(cls, seconds, trace):
    """Steps that take about `seconds` at the workload's nominal pace.

    At least one; even when tracing, so traced and untraced steps pair up.
    """
    n = max(1, round(seconds / cls.step_s))
    return n + n % 2 if trace else n


def import_toricsolve():
    """Import toricsolve from the checkout; returns the seconds it took."""
    src = ROOT / "src"
    if not (src / "toricsolve" / "__init__.py").is_file():
        raise SystemExit(f"error: no toricsolve package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import toricsolve
    took = time.perf_counter() - t0
    if Path(toricsolve.__file__).resolve().parent != (src / "toricsolve").resolve():
        raise SystemExit(f"error: imported toricsolve from {toricsolve.__file__}")
    return took


def measure(name, seed, seconds, trace, import_s, workdir, options=None):
    """Set up and run one workload; returns (report dict, result dict).

    `options` go to the measured workload's constructor; the self-test
    uses them for small shapes and wrong expectations.
    """
    import numpy as np
    from workloads import (WORKLOADS, SolveLog, reference_ms, stage_medians,
                           support_repeat_frac, worst_resid_log10)

    cls = WORKLOADS[name]
    setup_refs = [reference_ms(SETUP_REF_REPS)]
    setups = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        warm = cls(np.random.default_rng([seed, 1, rep]), SolveLog(), workdir,
                   **cls.warmup_kwargs)
        try:
            warm.step()
        finally:
            warm.close()
        setups.append(time.perf_counter() - t0)
    setup_refs.append(reference_ms(SETUP_REF_REPS))
    setup_wall = import_s + statistics.median(setups)

    log = SolveLog(cls.ref_reps)
    tracer = Tracer() if trace else None
    bench = cls(np.random.default_rng(seed), log, workdir, **(options or {}))
    attempted, failures, steps = 0, [], []
    t_start = time.perf_counter()
    try:
        for i in range(step_count(cls, seconds, trace)):
            traced = trace and i % 2 == 1
            if traced:
                tracer.install()
                log.tracer = tracer
            first, t0 = len(log.records), time.perf_counter()
            try:
                done, failed = bench.step()
            finally:
                if traced:
                    log.tracer = None
                    tracer.uninstall()
            steps.append((log.records[first:], 1e3 * (time.perf_counter() - t0)))
            attempted += done
            failures += failed
    finally:
        bench.close()
    wall = time.perf_counter() - t_start
    log.finish()
    # loop time net of the reference runs, each step in its own reference units
    ref_time = sum((ms - sum(r["ref_before"] for r in recs))
                   / statistics.mean(r["ref_ms"] for r in recs)
                   for recs, ms in steps if recs)

    plain = [r for r in log.records if not r["traced"]]
    wall_ms = [r["wall_ms"] for r in plain]
    report = {
        "workload": name,
        "env": environment(seed),
        "samples": len(plain),
        "steps": len(steps),
        "solve_p50_ms": statistics.median(wall_ms),
        "solve_tail_ms": tail(wall_ms),
        "solves_per_s": attempted / wall,
        "ref_p50_ms": statistics.median(r["ref_ms"] for r in plain),
        "fail_frac": len(failures) / attempted,
        "resid_log10_max": worst_resid_log10(log.records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "support_repeat_frac": support_repeat_frac(log.records),
        "setup_reps_s": setups,
        "import_s": import_s,
        "setup_wall_s": setup_wall,
        "setup_ref_ms": setup_refs,
        "failures": [[msg for _, msg in problems] for problems in failures],
    }
    if trace:
        traced = [r for r in log.records if r["traced"]]
        values = layer_metrics(tracer)
        values.update(stage_medians(plain))
        values["trace.overhead_frac"] = in_ref(traced) / in_ref(plain) - 1
        units = layer_units()
        tracer.write(workdir.parent / f"spans-{name}-{seed}.jsonl")
    else:
        values = {
            "solve_p50_ref": in_ref(plain),
            "solves_per_ref": attempted / ref_time,
            "setup_s": setup_wall * REF_NOMINAL_MS / statistics.mean(setup_refs),
        }
        units = E2E_UNITS
    result = {
        "correct": not any(kind == "wrong" for problems in failures for kind, _ in problems),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    return report, result


def run(name, seed, seconds, trace):
    import_s = import_toricsolve()
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        return measure(name, seed, seconds, trace, import_s, Path(tmp))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("lines27", "dense", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own checks and exit")
    args = parser.parse_args(argv)
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
