#!/usr/bin/env python3
"""Desk-scale benchmark of dictolearn.

From the repository root:

    python3 perfbench/run.py --workload recon-conv --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

A run imports dictolearn from this checkout's ``src/`` with BLAS held to
one thread, sets the workload up, then runs its ops in a closed loop
until the next op would end after ``--seconds`` (always at least one).
It checks the outputs, prints every metric by name with its unit, and
prints as its last line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports BENCHMARK.json's end-to-end metrics, ``--trace 1``
its per-layer metrics from spans (see tracing.py), in a separate run.

End-to-end metrics. Times are wall seconds scaled to a nominal host
speed (see hostspeed.py): the untraced run times a fixed numpy kernel of
the workload's kind throughout, and the scale is the kernel's nominal
time over its median time in the run. The wall times are printed as
``info setup_wall_s`` and ``info op_wall_s``.

* ``setup_s``: import time plus the median of three set-ups, each of
  which loads and hash-checks the dictionary, assembles the projector
  and computes ||A||^2, and generates the inputs from the seed.
* ``op_s``: seconds per unit of work: one scan's dictionary
  reconstruction (recon-*), one training step (train), one ELBO instance
  (elbo).
* ``peak_rss_mb``: peak resident memory of the process, read after the
  ops and before the repeated set-ups, less the kernel's arrays.

Quality fingerprints (PSNR and SNR of the reconstruction, final training
objective, held-out fit, ELBO bound tightness) are per-layer metrics of
the first op, so they repeat exactly at a seed. They vary too much from
phantom to phantom to be bounded across seeds.

An op fails when it raises, returns non-finite output, breaks the c09
monotonicity gate (recon) or violates a bound as scripts/verify_bounds.py
counts it (elbo); ``failed`` counts them against ``attempted``.

``--smoke`` runs every workload for one tiny op in both trace modes, each
in a fresh process, and checks that every metric is present.
"""

import os
import sys
import time

START = time.perf_counter()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set before numpy loads: BLAS reads these once, when it starts.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_library():
    """Import dictolearn from this checkout's src/ and nowhere else."""
    if not (SRC / "dictolearn" / "__init__.py").is_file():
        raise SystemExit(f"error: no dictolearn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dictolearn

    if Path(dictolearn.__file__).resolve().parent != SRC / "dictolearn":
        raise SystemExit(f"error: imported dictolearn from {dictolearn.__file__}, not {SRC}")
    import workloads

    return workloads


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def timed(clock, fn, *args) -> float:
    t0 = clock()
    fn(*args)
    return clock() - t0


def measure(wl, args, clock):
    """Set up, run ops until ``--seconds`` is spent, set up again."""
    setup_times = [timed(clock, wl.set_up, True)]
    results = []
    t0 = clock()
    while True:
        results.append(wl.op(len(results)))
        elapsed = clock() - t0
        if args.tiny or elapsed * (len(results) + 1) / len(results) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Repeated after the peak is read: a standalone projector briefly
    # coexists with the cached one, which no real run does.
    for _ in range(1 if args.tiny else SETUP_REPEATS - 1):
        setup_times.append(timed(clock, wl.set_up, False))
    return setup_times, results, peak_rss_mb


def run(args) -> int:
    spec = load_spec()
    workloads = import_library()
    import_s = time.perf_counter() - START

    tracer = None
    op_span = contextlib.nullcontext
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer, callers=[workloads])
        span_cost = tracing.span_cost_s()
        op_span = tracer.op_span

    if tracer is None:
        import hostspeed

        host = hostspeed.HostSpeed(workloads.BY_NAME[args.workload].host_kernel)
        wl = workloads.BY_NAME[args.workload](args.seed, args.tiny, op_span, host.clock)
        with host:
            setup_times, results, peak_rss_mb = measure(wl, args, host.clock)
        peak_rss_mb -= host.resident_mb()
        scale = host.scale()
        host_info = {"host_ref_ms": 1e3 * statistics.median(host.samples),
                     "host_scale": scale, "host_samples": len(host.samples)}
    else:
        # Spans already time every layer; the kernel would add to their self times.
        wl = workloads.BY_NAME[args.workload](args.seed, args.tiny, op_span)
        setup_times, results, peak_rss_mb = measure(wl, args, time.perf_counter)
        scale, host_info = 1.0, {}

    problems = wl.finish()
    problems = [p for r in results for p in r.problems] + problems
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    op_wall_s = sum(r.work_s for r in results) / sum(r.units for r in results)
    setup_wall_s = import_s + statistics.median(setup_times)
    op_s = scale * op_wall_s

    if tracer is None:
        values = {"setup_s": scale * setup_wall_s, "op_s": op_s, "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]
    else:
        table = tracing.SpanTable(tracer)
        values = tracing.layer_metrics(table, span_cost, int(wl.facts.get("huber_iters", 0)))
        values.update(wl.facts)
        mc_s = table.total("elbo.elbo_monte_carlo")
        if mc_s:
            values["elbo.mc_samples_per_s"] = wl.facts["elbo.mc_samples"] / mc_s
        values["trace.op_s"] = op_wall_s
        if abs(values["trace.self_sum_ratio"] - 1.0) > 1e-6:
            problems.append(f"self times cover {values['trace.self_sum_ratio']:.9f} of op wall time")
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        wanted = spec["per_layer"]

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    info = dict(wl.info, **{wl.rate_name: 1.0 / op_s if op_s else 0.0},
                failed_frac=failed / attempted,
                peak_rss_mb=peak_rss_mb, import_s=import_s, setup_reps_s=setup_times,
                setup_wall_s=setup_wall_s, op_wall_s=op_wall_s, ops=len(results), **host_info)
    for name, m in metrics.items():
        print(f"{name:<30} {m['value']:>14.6g} {m['unit']}")
    for name, value in info.items():
        print(f"info {name:<25} {value}")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print("env: " + json.dumps(environment(args.seed)))
    print("detail: " + json.dumps(info))
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def smoke(spec) -> int:
    """One tiny op of every workload in both trace modes; checks metric presence."""
    bad = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", wl, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{wl} trace={trace}: no result (exit {proc.returncode})\n{proc.stderr}")
                bad += 1
                continue
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            issues = []
            if proc.returncode != 0:
                issues.append(f"exit {proc.returncode}")
            if got != expected:
                issues.append(f"metrics differ: missing {sorted(set(expected) - set(got))}, "
                              f"extra {sorted(set(got) - set(expected))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                issues.append(f"correct={result['correct']} failed={result['failed']} "
                              f"attempted={result['attempted']}: {proc.stderr.strip()}")
            print(f"{wl:<12} trace={trace} {len(got)} metrics "
                  f"{'ok' if not issues else 'FAILED: ' + '; '.join(issues)}")
            if trace == 0:
                for line in lines[:-1]:
                    print("    " + line)
            bad += bool(issues)
    return 1 if bad else 0


def main() -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, one op")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload tiny in both trace modes and check the metrics")
    args = ap.parse_args()
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
