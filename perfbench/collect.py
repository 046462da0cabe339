#!/usr/bin/env python3
"""Run the benchmark over several seeds and write a results file.

From the repository root:

    python3 perfbench/collect.py --label baseline --seeds 1-10 --traced
    python3 perfbench/collect.py --label check --seeds 11-20 \
        --compare perfbench/results/BENCH_baseline.json

Each run is ``run.py`` in a fresh process, one after another. For every
workload and end-to-end metric the file holds the values, their median
and quartiles, and the spread: the distance between the quartiles as a
share of the median (``statistics.quantiles(values, n=4)``). A spread
above a third of the metric's bound is flagged as unsteady (setup_s is
exempt; only its median is compared). ``--traced`` adds one traced run per
workload, with its per-layer metrics and the tracing overhead measured
as traced wall op time against the untraced median of ``op_wall_s``.
``--compare`` checks that no median is worse than the earlier file's by
more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        for tag in ("env", "detail"):
            if line.startswith(tag + ": "):
                out[tag] = json.loads(line[len(tag) + 2:])
    out["stderr"] = proc.stderr.strip()
    return out


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def compare(current: dict, earlier: dict, spec: dict) -> list[str]:
    """Metrics whose median is worse than the earlier file's by more than the bound."""
    worse = []
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for wl, entry in current["workloads"].items():
        for name, stats in entry["end_to_end"].items():
            old = earlier["workloads"].get(wl, {}).get("end_to_end", {}).get(name)
            if old is None:
                continue
            change = (stats["median"] - old["median"]) / abs(old["median"])
            if better[name] == "higher":
                change = -change
            verdict = "WORSE" if change > stats["bound"] else "ok"
            print(f"{wl:<12} {name:<12} {old['median']:>12.6g} -> {stats['median']:>12.6g} "
                  f"worse by {100 * change:+.2f}% (bound {100 * stats['bound']:.0f}%) {verdict}")
            if verdict != "ok":
                worse.append(f"{wl}/{name}")
    return worse


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--compare", type=Path, help="earlier results file to compare medians with")
    args = ap.parse_args()

    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"label": args.label, "run_seconds": spec["run_seconds"], "seeds": seeds,
              "workloads": {}}
    unsteady = []
    for wl in args.workloads.split(","):
        runs = [run_once(wl, seed, spec["run_seconds"], 0) for seed in seeds]
        report.setdefault("env", runs[0]["env"])
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "detail_medians": {},
        }
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs], bound)
            entry["end_to_end"][name] = stats
            flag = "" if stats["steady"] or name == "setup_s" else "  UNSTEADY"
            if flag:
                unsteady.append(f"{wl}/{name}")
            print(f"{wl:<12} {name:<12} median {stats['median']:>12.6g}  spread "
                  f"{100 * stats['spread']:6.2f}% (bound {100 * bound:.0f}%){flag}", flush=True)
        for key, value in runs[0]["detail"].items():
            if isinstance(value, (int, float)):
                entry["detail_medians"][key] = statistics.median(r["detail"][key] for r in runs)
        if args.traced:
            traced = run_once(wl, seeds[0], spec["run_seconds"], 1)
            layer = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced"] = {
                "seed": seeds[0],
                "correct": traced["correct"],
                "per_layer": layer,
                "overhead_vs_untraced_pct": 100 * (layer["trace.op_s"]
                                                   / entry["detail_medians"]["op_wall_s"] - 1),
            }
        report["workloads"][wl] = entry

    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    bad = [wl for wl, e in report["workloads"].items() if not e["correct"] or e["failed"]]
    if bad:
        print(f"incorrect or failed ops: {bad}")
    if unsteady:
        print(f"unsteady: {unsteady}")
    worse = compare(report, json.loads(args.compare.read_text()), spec) if args.compare else []
    return 1 if bad or unsteady or worse else 0


if __name__ == "__main__":
    sys.exit(main())
