"""Steadiness check: run each workload k times with distinct seeds.

    python3 perfbench/steady.py --runs 10 --sets 2 --trace-runs 1 --out FILE

Every workload of BENCHMARK.json is run for its ``run_seconds``, on
seeds counted up from FIRST_SEED.  For every end-to-end metric it prints
the median, the quartiles and the spread (Q3 - Q1) / median against the
metric's bound.  A metric is steady when its spread is within its bound
(``setup_s`` is exempt from the spread rule) and, with ``--sets 2``, when
the median of a second set of runs on fresh seeds is not worse than the
first by more than the bound.  The spread is also marked against a third
of the bound, the margin the benchmark is tuned for.  ``--trace-runs``
adds traced runs whose per-layer medians are reported too.  Each run is
a fresh ``run.py`` process, started from the checkout root.  The exit
status is 0 when every metric is steady.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "system": platform.system()}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} reported wrong results: {lines[-2]}")
    result["detail"] = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
    return result


def stats(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    bench = _bench()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs needs at least 2 to form quartiles")

    seconds = bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    summary = {"machine": machine(), "run_seconds": seconds,
               "runs_per_set": args.runs, "workloads": {}}
    ok = True
    seed = FIRST_SEED
    for w in bench["workloads"]:
        wl = w["name"]
        entry = summary["workloads"][wl] = {"why": w["why"], "sets": []}
        for s in range(args.sets):
            results = []
            for _ in range(args.runs):
                results.append(run_once(wl, seed, seconds, 0))
                seed += 1
            entry.setdefault("sizing", results[0]["detail"].get("sizing"))
            entry.setdefault("load", results[0]["detail"].get("load"))
            table = {}
            for name, spec in e2e.items():
                st = stats([r["metrics"][name]["value"] for r in results])
                st["bound"] = spec["bound"]
                st["steady"] = name == "setup_s" or st["spread"] <= spec["bound"]
                st["within_third"] = st["spread"] < spec["bound"] / 3
                ok &= st["steady"]
                table[name] = st
                print(f"{wl:6} set {s + 1} {name:12} median {st['median']:12.4f} "
                      f"q1 {st['q1']:12.4f} q3 {st['q3']:12.4f} spread {st['spread']:.4f} "
                      f"({st['spread'] / spec['bound']:.2f} of bound {spec['bound']})"
                      f"{'' if st['steady'] else '  NOT STEADY'}", flush=True)
            entry["sets"].append(table)
            entry.setdefault("details", []).append([r["detail"] for r in results])
        if args.sets == 2:
            entry["second_vs_first"] = {}
            for name, spec in e2e.items():
                w = worse_by(entry["sets"][0][name]["median"], entry["sets"][1][name]["median"],
                             spec["better"])
                entry["second_vs_first"][name] = w
                ok &= w <= spec["bound"]
                print(f"{wl:6} second set worse by {w:+.4f} on {name} (bound {spec['bound']})")
        if args.trace_runs:
            traced = []
            for _ in range(args.trace_runs):
                traced.append(run_once(wl, seed, seconds, 1))
                seed += 1
            entry["per_layer"] = {
                name: {"median": statistics.median(r["metrics"][name]["value"] for r in traced),
                       "values": [r["metrics"][name]["value"] for r in traced],
                       "unit": traced[0]["metrics"][name]["unit"]}
                for name in traced[0]["metrics"]}
            for name, v in entry["per_layer"].items():
                print(f"{wl:6} traced {name:36} {v['median']:14.4f} {v['unit']}")
    summary["steady"] = ok
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
