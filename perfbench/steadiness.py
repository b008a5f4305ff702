"""Run every workload repeatedly in fresh processes and report the spread.

    python3 perfbench/steadiness.py --first-seed 1
    python3 perfbench/steadiness.py --first-seed 101 \
        --against perfbench/out/steadiness-seed1.json

Every workload of BENCHMARK.json runs ten times.  Each run is the
BENCHMARK.json command with its own --seed, from the root of the
checkout, one process at a time; run i of every workload is made
before run i + 1 of any, so slow spells of the host spread over all of
them.  For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), min and max, and the quartile spread as a
share of the median next to the metric's bound; a spread above a third
of the bound is flagged.  With --against it also
compares the medians with an earlier report: a median worse by more than
the bound, or a different share of failed operations, is flagged.  The raw
results go to perfbench/out/steadiness-seed<first>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--against", default=None,
                    help="an earlier report to compare the medians with")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    print(f"nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}; "
          f"{RUNS} runs x {spec['run_seconds']} s per workload")

    raw = {n: [] for n in names}
    for k in range(RUNS):
        for name in names:
            res = run_once(spec["command"], name, args.first_seed + k,
                           spec["run_seconds"])
            raw[name].append(res)
            vals = " ".join(f"{m}={res['metrics'][m]['value']:.6g}"
                            for m in metrics)
            print(f"  {name} seed {args.first_seed + k}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {vals}",
                  flush=True)

    earlier = None
    if args.against:
        earlier = json.loads(Path(args.against).read_text())["summary"]
    summary = {}
    ok = True
    print(f"\n{'workload':8} {'metric':16} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'min':>11} {'max':>11} {'spread':>7} {'bound':>6}"
          + ("  vs earlier" if earlier else ""))
    for name in names:
        runs = raw[name]
        summary[name] = {"failed_share": sorted({r["failed"] / r["attempted"]
                                                 for r in runs}),
                         "correct": all(r["correct"] for r in runs)}
        if not summary[name]["correct"] or len(summary[name]["failed_share"]) != 1:
            ok = False
        for m, meta in metrics.items():
            s = summarize([r["metrics"][m]["value"] for r in runs])
            summary[name][m] = s
            flag = ""
            if s["spread"] > meta["bound"] / 3.0:
                flag = " !"
                ok = False
            line = (f"{name:8} {m:16} {s['median']:11.5g} {s['q1']:11.5g} "
                    f"{s['q3']:11.5g} {s['min']:11.5g} {s['max']:11.5g} "
                    f"{s['spread']:7.2%} {meta['bound']:6.2f}{flag}")
            if earlier and name in earlier:
                old = earlier[name][m]["median"]
                worse = (s["median"] - old) / old
                if meta["better"] == "higher":
                    worse = -worse
                line += f"  {worse:+.2%}" + (" !" if worse > meta["bound"] else "")
                ok = ok and worse <= meta["bound"]
            print(line)
        if earlier and name in earlier and \
                earlier[name]["failed_share"] != summary[name]["failed_share"]:
            print(f"{name}: failed share {summary[name]['failed_share']} differs "
                  f"from {earlier[name]['failed_share']} !")
            ok = False
    print("\nsteady" if ok else "\nNOT steady (see lines marked !)")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steadiness-seed{args.first_seed}.json"
    path.write_text(json.dumps({"summary": summary, "raw": raw}, indent=1))
    print(f"report written to {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
