"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload mandel --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: porobiot is imported from ./src,
never from an installed copy.  BENCHMARK.json gives the full command, which
also pins BLAS to one thread and unsets POROBIOT_THREADS.

With --trace 0 the run warms up, then times whole rounds of the workload
until the next round would end past --seconds (at least one), with a
batch of set-ups timed before each round and after the last, and reports
the median round and the median set-up (summed over a workload's set-up
parts, such as the mesh sizes of `scale`).  Both are in reference
seconds: the host's speed is sampled all through the timed rounds and
set-ups, and each time is adjusted to the speed it ran at (hostspeed.py);
the log line before the result gives the raw times too.  With --trace 1 it times an
untraced and then a traced round, and reports the traced round's
per-layer self times and counts and the tracing overhead (traced minus
untraced wall time); the spans go to perfbench/out/.  Every round's
outputs are checked against references computed apart from porobiot, out
of the timed region.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# Set-ups are timed in batches before every round and after the last one,
# and the median over the whole run is reported.  A batch repeats each
# set-up part until that part has taken this long.
SETUP_BATCH_SECONDS = 0.5


def load_spec():
    """BENCHMARK.json: the workload names and every metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv, spec):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_workloads():
    """Import the workloads against ./src; None when the checkout lacks it."""
    src = ROOT / "src"
    if not (src / "porobiot" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import porobiot
    if Path(porobiot.__file__).resolve().parent != (src / "porobiot").resolve():
        return None
    import workloads
    return workloads


def timed(fn):
    """((start, end) by perf_counter, result) of one call."""
    t0 = perf_counter()
    out = fn()
    return (t0, perf_counter()), out


def raw(interval):
    return interval[1] - interval[0]


def sample_setup(workload, setups):
    """One batch: time each set-up part until it has taken the batch time."""
    for part, fn in workload.setup_parts():
        spent = 0.0
        while spent < SETUP_BATCH_SECONDS:
            interval = timed(fn)[0]
            setups.setdefault(part, []).append(interval)
            spent += raw(interval)


def timed_rounds(workload, seconds):
    """Whole rounds while the next one is expected to end within `seconds`.

    Returns the (interval, outcome) of every round and the set-up
    intervals of each part, from the batches and from the rounds
    themselves.
    """
    rounds, setups = [], {}
    start = perf_counter()
    while True:
        sample_setup(workload, setups)
        rounds.append(timed(workload.run))
        for part, intervals in rounds[-1][1].setups.items():
            setups.setdefault(part, []).extend(intervals)
        elapsed = perf_counter() - start
        if elapsed + statistics.median(raw(r[0]) for r in rounds) > seconds:
            sample_setup(workload, setups)
            return rounds, setups


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv, spec)
    workloads = import_workloads()
    if workloads is None:
        print(f"error: no porobiot sources under {ROOT / 'src'}; run from the "
              "root of a porobiot checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warmup()

    if args.trace:
        import tracing
        rounds = [timed(workload.run)]
        tracer = tracing.Tracer()
        with tracer:
            rounds.append(timed(workload.run))
        values = tracer.layer_values(raw(rounds[1][0]) - raw(rounds[0][0]))
        reported = spec["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans)
        print(f"rounds: untraced {raw(rounds[0][0]):.3f} s, traced "
              f"{raw(rounds[1][0]):.3f} s; {len(tracer.names)} spans written "
              f"to {spans.relative_to(ROOT)}")
    else:
        import hostspeed
        with hostspeed.HostSpeed(workload.calibration_solves) as speed:
            rounds, setups = timed_rounds(workload, args.seconds)
        wall = [speed.adjusted(*r[0]) for r in rounds]
        setup = {part: [speed.adjusted(*iv) for iv in intervals]
                 for part, intervals in setups.items()}
        values = {
            "wall_s": statistics.median(wall),
            "setup_s": sum(statistics.median(t) for t in setup.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "nonlinear_iters": rounds[0][1].iterations,
        }
        reported = spec["end_to_end"]
        speeds = speed.speeds()
        print("set-ups: " + ", ".join(
            f"{part} {len(t)} x median {statistics.median(t):.4f} s "
            f"(raw {statistics.median(raw(iv) for iv in setups[part]):.4f} s)"
            for part, t in setup.items())
            + "; rounds: " + ", ".join(f"{w:.3f} s (raw {raw(r[0]):.3f} s)"
                                       for w, r in zip(wall, rounds))
            + f"; host speed over {len(speeds)} samples: median "
            f"{statistics.median(speeds):.3f}, min {min(speeds):.3f}, "
            f"max {max(speeds):.3f} of the reference")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in reported}

    failures = []
    for k, (_, outcome) in enumerate(rounds):
        failures += [f"round {k + 1}: {msg}" for msg in workload.check(outcome.payload)]
    if len({r[1].iterations for r in rounds}) != 1:
        failures.append("rounds disagree on the number of iterations: "
                        f"{[r[1].iterations for r in rounds]}")
    for msg in failures:
        print(f"CHECK FAILED: {msg}")
    result = {"correct": not failures,
              "attempted": len(rounds) * workload.ops_per_round,
              "failed": sum(r[1].failed for r in rounds),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
