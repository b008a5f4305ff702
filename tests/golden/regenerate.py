"""The golden CSV bodies that `tests/test_golden.py` compares runs against.

`CASES` holds twelve small command-line runs: short consolidation runs by
LU, splitting, GMRES and `t2c3` splitting, small L-sweeps by both schemes,
the manufactured ladder by LU, splitting and GMRES, `verify` by both
schemes and a sensitivity K axis.  Each case's CSV files live in
`tests/golden/<case>/`, and `versions.json` records the numpy and scipy
versions and the machine they were written on.  `manifest.json` and the
`seconds` column of `linsolve.csv` are left out: they record the host, not
the arithmetic.  `FULL` holds the full-size runs, whose files live in
`tests/golden/full/<case>/` with their own `versions.json`: `mandel` at
its defaults, 50 splitting steps of it, the 9x9 splitting sweep at
`--h 0.0625`, and the 3-level ladder by LU, splitting and GMRES.  They
take about 12 s; `tests/test_golden.py` runs them once, through this
script with `--full --check`.

    python tests/golden/regenerate.py [--check] [--full]

reruns every case (the full-size ones with `--full`), rewrites its files
and `versions.json`, and prints each file's largest relative change
against the file it replaces, cell by cell (`differences`) and relative
to each column's largest magnitude (`column_change`).  Those are the
bounds to state when a change moves output bits on purpose.  With
`--check` it prints the same lines but rewrites nothing, and exits 1 when
an exact cell (an iteration count, a status, a header) differs or a file
is new or gone.

Run as a script, it sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 before numpy is imported, as the golden files were
written with one BLAS thread: the full-size GMRES ladder's bits depend on
the thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":   # before numpy loads BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np
import scipy

GOLDEN = Path(__file__).resolve().parent

_MANDEL = ["mandel", "--set", "problem.nx=10", "--set", "problem.ny=10"]
_SWEEP = ["sweep", "--case", "t1c1", "--h", "0.125",
          "--L1-grid", "logspace(-1,1,3)", "--L2-grid", "logspace(-1,1,3)"]
_LADDER = ["manufactured", "--case", "t1c1", "--h", "0.25", "--levels", "3"]
_VERIFY = ["verify", "--case", "t1c1", "--h", "0.125"]
_GMRES = ["--set", "solver.method=gmres"]

CASES = {
    "mandel_lu": _MANDEL + ["--steps", "10"],
    "mandel_splitting": _MANDEL + ["--steps", "10", "--scheme", "splitting"],
    "mandel_gmres": _MANDEL + ["--steps", "10"] + _GMRES,
    "mandel_t2c3_splitting": _MANDEL + ["--steps", "5", "--nonlinear", "t2c3",
                                        "--scheme", "splitting"],
    "sweep_splitting": _SWEEP + ["--scheme", "splitting"],
    "sweep_monolithic": _SWEEP + ["--scheme", "monolithic"],
    "manufactured_lu": _LADDER,
    "manufactured_splitting": _LADDER + ["--scheme", "splitting"],
    "manufactured_gmres": _LADDER + _GMRES,
    "verify_monolithic": _VERIFY,
    "verify_splitting": _VERIFY + ["--scheme", "splitting"],
    "sensitivity_K": ["sensitivity", "--case", "t1c1", "--h", "0.125",
                      "--axis", "K", "--values", "0.1,1,10"],
}

_SWEEP_9X9 = ["--L1-grid", "logspace(-2,2,9)", "--L2-grid", "logspace(-2,2,9)"]
_LADDER_3 = ["manufactured", "--case", "t1c1", "--levels", "3"]

FULL = {
    "mandel": ["mandel"],
    "mandel_splitting_50": ["mandel", "--steps", "50", "--scheme", "splitting"],
    "sweep_splitting": ["sweep", "--case", "t1c1", "--scheme", "splitting",
                        "--h", "0.0625"] + _SWEEP_9X9,
    "manufactured_lu": _LADDER_3,
    "manufactured_splitting": _LADDER_3 + ["--scheme", "splitting"],
    "manufactured_gmres": _LADDER_3 + _GMRES,
}


def versions():
    """The numpy and scipy versions and the machine of this process."""
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def run_case(argv, outdir):
    """Run one case's command line into `outdir`: {file name: CSV body}."""
    from porobiot.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", str(outdir)])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    bodies = {}
    for path in sorted(Path(outdir).glob("*.csv")):
        body = path.read_bytes()
        if path.name == "linsolve.csv":   # drop the seconds column
            body = b"".join(line.rsplit(b",", 1)[0] + b"\n"
                            for line in body.splitlines())
        bodies[path.name] = body
    return bodies


_INT = re.compile(r"-?\d+")


def differences(got: bytes, want: bytes):
    """(largest relative change of the float cells, cells that differ
    otherwise).  Cells that read as integers in both bodies, status strings,
    empty cells and the header compare exactly; the rows and columns must
    match."""
    rows_got = [r.split(",") for r in got.decode().splitlines()]
    rows_want = [r.split(",") for r in want.decode().splitlines()]
    if [len(r) for r in rows_got] != [len(r) for r in rows_want]:
        return float("inf"), ["the rows or columns differ"]
    largest, exact = 0.0, []
    for i, (row_got, row_want) in enumerate(zip(rows_got, rows_want)):
        for j, (a, b) in enumerate(zip(row_got, row_want)):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                x = y = None
            if (i == 0 or x is None or not np.isfinite([x, y]).all()
                    or (_INT.fullmatch(a) and _INT.fullmatch(b))):
                exact.append(f"row {i} column {j}: {a!r} != {b!r}")
            elif x != y:
                largest = max(largest, abs(x - y) / max(abs(x), abs(y)))
    return largest, exact


def _as_float(cell):
    try:
        return float(cell)
    except ValueError:   # a status or an empty cell
        return None


def column_change(got: bytes, want: bytes):
    """The largest change of a finite float cell relative to the largest
    magnitude in its column of `want`: the measure of a change at
    round-off in cells that are themselves round-off, such as the
    increments of an iteration that confirms a converged step.  The bodies
    must have the same shape, as `differences` checks."""
    rows_got = [r.split(",") for r in got.decode().splitlines()[1:]]
    rows_want = [r.split(",") for r in want.decode().splitlines()[1:]]
    largest = 0.0
    for col_got, col_want in zip(zip(*rows_got), zip(*rows_want)):
        pairs = np.array([(x, y) for x, y in zip(map(_as_float, col_got),
                                                  map(_as_float, col_want))
                          if x is not None and y is not None
                          and np.isfinite([x, y]).all()]).reshape(-1, 2)
        scale = np.max(np.abs(pairs[:, 1]), initial=0.0)
        if scale > 0.0:
            change = np.max(np.abs(pairs[:, 0] - pairs[:, 1]))
            largest = max(largest, float(change / scale))
    return largest


def main(check=False, full=False):
    """Rerun every case (of `FULL` when `full`) against its golden files,
    rewriting them unless `check`: the exit status, 1 when `check` finds an
    exact cell moved or a file new or gone."""
    cases, root = (FULL, GOLDEN / "full") if full else (CASES, GOLDEN)
    moved = False
    for name, argv in cases.items():
        with tempfile.TemporaryDirectory() as tmp:
            bodies = run_case(argv, tmp)
        folder = root / name
        for stale in sorted(set(p.name for p in folder.glob("*.csv"))
                            - set(bodies)):
            print(f"{name}/{stale}: gone")
            moved = True
            if not check:
                (folder / stale).unlink()
        for file_name, body in bodies.items():
            path = folder / file_name
            if path.exists():
                want = path.read_bytes()
                largest, exact = differences(body, want)
                change = (f"{len(exact)} exact cells differ" if exact
                          else f"largest relative change {largest:.3g}, "
                               f"relative to its column "
                               f"{column_change(body, want):.3g}")
                moved = moved or bool(exact)
            else:
                change = "new"
                moved = True
            if not check:
                folder.mkdir(parents=True, exist_ok=True)
                path.write_bytes(body)
            print(f"{name}/{file_name}: {change}")
    if check:
        return int(moved)
    (root / "versions.json").write_text(
        json.dumps(versions(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="print each file's change, rewrite nothing, "
                             "exit 1 when an exact cell moved")
    parser.add_argument("--full", action="store_true",
                        help="run the full-size cases of tests/golden/full/")
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    args = parser.parse_args()
    sys.exit(main(args.check, args.full))
