"""Command-line front end: config resolution, run dispatch, CSV artifacts.

Configuration is a flat INI file with sections [material] [laws] [problem]
[scheme] [solver] [output]; command-line values beat the file, which beats
the defaults.  Every run writes its artifacts plus a manifest.json with
the fully resolved configuration, package versions and timings; a sweep's
also lists, as `range_excursions`, the (L1, L2) cells whose last iterate
left a certified law range.

Exit codes: 0 success, 2 configuration error (also the ValueError or
MeshError the library raises on invalid input), 3 solver failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bench import (cells_per_side, manufactured_convergence,
                    manufactured_setup, run_mandel, sensitivity_grid, sweep_L,
                    verify_contraction, write_contraction_csv,
                    write_errors_csv, write_mandel_csv, write_sensitivity_csv,
                    write_sweep_csv, worker_count)
from .linalg import (FactorizationError, LinearSolveError, SolverOptions,
                     write_solver_reports_csv)
from .mesh import MeshError
from .physics import (DARCY, CENTIPOISE, LAW_CASES, MandelConfig,
                      manufactured_material)
from .schemes import (DivergenceError, SchemeConfig, iterate_to_convergence,
                      suggested_tuning, write_trace_csv)

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER = 0, 2, 3


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "material": {"alpha": "1.0", "mu": "1.0", "lam": "1.0",
                 "biot_modulus": "1.0", "permeability": "1.0",
                 "viscosity": "1.0"},
    "laws": {"case": "linear", "p_lo": "", "p_hi": "", "s_lo": "", "s_hi": ""},
    "problem": {"h": "0.0625", "tau": "0.25", "final_time": "1.0",
                "levels": "1", "a": "100.0", "b": "10.0", "force": "1e4",
                "dt": "1.0", "steps": "500", "nx": "40", "ny": "40",
                "probe_x": "", "probe_y": ""},
    "scheme": {"kind": "monolithic", "l1": "", "l2": "", "tol": "1e-8",
               "max_iter": "500"},
    "solver": {"method": "lu", "restart": "50", "rtol": "1e-10",
               "maxiter": "1000"},
    "output": {"dir": "out"},
}

# keys a run does not read: each run reads the [problem] keys of its own
# domain, and only the ladder reads final_time; sweep takes L from its grids,
# sweep and sensitivity solve by LU, a splitting run reads no [solver] key
# and an LU run no GMRES control
_SLAB = [("problem", k) for k in
         ("a", "b", "force", "dt", "steps", "nx", "ny", "probe_x", "probe_y")]
_LADDER = [("problem", "levels"), ("problem", "final_time")]
_GMRES = [("solver", k) for k in ("restart", "rtol", "maxiter")]
_LU = [("solver", "method")] + _GMRES
UNREAD = {"mandel": [("problem", "h"), ("problem", "tau")] + _LADDER,
          "manufactured": _SLAB, "verify": _SLAB + _LADDER,
          "sweep": _SLAB + _LADDER + _LU
          + [("scheme", "l1"), ("scheme", "l2")],
          "sensitivity": _SLAB + _LADDER + _LU}
# keys that must be positive (the library checks the others it reads)
POSITIVE = [("problem", k) for k in ("h", "tau", "levels", "dt")] + [
    ("scheme", "max_iter"), ("material", "permeability"),
    ("material", "viscosity")]

# the consolidation benchmark defaults to its standard field parameters
MANDEL_MATERIAL = {"alpha": "1.0", "mu": "2.475e9", "lam": "1.65e9",
                   "biot_modulus": "1.65e10",
                   "permeability": repr(100.0 * DARCY),
                   "viscosity": repr(10.0 * CENTIPOISE)}


def resolve_config(subcommand, config_path=None, overrides=()):
    """Defaults (per subcommand), then the file, then -s key=value pairs."""
    cfg = {sec: dict(vals) for sec, vals in DEFAULTS.items()}
    if subcommand == "mandel":
        cfg["material"].update(MANDEL_MATERIAL)
    if config_path:
        parser = configparser.ConfigParser()
        read = parser.read(config_path)
        if not read:
            raise ConfigError(f"cannot read config file {config_path}")
        for sec in parser.sections():
            if sec not in cfg:
                raise ConfigError(f"unknown config section [{sec}]")
            for key, value in parser.items(sec):
                if key not in cfg[sec]:
                    raise ConfigError(f"unknown config key {sec}.{key}")
                cfg[sec][key] = value
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} is not section.key=value")
        dotted, value = item.split("=", 1)
        sec, key = dotted.split(".", 1)
        if sec not in cfg or key not in cfg[sec]:
            raise ConfigError(f"unknown config key {sec}.{key}")
        cfg[sec][key] = value
    return cfg


def _fget(cfg, sec, key, default=None):
    raw = cfg[sec][key]
    if raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{sec}.{key} must be a number, got {raw!r}")


def _iget(cfg, sec, key):
    value = _fget(cfg, sec, key)
    if value is None or not value.is_integer():
        raise ConfigError(
            f"{sec}.{key} must be a whole number, got {cfg[sec][key]!r}")
    return int(value)


def parse_values(text):
    """A value list: 'logspace(a,b,n)' or comma-separated numbers."""
    text = text.strip()
    if text.startswith("logspace(") and text.endswith(")"):
        parts = text[len("logspace("):-1].split(",")
        if len(parts) != 3:
            raise ConfigError(f"bad logspace spec {text!r}")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        return np.logspace(lo, hi, n)
    try:
        values = np.array([float(v) for v in text.split(",") if v.strip()])
    except ValueError:
        raise ConfigError(f"cannot parse value list {text!r}")
    if not values.size:
        raise ConfigError("empty value list")
    return values


def _law_ranges(cfg):
    """The (p_range, s_range) of [laws]: None where both ends are unset.
    The linear laws have constant slopes, certified everywhere: their case
    refuses any end."""
    if cfg["laws"]["case"].lower() == "linear":
        for key in ("p_lo", "p_hi", "s_lo", "s_hi"):
            if cfg["laws"][key] != DEFAULTS["laws"][key]:
                raise ConfigError(f"law case linear ignores laws.{key}")
    ranges = []
    for name in ("p", "s"):
        lo, hi = (_fget(cfg, "laws", f"{name}_{end}") for end in ("lo", "hi"))
        if (lo is None) != (hi is None):
            raise ConfigError(f"laws.{name}_lo and laws.{name}_hi go together")
        ranges.append(None if lo is None else (lo, hi))
    return tuple(ranges)


def _solver_options(cfg):
    method = cfg["solver"]["method"].strip().lower()
    try:
        return SolverOptions(method=method,
                             restart=_iget(cfg, "solver", "restart"),
                             rtol=_fget(cfg, "solver", "rtol"),
                             maxiter=_iget(cfg, "solver", "maxiter"))
    except ValueError as exc:
        raise ConfigError(str(exc))


def _scheme_config(cfg, mat):
    kind = cfg["scheme"]["kind"]
    l1, l2 = _fget(cfg, "scheme", "l1"), _fget(cfg, "scheme", "l2")
    if l1 is None or l2 is None:
        s1, s2 = suggested_tuning(mat, kind)
        l1 = s1 if l1 is None else l1
        l2 = s2 if l2 is None else l2
    return SchemeConfig(kind, L1=l1, L2=l2, tol=_fget(cfg, "scheme", "tol"),
                        max_iter=_iget(cfg, "scheme", "max_iter"))


def _write_manifest(outdir, subcommand, cfg, artifacts, seconds, extra):
    manifest = {
        "subcommand": subcommand,
        "config": cfg,
        "artifacts": sorted(artifacts),
        "versions": {"porobiot": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
        "seconds": round(seconds, 3),
        "workers": worker_count(),
        **extra,
    }
    path = Path(outdir) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _manufactured_material(cfg):
    """Law case, the `manufactured_material` keywords of the [material] and
    [laws] sections (which the bench drivers take as `material`) and the
    material they build."""
    case = cfg["laws"]["case"].lower()
    if case not in LAW_CASES:
        raise ConfigError(f"unknown law case {case!r}")
    if case.startswith("t1"):   # unscaled laws: law_catalog reads neither
        for key in ("lam", "biot_modulus"):
            if _fget(cfg, "material", key) != float(DEFAULTS["material"][key]):
                raise ConfigError(f"law case {case} ignores material.{key}")
    p_range, s_range = _law_ranges(cfg)
    material = dict(
        permeability=_fget(cfg, "material", "permeability"),
        alpha=_fget(cfg, "material", "alpha"), mu=_fget(cfg, "material", "mu"),
        lam=_fget(cfg, "material", "lam"),
        m_modulus=_fget(cfg, "material", "biot_modulus"),
        nu_f=_fget(cfg, "material", "viscosity"),
        p_range=p_range, s_range=s_range)
    return case, material, manufactured_material(case, **material)


def cmd_manufactured(cfg, outdir):
    case, material, mat = _manufactured_material(cfg)
    scheme = _scheme_config(cfg, mat)
    nx0 = cells_per_side(_fget(cfg, "problem", "h"))
    levels = _iget(cfg, "problem", "levels")
    solver_rows = []
    rows = manufactured_convergence(
        case, scheme.kind, scheme.L1, scheme.L2, levels=levels, nx0=nx0,
        tau0=_fget(cfg, "problem", "tau"), tol=scheme.tol,
        max_iter=scheme.max_iter,
        final_time=_fget(cfg, "problem", "final_time"), material=material,
        solver=_solver_options(cfg), solver_rows=solver_rows)
    path = Path(outdir) / "errors.csv"
    write_errors_csv(rows, path)
    artifacts = [path]
    if solver_rows:
        sol_path = Path(outdir) / "linsolve.csv"
        write_solver_reports_csv(solver_rows, sol_path)
        artifacts.append(sol_path)
    return artifacts


def cmd_mandel(cfg, outdir):
    case = cfg["laws"]["case"].lower()
    mandel_cfg = MandelConfig(
        a=_fget(cfg, "problem", "a"), b=_fget(cfg, "problem", "b"),
        force=_fget(cfg, "problem", "force"),
        lam=_fget(cfg, "material", "lam"),
        biot_modulus=_fget(cfg, "material", "biot_modulus"),
        mu=_fget(cfg, "material", "mu"),
        alpha=_fget(cfg, "material", "alpha"))
    probe_x = _fget(cfg, "problem", "probe_x")
    probe_y = _fget(cfg, "problem", "probe_y")
    if (probe_x is None) != (probe_y is None):
        raise ConfigError("problem.probe_x and problem.probe_y go together")
    probe = None if probe_x is None else (probe_x, probe_y)
    l1, l2 = _fget(cfg, "scheme", "l1"), _fget(cfg, "scheme", "l2")
    p_range, s_range = _law_ranges(cfg)
    series, results, (ops, _) = run_mandel(
        case_id=case, cfg=mandel_cfg, scheme_kind=cfg["scheme"]["kind"],
        L1=l1, L2=l2, dt=_fget(cfg, "problem", "dt"),
        n_steps=_iget(cfg, "problem", "steps"),
        nx=_iget(cfg, "problem", "nx"), ny=_iget(cfg, "problem", "ny"),
        probe=probe, tol=_fget(cfg, "scheme", "tol"),
        max_iter=_iget(cfg, "scheme", "max_iter"),
        permeability=_fget(cfg, "material", "permeability"),
        viscosity=_fget(cfg, "material", "viscosity"),
        p_range=p_range, s_range=s_range,
        solver=_solver_options(cfg))
    bad = [i + 1 for i, (_, tr) in enumerate(results) if not tr.converged]
    if bad:
        raise DivergenceError(f"steps {bad[:5]} did not converge")
    series_path = Path(outdir) / "mandel.csv"
    write_mandel_csv(series, series_path)
    trace_path = Path(outdir) / "trace.csv"
    write_trace_csv([tr for _, tr in results], trace_path)
    artifacts = [series_path, trace_path]
    if ops.solver_log:
        sol_path = Path(outdir) / "linsolve.csv"
        write_solver_reports_csv(ops.solver_log, sol_path)
        artifacts.append(sol_path)
    return artifacts


def cmd_sweep(cfg, outdir, l1_spec, l2_spec):
    case, material, _ = _manufactured_material(cfg)
    grid = sweep_L(case, cfg["scheme"]["kind"], parse_values(l1_spec),
                   parse_values(l2_spec),
                   nx=cells_per_side(_fget(cfg, "problem", "h")),
                   tau=_fget(cfg, "problem", "tau"),
                   tol=_fget(cfg, "scheme", "tol"),
                   max_iter=_iget(cfg, "scheme", "max_iter"),
                   material=material)
    path = Path(outdir) / "sweep.csv"
    write_sweep_csv(grid, path)
    # the cells whose last iterate left a certified law range
    out_of_range = [
        {"L1": float(grid.L1_values[i]), "L2": float(grid.L2_values[j]),
         "count": int(n)} for (i, j), n in np.ndenumerate(grid.range_excursions)
        if n]
    return [path], {"range_excursions": out_of_range}


def cmd_sensitivity(cfg, outdir, axis, values_spec):
    case, material, mat = _manufactured_material(cfg)
    scheme = _scheme_config(cfg, mat)
    values = parse_values(values_spec)
    if not np.all(values >= 0 if axis == "alpha" else values > 0):
        raise ConfigError(f"sensitivity values of {axis} must be "
                          + ("non-negative" if axis == "alpha" else "positive"))
    rows = sensitivity_grid(case, scheme.kind, axis, values,
                            scheme.L1, scheme.L2,
                            nx=cells_per_side(_fget(cfg, "problem", "h")),
                            tau=_fget(cfg, "problem", "tau"), tol=scheme.tol,
                            max_iter=scheme.max_iter, material=material)
    path = Path(outdir) / "sensitivity.csv"
    write_sensitivity_csv(rows, path)
    return [path]


def cmd_verify(cfg, outdir):
    case, material, _ = _manufactured_material(cfg)
    ops, prev = manufactured_setup(
        case, cells_per_side(_fget(cfg, "problem", "h")), material,
        solver=_solver_options(cfg))
    mat = ops.mat
    scheme = _scheme_config(cfg, mat)
    archive = []
    state, trace = iterate_to_convergence(
        prev, scheme, ops, mat, ops.problem, _fget(cfg, "problem", "tau"),
        archive)
    if not trace.converged:
        raise DivergenceError("iteration did not converge; nothing to verify")
    report = verify_contraction(archive, state, scheme, ops)
    path = Path(outdir) / "contraction.csv"
    write_contraction_csv(report, path)
    if trace.status == "exact":   # one value, of the one iteration
        verdict = "the step was solved exactly by one direct solve"
    else:
        verdict = (f"{'monotone' if report.monotone else 'NON-MONOTONE'} "
                   f"over {len(report.values)} values")
    print(f"contraction functional ({scheme.kind}, theorem-safe="
          f"{scheme.theorem_safe(mat)}): {verdict}")
    if not report.monotone:
        raise DivergenceError("contraction functional is not monotone")
    return [path]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="porobiot",
        description="Iterative solvers for non-linear Biot poromechanics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="config override")
        p.add_argument("--scheme", choices=("splitting", "monolithic"))
        p.add_argument("--L1", type=float)
        p.add_argument("--L2", type=float)
        p.add_argument("--tol", type=float)

    p = sub.add_parser("manufactured", help="verification problem error study")
    common(p)
    p.add_argument("--case", help="law case id (linear, t1c1..t1c5)")
    p.add_argument("--h", type=float, help="mesh size of the coarsest level")
    p.add_argument("--tau", type=float)
    p.add_argument("--levels", type=int)

    p = sub.add_parser("mandel", help="consolidation benchmark time series")
    common(p)
    p.add_argument("--nonlinear", help="law case id (linear, t2c1..t2c3)")
    p.add_argument("--dt", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--probe", help="probe point 'x,y'")

    p = sub.add_parser("sweep", help="(L1, L2) iteration-count grid")
    common(p)
    p.add_argument("--case")
    p.add_argument("--h", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--L1-grid", required=True,
                   help="logspace(a,b,n) or comma list")
    p.add_argument("--L2-grid", required=True)
    p.add_argument("--max-iter", type=int)

    p = sub.add_parser("sensitivity", help="iteration counts along one axis")
    common(p)
    p.add_argument("--case")
    p.add_argument("--h", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--axis", required=True, choices=("h", "tau", "K", "alpha"))
    p.add_argument("--values", required=True)

    p = sub.add_parser("verify", help="contraction-functional verification")
    common(p)
    p.add_argument("--case")
    p.add_argument("--h", type=float)
    p.add_argument("--tau", type=float)
    return parser


def _apply_flags(cfg, args):
    """Dedicated command-line flags beat --set overrides and the file."""
    flagmap = {
        "scheme": ("scheme", "kind"), "L1": ("scheme", "l1"),
        "L2": ("scheme", "l2"), "tol": ("scheme", "tol"),
        "case": ("laws", "case"), "nonlinear": ("laws", "case"),
        "h": ("problem", "h"), "tau": ("problem", "tau"),
        "levels": ("problem", "levels"), "dt": ("problem", "dt"),
        "steps": ("problem", "steps"), "max_iter": ("scheme", "max_iter"),
        "out": ("output", "dir"),
    }
    for attr, (sec, key) in flagmap.items():
        value = getattr(args, attr, None)
        if value is not None:
            cfg[sec][key] = str(value)
    probe = getattr(args, "probe", None)
    if probe is not None:
        parts = probe.split(",")
        if len(parts) != 2:
            raise ConfigError(f"probe must be 'x,y', got {probe!r}")
        cfg["problem"]["probe_x"] = parts[0]
        cfg["problem"]["probe_y"] = parts[1]


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = resolve_config(args.subcommand, args.config, args.overrides)
        _apply_flags(cfg, args)
        method = cfg["solver"]["method"].strip().lower()
        for sec, key in UNREAD.get(args.subcommand, []) + (
                _LU if cfg["scheme"]["kind"] == "splitting"
                else [] if method == "gmres" else _GMRES):
            if cfg[sec][key] != DEFAULTS[sec][key]:
                raise ConfigError(f"{args.subcommand} ignores {sec}.{key}")
        for sec, key in POSITIVE:
            if not _fget(cfg, sec, key, 0.0) > 0:
                raise ConfigError(f"{sec}.{key} must be positive")
        outdir = Path(cfg["output"]["dir"])
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {outdir}: {exc}")
        extra = {}   # manifest entries of one subcommand
        if args.subcommand == "manufactured":
            artifacts = cmd_manufactured(cfg, outdir)
        elif args.subcommand == "mandel":
            artifacts = cmd_mandel(cfg, outdir)
        elif args.subcommand == "sweep":
            artifacts, extra = cmd_sweep(cfg, outdir, args.L1_grid,
                                         args.L2_grid)
        elif args.subcommand == "sensitivity":
            artifacts = cmd_sensitivity(cfg, outdir, args.axis, args.values)
        elif args.subcommand == "verify":
            artifacts = cmd_verify(cfg, outdir)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown subcommand {args.subcommand}")
    except (ValueError, MeshError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, FactorizationError, LinearSolveError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _write_manifest(outdir, args.subcommand, cfg,
                    [str(p.name) for p in artifacts],
                    time.perf_counter() - t0, extra)
    for p in artifacts:
        print(f"wrote {p}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
