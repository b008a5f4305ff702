"""Per-layer spans and counts around porobiot's public functions.

The tracer wraps module functions and class methods from outside the
package.  A module function is replaced under every name that refers to it
in any loaded porobiot module, because `schemes` and `bench` import
functions such as `l2_norm`, `assemble_loads` and `generate_rect_mesh` by
name.  Methods are replaced on their class.

Each call records a span (name, start, end, parent) in memory.  A layer's
self time is the sum over its spans of the duration minus the part covered
by child spans, so nested layers are not counted twice.  Counts that the
spans alone do not give (LU fill, GMRES iterations, linear solves, range
excursions) are read from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import functools
import sys
import warnings
from collections import Counter
from time import perf_counter

import numpy as np

# (module, function or Class.method, layer group).  A function whose callers
# all sit in the same layer needs no span of its own: its time is already
# that layer's self time.
TARGETS = [
    ("mesh", "generate_rect_mesh", "mesh.generate"),
    ("fem", "interpolate", "fem.interpolate"),
    ("fem", "l2_norm", "fem.norm"),
    ("fem", "l2_inner", "fem.norm"),
    ("physics", "law_catalog", "physics.material"),
    ("physics", "estimate_constants", "physics.material"),
    ("physics", "make_material", "physics.material"),
    ("physics", "mandel_material", "physics.material"),
    ("physics", "manufactured_material", "physics.material"),
    ("physics", "mandel_problem", "physics.material"),
    ("physics", "manufactured_problem", "physics.material"),
    ("physics", "NonlinearLaw.__call__", "physics.law_eval"),
    ("assembly", "build_operators", "assembly.operators"),
    ("assembly", "assemble_loads", "assembly.loads"),
    ("assembly", "BiotOperators.mech_system", "assembly.system"),
    ("assembly", "BiotOperators.flow_system", "assembly.system"),
    ("assembly", "BiotOperators.flow_schur_system", "assembly.system"),
    ("assembly", "BiotOperators.monolithic_system", "assembly.system"),
    ("assembly", "BiotOperators.bp_dual", "assembly.duals"),
    ("assembly", "BiotOperators.hu_dual", "assembly.duals"),
    ("assembly", "BiotOperators.divu_dual", "assembly.duals"),
    ("assembly", "BiotOperators.div_u_cells", "assembly.duals"),
    ("linalg", "CachedLU.__init__", "linalg.factor"),
    ("linalg", "CachedLU.solve", "linalg.solve"),
    ("linalg", "gmres", "linalg.gmres"),
    ("linalg", "FixedStressPreconditioner.matvec", "linalg.precond"),
    ("schemes", "iterate_to_convergence", "schemes"),
    ("schemes", "time_march", "schemes"),
    ("schemes", "build_initial_state", "schemes"),
    ("schemes", "residual_norms", "schemes"),
    ("schemes", "suggested_tuning", "schemes"),
    ("bench", "run_mandel", "bench"),
    ("bench", "mandel_report", "bench"),
    ("bench", "sweep_L", "bench"),
    ("bench", "sensitivity_grid", "bench"),
    ("bench", "manufactured_convergence", "bench"),
    ("bench", "error_norms", "bench"),
]


class Tracer:
    """Installs the wrappers for the duration of a `with` block."""

    def __init__(self):
        self.names = []       # span name index per span
        self.starts = []
        self.ends = []
        self.parents = []     # index of the enclosing span, -1 at top level
        self._stack = []
        self._name_ids = {}
        self._groups = {}     # span name -> layer group
        self.counts = Counter()
        self._undo = []

    # -- wrapping ------------------------------------------------------------

    def _span(self, name, group, fn, after=None):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        self._groups[name] = group
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return functools.wraps(fn)(wrapper)

    def _after_factor(self, args, out):
        lu = args[0]._lu
        self.counts["linalg.fill_nnz"] += lu.L.nnz + lu.U.nnz

    def _after_gmres(self, args, out):
        self.counts["linalg.gmres_iters"] += out[1].iterations

    def _after_step(self, args, out):
        self.counts["schemes.linear_solves"] += out[1].n_linear_solves

    def _counting_check_admissible(self, fn, warning_cls):
        counts = self.counts

        def wrapper(*args, **kwargs):
            # run_mandel and the sweep silence warnings, so count them here
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", warning_cls)
                out = fn(*args, **kwargs)
            for w in caught:
                if issubclass(w.category, warning_cls):
                    counts["physics.range_excursions"] += 1
                warnings.warn(w.message, w.category, stacklevel=2)
            return out

        return functools.wraps(fn)(wrapper)

    def _replace_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "porobiot" and not modname.startswith("porobiot."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def __enter__(self):
        after = {"linalg.CachedLU.__init__": self._after_factor,
                 "linalg.gmres": self._after_gmres,
                 "schemes.iterate_to_convergence": self._after_step}
        for modname, target, group in TARGETS:
            mod = sys.modules["porobiot." + modname]
            name = f"{modname}.{target}"
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._span(name, group, original,
                                              after.get(name)))
                self._undo.append((cls, meth, original))
            else:
                original = getattr(mod, target)
                self._replace_everywhere(
                    original, self._span(name, group, original, after.get(name)))
        physics = sys.modules["porobiot.physics"]
        original = physics.check_admissible
        self._replace_everywhere(original, self._counting_check_admissible(
            original, physics.AdmissibleRangeWarning))
        return self

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()
        return False

    # -- results -------------------------------------------------------------

    def _arrays(self):
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        parent = np.asarray(self.parents, dtype=np.int64)
        names = np.asarray(self.names, dtype=np.int64)
        covered = np.zeros(len(dur))
        inner = parent >= 0
        np.add.at(covered, parent[inner], dur[inner])
        return names, dur, dur - covered

    def layer_values(self, overhead_s):
        """Every per-layer metric of BENCHMARK.json, by name, from the spans
        and counts."""
        names, dur, self_time = self._arrays()
        by_id = {i: n for n, i in self._name_ids.items()}
        group_self = Counter()
        calls = Counter()
        inclusive = Counter()
        for i in range(len(self._name_ids)):
            mask = names == i
            name = by_id[i]
            group_self[self._groups[name]] += float(self_time[mask].sum())
            inclusive[name] += float(dur[mask].sum())
            calls[name] += int(mask.sum())
        group_calls = Counter()
        for name, n in calls.items():
            group_calls[self._groups[name]] += n
        return {
            "mesh.generate_s": group_self["mesh.generate"],
            "fem.interpolate_s": group_self["fem.interpolate"],
            "fem.norm_s": group_self["fem.norm"],
            "fem.norm_calls": calls["fem.l2_norm"],
            "physics.material_s": group_self["physics.material"],
            "physics.law_eval_s": group_self["physics.law_eval"],
            "physics.law_evals": calls["physics.NonlinearLaw.__call__"],
            "physics.range_excursions": self.counts["physics.range_excursions"],
            "assembly.operators_s": group_self["assembly.operators"],
            "assembly.loads_s": group_self["assembly.loads"],
            "assembly.loads_calls": calls["assembly.assemble_loads"],
            "assembly.system_s": group_self["assembly.system"],
            "assembly.system_calls": group_calls["assembly.system"],
            "assembly.duals_s": group_self["assembly.duals"],
            "linalg.factor_s": group_self["linalg.factor"],
            "linalg.factors": calls["linalg.CachedLU.__init__"],
            "linalg.fill_nnz": self.counts["linalg.fill_nnz"],
            "linalg.solve_s": group_self["linalg.solve"],
            "linalg.solves": calls["linalg.CachedLU.solve"],
            "linalg.gmres_s": group_self["linalg.gmres"],
            "linalg.gmres_iters": self.counts["linalg.gmres_iters"],
            "linalg.precond_s": group_self["linalg.precond"],
            "linalg.precond_applies": calls["linalg.FixedStressPreconditioner.matvec"],
            "schemes.step_s": inclusive["schemes.iterate_to_convergence"],
            "schemes.steps": calls["schemes.iterate_to_convergence"],
            "schemes.self_s": group_self["schemes"],
            "schemes.linear_solves": self.counts["schemes.linear_solves"],
            "bench.self_s": group_self["bench"],
            "trace.overhead_s": overhead_s,
        }

    def write_spans(self, path):
        """Spans as CSV: name, start and end (s from the first span), parent."""
        by_id = {i: n for n, i in self._name_ids.items()}
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for k, (n, s, e, p) in enumerate(zip(self.names, self.starts,
                                                  self.ends, self.parents)):
                fh.write(f"{k},{by_id[n]},{s - t0:.9f},{e - t0:.9f},{p}\n")
