"""Layer spans for the traced run, installed from outside the program.

``Tracer.install`` replaces each listed public function of ``xmodcoh`` with
a timing wrapper, in its home module and in every ``xmodcoh`` module that
imported it by name, because a caller looks the name up in its own module
(``cli`` calls ``cohomology`` through ``xmodcoh.cli.cohomology``).  Methods
are wrapped on their class.

Each call records a span in memory: layer name, start, end and parent span.
A span also keeps the outer interval that includes the wrapper's own
bookkeeping, so a parent's self time is its duration minus its children's
outer intervals and the bookkeeping is charged to no layer.  Counters are
exact and repeat from run to run; ``<layer>_calls`` counts calls that are
not nested inside a span of the same layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

MARK = "_perfbench_layer"


def _cells(a) -> int:
    rows = len(a)
    return rows * (len(a[0]) if rows else 0)


def _nnz_lists(a) -> int:
    return sum(1 for row in a for x in row if x)


def _mod_smith_counts(args, kwargs, result):
    import numpy as np
    a = np.asarray(args[0])
    m = args[1] if len(args) > 1 else kwargs["m"]
    return {"modsnf.smith_cells": a.size,
            "modsnf.smith_nnz": int(np.count_nonzero(a % m))}


def _int_smith_counts(args, kwargs, result):
    a = args[0]
    return {"intlinalg.smith_cells": _cells(a),
            "intlinalg.smith_nnz": _nnz_lists(a)}


def _positions(args, kwargs, result):
    group, degree = args[0], args[2] if len(args) > 2 else kwargs["degree"]
    return {"cohomology.positions": (group.order - 1) ** (degree + 1)}


def _boundary_cells(args, kwargs, result):
    return {"simplicial.boundary_cells": len(args[2]) * len(args[3])}


# (layer, module, attribute, counter function).  An attribute "Cls.meth"
# names a method.  The layer is the metric prefix: "modsnf.smith" reports
# modsnf.smith_s and modsnf.smith_calls.
LAYERS = [
    ("modsnf.smith", "modsnf", "mod_smith", _mod_smith_counts),
    ("modsnf.kernel", "modsnf", "mod_kernel", None),
    ("modsnf.solve", "modsnf", "ModSolver.solve", None),
    ("intlinalg.smith", "intlinalg", "smith_normal_form", _int_smith_counts),
    ("intlinalg.solve", "intlinalg", "solve_integer", None),
    ("intlinalg.solve", "intlinalg", "solve_mod", None),
    ("intlinalg.matvec", "intlinalg", "mat_vec", None),
    ("cohomology.build", "cohomology", "cohomology", _positions),
    ("cohomology.classify", "cohomology", "CohomologyGroup.classify", None),
    ("cohomology.classify", "cohomology",
     "CohomologyGroup.coboundary_witness", None),
    *[("cohomology.cochain", "cohomology", name, None)
      for name in ("bar_differential", "is_cocycle", "normalize_cocycle",
                   "add_cochains", "sub_cochains", "scale_cochain")],
    ("crossed.z1", "crossed", "enumerate_Z1",
     lambda a, k, r: {"crossed.z1_cocycles": len(r)}),
    ("crossed.h1", "crossed", "compute_H1",
     lambda a, k, r: {"crossed.h1_classes": len(r.classes)}),
    ("crossed.h1", "crossed", "compute_H1_ff",
     lambda a, k, r: {"crossed.h1_classes": len(r.classes)}),
    ("obstruction.theta", "obstruction", "theta", None),
    ("obstruction.sweep", "obstruction", "theta_lift_sweep", None),
    ("obstruction.exactness", "obstruction", "verify_exactness", None),
    ("obstruction.kernel_ob", "obstruction", "matrix_kernel_obstruction",
     None),
    *[("nerves.build", "nerves", name,
       lambda a, k, r: {"nerves.simplices": sum(r.counts())})
      for name in ("duskin_nerve", "ordinary_nerve", "monoidal_diag_nerve")],
    *[("nerves.iso", "nerves", name, None)
      for name in ("isomorphism_violations", "duskin_to_ordinary",
                   "diag_to_ordinary")],
    ("simplicial.homology", "simplicial", "homology", None),
    ("simplicial.boundary", "simplicial", "boundary_matrix", _boundary_cells),
    ("retraction.verify", "retraction", "verify_appendix_retraction",
     lambda a, k, r: {"retraction.heads": r.heads_checked,
                      "retraction.chains": r.sampled_chains}),
    *[("unitary.invariants", "unitary", name, None)
      for name in ("dlhs_delta", "el_tau", "d_tau", "su_tau_member")],
    ("unitary.inequalities", "unitary", "check_exp_inequalities", None),
    ("unitary.decompose", "unitary", "decompose_path", None),
    *[("bundles.parse", "bundles", name, None)
      for name in ("group_from_spec", "module_from_spec",
                   "xmod_parts_from_spec", "xmod_from_spec",
                   "extension_from_spec")],
]

ROOT = "cli.run"

# Per-layer metrics the benchmark reports, with their units.  Self times
# come from spans, counts from the counter functions above, the rest from
# the case record.
METRICS = [
    ("modsnf.smith_s", "s"), ("modsnf.smith_calls", "count"),
    ("modsnf.smith_cells", "count"), ("modsnf.smith_nnz", "count"),
    ("modsnf.kernel_s", "s"), ("modsnf.solve_s", "s"),
    ("modsnf.solve_calls", "count"),
    ("intlinalg.smith_s", "s"), ("intlinalg.smith_calls", "count"),
    ("intlinalg.smith_cells", "count"), ("intlinalg.smith_nnz", "count"),
    ("intlinalg.solve_s", "s"), ("intlinalg.solve_calls", "count"),
    ("intlinalg.matvec_s", "s"), ("intlinalg.matvec_calls", "count"),
    ("cohomology.build_s", "s"), ("cohomology.build_calls", "count"),
    ("cohomology.positions", "count"),
    ("cohomology.classify_s", "s"), ("cohomology.classify_calls", "count"),
    ("cohomology.cochain_s", "s"), ("cohomology.cochain_calls", "count"),
    ("crossed.z1_s", "s"), ("crossed.z1_calls", "count"),
    ("crossed.z1_cocycles", "count"), ("crossed.h1_s", "s"),
    ("crossed.h1_classes", "count"),
    ("obstruction.theta_s", "s"), ("obstruction.sweep_s", "s"),
    ("obstruction.exactness_s", "s"), ("obstruction.kernel_ob_s", "s"),
    ("obstruction.h_cache_hits", "count"),
    ("obstruction.h_cache_misses", "count"),
    ("nerves.build_s", "s"), ("nerves.build_calls", "count"),
    ("nerves.simplices", "count"), ("nerves.iso_s", "s"),
    ("simplicial.homology_s", "s"), ("simplicial.boundary_s", "s"),
    ("simplicial.boundary_cells", "count"),
    ("retraction.verify_s", "s"), ("retraction.heads", "count"),
    ("retraction.chains", "count"),
    ("unitary.invariants_s", "s"), ("unitary.invariants_calls", "count"),
    ("unitary.inequalities_s", "s"), ("unitary.decompose_s", "s"),
    ("unitary.decompose_calls", "count"),
    ("bundles.parse_s", "s"), ("cli.serialize_s", "s"), ("cli.import_s", "s"),
    ("cli.run_self_s", "s"), ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


def self_times(spans) -> dict[str, float]:
    """Self time per layer from spans ``[layer, outer_start, start, end,
    outer_end, parent]``: each span's duration minus the outer intervals of
    its direct children."""
    covered = [0.0] * len(spans)
    for layer, o0, t0, t1, o1, parent in spans:
        if parent >= 0:
            covered[parent] += o1 - o0
    out: dict[str, float] = {}
    for i, (layer, o0, t0, t1, o1, parent) in enumerate(spans):
        out[layer] = out.get(layer, 0.0) + (t1 - t0) - covered[i]
    return out


def _resolve(module, attr):
    owner = module
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(module, cls)
    return owner, attr


def wrapped_names() -> list[str]:
    """Every ``module.name`` or ``module.Class.name`` in the loaded
    ``xmodcoh`` modules that currently holds a layer wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("xmodcoh"):
            continue
        for name, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{modname}.{name}")
            elif isinstance(value, type):
                found += [f"{modname}.{name}.{attr}"
                          for attr, member in vars(value).items()
                          if hasattr(member, MARK)]
    return found


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.installed: list[str] = []

    def wrap(self, layer: str, fn, count=None):
        spans, stack, calls, counters = (self.spans, self.stack, self.calls,
                                         self.counters)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            o0 = clock()
            parent = stack[-1] if stack else -1
            if parent < 0 or spans[parent][0] != layer:
                calls[layer] += 1
            span = [layer, o0, 0.0, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = span[4] = clock()
                stack.pop()
            if count is not None:
                counters.update(count(args, kwargs, result))
            span[4] = clock()
            return result
        setattr(wrapper, MARK, layer)
        return wrapper

    def install(self) -> None:
        """Wrap every function in LAYERS wherever an xmodcoh module holds
        it."""
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("xmodcoh")]
        for layer, modname, attr, count in LAYERS:
            home = importlib.import_module(f"xmodcoh.{modname}")
            owner, name = _resolve(home, attr)
            original = getattr(owner, name)
            wrapper = self.wrap(layer, original, count)
            if owner is not home:          # a method: callers go via class
                setattr(owner, name, wrapper)
                self.installed.append(f"xmodcoh.{modname}.{attr}")
                continue
            for mod in modules:
                for gname, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, gname, wrapper)
                        self.installed.append(f"{mod.__name__}.{gname}")

    def call_root(self, fn, *args):
        return self.wrap(ROOT, fn)(*args)

    def summary(self, record: dict) -> dict:
        """Per-layer metrics of this process, in the METRICS naming."""
        from xmodcoh import obstruction
        out: dict[str, float] = {}
        for layer, secs in self_times(self.spans).items():
            out[f"{layer}_s"] = secs
        for layer, n in self.calls.items():
            out[f"{layer}_calls"] = n
        out.update(self.counters)
        info = obstruction._h_cached.cache_info()
        out["obstruction.h_cache_hits"] = info.hits
        out["obstruction.h_cache_misses"] = info.misses
        out["cli.run_self_s"] = out.pop(f"{ROOT}_s", 0.0)
        out.pop(f"{ROOT}_calls", None)
        out["cli.serialize_s"] = record.get("serialize_s", 0.0)
        out["cli.import_s"] = record["import_s"]
        out["trace.spans"] = len(self.spans)
        return out
