"""Command line front end: runs JSON problem bundles and verifies golden
report directories.

A bundle is a JSON object ``{"schema": 1, "task": <name>, ...payload...}``;
the reply is a JSON report ``{"schema", "task", "status", "result",
"provenance"}`` with status one of ``ok`` / ``violation`` /
``resource-error`` / ``input-error`` / ``internal-error`` and matching exit
codes 0 / 1 / 2 / 3 / 4.  ``violation`` is a failed mathematical check
(a ``RuntimeError``); ``internal-error`` reports any other exception, such
as a failed internal check (``errors.InvariantError``), with its type and
message, in place of a traceback.
Identical bundle and seed produce byte-identical reports apart from the
``wall_time_ms`` provenance field.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bundles import (BundleError, expect_int, expect_object,
                      extension_from_spec, group_from_spec, homology_to_json,
                      matrix_from_json, matrix_to_json, module_from_spec,
                      path_from_json, simplicial_to_json, to_jsonable,
                      xmod_from_spec, xmod_parts_from_spec)
from .cohomology import cohomology
from .crossed import compute_H1, compute_H1_ff, xmod_violations
from .errors import ResourceLimit
from .nerves import (diag_to_ordinary, duskin_nerve, duskin_to_ordinary,
                     isomorphism_violations, monoidal_diag_nerve,
                     ordinary_nerve)
from .obstruction import (matrix_kernel_obstruction, theta, theta_lift_sweep,
                          verify_exactness)
from .retraction import verify_appendix_retraction
from .simplicial import homology
from .unitary import (ball_element, check_exp_inequalities, d_tau,
                      decompose_path, dlhs_delta, el_tau, operator_norm,
                      principal_log, random_based_path, random_unitary,
                      refine_path, su_tau_member)

STATUS_EXIT = {"ok": 0, "violation": 1, "resource-error": 2,
               "input-error": 3, "internal-error": 4}

_COMMON_OPTIONAL = {"schema": int, "task": str, "seed": int, "budget": int}


def _payload(bundle: dict, required: dict, optional: dict) -> dict:
    merged = dict(optional)
    merged.update(_COMMON_OPTIONAL)
    return expect_object(bundle, "", required, merged)


def _seed(bundle: dict, override: int | None, default: int = 0) -> int:
    if override is not None:
        return override
    return expect_int(bundle.get("seed", default), "/seed", 0)


def _budget(bundle: dict, override: int | None, default: int) -> int:
    if override is not None:
        return override
    return expect_int(bundle.get("budget", default), "/budget", 1)


# ---------------------------------------------------------------------------
# task handlers: each returns (status, result)
# ---------------------------------------------------------------------------

def _task_validate(bundle, seed, budget):
    _payload(bundle, {"xmod": (str, dict)}, {})
    h, g, boundary, action, _ = xmod_parts_from_spec(bundle["xmod"], "/xmod")
    problems = xmod_violations(h, g, boundary, action)
    if problems:
        return "violation", {"valid": False, "violations": problems}
    return "ok", {"valid": True, "violations": []}


def _task_h_n(bundle, seed, budget):
    _payload(bundle, {"group": (str, dict), "module": str, "n": int}, {})
    group = group_from_spec(bundle["group"], "/group")
    module = module_from_spec(bundle["module"], group, "/module")
    n = expect_int(bundle["n"], "/n", 0, 4)
    coh = cohomology(group, module, n,
                     max_positions=_budget(bundle, budget, 2_000_000))
    return "ok", {"degree": n, "group_order": group.order,
                  "invariant_factors": list(coh.invariant_factors),
                  "order": coh.order, "stable": coh.stable}


def _task_h1(bundle, seed, budget, free_faithful=False):
    _payload(bundle, {"group": (str, dict), "xmod": (str, dict)},
             {"strict": bool})
    group = group_from_spec(bundle["group"], "/group")
    x = xmod_from_spec(bundle["xmod"], "/xmod")
    compute = compute_H1_ff if free_faithful else compute_H1
    h1 = compute(group, x, strict=bundle.get("strict", False),
                 budget=_budget(bundle, budget, 100_000_000))
    return "ok", {
        "classes": len(h1.classes),
        "sizes": [c.size for c in h1.classes],
        "basepoint": h1.basepoint,
        "free_faithful_classes": [i for i, c in enumerate(h1.classes)
                                  if c.free_faithful],
    }


def _task_theta(bundle, seed, budget):
    _payload(bundle, {"extension": (str, dict), "gamma": (str, dict)},
             {"sweep": bool})
    ext = extension_from_spec(bundle["extension"], "/extension")
    gamma = group_from_spec(bundle["gamma"], "/gamma")
    bud = _budget(bundle, budget, 1_000_000)
    h1 = compute_H1(gamma, ext.xmod1(), budget=bud)
    classes = []
    factors = None
    for i, cls in enumerate(h1.classes):
        ob = theta(ext, gamma, cls.representative, check_second_lift=True,
                   rng_seed=_seed(bundle, seed))
        factors = list(ob.h3.invariant_factors)
        entry = {"class": i, "size": cls.size,
                 "coordinates": list(ob.coordinates), "zero": ob.is_zero}
        if bundle.get("sweep", False):
            sweep = theta_lift_sweep(ext, gamma, cls.representative,
                                     budget=bud)
            entry["sweep_classes"] = [list(c) for c in sweep]
            entry["lift_independent"] = len(sweep) == 1
        classes.append(entry)
    result = {"h1_classes": len(h1.classes),
              "target_invariant_factors": factors or [],
              "theta": classes}
    if bundle.get("sweep", False):
        if not all(e["lift_independent"] for e in classes):
            return "violation", result
    return "ok", result


def _task_exact_check(bundle, seed, budget):
    _payload(bundle, {"extension": (str, dict), "gamma": (str, dict)},
             {"strict": bool})
    ext = extension_from_spec(bundle["extension"], "/extension")
    gamma = group_from_spec(bundle["gamma"], "/gamma")
    rep = verify_exactness(ext, gamma, strict=bundle.get("strict", False),
                           budget=_budget(bundle, budget, 100_000_000))
    result = {
        "exact": rep.exact,
        "exact_at_quotient": rep.exact_at_quotient,
        "exact_at_cover": rep.exact_at_cover,
        "h1_cover_classes": len(rep.h1_cover.classes),
        "h1_quotient_classes": len(rep.h1_quotient.classes),
        "push_map": list(rep.push_map),
        "image_classes": sorted(rep.image_classes),
        "theta_zero_classes": sorted(rep.zero_classes),
        "h2_order": rep.h2_order,
        "h2_image_classes": sorted(rep.h2_image_classes),
        "basepoint_preimage_size": len(rep.basepoint_preimage),
        "middle_counterexamples": len(rep.middle_counterexamples),
        "cover_counterexamples": len(rep.cover_counterexamples),
    }
    return ("ok" if rep.exact else "violation"), result


def _task_nerve(bundle, seed, budget):
    _payload(bundle, {"kind": str},
             {"xmod": (str, dict), "group": (str, dict), "trunc": int,
              "check_ordinary_iso": bool, "emit_tables": bool})
    kind = bundle["kind"]
    trunc = expect_int(bundle.get("trunc", 3), "/trunc", 0)
    bud = _budget(bundle, budget, 10_000_000)
    if kind == "ordinary":
        if "group" not in bundle:
            raise BundleError("/group", "ordinary nerve needs a group")
        group = group_from_spec(bundle["group"], "/group")
        s = ordinary_nerve(group, trunc, budget=bud)
        x = None
    elif kind in ("duskin", "diag"):
        if "xmod" not in bundle:
            raise BundleError("/xmod", f"{kind} nerve needs a crossed "
                                       "module")
        x = xmod_from_spec(bundle["xmod"], "/xmod")
        build = duskin_nerve if kind == "duskin" else monoidal_diag_nerve
        s = build(x, trunc, budget=bud)
    else:
        raise BundleError("/kind", "expected duskin, diag or ordinary")
    result = {"kind": kind, "N": s.N, "counts": list(s.counts())}
    if bundle.get("emit_tables", False):
        result["simplicial_set"] = simplicial_to_json(s)
    status = "ok"
    if bundle.get("check_ordinary_iso", False):
        if x is None:
            raise BundleError("/check_ordinary_iso",
                              "only meaningful for duskin or diag nerves")
        ordn = ordinary_nerve(x.ggroup, trunc, budget=bud)
        to_ordinary = duskin_to_ordinary if kind == "duskin" \
            else diag_to_ordinary
        problems = isomorphism_violations(to_ordinary(x, s, ordn))
        result["ordinary_iso"] = not problems
        result["iso_violations"] = problems[:20]
        if problems:
            status = "violation"
    return status, result


def _task_homology(bundle, seed, budget):
    _payload(bundle, {"kind": str, "maxdeg": int},
             {"xmod": (str, dict), "group": (str, dict), "trunc": int})
    kind = bundle["kind"]
    maxdeg = expect_int(bundle["maxdeg"], "/maxdeg", 0)
    trunc = expect_int(bundle.get("trunc", maxdeg + 1), "/trunc",
                       maxdeg + 1)
    bud = _budget(bundle, budget, 10_000_000)

    def build(which):
        if which == "ordinary":
            if "group" not in bundle:
                raise BundleError("/group", "ordinary nerve needs a group")
            return ordinary_nerve(group_from_spec(bundle["group"], "/group"),
                                  trunc, budget=bud)
        if "xmod" not in bundle:
            raise BundleError("/xmod", f"{which} nerve needs a crossed "
                                       "module")
        x = xmod_from_spec(bundle["xmod"], "/xmod")
        maker = duskin_nerve if which == "duskin" else monoidal_diag_nerve
        return maker(x, trunc, budget=bud)

    if kind in ("duskin", "ordinary", "diag"):
        h = homology(build(kind), maxdeg)
        return "ok", {"kind": kind, "groups": homology_to_json(h)}
    if kind == "both":
        hd = homology(build("duskin"), maxdeg)
        hm = homology(build("diag"), maxdeg)
        agree = hd.factors[:maxdeg + 1] == hm.factors[:maxdeg + 1]
        result = {"kind": kind, "duskin": homology_to_json(hd),
                  "diag": homology_to_json(hm), "agree": agree}
        return ("ok" if agree else "violation"), result
    raise BundleError("/kind", "expected duskin, diag, ordinary or both")


def _task_appendix_check(bundle, seed, budget):
    _payload(bundle, {"xmod": (str, dict), "n": int, "m": int},
             {"sample": int})
    x = xmod_from_spec(bundle["xmod"], "/xmod")
    rep = verify_appendix_retraction(
        x, expect_int(bundle["n"], "/n", 1), expect_int(bundle["m"], "/m", 1),
        sample=expect_int(bundle.get("sample", 200), "/sample", 1),
        seed=_seed(bundle, seed),
        budget=_budget(bundle, budget, 10_000_000))
    result = {"passed": rep.passed, "objects": rep.objects,
              "morphisms_per_object": rep.morphisms_per_object,
              "chains_total": rep.chains_total,
              "heads_checked": rep.heads_checked,
              "sampled_chains": rep.sampled_chains,
              "failures": list(rep.failures[:20])}
    return ("ok" if rep.passed else "violation"), result


def _clock_shift_mats(group, m: int):
    omega = np.exp(2j * np.pi / m)
    q = np.diag(omega ** np.arange(m))
    p = np.roll(np.eye(m, dtype=complex), 1, axis=0)
    mats = []
    for idx in range(group.order):
        a, b = divmod(idx, m)
        mats.append(np.linalg.matrix_power(q, a)
                    @ np.linalg.matrix_power(p, b))
    return mats


def _task_kernel_ob(bundle, seed, budget):
    _payload(bundle, {"group": (str, dict), "mats": (str, list)},
             {"tol": float, "snap_denominator": int, "perturbations": int})
    group = group_from_spec(bundle["group"], "/group")
    mats_spec = bundle["mats"]
    if isinstance(mats_spec, str):
        if mats_spec.startswith("clock-shift-") and \
                mats_spec[len("clock-shift-"):].isdigit():
            m = int(mats_spec[len("clock-shift-"):])
            if group.order != m * m:
                raise BundleError("/group", f"clock-shift-{m} needs a group "
                                            f"of order {m * m}")
            mats = _clock_shift_mats(group, m)
        else:
            raise BundleError("/mats", f"unknown matrix family "
                                       f"{mats_spec!r}")
    else:
        if len(mats_spec) != group.order:
            raise BundleError("/mats", f"expected {group.order} matrices")
        mats = [matrix_from_json(mj, f"/mats/{i}")
                for i, mj in enumerate(mats_spec)]
    tol = float(bundle.get("tol", 1e-8))
    snap = bundle.get("snap_denominator")
    rep = matrix_kernel_obstruction(group, mats, tol=tol,
                                    snap_denominator=snap)
    witness = rep.witness
    result = {
        "dimension": rep.dimension,
        "denominator": rep.denominator,
        "invariant_factors": list(rep.invariant_factors),
        "coordinates": list(rep.coordinates),
        "is_zero": rep.is_zero,
        "witness_found": witness is not None,
        "max_scalar_residual": rep.max_scalar_residual,
        "max_snap_residual": rep.max_snap_residual,
    }
    trials = expect_int(bundle.get("perturbations", 0), "/perturbations", 0)
    if trials:
        rng = np.random.default_rng(_seed(bundle, seed))
        invariant = True
        worst = 0.0
        for _ in range(trials):
            phases = np.exp(2j * np.pi * rng.random(group.order))
            pert = [mats[g] * phases[g] for g in range(group.order)]
            prep = matrix_kernel_obstruction(group, pert, tol=tol,
                                             snap_denominator=snap)
            worst = max(worst, prep.max_scalar_residual,
                        prep.max_snap_residual)
            if (prep.invariant_factors != rep.invariant_factors or
                    prep.coordinates != rep.coordinates):
                invariant = False
        result["perturbations"] = {"count": trials, "invariant": invariant,
                                   "max_residual": worst}
        if not invariant:
            return "violation", result
    return "ok", result


def _task_unitary_check(bundle, seed, budget):
    _payload(bundle, {},
             {"max_dim": int, "ineq_trials": int, "pair_trials": int,
              "member_trials": int, "sandwich_trials": int,
              "conj_trials": int})
    max_dim = expect_int(bundle.get("max_dim", 6), "/max_dim", 1)
    rng = np.random.default_rng(_seed(bundle, seed))
    violations = []

    ineq = check_exp_inequalities(
        max_dim, expect_int(bundle.get("ineq_trials", 10_000),
                            "/ineq_trials", 1),
        seed=_seed(bundle, seed), threshold=1e-9)
    if not ineq.passed:
        violations.append(f"exponential inequalities: "
                          f"{ineq.violations} slack failures")

    pair_trials = expect_int(bundle.get("pair_trials", 1000),
                             "/pair_trials", 1)
    worst_hom = 0.0
    for _ in range(pair_trials):
        n = int(rng.integers(1, max_dim + 1))
        u, v = random_unitary(n, rng), random_unitary(n, rng)
        gap = dlhs_delta(u @ v).distance_to(
            dlhs_delta(u).value + dlhs_delta(v).value)
        worst_hom = max(worst_hom, gap)
    if worst_hom > 1e-8:
        violations.append(f"winding additivity gap {worst_hom:.3e}")

    member_trials = expect_int(bundle.get("member_trials", 1000),
                               "/member_trials", 1)
    member_agree = 0
    for k in range(member_trials):
        n = int(rng.integers(1, max_dim + 1))
        u = random_unitary(n, rng)
        if k % 2 == 0:
            u = u * (np.linalg.det(u) ** (-1.0 / n))
        member = su_tau_member(u, tol=1e-8).member
        zero = dlhs_delta(u).is_zero(1e-8)
        member_agree += int(member == zero)
    if member_agree != member_trials:
        violations.append(f"membership/winding disagreement on "
                          f"{member_trials - member_agree} samples")

    sandwich_trials = expect_int(bundle.get("sandwich_trials", 1000),
                                 "/sandwich_trials", 1)
    eps = 0.9
    worst_sandwich = 0.0
    for _ in range(sandwich_trials):
        n = int(rng.integers(1, max_dim + 1))
        u, v = ball_element(n, eps, rng), ball_element(n, eps, rng)
        logs = operator_norm(principal_log(u) - principal_log(v))
        diff = operator_norm(u - v)
        dist = d_tau(u, v).value
        slacks = (diff - (1 - eps) * logs, dist - diff,
                  np.pi / 2 * diff - dist,
                  np.pi / 2 * logs - np.pi / 2 * diff)
        worst_sandwich = max(worst_sandwich, -min(slacks))
    if worst_sandwich > 1e-9:
        violations.append(f"metric sandwich slack -{worst_sandwich:.3e}")

    conj_trials = expect_int(bundle.get("conj_trials", 200),
                             "/conj_trials", 1)
    worst_conj = 0.0
    for _ in range(conj_trials):
        n = int(rng.integers(1, max_dim + 1))
        u, w = random_unitary(n, rng), random_unitary(n, rng)
        u = u * complex(np.linalg.det(u)) ** (-1.0 / n)
        worst_conj = max(worst_conj, abs(
            el_tau(w @ u @ w.conj().T).value - el_tau(u).value))
    if worst_conj > 1e-9:
        violations.append(f"length conjugation drift {worst_conj:.3e}")

    result = {
        "max_dim": max_dim,
        "inequalities": {"trials": ineq.trials,
                         "min_upper_slack": ineq.min_upper_slack,
                         "min_lower_slack": ineq.min_lower_slack,
                         "violations": ineq.violations},
        "winding_additivity": {"trials": pair_trials,
                               "worst_gap": worst_hom},
        "membership": {"trials": member_trials, "agreements": member_agree},
        "metric_sandwich": {"trials": sandwich_trials, "ball_radius": eps,
                            "worst_slack_deficit": worst_sandwich},
        "conjugation_invariance": {"trials": conj_trials,
                                   "worst_drift": worst_conj},
        "violations": violations,
    }
    return ("ok" if not violations else "violation"), result


def _task_decompose(bundle, seed, budget):
    _payload(bundle, {},
             {"path": dict, "random": dict, "refine_factor": int,
              "tol": float, "emit_g": bool})
    tol = float(bundle.get("tol", 1e-9))
    factor = expect_int(bundle.get("refine_factor", 3), "/refine_factor", 2)
    if ("path" in bundle) == ("random" in bundle):
        raise BundleError("", "provide exactly one of path or random")
    if "path" in bundle:
        path = path_from_json(bundle["path"], "/path")
        dec = decompose_path(path, tol=tol)
        refined = decompose_path(refine_path(path, factor), tol=tol)
        stability = max(abs(refined.h[k * factor] - dec.h[k])
                        for k in range(len(dec.h)))
        result = {"ts": list(dec.ts), "h": list(dec.h),
                  "max_reconstruction_error": dec.max_reconstruction_error,
                  "max_det_error": dec.max_det_error,
                  "refinement_stability": stability}
        if bundle.get("emit_g", False):
            result["g"] = [matrix_to_json(g) for g in dec.g]
        status = "ok" if stability <= 1e-8 else "violation"
        return status, result
    spec = expect_object(bundle["random"], "/random",
                         {"paths": int},
                         {"max_dim": int, "min_segments": int,
                          "max_segments": int})
    paths = expect_int(spec["paths"], "/random/paths", 1)
    max_dim = expect_int(spec.get("max_dim", 4), "/random/max_dim", 1)
    lo = expect_int(spec.get("min_segments", 3), "/random/min_segments", 1)
    hi = expect_int(spec.get("max_segments", 8), "/random/max_segments", lo)
    rng = np.random.default_rng(_seed(bundle, seed))
    worst_recon = worst_det = worst_stab = 0.0
    for _ in range(paths):
        n = int(rng.integers(1, max_dim + 1))
        path = random_based_path(n, int(rng.integers(lo, hi + 1)), rng)
        dec = decompose_path(path, tol=tol)
        refined = decompose_path(refine_path(path, factor), tol=tol)
        worst_recon = max(worst_recon, dec.max_reconstruction_error)
        worst_det = max(worst_det, dec.max_det_error)
        worst_stab = max(worst_stab, max(
            abs(refined.h[k * factor] - dec.h[k])
            for k in range(len(dec.h))))
    result = {"paths": paths, "max_dim": max_dim,
              "worst_reconstruction_error": worst_recon,
              "worst_det_error": worst_det,
              "worst_refinement_stability": worst_stab}
    ok = worst_recon <= tol and worst_det <= tol and worst_stab <= 1e-8
    return ("ok" if ok else "violation"), result


TASKS = {
    "validate": _task_validate,
    "h-n": _task_h_n,
    "h1": lambda b, s, u: _task_h1(b, s, u, free_faithful=False),
    "h1-ff": lambda b, s, u: _task_h1(b, s, u, free_faithful=True),
    "theta": _task_theta,
    "exact-check": _task_exact_check,
    "nerve": _task_nerve,
    "homology": _task_homology,
    "appendix-check": _task_appendix_check,
    "kernel-ob": _task_kernel_ob,
    "unitary-check": _task_unitary_check,
    "decompose": _task_decompose,
}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _error_report(task, pointer: str, message: str, wall_ms: int = 0
                  ) -> dict:
    return {
        "schema": 1,
        "task": task,
        "status": "input-error",
        "result": {"pointer": pointer or "/", "message": message},
        "provenance": {"tool": f"xmodcoh {__version__}", "seed": None,
                       "budget": None, "wall_time_ms": wall_ms},
    }


def run(bundle, seed: int | None = None, budget: int | None = None) -> dict:
    """Execute one bundle and return the report dict (never raises on bad
    input; failures are encoded in the status field)."""
    start = time.monotonic()
    task = bundle.get("task") if isinstance(bundle, dict) else None
    try:
        if not isinstance(bundle, dict):
            raise BundleError("", "bundle must be a JSON object")
        if bundle.get("schema") != 1:
            raise BundleError("/schema", "expected schema 1")
        if not isinstance(task, str) or task not in TASKS:
            known = ", ".join(sorted(TASKS))
            raise BundleError("/task", f"expected one of: {known}")
        status, result = TASKS[task](bundle, seed, budget)
    except BundleError as exc:
        status = "input-error"
        result = {"pointer": exc.pointer, "message": exc.message}
    except ResourceLimit as exc:
        status = "resource-error"
        result = {"bound": exc.bound, "needed": exc.needed,
                  "allowed": exc.allowed}
    except MemoryError:
        status = "resource-error"
        result = {"bound": "memory", "needed": None, "allowed": None}
    except ValueError as exc:
        status = "input-error"
        result = {"message": str(exc)}
    except RuntimeError as exc:
        status = "violation"
        result = {"message": str(exc)}
    except Exception as exc:
        status = "internal-error"
        result = {"type": type(exc).__name__, "message": str(exc)}
    wall_ms = int(round((time.monotonic() - start) * 1000))
    effective_seed = seed if seed is not None else (
        bundle.get("seed") if isinstance(bundle, dict) and
        isinstance(bundle.get("seed"), int) else None)
    effective_budget = budget if budget is not None else (
        bundle.get("budget") if isinstance(bundle, dict) and
        isinstance(bundle.get("budget"), int) else None)
    return {
        "schema": 1,
        "task": task if isinstance(task, str) else None,
        "status": status,
        "result": result,
        "provenance": {"tool": f"xmodcoh {__version__}",
                       "seed": effective_seed,
                       "budget": effective_budget,
                       "wall_time_ms": wall_ms},
    }


def serialize_report(report: dict) -> str:
    return json.dumps(to_jsonable(report), indent=2, sort_keys=True) + "\n"


def _masked(report: dict) -> str:
    clone = json.loads(serialize_report(report))
    clone["provenance"]["wall_time_ms"] = 0
    return json.dumps(clone, indent=2, sort_keys=True) + "\n"


def golden_verify(directory, write: bool = False) -> dict:
    """Re-run every ``<name>.bundle.json`` under ``directory`` and
    byte-compare the regenerated report (wall time masked) against
    ``<name>.expected.json``.  ``write=True`` regenerates the expected
    files instead of comparing."""
    start = time.monotonic()
    root = Path(directory)
    cases = sorted(root.glob("*.bundle.json"))
    status = "ok"
    result: dict = {"directory": str(root), "cases": len(cases),
                    "matched": 0, "drifted": [], "diffs": {}}
    if not root.is_dir():
        status, result = "input-error", {"pointer": "",
                                         "message": f"{root} is not a "
                                                    "directory"}
        cases = []
    elif not cases:
        status, result = "input-error", {"pointer": "",
                                         "message": f"no *.bundle.json "
                                                    f"under {root}"}
    for case in cases:
        name = case.name[:-len(".bundle.json")]
        expected_path = case.with_name(name + ".expected.json")
        try:
            bundle = json.loads(case.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            actual = _masked(_error_report(None, "",
                                           f"malformed bundle: {exc}"))
        else:
            actual = _masked(run(bundle))
        if write:
            expected_path.write_text(actual)
            result["matched"] += 1
            continue
        if not expected_path.exists():
            status = "input-error"
            result["drifted"].append(name)
            result["diffs"][name] = f"missing {expected_path.name}"
            continue
        expected = expected_path.read_text()
        if expected == actual:
            result["matched"] += 1
        else:
            if status == "ok":
                status = "violation"
            diff = "".join(difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=expected_path.name, tofile="regenerated"))
            result["drifted"].append(name)
            result["diffs"][name] = diff
    wall_ms = int(round((time.monotonic() - start) * 1000))
    return {"schema": 1, "task": "golden-verify", "status": status,
            "result": result,
            "provenance": {"tool": f"xmodcoh {__version__}", "seed": None,
                           "budget": None, "wall_time_ms": wall_ms}}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(STATUS_EXIT["input-error"])


def main(argv=None) -> int:
    parser = _Parser(
        prog="xmodcoh",
        description="Run JSON problem bundles for crossed-module "
                    "cohomology, classifying-space nerves and unitary "
                    "winding checks.")
    parser.add_argument("--bundle", metavar="FILE",
                        help="problem bundle to execute")
    parser.add_argument("--out", metavar="FILE",
                        help="write the JSON report here instead of stdout")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="override the bundle seed")
    parser.add_argument("--budget", type=int, metavar="INT",
                        help="override the bundle enumeration budget")
    parser.add_argument("--golden", metavar="DIR",
                        help="verify a directory of bundle/expected pairs")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable summary line")
    args = parser.parse_args(argv)

    if args.golden is not None and args.bundle is not None:
        report = _error_report(None, "", "--bundle and --golden are "
                                         "mutually exclusive")
    elif args.golden is not None:
        report = golden_verify(args.golden)
    elif args.bundle is not None:
        try:
            bundle = json.loads(Path(args.bundle).read_text())
        except OSError as exc:
            report = _error_report(None, "", str(exc))
        except json.JSONDecodeError as exc:
            report = _error_report(None, "", f"malformed JSON: {exc}")
        else:
            report = run(bundle, seed=args.seed, budget=args.budget)
    else:
        parser.error("one of --bundle or --golden is required")
        raise AssertionError("unreachable")

    text = serialize_report(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if not args.quiet:
        wall = report["provenance"]["wall_time_ms"]
        print(f"[xmodcoh] task={report['task']} status={report['status']} "
              f"wall_ms={wall}", file=sys.stderr)
    return STATUS_EXIT[report["status"]]


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
