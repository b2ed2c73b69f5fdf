"""The benchmark's workloads: which bundles each one runs and how each
answer is checked.

Every case is a bundle plus an oracle.  The oracle returns None for a
correct report and a message for a wrong one.  Three kinds of oracle:

* presets are run unchanged and compared byte for byte against their
  shipped ``expected.json`` with the wall time masked, as the golden test
  does;
* ladder cases are compared against closed forms from group cohomology
  (see ``h_cyclic_mod``, ``dim_h_elementary_mod_p`` and
  ``h_integral_elementary_2``);
* seeded cases carry the benchmark seed and must come back ``ok`` with no
  violation, plus whatever closed form their report exposes.

Why each workload and case is here is written down in ``NOTES.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb, gcd
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Case:
    """One bundle and its oracle.

    ``cap_s`` is the wall cap of one case process, charged as its run time
    when the case fails.  The caps sit at two to four times a case's seed
    time, and are small enough that a run ends within 180 s even if every
    case hits its cap."""

    name: str
    bundle: dict
    check: Callable[[dict, str], str | None]   # (report, report text)
    cap_s: float


def h_cyclic_mod(m: int, k: int) -> list[int]:
    """Invariant factors of H^n(C_m; Z/k) for n >= 1: Z/gcd(m, k)."""
    d = gcd(m, k)
    return [d] if d > 1 else []


def dim_h_elementary_mod_p(n: int, r: int) -> int:
    """dim H^n((C_p)^r; F_p) = C(n + r - 1, r - 1), the Poincare series
    1/(1 - t)^r of the cohomology ring."""
    return comb(n + r - 1, r - 1)


def h_integral_elementary_2(n: int, r: int) -> list[int]:
    """Invariant factors of H^n((C_2)^r; Z) for n >= 1.

    In positive degrees these groups are killed by 2, so universal
    coefficients give dim H^n(F_2) = h_n + h_{n+1} with h_1 = 0; the ranks
    follow by recursion from the mod-2 dimensions.
    """
    h = 0
    for k in range(1, n):
        h = dim_h_elementary_mod_p(k, r) - h
    return [2] * h


def h_integral_cyclic(m: int, n: int) -> list[int]:
    """Invariant factors of H^n(C_m; Z) for n >= 1: Z/m in even degrees,
    0 in odd ones."""
    return [m] if n % 2 == 0 and m > 1 else []


def _status_ok(report: dict) -> str | None:
    if report.get("status") != "ok":
        return f"status {report.get('status')!r}, expected 'ok'"
    return None


def _expect(label: str, got, want) -> str | None:
    return None if got == want else f"{label} is {got!r}, expected {want!r}"


def _first(*messages) -> str | None:
    return next((m for m in messages if m), None)


def masked(text: str) -> str:
    """The report text with ``provenance.wall_time_ms`` zeroed, formatted
    like the shipped ``expected.json`` files."""
    clone = json.loads(text)
    clone["provenance"]["wall_time_ms"] = 0
    return json.dumps(clone, indent=2, sort_keys=True) + "\n"


def preset(root: Path, name: str, cap_s: float) -> Case:
    folder = root / "presets"
    bundle = json.loads((folder / f"{name}.bundle.json").read_text())
    expected = (folder / f"{name}.expected.json").read_text()

    def check(report, text):
        if masked(text) != expected:
            return f"report differs from presets/{name}.expected.json"
        return None
    return Case(name, bundle, check, cap_s)


def h_n(group: str, module: str, n: int, factors: list[int], seed: int,
        cap_s: float) -> Case:
    def check(report, text):
        return _first(_status_ok(report),
                      _expect("invariant_factors",
                              report["result"].get("invariant_factors"),
                              factors))
    name = f"h{n}-{group.lower()}-{module.split('-')[0].lower()}"
    bundle = {"schema": 1, "task": "h-n", "group": group, "module": module,
              "n": n, "seed": seed}
    return Case(name, bundle, check, cap_s)


def _homology_factors(report: dict, key: str) -> list[list[int]]:
    return [g["factors"] for g in report["result"].get(key, [])]


# H_*(BS_3; Z) = Z, Z/2, 0, Z/6 through degree 3.
BS3_HOMOLOGY = [[0], [2], [], [6]]


def cohomology_cases(root: Path, seed: int) -> list[Case]:
    return [
        # Finite coefficients, 3^5 = 243 positions (lattice engine).
        h_n("C4", "Z2-trivial", 4, h_cyclic_mod(4, 2), seed, 8),
        # Finite coefficients past the engine size cutoff: 8^3 = 512.
        h_n("C3xC3", "Z3-trivial", 2,
            [3] * dim_h_elementary_mod_p(2, 2), seed, 25),
        # Q/Z below the cutoff (3^4 = 81): H^3(G; Q/Z) = H^4(G; Z).
        h_n("C2xC2", "QZ-trivial", 3, h_integral_elementary_2(4, 2), seed,
            8),
        # Q/Z above the cutoff (6^4 = 1296, the modular engine):
        # H^3(C7; Q/Z) = H^4(C7; Z) = Z/7.
        h_n("C7", "QZ-trivial", 3, h_integral_cyclic(7, 4), seed, 8),
    ]


def nerve_cases(root: Path, seed: int) -> list[Case]:
    def nerve_s4(report, text):
        res = report["result"]
        return _first(_status_ok(report),
                      _expect("counts", res.get("counts"),
                              [24 ** k for k in range(4)]),
                      _expect("ordinary_iso", res.get("ordinary_iso"), True))

    def bs3(report, text):
        return _first(_status_ok(report),
                      _expect("homology", _homology_factors(report, "groups"),
                              BS3_HOMOLOGY))

    def appendix(report, text):
        res = report["result"]
        # C3->id over [2]: 3^2 * 3^C(3,3) objects, 3^3 morphisms each.
        return _first(_status_ok(report),
                      _expect("passed", res.get("passed"), True),
                      _expect("objects", res.get("objects"), 27),
                      _expect("heads_checked", res.get("heads_checked"),
                              27 * 27),
                      _expect("sampled_chains", res.get("sampled_chains"),
                              1500))

    return [
        preset(root, "hom-both-z3-mod", 15),
        Case("nerve-duskin-s4-iso",
             {"schema": 1, "task": "nerve", "kind": "duskin",
              "xmod": "1->S4", "trunc": 3, "check_ordinary_iso": True,
              "seed": seed}, nerve_s4, 8),
        Case("homology-duskin-s3",
             {"schema": 1, "task": "homology", "kind": "duskin",
              "xmod": "1->S3", "maxdeg": 3, "seed": seed}, bs3, 8),
        preset(root, "hom-both-conj-z2", 8),
        Case("appendix-c3-id",
             {"schema": 1, "task": "appendix-check", "xmod": "C3->id",
              "n": 2, "m": 2, "sample": 1500, "seed": seed}, appendix, 15),
    ]


def obstruction_cases(root: Path, seed: int) -> list[Case]:
    def theta_sweep(gamma_h3_mod2, gamma_h2_mod2):
        # theta lands in H^3(gamma; Z/2); H^1(gamma; C2->1) = H^2(gamma; Z/2)
        def check(report, text):
            res = report["result"]
            return _first(
                _status_ok(report),
                _expect("target_invariant_factors",
                        res.get("target_invariant_factors"),
                        [2] * gamma_h3_mod2),
                _expect("h1_classes", res.get("h1_classes"),
                        2 ** gamma_h2_mod2),
                _expect("lift_independent",
                        all(e["lift_independent"] for e in res["theta"]),
                        True))
        return check

    def exact(report, text):
        res = report["result"]
        return _first(_status_ok(report),
                      _expect("exact", res.get("exact"), True))

    def kernel_ob(report, text):
        res = report["result"]
        return _first(
            _status_ok(report),
            _expect("invariant_factors", res.get("invariant_factors"),
                    h_integral_elementary_2(4, 2)),
            _expect("perturbations invariant",
                    res.get("perturbations", {}).get("invariant"), True))

    unitary = {"max_dim": 6, "ineq_trials": 2000, "pair_trials": 150,
               "member_trials": 150, "sandwich_trials": 150,
               "conj_trials": 50}

    def unitary_check(report, text):
        res = report["result"]
        return _first(
            _status_ok(report),
            _expect("violations", res["violations"], []),
            _expect("trials",
                    [res["inequalities"]["trials"],
                     res["winding_additivity"]["trials"],
                     res["membership"]["trials"],
                     res["membership"]["agreements"],
                     res["metric_sandwich"]["trials"],
                     res["conjugation_invariance"]["trials"]],
                    [unitary["ineq_trials"], unitary["pair_trials"],
                     unitary["member_trials"], unitary["member_trials"],
                     unitary["sandwich_trials"], unitary["conj_trials"]]))

    def decompose(report, text):
        # The tolerances decompose applies by default (tol 1e-9).
        res = report["result"]
        return _first(
            _status_ok(report),
            _expect("paths", res["paths"], 100),
            _expect("within tolerance",
                    res["worst_reconstruction_error"] <= 1e-9
                    and res["worst_det_error"] <= 1e-9
                    and res["worst_refinement_stability"] <= 1e-8, True))

    theta = {"schema": 1, "task": "theta", "extension": "C2-C4-C2",
             "sweep": True, "seed": seed}
    return [
        Case("theta-sweep-c2xc2", dict(theta, gamma="C2xC2"),
             theta_sweep(dim_h_elementary_mod_p(3, 2),
                         dim_h_elementary_mod_p(2, 2)), 15),
        Case("theta-sweep-c4", dict(theta, gamma="C4"),
             theta_sweep(len(h_cyclic_mod(4, 2)), len(h_cyclic_mod(4, 2))),
             8),
        preset(root, "bockstein-c2c2", 8),
        Case("exact-check-inv-c4",
             {"schema": 1, "task": "exact-check",
              "extension": "C2-C4-C2-inv", "gamma": "C4", "seed": seed},
             exact, 8),
        Case("kernel-ob-clock-shift-2",
             {"schema": 1, "task": "kernel-ob", "group": "C2xC2",
              "mats": "clock-shift-2", "perturbations": 20, "seed": seed},
             kernel_ob, 8),
        Case("unitary-check-dim6",
             dict(unitary, schema=1, task="unitary-check", seed=seed),
             unitary_check, 10),
        Case("decompose-random-dim4",
             {"schema": 1, "task": "decompose",
              "random": {"paths": 100, "max_dim": 4}, "seed": seed},
             decompose, 8),
    ]


def _metrics(layer: str, *quantities: str) -> list[str]:
    return [f"{layer}.{q}" for q in quantities]


# The per-layer metrics each workload exists to exercise; each must be
# non-zero on its workload.  NOTES.md says which end-to-end metric each
# should move.
TARGETS = {
    "cohomology": [
        *_metrics("modsnf", "smith_s", "smith_calls", "smith_cells",
                  "smith_nnz", "kernel_s", "solve_s", "solve_calls"),
        *_metrics("intlinalg", "smith_s", "smith_calls", "smith_cells",
                  "smith_nnz"),
        *_metrics("cohomology", "build_s", "build_calls", "positions"),
        "bundles.parse_s", "cli.serialize_s", "cli.import_s",
    ],
    "nerves": [
        *_metrics("intlinalg", "smith_s", "smith_calls", "smith_cells",
                  "smith_nnz"),
        *_metrics("nerves", "build_s", "build_calls", "simplices", "iso_s"),
        *_metrics("simplicial", "homology_s", "boundary_s",
                  "boundary_cells"),
        *_metrics("retraction", "verify_s", "heads", "chains"),
        "bundles.parse_s", "cli.serialize_s", "cli.import_s",
    ],
    "obstruction": [
        *_metrics("intlinalg", "matvec_s", "matvec_calls", "solve_s",
                  "solve_calls"),
        *_metrics("cohomology", "classify_s", "classify_calls",
                  "cochain_s", "cochain_calls"),
        *_metrics("crossed", "z1_s", "z1_calls", "z1_cocycles", "h1_s",
                  "h1_classes"),
        *_metrics("obstruction", "theta_s", "sweep_s", "exactness_s",
                  "kernel_ob_s", "h_cache_hits", "h_cache_misses"),
        *_metrics("unitary", "invariants_s", "invariants_calls",
                  "inequalities_s", "decompose_s", "decompose_calls"),
        "bundles.parse_s", "cli.serialize_s", "cli.import_s",
    ],
}

WORKLOADS = {
    "cohomology": cohomology_cases,
    "nerves": nerve_cases,
    "obstruction": obstruction_cases,
}
