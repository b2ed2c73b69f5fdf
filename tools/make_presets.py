"""Regenerate the presets/ directory: writes every bundle JSON and then
refreshes the matching .expected.json reports through the golden writer.

Run from the repository root:  python3 tools/make_presets.py
"""

import json
import sys
from pathlib import Path

import numpy as np

from xmodcoh.cli import golden_verify

ROOT = Path(__file__).resolve().parent.parent / "presets"


def _scalar_path(winding: float, samples: int):
    ts = [k / (samples - 1) for k in range(samples)]
    mats = []
    for t in ts:
        z = np.exp(2j * np.pi * winding * t)
        mats.append([[[float(z.real), float(z.imag)]]])
    return {"ts": ts, "mats": mats}


BUNDLES = {
    # degree-n cohomology anchors
    "h2-c2-z2": {"task": "h-n", "group": "C2", "module": "Z2-trivial",
                 "n": 2},
    "h3-c2-qz": {"task": "h-n", "group": "C2", "module": "QZ-trivial",
                 "n": 3},
    "h3-c3-qz": {"task": "h-n", "group": "C3", "module": "QZ-trivial",
                 "n": 3},
    "h3-c4-qz": {"task": "h-n", "group": "C4", "module": "QZ-trivial",
                 "n": 3},
    # nonabelian H^1 and the free-and-faithful variant
    "h1-shift-c2": {"task": "h1", "group": "C2", "xmod": "C2->1"},
    "h1ff-shift-c2": {"task": "h1-ff", "group": "C2", "xmod": "C2->1"},
    # crossed-module validation (one pass, one Peiffer failure)
    "validate-conj-s3": {"task": "validate", "xmod": "S3->id"},
    "validate-peiffer-fail": {"task": "validate", "xmod": "S3->1"},
    # lifting obstruction: lift independence and exactness
    "theta-sweep-c2": {"task": "theta", "extension": "C2-C4-C2",
                       "gamma": "C2", "sweep": True},
    "bockstein-c2": {"task": "exact-check", "extension": "C2-C4-C2",
                     "gamma": "C2"},
    "bockstein-c4": {"task": "exact-check", "extension": "C2-C4-C2",
                     "gamma": "C4"},
    "bockstein-c2c2": {"task": "exact-check", "extension": "C2-C4-C2",
                       "gamma": "C2xC2"},
    "bockstein-inv-c2": {"task": "exact-check", "extension": "C2-C4-C2-inv",
                         "gamma": "C2"},
    # nerves: group-case isomorphism, table export, budget guard
    "duskin-iso-c2": {"task": "nerve", "kind": "duskin", "xmod": "1->C2",
                      "trunc": 4, "check_ordinary_iso": True},
    "duskin-iso-s3": {"task": "nerve", "kind": "duskin", "xmod": "1->S3",
                      "trunc": 4, "check_ordinary_iso": True},
    "nerve-tables-c2id": {"task": "nerve", "kind": "diag", "xmod": "C2->id",
                          "trunc": 2, "emit_tables": True},
    "budget-trip": {"task": "nerve", "kind": "duskin", "xmod": "1->S3",
                    "trunc": 4, "budget": 100},
    # homology: Eilenberg-MacLane anchors and nerve-model agreement
    "duskin-k-z2-2": {"task": "homology", "kind": "duskin", "xmod": "C2->1",
                      "maxdeg": 2, "trunc": 3},
    "duskin-k-z3-2": {"task": "homology", "kind": "duskin", "xmod": "C3->1",
                      "maxdeg": 2, "trunc": 3},
    "hom-both-z2-mod": {"task": "homology", "kind": "both", "xmod": "C2->1",
                        "maxdeg": 2, "trunc": 3},
    "hom-both-z3-mod": {"task": "homology", "kind": "both", "xmod": "C3->1",
                        "maxdeg": 2, "trunc": 3},
    "hom-both-inc-z2": {"task": "homology", "kind": "both", "xmod": "1->C2",
                        "maxdeg": 2, "trunc": 3},
    "hom-both-conj-z2": {"task": "homology", "kind": "both",
                         "xmod": "C2->id", "maxdeg": 2, "trunc": 3},
    # strictification retraction
    "appendix-z2-mod": {"task": "appendix-check", "xmod": "C2->1", "n": 2,
                        "m": 2, "sample": 50, "seed": 0},
    "appendix-z2-conj": {"task": "appendix-check", "xmod": "C2->id", "n": 2,
                         "m": 2, "sample": 50, "seed": 0},
    # unitary layer
    "clock-shift-3": {"task": "kernel-ob", "group": "C3xC3",
                      "mats": "clock-shift-3", "perturbations": 5,
                      "seed": 7},
    "unitary-battery": {"task": "unitary-check", "max_dim": 4,
                        "ineq_trials": 500, "pair_trials": 100,
                        "member_trials": 100, "sandwich_trials": 100,
                        "conj_trials": 50, "seed": 3},
    "decompose-random": {"task": "decompose",
                         "random": {"paths": 10, "max_dim": 3}, "seed": 5},
    "decompose-scalar": {"task": "decompose",
                         "path": _scalar_path(0.3, 5), "emit_g": True},
    # schema rejection
    "unknown-field": {"task": "h-n", "group": "C2", "module": "Z2-trivial",
                      "n": 2, "bogus": True},
}


def bundle_text(payload: dict) -> str:
    """The JSON text of one preset bundle, as written under presets/."""
    bundle = {"schema": 1}
    bundle.update(payload)
    return json.dumps(bundle, indent=2, sort_keys=True) + "\n"


def main() -> int:
    ROOT.mkdir(exist_ok=True)
    for name, payload in sorted(BUNDLES.items()):
        (ROOT / f"{name}.bundle.json").write_text(bundle_text(payload))
    report = golden_verify(ROOT, write=True)
    print(f"wrote {report['result']['matched']} expected reports "
          f"under {ROOT}")
    check = golden_verify(ROOT)
    print(f"verify after write: {check['status']}")
    return 0 if check["status"] == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
