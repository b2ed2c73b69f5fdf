"""Command-line front end: strict bundle schemas with JSON-pointer errors,
status/exit-code mapping, deterministic reports, seed/budget overrides, and
the golden preset workflow (regeneration, drift detection, diffs)."""

import ast
import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodcoh import (bundles, cli, cohomology, crossed, intlinalg, modsnf,
                     obstruction)

PRESETS = Path(__file__).resolve().parents[1] / "presets"
SRC = Path(__file__).resolve().parents[1] / "src"


def masked(report: dict) -> str:
    text = cli.serialize_report(report)
    clone = json.loads(text)
    clone["provenance"]["wall_time_ms"] = 0
    return json.dumps(clone, indent=2, sort_keys=True)


def h2_bundle() -> dict:
    return {"schema": 1, "task": "h-n", "group": "C2",
            "module": "Z2-trivial", "n": 2}


# ---------------------------------------------------------------------------
# schema rejection with JSON pointers
# ---------------------------------------------------------------------------

def test_malformed_bundles_are_located_by_pointer():
    cases = [
        ([], "/", "must be a JSON object"),
        ({"schema": 2, "task": "h-n"}, "/schema", "expected schema 1"),
        ({"schema": 1, "task": "frob"}, "/task", "expected one of:"),
        ({**h2_bundle(), "bogus": 1}, "/bogus", "unknown field"),
        ({"schema": 1, "task": "h-n", "group": "C2",
          "module": "Z2-trivial"}, "/n", "missing required field"),
        ({**h2_bundle(), "n": "two"}, "/n", "expected int"),
        ({**h2_bundle(), "n": True}, "/n", "expected int"),
        ({**h2_bundle(), "n": 5}, "/n", "must be <= 4"),
        ({**h2_bundle(), "group": "C0"}, "/group", "unknown group shorthand"),
        ({**h2_bundle(), "module": "Z1-trivial"}, "/module",
         "unknown module shorthand"),
        ({"schema": 1, "task": "theta", "extension": "C3-C9-C3",
          "gamma": "C2"}, "/extension", "unknown extension shorthand"),
        ({"schema": 1, "task": "validate",
          "xmod": {"h": "C2", "g": "C2", "boundary": [0, 7],
                   "action": [[0, 1], [0, 1]]}},
         "/xmod/boundary/1", "must be <= 1"),
    ]
    for bundle, pointer, message in cases:
        report = cli.run(bundle)
        assert report["status"] == "input-error", bundle
        assert report["result"]["pointer"] == pointer
        assert message in report["result"]["message"]


def test_task_names_are_enumerated_in_the_error():
    report = cli.run({"schema": 1, "task": "frob"})
    for name in ("validate", "h-n", "h1", "h1-ff", "theta", "exact-check",
                 "nerve", "homology", "appendix-check", "kernel-ob",
                 "unitary-check", "decompose"):
        assert name in report["result"]["message"]


# ---------------------------------------------------------------------------
# status and exit codes through main()
# ---------------------------------------------------------------------------

def write_bundle(tmp_path: Path, name: str, bundle: dict) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(bundle))
    return str(p)


def test_exit_codes_follow_the_status(tmp_path, capsys):
    ok = write_bundle(tmp_path, "ok.json", h2_bundle())
    assert cli.main(["--bundle", ok, "--quiet"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    assert report["result"]["invariant_factors"] == [2]

    bad_xmod = write_bundle(tmp_path, "violation.json", {
        "schema": 1, "task": "validate",
        "xmod": {"h": "S3", "g": "1", "boundary": [0] * 6,
                 "action": [[0, 1, 2, 3, 4, 5]]}})
    assert cli.main(["--bundle", bad_xmod, "--quiet"]) == 1

    too_big = write_bundle(tmp_path, "resource.json", {
        "schema": 1, "task": "nerve", "kind": "duskin", "xmod": "1->S3",
        "trunc": 4, "budget": 100})
    assert cli.main(["--bundle", too_big, "--quiet"]) == 2

    wrong = write_bundle(tmp_path, "schema.json", {"schema": 2, "task": "x"})
    assert cli.main(["--bundle", wrong, "--quiet"]) == 3

    capsys.readouterr()


def test_unreadable_or_malformed_bundle_files(tmp_path, capsys):
    assert cli.main(["--bundle", str(tmp_path / "nope.json"),
                     "--quiet"]) == 3
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert cli.main(["--bundle", str(broken), "--quiet"]) == 3
    out = capsys.readouterr().out
    assert "malformed JSON" in out


def test_usage_errors_exit_with_the_input_error_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        cli.main(["--frobnicate"])
    assert exc.value.code == 3

    both = write_bundle(tmp_path, "b.json", h2_bundle())
    assert cli.main(["--bundle", both, "--golden", str(tmp_path),
                     "--quiet"]) == 3


def test_summary_line_goes_to_stderr(tmp_path, capsys):
    bundle = write_bundle(tmp_path, "b.json", h2_bundle())
    assert cli.main(["--bundle", bundle]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "ok"
    assert "task=h-n status=ok" in captured.err


def test_out_flag_writes_the_report_file(tmp_path, capsys):
    bundle = write_bundle(tmp_path, "b.json", h2_bundle())
    target = tmp_path / "report.json"
    assert cli.main(["--bundle", bundle, "--out", str(target),
                     "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(target.read_text())
    assert report["status"] == "ok"
    assert report["result"]["order"] == 2


# ---------------------------------------------------------------------------
# determinism and overrides
# ---------------------------------------------------------------------------

def test_reports_are_byte_identical_apart_from_wall_time():
    bundle = {"schema": 1, "task": "unitary-check", "max_dim": 3,
              "ineq_trials": 50, "pair_trials": 10, "member_trials": 10,
              "sandwich_trials": 10, "conj_trials": 5, "seed": 42}
    first, second = cli.run(dict(bundle)), cli.run(dict(bundle))
    assert masked(first) == masked(second)
    assert first["status"] == "ok"
    assert first["provenance"]["seed"] == 42


def test_seed_override_is_recorded_and_changes_sampling():
    bundle = {"schema": 1, "task": "decompose",
              "random": {"paths": 2, "max_dim": 2}, "seed": 1}
    default = cli.run(dict(bundle))
    override = cli.run(dict(bundle), seed=2)
    assert default["provenance"]["seed"] == 1
    assert override["provenance"]["seed"] == 2
    assert default["status"] == override["status"] == "ok"
    assert default["result"] != override["result"]


def test_budget_override_trips_the_resource_guard():
    bundle = {"schema": 1, "task": "nerve", "kind": "duskin",
              "xmod": "1->S3", "trunc": 4}
    assert cli.run(dict(bundle))["status"] == "ok"
    report = cli.run(dict(bundle), budget=100)
    assert report["status"] == "resource-error"
    assert report["provenance"]["budget"] == 100
    assert set(report["result"]) == {"bound", "needed", "allowed"}
    assert report["result"]["allowed"] == 100


NUMERIC_FLOODS = [
    ({"schema": 1, "task": "decompose", "random": {"paths": 10 ** 9}},
     "path matrix cells"),
    ({"schema": 1, "task": "kernel-ob", "group": "C2xC2",
      "mats": "clock-shift-2", "perturbations": 10 ** 7},
     "kernel-ob product cells"),
    ({"schema": 1, "task": "unitary-check", "max_dim": 3,
      "pair_trials": 10 ** 9}, "unitary trial matrix cells"),
]


def test_numeric_tasks_are_refused_past_their_budget_before_any_work():
    """Numeric tasks charge the matrix cells they ask for against the
    budget, and are refused at once past it; a path refined a billion
    times is too."""
    path = json.loads((PRESETS / "decompose-scalar.bundle.json")
                      .read_text())["path"]
    floods = NUMERIC_FLOODS + [
        ({"schema": 1, "task": "decompose", "path": path,
          "refine_factor": 10 ** 9}, "path matrix cells")]
    for bundle, bound in floods:
        start = time.perf_counter()
        report = cli.run(bundle)
        assert time.perf_counter() - start < 0.1, bundle
        assert report["status"] == "resource-error", bundle
        assert report["result"]["bound"] == bound
        assert report["result"]["allowed"] == cli.NUMERIC_CELLS
        assert report["result"]["needed"] > cli.NUMERIC_CELLS


def test_numeric_budgets_charge_exactly_the_cells_asked_for():
    """A budget of exactly the charged cells admits the task, one less
    refuses it: (perturbations + 1) |G|^2 dim^2 for kernel-ob, trials
    times max_dim^2 for unitary-check, and paths (max_segments + 1)
    (1 + refine_factor) max_dim^2 for decompose."""
    for bundle, cells in (
            ({"schema": 1, "task": "kernel-ob", "group": "C2xC2",
              "mats": "clock-shift-2", "perturbations": 2}, 3 * 16 * 4),
            ({"schema": 1, "task": "unitary-check", "max_dim": 2,
              "ineq_trials": 3, "pair_trials": 2, "member_trials": 2,
              "sandwich_trials": 2, "conj_trials": 1}, 10 * 4),
            ({"schema": 1, "task": "decompose",
              "random": {"paths": 2, "max_dim": 2, "max_segments": 4},
              "refine_factor": 2}, 2 * 5 * 3 * 4)):
        assert cli.run(bundle, budget=cells)["status"] == "ok", bundle
        report = cli.run(bundle, budget=cells - 1)
        assert report["status"] == "resource-error"
        assert (report["result"]["needed"], report["result"]["allowed"]) \
            == (cells, cells - 1)


def test_the_default_numeric_budget_admits_the_benchmark_cases():
    """The numeric cases of the benchmark's obstruction workload run under
    the default budget; the golden presets are checked elsewhere."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PRESETS.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        cases = workloads.obstruction_cases(PRESETS.parent, 1)
    finally:
        del sys.modules[spec.name]
    numeric = [case.bundle for case in cases if case.bundle["task"] in
               ("kernel-ob", "unitary-check", "decompose")]
    assert len(numeric) == 3
    for bundle in numeric:
        assert cli.run(bundle)["status"] == "ok", bundle


def test_every_nerve_guard_runs_before_any_nerve_is_built(monkeypatch):
    """A bundle that needs two nerves is refused by the second one's guard
    before the first is built; the builders here fail if called."""
    def no_build(*args, **kwargs):
        raise AssertionError("a nerve was built")

    for name in ("duskin_nerve", "monoidal_diag_nerve", "ordinary_nerve"):
        monkeypatch.setattr(cli, name, no_build)
    both = {"schema": 1, "task": "homology", "kind": "both",
            "xmod": "C2->1", "maxdeg": 4, "trunc": 5}
    report = cli.run(both)
    assert report["status"] == "resource-error"
    assert report["result"]["bound"] == "diagonal level 5"
    iso = {"schema": 1, "task": "nerve", "kind": "duskin", "xmod": "1->S3",
           "trunc": 4, "check_ordinary_iso": True}
    report = cli.run(iso, budget=100)
    assert report["status"] == "resource-error"
    assert report["result"]["bound"] == "duskin level 3 enumeration"


def test_elimination_past_the_int64_headroom_is_a_resource_error(
        monkeypatch):
    bundle = json.loads((PRESETS / "hom-both-z3-mod.bundle.json")
                        .read_text())
    monkeypatch.setattr(intlinalg, "HEADROOM", 2)
    report = cli.run(bundle)
    assert report["status"] == "resource-error"
    assert report["result"]["bound"].startswith("int64 elimination ")
    assert report["result"]["allowed"] == 2


def test_memory_exhaustion_is_a_resource_error(monkeypatch, tmp_path):
    def exhausted(bundle, seed, budget):
        raise MemoryError

    monkeypatch.setitem(cli.TASKS, "h-n", exhausted)
    report = cli.run(h2_bundle())
    assert report["status"] == "resource-error"
    assert report["result"] == {"bound": "memory", "needed": None,
                                "allowed": None}
    path = write_bundle(tmp_path, "oom.json", h2_bundle())
    assert cli.main(["--bundle", path, "--quiet"]) == 2


def test_unexpected_exceptions_are_internal_errors(monkeypatch, tmp_path):
    def broken(bundle, seed, budget):
        raise KeyError("missing table")

    monkeypatch.setitem(cli.TASKS, "h-n", broken)
    report = cli.run(h2_bundle())
    assert report["status"] == "internal-error"
    assert report["result"] == {"type": "KeyError",
                                "message": "'missing table'"}
    path = write_bundle(tmp_path, "broken.json", h2_bundle())
    assert cli.main(["--bundle", path, "--quiet"]) == 4


def test_exhausted_recursion_is_an_internal_error(monkeypatch, tmp_path):
    """RecursionError is a RuntimeError, but it is the program's fault,
    not a mathematical violation."""
    def deep(bundle, seed, budget):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(cli.TASKS, "h-n", deep)
    report = cli.run(h2_bundle())
    assert report["status"] == "internal-error"
    assert report["result"] == {
        "type": "RecursionError",
        "message": "maximum recursion depth exceeded"}
    path = write_bundle(tmp_path, "deep.json", h2_bundle())
    assert cli.main(["--bundle", path, "--quiet"]) == 4


def test_h1_with_more_positions_than_the_recursion_limit():
    """Over C40 with trivial coefficients the u table has 39^2 positions,
    each with one candidate value, and H^1 is a single class."""
    for group, xmod in (("C40", "1->1"), ("C35", "C1->1")):
        report = cli.run({"schema": 1, "task": "h1", "group": group,
                          "xmod": xmod})
        assert report["status"] == "ok"
        assert report["result"]["classes"] == 1
    report = cli.run({"schema": 1, "task": "h1-ff", "group": "C40",
                      "xmod": "1->1"})
    assert report["status"] == "ok"
    assert report["result"]["classes"] == 0


def test_h0_with_trivial_circle_coefficients_is_refused_before_any_work(
        monkeypatch):
    """H^0(G; Q/Z) with the trivial action is Q/Z itself, which no finite
    list of invariant factors describes."""
    def no_work(*args):
        raise AssertionError("cohomology work started")

    monkeypatch.setattr(cohomology, "CohomologyGroup", no_work)
    for group in ("C2", "S3"):
        report = cli.run({"schema": 1, "task": "h-n", "group": group,
                          "module": "QZ-trivial", "n": 0})
        assert report["status"] == "input-error"
        assert "infinite" in report["result"]["message"]


def test_failed_internal_checks_are_internal_errors(monkeypatch, tmp_path):
    """A kernel read that returns wrong coefficients trips the cohomology
    quotient's own check; that is the program's fault, not a violation."""
    real = modsnf._LocalKernel.read

    def wrong(self, f):
        return (real(self, f) + 1) % self.q

    monkeypatch.setattr(modsnf._LocalKernel, "read", wrong)
    report = cli.run(h2_bundle())
    assert report["status"] == "internal-error"
    assert report["result"] == {
        "type": "InvariantError",
        "message": "boundary escapes the cocycle kernel"}
    path = write_bundle(tmp_path, "wrong.json", h2_bundle())
    assert cli.main(["--bundle", path, "--quiet"]) == 4


def test_h1_transforms_leaving_the_cocycle_set_are_internal_errors(
        monkeypatch, tmp_path):
    """The transforms of a validated crossed module stay among its
    cocycles; one that leaves them is the program's fault."""
    real = crossed.transform_cocycle

    def escaping(group, x, c, gamma, w):
        out = real(group, x, c, gamma, w)
        return crossed.Cocycle1(out.alpha, out.u + (0,))

    monkeypatch.setattr(crossed, "transform_cocycle", escaping)
    bundle = {"schema": 1, "task": "h1", "group": "C2", "xmod": "C2->1"}
    report = cli.run(bundle)
    assert report["status"] == "internal-error"
    assert report["result"] == {
        "type": "InvariantError",
        "message": "transform escaped the cocycle set"}
    path = write_bundle(tmp_path, "escaping.json", bundle)
    assert cli.main(["--bundle", path, "--quiet"]) == 4


def test_theta_values_escaping_the_kernel_are_internal_errors(
        monkeypatch, tmp_path):
    """A lift that covers the u-table keeps every obstruction value in the
    kernel.  With the coverage check off and one lift entry moved out of
    its fiber, the value escapes, and that is the program's fault."""
    real = obstruction.canonical_lift

    def off_fiber(ext, group, c):
        lift = list(real(ext, group, c))
        lift[group.order + 1] = ext.h0group.mul[lift[group.order + 1]][1]
        return tuple(lift)

    monkeypatch.setattr(obstruction, "canonical_lift", off_fiber)
    monkeypatch.setattr(obstruction, "_check_lift", lambda *args: None)
    bundle = {"schema": 1, "task": "theta", "extension": "C2-C4-C2",
              "gamma": "C4"}
    report = cli.run(bundle)
    assert report["status"] == "internal-error"
    assert report["result"] == {
        "type": "InvariantError",
        "message": "obstruction value escapes the kernel at (1, 1, 2)"}
    path = write_bundle(tmp_path, "off-fiber.json", bundle)
    assert cli.main(["--bundle", path, "--quiet"]) == 4


# phi0 an isomorphism C2 -> C2: the kernel, and every module over it, is 0
ZERO_KERNEL = {"g": "C2", "h0": "C2", "h1": "C2", "phi0": [0, 1],
               "boundary0": [0, 1], "boundary1": [0, 1],
               "action0": [[0, 1], [0, 1]], "action1": [[0, 1], [0, 1]]}


def test_theta_and_exactness_over_the_zero_module():
    """Cocycle tables valued in the zero module have rows of width 0.
    Classifying them reads one class per row, the zero class with no
    coordinates, so both tasks answer."""
    theta_report = cli.run({"schema": 1, "task": "theta",
                            "extension": ZERO_KERNEL, "gamma": "C2",
                            "sweep": True})
    assert theta_report["status"] == "ok", theta_report["result"]
    assert theta_report["result"] == {
        "h1_classes": 1, "target_invariant_factors": [],
        "theta": [{"class": 0, "size": 2, "coordinates": [], "zero": True,
                   "sweep_classes": [[]], "lift_independent": True}]}
    exact = cli.run({"schema": 1, "task": "exact-check",
                     "extension": ZERO_KERNEL, "gamma": "C2"})
    assert exact["status"] == "ok", exact["result"]
    assert exact["result"] == {
        "h1_cover_classes": 1, "h1_quotient_classes": 1, "push_map": [0],
        "theta_zero_classes": [0], "image_classes": [0],
        "exact_at_quotient": True, "middle_counterexamples": 0,
        "h2_order": 1, "h2_image_classes": [0],
        "basepoint_preimage_size": 1, "exact_at_cover": True,
        "cover_counterexamples": 0, "exact": True}


def test_inconsistent_boundary_ranks_are_internal_errors(monkeypatch,
                                                       tmp_path):
    """Boundary ranks that exceed the chain dimensions are the program's
    fault, not a failed claim."""
    real = intlinalg.sparse_rank_torsion

    def inflated(columns):
        rank, torsion = real(columns)
        return rank + 5, torsion

    monkeypatch.setattr(intlinalg, "sparse_rank_torsion", inflated)
    bundle = {"schema": 1, "task": "homology", "kind": "duskin",
              "xmod": "C2->1", "maxdeg": 1}
    report = cli.run(bundle)
    assert report["status"] == "internal-error"
    assert report["result"] == {"type": "InvariantError",
                                "message": "boundary ranks are inconsistent"}
    path = write_bundle(tmp_path, "ranks.json", bundle)
    assert cli.main(["--bundle", path, "--quiet"]) == 4


# ---------------------------------------------------------------------------
# guards that refuse before allocating
# ---------------------------------------------------------------------------

def test_large_cyclic_shorthands_are_refused_before_any_table(monkeypatch):
    """A C<a>xC<b>... shorthand above the order of S6 is refused at /group
    before a cyclic group is built; order 720 itself is accepted."""
    built = []

    def bounded(n, *args, **kwargs):
        if n > 720:
            raise AssertionError(f"built a cyclic group of order {n}")
        built.append(n)
        return bundles.trivial_group()

    monkeypatch.setattr(bundles, "make_cyclic", bounded)
    monkeypatch.setattr(bundles, "make_product", lambda g, h: g)
    for spec in ("C9999999999", "C721", "C30xC30", "C2xC2xC200"):
        report = cli.run({**h2_bundle(), "group": spec})
        assert report["status"] == "input-error", spec
        assert report["result"] == {"pointer": "/group",
                                    "message": "group order must be at "
                                               "most 720"}
    assert built == []
    bundles.group_from_spec("C24xC30", "/group")
    assert built == [24, 30]


def test_moduli_beyond_int32_are_refused_at_the_module():
    for m in (2 ** 31, 2 ** 63, 10 ** 30):
        report = cli.run({**h2_bundle(), "module": f"Z{m}-trivial"})
        assert report["status"] == "input-error"
        assert report["result"] == {"pointer": "/module",
                                    "message": "modulus must be at most "
                                               "2147483647"}
    report = cli.run({**h2_bundle(), "module": f"Z{2 ** 31 - 1}-trivial",
                      "n": 1})
    assert report["status"] == "ok"


def test_shorthand_numbers_past_the_digit_limit_have_their_own_error():
    """Numbers longer than Python's int-conversion limit of 4,300 digits
    are refused at their pointer before int() sees them."""
    long = "9" * 4301
    for field, spec in (("group", f"C{long}"), ("group", f"S{long}"),
                        ("group", f"C2xC{long}"),
                        ("module", f"Z{long}-trivial")):
        report = cli.run({**h2_bundle(), field: spec})
        assert report["status"] == "input-error", spec[:8]
        assert report["result"] == {
            "pointer": f"/{field}",
            "message": "shorthand number has more than 4300 digits"}
    at_limit = cli.run({**h2_bundle(), "group": "C" + "0" * 4299 + "2"})
    assert at_limit["status"] == "ok"


def test_int64_headroom_of_a_modular_kernel_is_a_resource_error(tmp_path):
    """H^2(C3; Z/(2^31 - 1)) needs sums of four products of entries below
    the modulus, past the int64 headroom: the module is admitted, and the
    work is refused as a resource, not as bad input."""
    bundle = {**h2_bundle(), "group": "C3",
              "module": f"Z{2 ** 31 - 1}-trivial"}
    report = cli.run(bundle)
    assert report["status"] == "resource-error"
    assert report["result"] == {"bound": "int64 sums of products mod m",
                                "needed": 4 * (2 ** 31 - 2) ** 2,
                                "allowed": 2 ** 62}
    path = write_bundle(tmp_path, "headroom.json", bundle)
    assert cli.main(["--bundle", path, "--quiet"]) == 2


def random_unitaries(seed: int, count: int) -> list:
    """The identity and count - 1 random 2x2 unitaries, as JSON matrices:
    no projective family."""
    rng = np.random.default_rng(seed)
    mats = [np.eye(2)]
    for _ in range(count - 1):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        mats.append(q * (np.diag(r) / abs(np.diag(r))))
    return [bundles.matrix_to_json(u) for u in mats]


@pytest.mark.parametrize("tol", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_kernel_tolerance_is_refused_at_its_pointer(tol):
    """JSON admits NaN and Infinity.  A NaN tolerance passes every
    comparison it meets, so random unitaries would classify as a
    projective family; each non-finite tol is refused at /tol."""
    text = json.dumps({"schema": 1, "task": "kernel-ob", "group": "C2xC2",
                       "mats": random_unitaries(5, 4)})
    report = cli.run(json.loads(text[:-1] + f', "tol": {tol}}}'))
    assert report["status"] == "input-error"
    assert report["result"] == {"pointer": "/tol",
                                "message": "expected a finite number"}


def test_tolerances_must_be_positive():
    for task, extra in (("kernel-ob", {"group": "C2xC2",
                                       "mats": "clock-shift-2"}),
                        ("decompose", {"random": {"paths": 1}})):
        for tol in (0, -1e-9, 10 ** 400):
            report = cli.run({"schema": 1, "task": task, **extra,
                              "tol": tol})
            assert report["status"] == "input-error", (task, tol)
            assert report["result"]["pointer"] == "/tol"
        assert cli.run({"schema": 1, "task": task, **extra,
                        "tol": 1e-8})["status"] == "ok"


def test_a_non_finite_path_time_is_refused_at_its_pointer():
    """ts [0, NaN, 1] would print NaN in an ok report."""
    one = [[[1, 0]]]
    text = ('{"schema": 1, "task": "decompose", "path": {"ts": '
            '[0, NaN, 1], "mats": %s}}' % json.dumps([one] * 3))
    report = cli.run(json.loads(text))
    assert report["status"] == "input-error"
    assert report["result"] == {"pointer": "/path/ts/1",
                                "message": "expected a finite number"}
    matrix = json.loads(text.replace("NaN", "0.5").replace(
        "[[[1, 0]]], [[[1, 0]]]]", "[[[1, 0]]], [[[1, Infinity]]]]"))
    report = cli.run(matrix)
    assert report["result"] == {"pointer": "/path/mats/2/0/0",
                                "message": "expected a finite number"}


def test_a_nan_decompose_tolerance_is_refused_not_a_violation(tmp_path):
    """tol NaN made every residual check fail: a violation, exit 1."""
    text = '{"schema": 1, "task": "decompose", "random": {"paths": 2}, ' \
        '"tol": NaN}'
    path = tmp_path / "nan.json"
    path.write_text(text)
    assert cli.run(json.loads(text))["result"] == {
        "pointer": "/tol", "message": "expected a finite number"}
    assert cli.main(["--bundle", str(path), "--quiet"]) == 3


def test_snap_denominator_is_a_bounded_positive_integer():
    base = {"schema": 1, "task": "kernel-ob", "group": "C2xC2",
            "mats": "clock-shift-2"}
    for snap, message in ((10 ** 30, "must be <= 2147483647"),
                          (-1, "must be >= 1"), (0, "must be >= 1"),
                          (True, "expected int")):
        report = cli.run({**base, "snap_denominator": snap})
        assert report["status"] == "input-error", snap
        assert report["result"] == {"pointer": "/snap_denominator",
                                    "message": message}
    assert cli.run({**base, "snap_denominator": 8})["status"] == "ok"


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 10),
                  st.floats(allow_nan=True), st.text(max_size=4),
                  st.lists(st.integers(-1, 3), max_size=3))
_SMALL_GROUPS = st.sampled_from(
    ["1", "C2", "C3", "C4", "C2xC2", "S3", "C2xC3", {"mul": [[0]]},
     {"mul": [[0, 1], [1, 0]]}, {"mul": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}])
_GROUPS = st.one_of(
    _SMALL_GROUPS,
    st.sampled_from(["C0", "S7", "C", "CxC2", "C2x", "C721", "C30xC30",
                     "C9999999999", "Q8", "C" + "9" * 5000,
                     {"mul": [[0, 1], [0, 1]]}, {"mul": [[1, 0], [0, 1]]},
                     {"mul": [[0, 1], [1]]}, {"mul": []}, {"mul": [[0]],
                                                            "x": 1}]),
    st.text(alphabet="CSx12", max_size=4),
    st.fixed_dictionaries({"mul": st.lists(
        st.lists(st.integers(-1, 3), min_size=1, max_size=3),
        max_size=3)}),
    _JUNK)
_SMALL_XMODS = st.sampled_from(["C2->1", "1->C2", "C2->id", "C3->id",
                                "C4->1", "S3->id"])
_FIELDS = {
    "group": _GROUPS,
    "module": st.one_of(
        st.sampled_from(["Z1-trivial", "Z2147483648-trivial", "Z-trivial",
                         "Z9-twisted", "Z" + "9" * 40 + "-trivial"]),
        _JUNK),
    "xmod": st.one_of(
        st.sampled_from(["C2->2", "C721->1", "->1", "C2->", "S7->id"]),
        st.fixed_dictionaries({"h": _GROUPS, "g": _GROUPS,
                               "boundary": st.lists(st.integers(-1, 3),
                                                    max_size=3),
                               "action": st.lists(
                                   st.lists(st.integers(-1, 3), max_size=3),
                                   max_size=3)}),
        _JUNK),
    "mats": st.one_of(
        st.sampled_from(["clock-shift-", "clock-shift-x", "clock-shift-3",
                         "pauli"]),
        st.lists(st.lists(st.lists(st.lists(st.integers(-1, 1),
                                            max_size=2),
                                   max_size=2), max_size=2), max_size=4),
        _JUNK),
    "n": st.one_of(st.integers(-2, 6), _JUNK),
    "trunc": st.one_of(st.integers(-1, 4), _JUNK),
    "snap_denominator": st.one_of(st.integers(-2, 10 ** 30), _JUNK),
    "tol": st.one_of(st.floats(), _JUNK),
}
_VALID = {
    "h-n": st.fixed_dictionaries({
        "group": _SMALL_GROUPS,
        "module": st.sampled_from(["Z2-trivial", "Z3-trivial", "Z4-trivial",
                                   "QZ-trivial"]),
        "n": st.integers(0, 4)}),
    "h1": st.fixed_dictionaries({"group": _SMALL_GROUPS,
                                 "xmod": _SMALL_XMODS}),
    "validate": st.fixed_dictionaries({"xmod": _SMALL_XMODS}),
    "nerve": st.fixed_dictionaries({
        "kind": st.sampled_from(["duskin", "diag"]), "xmod": _SMALL_XMODS,
        "trunc": st.integers(0, 3)}),
    "kernel-ob": st.fixed_dictionaries({
        "group": st.just("C2xC2"), "mats": st.just("clock-shift-2"),
        "snap_denominator": st.integers(1, 64),
        "perturbations": st.integers(0, 2)}),
}


@st.composite
def fuzzed_bundles(draw):
    """A valid bundle of a small task, a small work budget, and at most one
    field replaced by a shorthand, table or value that may be malformed."""
    task = draw(st.sampled_from(sorted(_VALID)))
    bundle = {"schema": 1, "task": task, **draw(_VALID[task]),
              "budget": draw(st.integers(1, 2000))}
    field = draw(st.sampled_from([None, *sorted(bundle), "bogus"]))
    if field is not None:
        bundle[field] = draw(_FIELDS.get(field, _JUNK))
    return bundle


@settings(max_examples=400, deadline=None, derandomize=True)
@given(fuzzed_bundles())
def test_fuzzed_bundles_end_in_a_documented_status(bundle):
    """Every report carries a documented status other than internal-error,
    and serializes."""
    report = cli.run(bundle)
    assert report["status"] in ("ok", "violation", "resource-error",
                                "input-error"), report
    json.loads(cli.serialize_report(report))


def test_float_fields_are_printed_to_twelve_significant_digits():
    bundle = {"schema": 1, "task": "decompose",
              "random": {"paths": 1, "max_dim": 2}, "seed": 0}
    text = cli.serialize_report(cli.run(bundle))
    value = json.loads(text)["result"]["worst_reconstruction_error"]
    assert value == float(f"{value:.12g}")


# ---------------------------------------------------------------------------
# start-up imports
# ---------------------------------------------------------------------------

STARTUP_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from xmodcoh import cli, unitary
for bundle in (
        {"schema": 1, "task": "unitary-check", "max_dim": 3,
         "ineq_trials": 20, "pair_trials": 4, "member_trials": 4,
         "sandwich_trials": 4, "conj_trials": 2, "seed": 1},
        {"schema": 1, "task": "decompose",
         "random": {"paths": 2, "max_dim": 3}, "seed": 1}):
    assert cli.run(bundle)["status"] == "ok"
loop = unitary.unitary_path([0.0, 1.0],
                            [np.eye(2), np.diag([np.exp(0.5j), 1])])
unitary.dlhs_path(loop, quad_panels=2)
heavy = ("scipy.stats", "scipy.integrate", "scipy.optimize",
         "scipy.special", "scipy.interpolate")
print(json.dumps([name for name in heavy if name in sys.modules]))
"""


def test_unitary_tasks_import_no_heavy_scipy_subpackage():
    # every run forks its cases from a process that imported the CLI, so an
    # import on the unitary path, at the top or inside a function, is paid
    # by every case process
    probe = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(SRC)],
                           capture_output=True, text=True, timeout=300)
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) == []


# one small bundle of each task
CASE_BUNDLES = [
    {"schema": 1, "task": "validate", "xmod": "S3->id"},
    {"schema": 1, "task": "h1", "group": "C2", "xmod": "C2->1"},
    {"schema": 1, "task": "h1-ff", "group": "C2", "xmod": "C2->1"},
    {"schema": 1, "task": "h-n", "group": "C4", "module": "QZ-trivial",
     "n": 3},
    {"schema": 1, "task": "homology", "kind": "both", "xmod": "C2->id",
     "trunc": 3, "maxdeg": 2},
    {"schema": 1, "task": "nerve", "kind": "duskin", "xmod": "1->C2",
     "trunc": 4, "check_ordinary_iso": True},
    {"schema": 1, "task": "appendix-check", "xmod": "C2->id", "m": 2,
     "n": 2, "sample": 20, "seed": 0},
    {"schema": 1, "task": "theta", "extension": "C2-C4-C2", "gamma": "C2",
     "sweep": True},
    {"schema": 1, "task": "exact-check", "extension": "C2-C4-C2-inv",
     "gamma": "C2"},
    {"schema": 1, "task": "kernel-ob", "group": "C2xC2",
     "mats": "clock-shift-2", "perturbations": 3, "seed": 1},
    {"schema": 1, "task": "unitary-check", "max_dim": 3, "ineq_trials": 20,
     "pair_trials": 4, "member_trials": 4, "sandwich_trials": 4,
     "conj_trials": 2, "seed": 1},
    {"schema": 1, "task": "decompose", "random": {"paths": 2, "max_dim": 3},
     "seed": 1},
]

CASE_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from xmodcoh import cli
def masked():
    return sorted(name for name in sys.modules
                  if name == "numpy.ma" or name.startswith("numpy.ma."))
before = set(sys.modules)
added, ma = {}, {"import": masked()}
for bundle in json.loads(sys.argv[2]):
    assert cli.run(bundle)["status"] == "ok", bundle
    added[bundle["task"]] = sorted(set(sys.modules) - before)
    ma[bundle["task"]] = masked()
print(json.dumps([added, ma]))
"""


def test_no_case_imports_a_module():
    # numpy loads numpy.random on first use; a module first imported inside
    # cli.run is paid by every case process instead of once before the
    # fork.  np.unique and np.setdiff1d import numpy.ma, which the program
    # needs nowhere: it is loaded neither by the import nor by any task.
    probe = subprocess.run(
        [sys.executable, "-c", CASE_IMPORT_PROBE, str(SRC),
         json.dumps(CASE_BUNDLES)],
        capture_output=True, text=True, timeout=300)
    assert probe.returncode == 0, probe.stderr
    added, ma = json.loads(probe.stdout)
    assert sorted(added) == sorted(cli.TASKS)
    assert added == {task: [] for task in added}
    assert sorted(ma) == sorted(["import", *cli.TASKS])
    assert ma == {step: [] for step in ma}


def scipy_imports(tree) -> list[int]:
    """The lines of a syntax tree that import scipy or a part of it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.")
               for name in names):
            lines.append(node.lineno)
    return lines


def test_the_program_does_not_import_scipy_sparse():
    """The program needs no scipy: sparse matrices are its own int64 index
    arrays and the Schur form calls numpy's LAPACK.  No source file imports
    any part of scipy, and importing the CLI loads none of it."""
    found = {path.name: scipy_imports(ast.parse(path.read_text()))
             for path in sorted((SRC / "xmodcoh").glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    for source in ("from scipy import sparse", "import scipy.linalg",
                   "import numpy, scipy", "from scipy.linalg.lapack "
                   "import zgees", "def f():\n    import scipy"):
        assert scipy_imports(ast.parse(source)) != [], source
    assert scipy_imports(ast.parse("import scipyx\nfrom . import scipy\n"
                                   "from .scipy import f")) == []
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; sys.path.insert(0, sys.argv[1]); "
         "import xmodcoh.cli; print(json.dumps(sorted(name for name in "
         "sys.modules if name.startswith('scipy'))))", str(SRC)],
        capture_output=True, text=True, timeout=300)
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) == []


# ---------------------------------------------------------------------------
# golden preset workflow
# ---------------------------------------------------------------------------

def test_all_shipped_presets_match_their_expected_reports():
    report = cli.golden_verify(PRESETS)
    assert report["status"] == "ok", report["result"]["diffs"]
    assert report["result"]["cases"] == report["result"]["matched"] == 30
    assert report["result"]["drifted"] == []


def test_preset_generator_writes_the_shipped_bundles():
    """tools/make_presets.py regenerates presets/ byte for byte: one
    BUNDLES entry per shipped bundle file, each serialized as main()
    writes it."""
    path = PRESETS.parent / "tools" / "make_presets.py"
    spec = importlib.util.spec_from_file_location("make_presets", path)
    make_presets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_presets)
    shipped = {p.name[:-len(".bundle.json")]
               for p in PRESETS.glob("*.bundle.json")}
    assert set(make_presets.BUNDLES) == shipped
    for name, payload in make_presets.BUNDLES.items():
        text = (PRESETS / f"{name}.bundle.json").read_text()
        assert make_presets.bundle_text(payload) == text, name


def test_golden_drift_produces_a_unified_diff(tmp_path):
    for suffix in ("bundle", "expected"):
        shutil.copy(PRESETS / f"h2-c2-z2.{suffix}.json",
                    tmp_path / f"h2-c2-z2.{suffix}.json")
    expected = tmp_path / "h2-c2-z2.expected.json"
    expected.write_text(expected.read_text().replace('"order": 2',
                                                     '"order": 3'))
    report = cli.golden_verify(tmp_path)
    assert report["status"] == "violation"
    assert report["result"]["drifted"] == ["h2-c2-z2"]
    diff = report["result"]["diffs"]["h2-c2-z2"]
    assert "-  " in diff and "+  " in diff and "regenerated" in diff

    exit_code = cli.main(["--golden", str(tmp_path), "--quiet",
                          "--out", str(tmp_path / "golden.json")])
    assert exit_code == 1


def test_golden_regeneration_and_missing_expected(tmp_path):
    shutil.copy(PRESETS / "h2-c2-z2.bundle.json",
                tmp_path / "h2-c2-z2.bundle.json")
    missing = cli.golden_verify(tmp_path)
    assert missing["status"] == "input-error"
    assert "missing" in missing["result"]["diffs"]["h2-c2-z2"]

    regen = cli.golden_verify(tmp_path, write=True)
    assert regen["status"] == "ok" and regen["result"]["matched"] == 1
    again = cli.golden_verify(tmp_path)
    assert again["status"] == "ok" and again["result"]["drifted"] == []


def test_golden_rejects_unusable_directories(tmp_path):
    nowhere = cli.golden_verify(tmp_path / "absent")
    assert nowhere["status"] == "input-error"
    assert "not a directory" in nowhere["result"]["message"]
    empty = cli.golden_verify(tmp_path)
    assert empty["status"] == "input-error"
    assert "no *.bundle.json" in empty["result"]["message"]
