"""Command-line front end: strict bundle schemas with JSON-pointer errors,
status/exit-code mapping, deterministic reports, seed/budget overrides, and
the golden preset workflow (regeneration, drift detection, diffs)."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from xmodcoh import cli, modsnf

PRESETS = Path(__file__).resolve().parents[1] / "presets"


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


def test_failed_internal_checks_are_internal_errors(monkeypatch, tmp_path):
    """A solver that returns a wrong solution trips the cohomology quotient's
    own check; that is the program's fault, not a violation."""
    real = modsnf.ModSolver.solve

    def wrong(self, b):
        y = real(self, b)
        return None if y is None else (y + 1) % self.m

    monkeypatch.setattr(modsnf.ModSolver, "solve", wrong)
    report = cli.run(h2_bundle())
    assert report["status"] == "internal-error"
    assert report["result"] == {
        "type": "InvariantError",
        "message": "boundary escapes the cocycle kernel"}
    path = write_bundle(tmp_path, "wrong.json", h2_bundle())
    assert cli.main(["--bundle", path, "--quiet"]) == 4


def test_float_fields_are_printed_to_twelve_significant_digits():
    bundle = {"schema": 1, "task": "decompose",
              "random": {"paths": 1, "max_dim": 2}, "seed": 0}
    text = cli.serialize_report(cli.run(bundle))
    value = json.loads(text)["result"]["worst_reconstruction_error"]
    assert value == float(f"{value:.12g}")


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
