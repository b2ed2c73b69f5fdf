"""Apply each mutant of ``tests/mutants.py`` to a copy of the repository,
one at a time, and run the tests it names there.

    python3 tools/mutate.py [NAME ...]

With no names, every mutant runs.  Prints one JSON object: the names of
the killed mutants (every listed test failed), of the surviving ones, and
per mutant the listed tests that failed.  A fragment that does not occur
exactly once is reported under ``errors``.  The exit status is 0 only
when every mutant run was killed.  Only the standard library is used;
the tests run under the same interpreter, with the copy's ``src`` on the
path.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "presets", "pyproject.toml")


def load_mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def run(mutant) -> list[str] | str:
    """The listed tests that fail with the mutant applied, or an error."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, root / name, ignore=shutil.
                                ignore_patterns("__pycache__"))
            elif source.exists():
                shutil.copy(source, root / name)
        target = root / mutant.path
        text = target.read_text()
        if text.count(mutant.fragment) != 1:
            return f"fragment occurs {text.count(mutant.fragment)} times"
        target.write_text(text.replace(mutant.fragment, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=root, env=env, capture_output=True, text=True)
        if done.returncode not in (0, 1):
            return f"pytest exited {done.returncode}: {done.stdout[-500:]}"
        failed = {line.split()[1] for line in done.stdout.splitlines()
                  if line.startswith("FAILED ")}
        return [t for t in mutant.tests if t in failed]


def main(names: list[str]) -> int:
    mutants = [m for m in load_mutants() if not names or m.name in names]
    report = {"killed": [], "survived": [], "errors": {}, "failed": {}}
    for m in mutants:
        got = run(m)
        if isinstance(got, str):
            report["errors"][m.name] = got
            continue
        report["failed"][m.name] = got
        report["killed" if len(got) == len(m.tests) else "survived"].append(
            m.name)
    print(json.dumps(report, indent=1))
    return 0 if len(report["killed"]) == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
