"""The mutant catalogue stays applicable: each fragment occurs exactly
once in its file, and each expected failure names a test that exists."""

import ast
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def test_every_fragment_occurs_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (ROOT / m.path).read_text()
        assert text.count(m.fragment) == 1, (m.name, m.fragment)
        assert m.replacement != m.fragment, m.name


def test_every_expected_failure_names_a_test():
    for m in MUTANTS:
        assert m.tests, m.name
        for node in m.tests:
            path, name = node.split("::")
            tree = ast.parse((ROOT / path).read_text())
            assert any(isinstance(d, ast.FunctionDef) and d.name == name
                       for d in tree.body), (m.name, node)
