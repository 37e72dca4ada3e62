"""Every row of the mutant table (``tests/mutants.py``) still applies: a
refactor that moves a row's text or renames its test fails here, not only in
the CI step that runs the mutants."""

import ast

import pytest

from mutants import MUTANTS, PLANT, ROOT

ROWS = pytest.mark.parametrize("mutant", [*MUTANTS, PLANT],
                               ids=[*map(str, range(len(MUTANTS))), "plant"])


@ROWS
def test_each_row_edits_text_found_once(mutant):
    text = (ROOT / "src" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@ROWS
def test_each_named_test_is_defined_in_its_file(mutant):
    for test in mutant.tests:
        path, name = test.split("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        assert name in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}, test


def test_every_row_names_a_test():
    assert all(mutant.tests for mutant in MUTANTS)
