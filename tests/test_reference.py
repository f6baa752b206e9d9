"""tests/reference.py stays independent of the closed forms it verifies."""

import ast
from pathlib import Path

import reference

# the program's closed forms and fast paths that the references check
CLOSED_FORMS = {
    "barrier_pass",
    "pair_rows",
    "flat_pair_rows",
    "h_batch",
    "lie_rows",
    "h_value",
    "lie_derivatives",
    "solve_row_batch",
}


def test_reference_names_no_closed_form():
    # every name the module imports, binds or reads as an attribute
    tree = ast.parse(Path(reference.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert sorted(names & CLOSED_FORMS) == []
