"""The package's export list."""

import ast
from pathlib import Path

import statcurv


def test_all_names_resolve_once_and_are_imported():
    names = statcurv.__all__
    assert len(names) == len(set(names))
    tree = ast.parse(Path(statcurv.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # every export is bound by an import of __init__, and every import is exported
    assert set(names) == imported
    for name in names:
        assert hasattr(statcurv, name), name
