"""The package's export list."""

import ast
import sys
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


def test_imports_are_relative_stdlib_or_numpy():
    # numpy is the one declared dependency; scipy is installed in some
    # environments but may not be imported by the package
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = []
    for path in sorted(Path(statcurv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {top}" for top in tops if top not in allowed]
    assert outside == []
