"""No slow numpy wrapper comes back into the library.

On the small batches every command runs, numpy's Python-level wrappers
cost more than the arithmetic: ``np.any(mask)`` takes about 5 us where
``mask.any()`` takes about 1 us.  The library uses the ndarray methods,
direct indexing, one ``np.lexsort`` for the orbit keys and a direct linear
quantile instead; this test walks the source and names each call that
would undo that.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "statcurv"

# np.<name>(...) calls that have a faster spelling with the same bits
BANNED = {
    "any": "use the ndarray method .any()",
    "all": "use the ndarray method .all()",
    "count_nonzero": "use (mask).sum(axis=...)",
    "take_along_axis": "index with an np.arange row index",
    "quantile": "use topology._linear_quantiles",
}


def _numpy_call(node: ast.Call) -> str | None:
    f = node.func
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy"):
        return f.attr
    return None


def slow_calls(source: str, filename: str) -> list[str]:
    """``file:line: np.name -- advice`` for each banned call in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        name = _numpy_call(node)
        if name in BANNED:
            found.append(f"{filename}:{node.lineno}: np.{name} -- {BANNED[name]}")
        elif name == "unique" and any(k.arg == "axis" for k in node.keywords):
            found.append(f"{filename}:{node.lineno}: np.unique(axis=...) -- group rows with np.lexsort")
    return found


def test_library_has_no_slow_numpy_wrappers():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += slow_calls(path.read_text(encoding="utf-8"), path.name)
    assert not found, "\n".join(found)


def test_the_check_names_file_and_line():
    source = "import numpy as np\nx = np.any(m)\ny = m.any()\nz = np.unique(k, axis=0)\nw = np.unique(k)\n"
    assert slow_calls(source, "mod.py") == [
        "mod.py:2: np.any -- use the ndarray method .any()",
        "mod.py:4: np.unique(axis=...) -- group rows with np.lexsort",
    ]
