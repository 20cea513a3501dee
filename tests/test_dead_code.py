"""Every library definition is used somewhere: no name in ``src/cubichecke``
may have its own definition as its only whole-word occurrence across the
library, the tests and the benchmark driver.  Every module-level import of a
library module is used in that module."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "cubichecke"
SEARCHED = ("src", "tests", "perfbench")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned_names(node) -> list[str]:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _definitions(tree: ast.Module) -> list[str]:
    """Top-level functions, classes, their methods and module-level assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        elif isinstance(node, ast.ClassDef):
            names.append(node.name)
            names.extend(
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        else:
            names.extend(_assigned_names(node))
    return [n for n in names if not _is_dunder(n)]


def test_no_unused_definitions():
    sources = [p.read_text() for d in SEARCHED for p in sorted((ROOT / d).rglob("*.py"))]
    unused = []
    for path in sorted(LIBRARY.glob("*.py")):
        for name in _definitions(ast.parse(path.read_text())):
            word = re.compile(r"\b%s\b" % re.escape(name))
            if sum(len(word.findall(text)) for text in sources) <= 1:
                unused.append("%s.%s" % (path.stem, name))
    assert not unused, "defined but never used: %s" % ", ".join(unused)


def _imported_names(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports, ``from __future__`` excepted."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.extend(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(a.asname or a.name for a in node.names)
    return names


def test_no_unused_imports():
    unused = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused.extend(
            "%s.%s" % (path.stem, name) for name in _imported_names(tree) if name not in loaded
        )
    assert not unused, "imported but never used: %s" % ", ".join(unused)
