"""Every library definition is used somewhere: no name in ``src/cubichecke``
may have its own definition as its only whole-word occurrence across the
library, the tests and the benchmark driver.  Every module-level import of a
library module is used in that module, every dataclass of the library is
frozen, and every dataclass field of the library is read as an attribute
somewhere."""

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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_frozen(node: ast.ClassDef) -> bool:
    return any(
        isinstance(dec, ast.Call)
        and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in dec.keywords)
        for dec in node.decorator_list
    )


def test_dataclasses_are_frozen():
    thawed = []
    for path in sorted(LIBRARY.glob("*.py")):
        thawed.extend(
            "%s.%s" % (path.stem, node.name)
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef) and _is_dataclass(node) and not _is_frozen(node)
        )
    assert not thawed, "dataclasses not frozen: %s" % ", ".join(thawed)


def _read_attributes(tree: ast.Module) -> set[str]:
    """Attribute names loaded as ``x.name`` or through ``getattr(x, "name", ...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            names.add(node.args[1].value)
    return names


def test_no_unread_dataclass_fields():
    read = set()
    for d in SEARCHED:
        for p in sorted((ROOT / d).rglob("*.py")):
            read |= _read_attributes(ast.parse(p.read_text()))
    unread = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            unread.extend(
                "%s.%s.%s" % (path.stem, node.name, item.target.id)
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.target.id not in read
            )
    assert not unread, "dataclass fields never read: %s" % ", ".join(unread)
