"""Every library definition is used by the program: each name defined in
``src/cubichecke`` is referenced from the library or the benchmark driver (a
use in the tests alone does not count, nor does a docstring or a comment).
Every module-level import of a library or test module is used in that
module, every dataclass of the library is frozen, every dataclass field of
the library is read as an attribute by the program, and every parameter
default is overridden by some call in the program."""

import ast
import math
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "cubichecke"
PROGRAM = ("src", "perfbench")


def _program_trees() -> list[ast.Module]:
    return [ast.parse(p.read_text()) for d in PROGRAM for p in sorted((ROOT / d).rglob("*.py"))]


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


def _referenced_names(trees) -> set[str]:
    """Names loaded as ``name`` or ``x.name``, bound by an import, or spelled
    as a whole string constant (the benchmark tracer names layers by string)."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _unused_definitions(library: dict, program) -> list[str]:
    """``module.name`` for each definition of the library sources (module stem
    -> tree) that no program tree references."""
    referenced = _referenced_names(program)
    return [
        "%s.%s" % (stem, name)
        for stem, tree in sorted(library.items())
        for name in _definitions(tree)
        if name not in referenced
    ]


def test_no_unused_definitions():
    library = {p.stem: ast.parse(p.read_text()) for p in LIBRARY.glob("*.py")}
    unused = _unused_definitions(library, _program_trees())
    assert not unused, "defined but never used: %s" % ", ".join(unused)


def test_unused_definitions_count_code_references_only():
    lib = ast.parse(
        '''"""The helpers: docstring_only is named here and nowhere else."""

def docstring_only():
    pass

def by_string():
    pass

class Holder:
    def by_attribute(self):
        pass
'''
    )
    caller = ast.parse('LAYER = ("lib", "by_string")\nHolder().by_attribute()\n')
    assert _unused_definitions({"lib": lib}, [lib, caller]) == ["lib.docstring_only"]


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
    for path in sorted(LIBRARY.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
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
    for tree in _program_trees():
        read |= _read_attributes(tree)
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


def _defaulted_parameters(tree: ast.Module):
    """(callee name, parameter name, position or None) for every parameter with
    a default value; a method's positions skip its receiver, and ``__init__``
    is called through its class name."""
    owners = {
        id(item): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = owners.get(id(node))
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        skip = 1 if owner and not static else 0
        name = owner if owner and node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        for k in range(len(positional) - len(node.args.defaults), len(positional)):
            yield name, positional[k].arg, k - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _passed_parameters() -> tuple[dict, dict]:
    """Callee name -> the most positional arguments of any call, and callee
    name -> the keywords passed; ``*args`` counts as every position and
    ``**kwargs`` as every keyword (the keyword None)."""
    positions: dict = {}
    keywords: dict = {}
    for tree in _program_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            n = math.inf if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            positions[name] = max(positions.get(name, 0), n)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    return positions, keywords


def test_no_unset_defaults():
    """Every parameter with a default value is passed by some call, by keyword
    or by position, matched by function name; otherwise the default is the
    only value it ever takes."""
    positions, keywords = _passed_parameters()
    unset = []
    for path in sorted(LIBRARY.glob("*.py")):
        for name, param, position in _defaulted_parameters(ast.parse(path.read_text())):
            passed = keywords.get(name, set())
            if param in passed or None in passed:
                continue
            if position is not None and positions.get(name, 0) > position:
                continue
            unset.append("%s.%s(%s)" % (path.stem, name, param))
    assert not unset, "parameters that no call sets: %s" % ", ".join(unset)


def test_benchmark_tracer_resolves():
    """Every layer and cache named in ``perfbench/tracer.py`` exists in the
    library: the tracer installs and uninstalls cleanly.  A method the tracer
    wraps but the program never calls, such as ``Cyclotomic.__add__``, would
    otherwise break ``perfbench/run.py --trace 1`` unseen."""
    spec = spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert set(t.stats) == {name for name, *_rest in tracer.LAYERS}
