"""Static guard over the package source: nothing imported or defined in vain.

Every import must be read somewhere in its module (``__init__.py`` re-exports
its imports, and a line marked ``# noqa: F401`` is exempt), and every private
module-level name must be read by some statement of the package other than the
one that defines it.  Every field of a dataclass or ``NamedTuple`` of the
package must be read as an attribute somewhere in the repository's code, and every
public module-level function or class, and every method or property of a
package class, somewhere outside the tests.
Stdlib ``ast`` only, so it runs wherever the tests run.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bipratio"


def _modules() -> dict[str, tuple[list[str], ast.Module]]:
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        out[path.name] = (text.splitlines(), ast.parse(text, str(path)))
    return out


def _reads(node: ast.AST) -> set[str]:
    """Names read under node: loaded names and attribute names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _defines(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)]


def test_no_unused_imports():
    unused = []
    for name, (lines, tree) in _modules().items():
        if name == "__init__.py":
            continue
        read = _reads(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound in read or "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                unused.append(f"{name}:{alias.lineno}: {alias.name}")
    assert unused == []


def test_no_unreferenced_private_names():
    modules = _modules()
    statements = [stmt for _, tree in modules.values() for stmt in tree.body]
    reads = [_reads(stmt) for stmt in statements]
    dead = []
    for module, (_, tree) in modules.items():
        for stmt in tree.body:
            for name in _defines(stmt):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if not any(name in seen for other, seen in zip(statements, reads)
                           if other is not stmt):
                    dead.append(f"{module}:{stmt.lineno}: {name}")
    assert dead == []


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass (decorated, with or without arguments) or a NamedTuple."""
    for node in cls.decorator_list + cls.bases:
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Name) and node.id in ("dataclass", "NamedTuple"):
            return True
    return False


def test_every_record_field_is_read():
    fields = [(module, cls.name, stmt.target.id)
              for module, (_, tree) in _modules().items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and _is_record(cls)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assert fields
    read = set()
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            read.update(sub.attr for sub in ast.walk(tree)
                        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))
    unread = [f"{module}: {cls}.{name}" for module, cls, name in fields if name not in read]
    assert unread == []


# Defaulted settable values of the package: function parameters with a
# default plus record fields with a default.  A change that adds or removes
# one updates this number and says why.
SETTABLE_VALUES = 67


def test_settable_values_are_counted():
    names = []
    for module, (_, tree) in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
                owner = getattr(node, "name", "<lambda>")
                names += [f"{module}: {owner}({arg.arg})" for arg in defaulted]
            elif isinstance(node, ast.ClassDef) and _is_record(node):
                names += [f"{module}: {node.name}.{stmt.target.id}" for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign) and stmt.value is not None]
    assert len(names) == SETTABLE_VALUES, "\n".join(names)


# Methods the package offers its users without calling them itself.
PUBLIC_API = {
    # The docstrings and the README tell callers to pass other vertex
    # weights to a game or a sweep as ``G.with_b(b)``.
    ("graph.py", "WeightedGraph", "with_b"),
}


def _program_trees() -> dict[Path, ast.Module]:
    """The parsed files of ``src/``, ``demos/`` and ``perfbench/``."""
    return {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for folder in ("src", "demos", "perfbench")
            for path in (ROOT / folder).rglob("*.py")}


def test_every_public_name_is_read():
    """Every public module-level function or class of the package is read,
    as a name or an attribute, in ``src/``, ``demos/`` or ``perfbench/``
    outside its own definition; a re-export in ``__init__.py`` is no read."""
    trees = _program_trees()
    reads = [(sub.attr if isinstance(sub, ast.Attribute) else sub.id, id(sub))
             for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute)
             or (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load))]
    unread = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for stmt in tree.body:
            if (not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or stmt.name.startswith("_")):
                continue
            inside = {id(sub) for sub in ast.walk(stmt)}
            if not any(name == stmt.name and node not in inside for name, node in reads):
                unread.append(f"{path.name}: {stmt.name}")
    assert unread == []


def test_every_method_is_read():
    """Every method or property of a package class is read as an attribute
    in ``src/``, ``demos/`` or ``perfbench/``, outside its own definition;
    tests alone do not keep one in the library."""
    trees = _program_trees()
    reads = [sub for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute)]
    unread = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or method.name.startswith("__")
                        or (path.name, cls.name, method.name) in PUBLIC_API):
                    continue
                inside = {id(sub) for sub in ast.walk(method)}
                if not any(sub.attr == method.name and id(sub) not in inside
                           for sub in reads):
                    unread.append(f"{path.name}: {cls.name}.{method.name}")
    assert unread == []
