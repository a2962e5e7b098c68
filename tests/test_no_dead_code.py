"""Every module-level function, class and assigned name of the package,
every method and property of those classes, and every field of its
dataclasses has a use.

A module-level definition counts as used when its name is read somewhere
in `src/eqbounds` outside the definition itself, as a plain name or as an
attribute, or when `eqbounds.__all__` exports it.  A non-dunder method or
property counts as used when its name is read as an attribute outside its
own body, and a dataclass field when its name is read as an attribute
anywhere.  Imports and assignments alone do not count, so a name that
only tests import or call, or that a module imports but never calls, is
reported.  Names are matched without types, so a method or field shares
its uses with any attribute of the same name.
"""

import ast
from collections import Counter
from pathlib import Path

import eqbounds

PACKAGE = Path(eqbounds.__file__).parent


def _names_read(node: ast.AST) -> Counter:
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names[sub.attr] += 1
    return names


def _attributes_read(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _defined_name(node: ast.stmt) -> str | None:
    """The name a top-level def, class or single-name assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    if len(targets) == 1 and isinstance(targets[0], ast.Name):
        return targets[0].id
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass":
            return True
    return False


def unused_definitions(sources: dict[str, str], exported) -> list[str]:
    """`module: name` for each top-level def, class or assigned name of
    `sources` (module name -> source text) that no other code reads and
    `exported` lacks, `module: Class.method` for each unread non-dunder
    method and `module: Class.field` for each unread dataclass field."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = sum((_names_read(tree) for tree in trees.values()), Counter())
    attributes = sum((_attributes_read(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            name = _defined_name(node)
            if name is None or name.startswith("__"):
                continue
            if name not in exported and read[name] - _names_read(node)[name] <= 0:
                unused.append(f"{module}: {name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    if attributes[item.name] - _attributes_read(item)[item.name] <= 0:
                        unused.append(f"{module}: {node.name}.{item.name}")
                elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and _is_dataclass(node) and attributes[item.target.id] == 0):
                    unused.append(f"{module}: {node.name}.{item.target.id}")
    return unused


def test_guard_reports_unread_definitions():
    sources = {
        "a": "def used():\n    return 1\n\ndef recursive(k):\n    return recursive(k - 1)\n",
        "b": "from .a import used\n\nclass Kept:\n    pass\n\ndef caller():\n"
             "    return used() + Kept.x\n\ndef only_imported():\n    pass\n",
        "c": "from .b import only_imported\n",
    }
    assert unused_definitions(sources, exported={"caller"}) == [
        "a: recursive", "b: only_imported",
    ]


def test_guard_reports_unread_methods():
    source = (
        "class Shape:\n"
        "    def __init__(self):\n        self.size = 1\n"
        "    def area(self):\n        return self.size\n"
        "    @property\n    def width(self):\n        return self.area()\n"
        "    def unread(self):\n        return self.unread()\n"
        "\ndef caller():\n    return Shape().width\n"
    )
    assert unused_definitions({"m": source}, exported={"caller"}) == ["m: Shape.unread"]


def test_guard_reports_unread_dataclass_fields_and_aliases():
    source = (
        "from dataclasses import dataclass\n"
        "Alias = int\nUsed = str\n"
        "@dataclass(frozen=True)\nclass Point:\n"
        "    x: Used\n    unread: int\n    written: int = 0\n"
        "class Plain:\n    note: int\n"
        "def caller(p):\n    p.written = Plain()\n    return p.x\n"
    )
    assert unused_definitions({"m": source}, exported={"caller", "Point"}) == [
        "m: Alias", "m: Point.unread", "m: Point.written",
    ]


def test_every_definition_is_used_or_exported():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_definitions(sources, set(eqbounds.__all__)) == []
    assert [name for name in eqbounds.__all__ if not hasattr(eqbounds, name)] == []
