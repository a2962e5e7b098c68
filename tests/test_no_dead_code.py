"""Every module-level function and class of the package, and every
method and property of those classes, has a use.

A module-level definition counts as used when its name is read somewhere
in `src/eqbounds` outside the definition itself, as a plain name or as an
attribute, or when `eqbounds.__all__` exports it.  A non-dunder method or
property counts as used when its name is read as an attribute outside its
own body.  Imports alone do not count, so a name that only tests import
or call, or that a module imports but never calls, is reported.  Names
are matched without types, so a method shares its uses with any
attribute of the same name.
"""

import ast
from collections import Counter
from pathlib import Path

import eqbounds

PACKAGE = Path(eqbounds.__file__).parent


def _names_read(node: ast.AST) -> Counter:
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _attributes_read(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def unused_definitions(sources: dict[str, str], exported) -> list[str]:
    """`module: name` for each top-level def or class of `sources` (module
    name -> source text) that no other code reads and `exported` lacks,
    and `module: Class.method` for each unread non-dunder method."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = sum((_names_read(tree) for tree in trees.values()), Counter())
    attributes = sum((_attributes_read(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in exported and read[node.name] - _names_read(node)[node.name] <= 0:
                unused.append(f"{module}: {node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or item.name.startswith("__"):
                    continue
                if attributes[item.name] - _attributes_read(item)[item.name] <= 0:
                    unused.append(f"{module}: {node.name}.{item.name}")
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


def test_every_definition_is_used_or_exported():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_definitions(sources, set(eqbounds.__all__)) == []
    assert [name for name in eqbounds.__all__ if not hasattr(eqbounds, name)] == []
