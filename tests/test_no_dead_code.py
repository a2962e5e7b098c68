"""Every module-level function and class of the package has a use.

A definition counts as used when its name is read somewhere in
`src/eqbounds` outside the definition itself, as a plain name or as an
attribute, or when `eqbounds.__all__` exports it.  Imports alone do not
count, so a name that only tests import, or that a module imports but
never calls, is reported.
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


def unused_definitions(sources: dict[str, str], exported) -> list[str]:
    """`module: name` for each top-level def or class of `sources` (module
    name -> source text) that no other code reads and `exported` lacks."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = sum((_names_read(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in exported:
                continue
            if read[node.name] - _names_read(node)[node.name] <= 0:
                unused.append(f"{module}: {node.name}")
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


def test_every_definition_is_used_or_exported():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_definitions(sources, set(eqbounds.__all__)) == []
    assert [name for name in eqbounds.__all__ if not hasattr(eqbounds, name)] == []
