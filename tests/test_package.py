"""Package-wide checks on the source of itermaps."""

import ast
from collections import Counter
from pathlib import Path

import itermaps


def referenced_names(node) -> Counter:
    """Identifiers that node reads as a Name, an Attribute or an import."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name] += 1
    return names


def test_every_public_name_has_a_caller_in_src():
    # docstrings and comments do not count: only code that reads the name
    trees = {p.stem: ast.parse(p.read_text())
             for p in Path(itermaps.__file__).parent.glob("*.py")}
    used = sum((referenced_names(t) for t in trees.values()), Counter())
    unused = sorted(
        (mod, node.name) for mod, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and used[node.name] == referenced_names(node)[node.name])
    assert unused == []
