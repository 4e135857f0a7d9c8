"""Checks over the package's source as a whole."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gainswitch"


def module_private_names(tree):
    """The private names (_x, not __x__) a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                           ast.Name):
            names.add(node.target.id)
    return {name for name in names
            if name.startswith("_") and not name.endswith("__")}


def referenced_names(tree):
    """Every name the module reads: a bare name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_module_name_is_used():
    """A private helper that nothing calls is dead code: a rewrite that
    stops using one has to delete it too."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in referenced_names(tree)}
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in module_private_names(tree) - used)
    assert not unused
