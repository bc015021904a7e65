"""The tolerance table's rule, read from the package's syntax trees.

``oqwalk.config`` names a threshold only when two or more sites decide the
same question with it; a threshold of one site stays a literal there, so no
other module keeps a module-level ``*_TOL`` of its own.
"""
import ast
from collections import Counter
from pathlib import Path

import oqwalk.config

SRC = Path(oqwalk.config.__file__).parent


def _module_trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _assigned_names(tree: ast.Module) -> list[str]:
    """The names a module's top-level statements assign."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        names += [t.id for target in targets for t in ast.walk(target)
                  if isinstance(t, ast.Name)]
    return names


def test_every_table_name_is_read_at_two_or_more_sites():
    trees = _module_trees()
    table = _assigned_names(trees["config.py"])
    reads = Counter(node.id for tree in trees.values() for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    assert table
    assert {name: reads[name] for name in table if reads[name] < 2} == {}


def test_no_other_module_assigns_a_module_level_tolerance():
    strays = {(module, name) for module, tree in _module_trees().items()
              if module != "config.py"
              for name in _assigned_names(tree) if name.endswith("_TOL")}
    assert strays == set()
