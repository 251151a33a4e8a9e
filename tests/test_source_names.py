"""No module-level function or class of ``atscalm`` exists for tests alone.

Every one must be used somewhere in ``src/atscalm`` or ``perfbench``: named
in the module that defines it or in a module that imports it, or reached
as an attribute of a name imported from atscalm (``encoder.count_flops``,
``ops.conv2d``). An import, a re-export or an ``__all__`` entry is not a
use, and neither is an attribute of any other object: neither the string
method ``"a,b".split`` nor ``np.split`` keeps a ``split`` alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "atscalm"


def _uses(tree: ast.Module) -> tuple[set[str], set[str], set[str]]:
    """(bare names read, names imported by ``from ... import``, attributes
    read off a name imported from atscalm) of one module."""
    imported, from_imported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            from_imported.update(a.name for a in node.names)
            if node.level or node.module.split(".")[0] == "atscalm":
                imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names
                            if a.name.split(".")[0] == "atscalm")
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in imported):
            attrs.add(node.attr)
    return names, from_imported, attrs


def test_every_module_level_name_has_a_use_outside_tests():
    sources = sorted(PACKAGE.rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sources + sorted((ROOT / "perfbench").rglob("*.py"))}
    uses = {path: _uses(tree) for path, tree in trees.items()}
    attrs = set().union(*(a for _, _, a in uses.values()))
    unused = [f"{path.relative_to(ROOT)}: {node.name}"
              for path in sources for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in attrs
              and not any(node.name in names and (where == path or node.name in imports)
                          for where, (names, imports, _) in uses.items())]
    assert not unused, "defined in src/atscalm but used only by tests:\n" + "\n".join(unused)


def test_what_counts_as_a_use():
    names, imports, attrs = _uses(ast.parse(
        "import numpy as np\nfrom atscalm.nn import ops\nfrom .nn import lstm, mul\n"
        "x = 'a,b'.split(',')\ny = self.scale(2)\nw = np.concat\nz = ops.conv2d\nlstm()\n"))
    assert imports == {"ops", "lstm", "mul"}
    assert attrs == {"conv2d"}                   # not split, scale or concat
    assert "lstm" in names and "mul" not in names
