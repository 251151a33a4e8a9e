"""No module-level function or class of ``atscalm`` exists for tests alone,
and no class member or keyword default does either.

Every function or class must be used somewhere in ``src/atscalm`` or
``perfbench``: named in the module that defines it or in a module that
imports it, or reached as an attribute of a name imported from atscalm
(``encoder.count_flops``, ``ops.conv2d``). An import, a re-export or an
``__all__`` entry is not a use, and neither is an attribute of any other
object: neither the string method ``"a,b".split`` nor ``np.split`` keeps a
``split`` alive.

Every dataclass field, property and method of a class in ``src/atscalm``,
dunders aside, must be read as an attribute there or in ``perfbench``: an
``x.name`` that is not assigned to, on any object, since a member is matched
by its name alone. A constructor keyword ``Cls(name=...)`` is not a read.

Every keyword default of a function or method in ``src/atscalm``, dunder
methods aside, must be left out by some call there or in ``perfbench``;
otherwise the value comes from the caller and the default is a second
source of it. A call is matched to a function by its bare or attribute
name alone, and a call with ``*args`` or ``**kwargs`` counts as leaving
anything out.

Every name a package ``__init__`` imports from its submodules must be
imported through that package (``from atscalm.nn import Adam``, or its
relative form) by some other module in ``src/atscalm`` or ``perfbench``;
otherwise the re-export is a second path to the name that only tests take.

A model's weights are rounded to float32 in one place: ``astype(np.float32``
appears in ``src/atscalm`` only in ``nn/init.py``.

A manifest has one constructor: ``ManifestEntry(`` and ``CorpusManifest(``
are called in ``src/atscalm`` only inside ``audio_io.manifest_of``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "atscalm"


def _parsed() -> tuple[list[Path], dict[Path, ast.Module]]:
    """(the ``src/atscalm`` files, the parsed tree of each of them and of each
    ``perfbench`` file)."""
    sources = sorted(PACKAGE.rglob("*.py"))
    return sources, {path: ast.parse(path.read_text(encoding="utf-8"))
                     for path in sources + sorted((ROOT / "perfbench").rglob("*.py"))}


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
    sources, trees = _parsed()
    uses = {path: _uses(tree) for path, tree in trees.items()}
    attrs = set().union(*(a for _, _, a in uses.values()))
    unused = [f"{path.relative_to(ROOT)}: {node.name}"
              for path in sources for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in attrs
              and not any(node.name in names and (where == path or node.name in imports)
                          for where, (names, imports, _) in uses.items())]
    assert not unused, "defined in src/atscalm but used only by tests:\n" + "\n".join(unused)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _members(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, member) of every annotated class attribute (a dataclass
    field), property and method in ``tree``, dunders aside."""
    return [(node.name, item.target.id if isinstance(item, ast.AnnAssign) else item.name)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            or isinstance(item, ast.FunctionDef) and not _is_dunder(item.name)]


def _attribute_reads(tree: ast.Module) -> set[str]:
    """Names read as ``x.name`` in ``tree``: not assigned or deleted."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_class_member_is_read_outside_tests():
    sources, trees = _parsed()
    reads = set().union(*(_attribute_reads(tree) for tree in trees.values()))
    unread = [f"{path.relative_to(ROOT)}: {cls}.{name}"
              for path in sources for cls, name in _members(trees[path]) if name not in reads]
    assert not unread, "class members that only tests read:\n" + "\n".join(unread)


def _defaults(tree: ast.Module) -> list[tuple[str, str, int | None, int]]:
    """(function name, parameter, index among a call's positional arguments
    or None if keyword-only, line) of every keyword default in ``tree``,
    dunder methods aside. A method's ``self`` takes no call argument."""
    found = []

    def visit(node, in_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, True)
                continue
            if not isinstance(child, ast.FunctionDef):
                visit(child, in_class)
                continue
            visit(child, False)
            if _is_dunder(child.name):
                continue
            a = child.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            positional = (a.posonlyargs + a.args)[1 if in_class and not static else 0:]
            first = len(positional) - len(a.defaults)
            found.extend((child.name, arg.arg, first + i, child.lineno)
                         for i, arg in enumerate(positional[first:]))
            found.extend((child.name, arg.arg, None, child.lineno)
                         for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None)

    visit(tree, False)
    return found


def _leaves_out(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether ``call`` may leave ``param`` (at positional ``index``) to its default."""
    unpacked = any(isinstance(a, ast.Starred) for a in call.args)
    if unpacked or any(k.arg is None for k in call.keywords):
        return True
    if any(k.arg == param for k in call.keywords):
        return False
    return index is None or index >= len(call.args)


def _calls(tree: ast.Module) -> list[tuple[str, ast.Call]]:
    """(bare or attribute name called, call) of every call in ``tree``."""
    return [(node.func.id if isinstance(node.func, ast.Name) else node.func.attr, node)
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))]


def test_every_keyword_default_is_left_out_by_a_call_outside_tests():
    sources, trees = _parsed()
    calls = [c for tree in trees.values() for c in _calls(tree)]
    unused = [f"{path.relative_to(ROOT)}:{line} {name}({param})"
              for path in sources for name, param, index, line in _defaults(trees[path])
              if not any(called == name and _leaves_out(call, param, index)
                         for called, call in calls)]
    assert not unused, "keyword defaults that only tests leave out:\n" + "\n".join(unused)


def test_what_counts_as_a_use():
    names, imports, attrs = _uses(ast.parse(
        "import numpy as np\nfrom atscalm.nn import ops\nfrom .nn import lstm, mul\n"
        "x = 'a,b'.split(',')\ny = self.scale(2)\nw = np.concat\nz = ops.conv2d\nlstm()\n"))
    assert imports == {"ops", "lstm", "mul"}
    assert attrs == {"conv2d"}                   # not split, scale or concat
    assert "lstm" in names and "mul" not in names


def test_what_a_default_needs():
    tree = ast.parse(
        "def f(a, b=1, *, c=2): pass\n"
        "class K:\n"
        "    def __init__(self, x=0): pass\n"
        "    def m(self, y=3, z=4): pass\n"
        "    @staticmethod\n"
        "    def s(y=5): pass\n")
    assert _defaults(tree) == [("f", "b", 1, 1), ("f", "c", None, 1), ("m", "y", 0, 4),
                               ("m", "z", 1, 4), ("s", "y", 0, 6)]   # not __init__
    (_, f_call), (_, m_call), (_, star), (_, kwargs) = _calls(ast.parse(
        "f(0, 1)\nobj.m(y=3)\nf(*args)\nf(0, **kw)\n"))
    assert not _leaves_out(f_call, "b", 1) and _leaves_out(f_call, "c", None)
    assert not _leaves_out(m_call, "y", 0) and _leaves_out(m_call, "z", 1)
    assert _leaves_out(star, "b", 1) and _leaves_out(kwargs, "c", None)


def test_what_counts_as_a_member_read():
    tree = ast.parse(
        "@dataclass\n"
        "class K:\n"
        "    a: int\n"
        "    b = 0\n"
        "    def __init__(self): pass\n"
        "    @property\n"
        "    def c(self): pass\n"
        "    def d(self): pass\n")
    assert _members(tree) == [("K", "a"), ("K", "c"), ("K", "d")]   # not b or __init__
    reads = _attribute_reads(ast.parse("k = K(a=1)\nk.c = 2\ndel k.d\nk.e += 1\nprint(k.f.g)\n"))
    assert reads == {"f", "g"}


def _module_name(path: Path) -> str:
    """Dotted name of a ``src/atscalm`` or ``perfbench`` file; a package's
    ``__init__`` is named as the package."""
    parts = list(path.relative_to(PACKAGE.parent if PACKAGE in path.parents else ROOT)
                 .with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports_from(tree: ast.Module, name: str, is_package: bool) -> list[tuple[str, str, str]]:
    """(absolute module, name imported, name bound) of every ``from ... import``
    in module ``name``; a relative import is resolved against the module's package."""
    package = (name if is_package else name.rpartition(".")[0]).split(".")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = [node.module] if node.module else []
            if node.level:
                parts = package[: len(package) - node.level + 1] + parts
            found.extend((".".join(parts), a.name, a.asname or a.name) for a in node.names)
    return found


def test_every_package_reexport_is_imported_through_the_package():
    sources, trees = _parsed()
    imports = {path: _imports_from(tree, _module_name(path), path.name == "__init__.py")
               for path, tree in trees.items()}
    unused = []
    for init in (p for p in sources if p.name == "__init__.py"):
        package = _module_name(init)
        taken = {name for path, found in imports.items() if path != init
                 for module, name, _ in found if module == package}
        unused += [f"{init.relative_to(ROOT)}: {bound}" for module, _, bound in imports[init]
                   if (module + ".").startswith(package + ".") and bound not in taken]
    assert not unused, "re-exports no module imports through the package:\n" + "\n".join(unused)


def test_what_a_package_import_is():
    tree = ast.parse("from . import ops\nfrom .lstm import lstm_final as lf\n"
                     "from ..util import keyed_rng\nfrom atscalm.nn import Adam\n")
    assert _imports_from(tree, "atscalm.nn", True) == [
        ("atscalm.nn", "ops", "ops"), ("atscalm.nn.lstm", "lstm_final", "lf"),
        ("atscalm.util", "keyed_rng", "keyed_rng"), ("atscalm.nn", "Adam", "Adam")]
    # a module resolves against its package, so nn.optim reads as nn does
    assert [m for m, _, _ in _imports_from(tree, "atscalm.nn.optim", False)] == [
        "atscalm.nn", "atscalm.nn.lstm", "atscalm.util", "atscalm.nn"]
    assert _module_name(PACKAGE / "nn" / "__init__.py") == "atscalm.nn"
    assert _module_name(ROOT / "perfbench" / "tracer.py") == "perfbench.tracer"


def _calls_of(tree: ast.Module, names: set[str]) -> list[tuple[str, str, int]]:
    """(name called, innermost enclosing function or ``<module>``, line) of
    every call in ``tree`` to a bare or attribute name in ``names``."""
    found = []

    def visit(node, where: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.append((name, where, child.lineno))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(tree, "<module>")
    return found


def test_manifests_are_built_only_by_manifest_of():
    """`manifest_of` is the one constructor of a manifest and its entries,
    so every entry's frames and rate come from its WAV header."""
    sources, trees = _parsed()
    elsewhere = [f"{path.relative_to(ROOT)}:{line} {name}( in {where}"
                 for path in sources
                 for name, where, line in _calls_of(trees[path],
                                                    {"ManifestEntry", "CorpusManifest"})
                 if not (path.name == "audio_io.py" and where == "manifest_of")]
    assert not elsewhere, "manifests built outside manifest_of:\n" + "\n".join(elsewhere)


def test_only_nn_init_rounds_to_float32():
    """`seeded_init` rounds every seeded draw, so no model rounds its own weights."""
    sources, _ = _parsed()
    elsewhere = [f"{path.relative_to(ROOT)}:{n}" for path in sources
                 if path != PACKAGE / "nn" / "init.py"
                 for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if "astype(np.float32" in line]
    assert not elsewhere, "float32 roundings outside nn/init.py:\n" + "\n".join(elsewhere)


def test_what_a_call_site_is():
    tree = ast.parse("x = K()\ndef f():\n    def g():\n        return m.K(1)\n    return K\n"
                     "class C:\n    def h(self):\n        return [K() for _ in ()]\n")
    assert _calls_of(tree, {"K"}) == [("K", "<module>", 1), ("K", "g", 4), ("K", "h", 8)]
