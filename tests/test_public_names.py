"""Every module-level ``def``, ``class`` and assigned name of ``src/sixvb``,
and every method of its classes that is not a dunder, has a reader.

A definition counts as used when its name is read, as a name or an
attribute, somewhere outside its own definition: in another statement of
``src/sixvb`` (``__init__.py`` aside, since a re-export is not a use; for
a method, outside its own ``def``) or, for a public name, in
``perfbench/run.py``, whose trace calls library internals.  A private name
needs a reader in ``src/sixvb`` itself.  Code that only the tests read
belongs in ``tests/dense_reference.py``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sixvb"
TRACE = ROOT / "perfbench" / "run.py"


def _names_read(node) -> Counter:
    """How often each name is read in ``node``, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    )


def _definitions(stmt) -> list:
    """(label, name, node) of each definition a top-level statement makes:
    the names a ``def``, ``class`` or assignment binds, with the statement
    as their node, and each non-dunder method ``Class.name`` of a class,
    with its ``def`` as its node."""
    if isinstance(stmt, ast.ClassDef):
        methods = [
            (f"{stmt.name}.{d.name}", d.name, d)
            for d in stmt.body
            if isinstance(d, ast.FunctionDef) and not (d.name.startswith("__") and d.name.endswith("__"))
        ]
        return [(stmt.name, stmt.name, stmt)] + methods
    if isinstance(stmt, ast.FunctionDef):
        return [(stmt.name, stmt.name, stmt)]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [(n.id, n.id, stmt) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _unreferenced(modules: dict, readers: list) -> list:
    """``module.label`` of every top-level def, class, assigned name or
    method in ``modules`` (name -> parsed module) whose name ``modules``
    reads nowhere outside its own node, and, for a public name, no module
    in ``readers`` reads."""
    src = sum((_names_read(tree) for tree in modules.values()), Counter())
    outside = set().union(*(_names_read(tree) for tree in readers))
    missing = []
    for module, tree in modules.items():
        for stmt in tree.body:
            for label, name, node in _definitions(stmt):
                if name in outside and not name.startswith("_"):
                    continue
                if src[name] == _names_read(node)[name]:
                    missing.append(f"{module}.{label}")
    return missing


def test_the_walker_flags_only_unread_definitions():
    modules = {
        "a": ast.parse(
            "def used(): pass\ndef selfish(): return selfish()\nclass _Private: pass\n"
            "READ = 1\nUNREAD: int = 2\nSTORED = 3\n_HIDDEN = 4\n_helper = 5\n"
            "def _recursive(): return _recursive()\ndef _traced(): pass\n"
            "class Box:\n"
            "    def __init__(self): self._fill()\n"
            "    def _fill(self): pass\n"
            "    def used(self): pass\n"
            "    def unread(self): return self.unread()\n"
            "    def traced(self): pass\n"
            "    def _traced(self): pass\n"
            "    @property\n"
            "    def size(self): return 0"
        ),
        "b": ast.parse(
            "import a\n_x = a.used, a.READ, a._helper, _Private, a.Box().size\n"
            "def traced(): pass\ndef orphan(): return _x\ndef put(): STORED = 5"
        ),
    }
    assert _unreferenced(modules, [ast.parse("traced(); _traced(); _HIDDEN")]) == [
        "a.selfish", "a.UNREAD", "a.STORED", "a._HIDDEN", "a._recursive", "a._traced",
        "a.Box.unread", "a.Box._traced", "b.orphan", "b.put",
    ]


def test_every_public_definition_has_a_caller():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    trace = ast.parse(TRACE.read_text(encoding="utf-8"))
    assert _unreferenced(modules, [trace]) == []
