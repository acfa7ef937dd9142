"""Every module-level ``def``, ``class`` and assigned name of ``src/sixvb``
has a reader.

A definition counts as used when its name is read, as a name or an
attribute, somewhere outside its own definition: in another statement of
``src/sixvb`` (``__init__.py`` aside, since a re-export is not a use) or,
for a public name, in ``perfbench/run.py``, whose trace calls library
internals.  A private name needs a reader in ``src/sixvb`` itself.  Code
that only the tests read belongs in ``tests/dense_reference.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sixvb"
TRACE = ROOT / "perfbench" / "run.py"


def _names_read(node) -> set:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    }


def _names_defined(stmt) -> list:
    """The names a top-level ``def``, ``class`` or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _unreferenced(modules: dict, readers: list) -> list:
    """``module.name`` of every top-level def, class or assigned name in
    ``modules`` (name -> parsed module) that no other top-level statement of
    ``modules`` reads, nor, for a public name, any module in ``readers``."""
    statements = [
        (name, stmt, _names_read(stmt)) for name, tree in modules.items() for stmt in tree.body
    ]
    outside = set().union(*(_names_read(tree) for tree in readers))
    missing = []
    for module, stmt, _ in statements:
        for name in _names_defined(stmt):
            if name in outside and not name.startswith("_"):
                continue
            if not any(name in names for _, other, names in statements if other is not stmt):
                missing.append(f"{module}.{name}")
    return missing


def test_the_walker_flags_only_unread_definitions():
    modules = {
        "a": ast.parse(
            "def used(): pass\ndef selfish(): return selfish()\nclass _Private: pass\n"
            "READ = 1\nUNREAD: int = 2\nSTORED = 3\n_HIDDEN = 4\n_helper = 5\n"
            "def _recursive(): return _recursive()\ndef _traced(): pass"
        ),
        "b": ast.parse(
            "import a\n_x = a.used, a.READ, a._helper, _Private\ndef traced(): pass\n"
            "def orphan(): return _x\ndef put(): STORED = 5"
        ),
    }
    assert _unreferenced(modules, [ast.parse("traced(); _traced(); _HIDDEN")]) == [
        "a.selfish", "a.UNREAD", "a.STORED", "a._HIDDEN", "a._recursive", "a._traced",
        "b.orphan", "b.put",
    ]


def test_every_public_definition_has_a_caller():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    trace = ast.parse(TRACE.read_text(encoding="utf-8"))
    assert _unreferenced(modules, [trace]) == []
