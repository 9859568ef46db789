"""The package exports only code that the package or the benchmark runs.

Every name that ``resonance/__init__.py`` imports and every name in a
module's ``__all__`` must be referenced somewhere in ``src/resonance``
(``__init__.py`` aside) or ``perfbench/``, outside its own top-level
definition and the export lists.  Every public method or property of a
class in ``src/resonance`` must be read as an attribute there or in
``perfbench/``.  Code that only the tests call lives in ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "resonance"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported():
    """``{name: where}`` for each name ``__init__`` imports or an ``__all__`` lists."""
    names = {}
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom):
            names.update((a.asname or a.name, "__init__") for a in node.names)
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                where = f"{path.stem}.__all__"
                names.update((ast.literal_eval(e), where) for e in node.value.elts)
    return names


def _references():
    """Names read as variables or attributes, outside the top-level
    statement that defines the same name."""
    found = set()
    for path in SOURCES:
        for top in _tree(path).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    found.add(name)
    return found


def test_every_exported_name_is_used_outside_the_tests():
    used = _references()
    unused = {name: where for name, where in _exported().items() if name not in used}
    assert unused == {}


def test_every_public_method_is_read_outside_the_tests():
    """The check goes by name: a method escapes it when an attribute of
    the same name is read anywhere, e.g. ``ExactMatrix.rank`` would
    escape because ``EchelonBasis.rank`` is read."""
    reads = {
        node.attr
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.stem}.{cls.name}.{item.name}"
        for path in MODULES
        for cls in _tree(path).body
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and not item.name.startswith("_")
        and item.name not in reads
    ]
    assert unread == []


def _imports(path):
    """Dotted names a module imports, ``from m import x`` giving ``m`` and ``m.x``."""
    names = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
            names += [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    return names


def test_one_module_imports_concurrent_futures():
    importers = [
        path.name for path in MODULES if any(m.startswith("concurrent") for m in _imports(path))
    ]
    assert len(importers) == 1, importers


def test_no_module_imports_random():
    """Checks in the package are exact: none of them samples."""
    importers = [
        path.name
        for path in MODULES + [PACKAGE / "__init__.py"]
        if any("random" in m.split(".") for m in _imports(path))
    ]
    assert importers == []


def test_only_linalg_and_universality_import_fractions():
    """Elimination is in ints: rationals enter only where input is cleared
    (``universality``) and where span coefficients are returned (``linalg``)."""
    importers = [
        path.stem
        for path in MODULES + [PACKAGE / "__init__.py"]
        if any("fractions" in m.split(".") for m in _imports(path))
    ]
    assert sorted(importers) == ["linalg", "universality"]
