"""The package's public names are code that the package or the benchmark runs.

A name is public when it has no leading underscore: every top-level
function, class or assigned name of a module in ``src/resonance``.  Each
must be referenced somewhere in ``src/resonance`` or ``perfbench/``,
outside its own top-level definition.  Every public method or property
of a class there must be read as an attribute there or in
``perfbench/``.  Code that only the tests call lives in ``tests/``.
``import resonance`` runs only the package docstring: callers import
the module they need.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "resonance"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public():
    """``{name: module}`` for each top-level function, class or assigned
    name without a leading underscore."""
    names = {}
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            names.update((name, path.stem) for name in defined if not name.startswith("_"))
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
    public = _public()
    assert {"CharPoly", "GUARDS", "main"} <= public.keys()  # a class, a table, a function
    used = _references()
    unused = {name: where for name, where in public.items() if name not in used}
    assert unused == {}


def _fresh_interpreter(code):
    """The lines ``code`` prints in a new interpreter that imports the
    package from ``src``."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return run.stdout.splitlines()


def test_importing_the_package_loads_no_module():
    """``import resonance`` loads no ``resonance.*`` module and no numpy."""
    code = (
        "import sys, resonance; print(resonance.__file__); "
        "print(*sorted(m for m in sys.modules if m.startswith(('resonance.', 'numpy'))))"
    )
    where, loaded = _fresh_interpreter(code)
    assert Path(where).parent == PACKAGE
    assert loaded == ""


def test_single_worker_runs_load_no_process_pool():
    """Every package module, ``cli`` included, and a run of each route at
    one worker load no ``multiprocessing`` and no ``concurrent.futures``;
    ``run_jobs`` imports the pool only when it starts one."""
    modules = ", ".join(f"resonance.{path.stem}" for path in MODULES)
    code = f"""
import sys
import {modules}
from resonance.arrangement import enumerate_chambers_bruteforce, finite_field_charpoly
from resonance.nbc import betti_via_nbc, charpoly_via_nbc
from resonance.universality import embed, minor_matroid_check, verify_embedding

assert enumerate_chambers_bruteforce(4) == 370
assert finite_field_charpoly(4) == charpoly_via_nbc(4)
matrix = [[1, 2], [3, 5]]
emb = embed(matrix)
assert verify_embedding(emb, matrix)[0] and minor_matroid_check(emb, matrix)
print(*sorted(m for m in sys.modules if m.startswith(("multiprocessing", "concurrent"))))
print(betti_via_nbc(4, 3, workers=2) == betti_via_nbc(4, 3))
"""
    loaded, pooled = _fresh_interpreter(code)
    assert loaded == ""
    assert pooled == "True"


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


def test_only_universality_imports_fractions():
    """Elimination is in ints: rationals enter only where ``universality``
    clears the input matrix's columns."""
    importers = [
        path.stem
        for path in MODULES + [PACKAGE / "__init__.py"]
        if any("fractions" in m.split(".") for m in _imports(path))
    ]
    assert importers == ["universality"]


def test_exact_solves_make_no_fraction(monkeypatch):
    """The point-count interpolation, the Stirling fit and the prototype
    census solve in ints: none of them makes a Fraction."""
    import fractions

    from resonance.arrangement import finite_field_charpoly
    from resonance.prototypes import _functional_counts
    from resonance.stirling import CLOSED_FORMS, fit_stirling_coefficients
    from resonance.table1 import golden_betti

    def refuse(*args):
        raise AssertionError("a Fraction was made")

    monkeypatch.setattr(fractions, "Fraction", refuse)
    assert finite_field_charpoly(5).betti == (1, 31, 375, 2130, 5270, 3485)
    for i in (1, 2, 3):
        golden = [golden_betti(i, n) for n in range(1, 2**i + 1)]
        assert fit_stirling_coefficients(i, golden).coefficients == CLOSED_FORMS[f"betti{i}"][0]
    _functional_counts.cache_clear()
    try:
        assert _functional_counts(3) == ((4, 54), (5, 480), (6, 2070), (7, 5040), (8, 5040))
    finally:
        _functional_counts.cache_clear()


def test_no_assert_statements_in_the_package():
    """Self-checks raise ``InternalCheckError``, which the CLI reports with
    exit code 3; an ``assert`` would vanish under ``python -O`` and an
    ``AssertionError`` would reach the user as a traceback."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in MODULES + [PACKAGE / "__init__.py"]
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
    ]
    assert offenders == []
