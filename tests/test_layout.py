"""The library keeps only what runs: every module-level function, class and
constant, and every non-dunder method, defined in ``src/cdlim`` is named
somewhere else in the library or in the benchmark (``perfbench/``). Code
that only tests read belongs in ``tests/reference.py``.

The check reads the AST alone: a name counts as used where it appears as a
loaded name, an attribute or an imported name, never in a docstring or a
comment. ``__init__.py`` re-exports names and defines none, so it neither
defines nor uses anything here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "cdlim").glob("*.py") if p.name != "__init__.py")
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _defined(tree):
    """(name, line) of each module-level function, class and assigned
    name, and of each method whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item.lineno


def _used(tree):
    """Every name the module reads: loaded names, attributes and the
    names its imports bring in."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_library_name_has_a_caller_outside_tests():
    used = set()
    for path in LIBRARY + BENCHMARK:
        used.update(_used(_parse(path)))
    unused = [f"{path.name}:{line} {name}" for path in LIBRARY
              for name, line in _defined(_parse(path)) if name not in used]
    assert not unused, f"only tests read these; move them to tests/reference.py: {unused}"
