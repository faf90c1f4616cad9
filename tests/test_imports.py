"""Every imported name is read somewhere in its module, and every error
class is named outside `errors.py`.

A stdlib-only check (ast), so an unused import or a dead error class fails
the suite without a linter. Package `__init__.py` files re-export by
importing, so they are left out of the import check, and so are
`from __future__` imports and names listed in `__all__`.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "iabsim").glob("*.py"),
                             *(ROOT / "tests").glob("*.py"),
                             *(ROOT / "scripts").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in read]


def test_an_unused_import_is_found():
    assert unused_imports("import os\nimport sys\nprint(sys)\n") \
        == ["line 1: os"]
    assert unused_imports("from __future__ import annotations\n"
                          "from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def names_in(source: str) -> set[str]:
    """Every name a module reads, imports or reaches as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_error_class_is_named_elsewhere():
    package = ROOT / "src" / "iabsim"
    errors = package / "errors.py"
    defined = {node.name for node in ast.parse(errors.read_text()).body
               if isinstance(node, ast.ClassDef)}
    named = set().union(*(names_in(p.read_text())
                          for p in package.glob("*.py") if p != errors))
    assert sorted(defined - named) == []
