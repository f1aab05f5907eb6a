"""Export lists agree with what the modules define and the package imports."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import deconvbox

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(deconvbox.__path__))


def _package_imports() -> dict[str, list[str]]:
    """Submodule -> names that deconvbox/__init__.py imports from it."""
    tree = ast.parse(inspect.getsource(deconvbox))
    imports: dict[str, list[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports.setdefault(node.module, []).extend(a.name for a in node.names)
    return imports


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"deconvbox.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_package_imports_are_exported(name):
    module = importlib.import_module(f"deconvbox.{name}")
    imported = _package_imports().get(name, [])
    assert [n for n in imported if n not in module.__all__] == []
