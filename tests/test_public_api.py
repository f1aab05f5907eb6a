"""Export lists agree with what the modules define and the package imports."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import deconvbox

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(deconvbox.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"


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


def _lru_cached() -> set[str]:
    """module.function for each function in the package that a cache decorates."""
    found = set()
    for path in Path(deconvbox.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                re.fullmatch(r"(functools\.)?(lru_cache|cache)(\(.*\))?", ast.unparse(d))
                for d in node.decorator_list
            ):
                found.add(f"{path.stem}.{node.name}")
    return found


def test_readme_names_exactly_the_lru_caches():
    # The Performance section's cache paragraph lists each cache as
    # `module.function`; adding or deleting a cache must update it.
    section = README.read_text(encoding="utf-8").split("\n## Performance", 1)[1]
    section = section.split("\n## ", 1)[0]
    paragraph = next(p for p in section.split("\n\n") if "`functools.lru_cache`" in p)
    named = set(re.findall(rf"`((?:{'|'.join(SUBMODULES)})\.\w+)`", paragraph))
    assert named == _lru_cached()
