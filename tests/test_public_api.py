"""Export lists agree with what the modules define and the package imports."""

import ast
import importlib
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import deconvbox

# The library modules; __main__ runs the command line when imported and exports nothing.
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(deconvbox.__path__)
                    if m.name != "__main__")
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


def _references(tree: ast.AST) -> Counter:
    """How often each name is read as a name or an attribute in tree (imports excluded)."""
    return Counter(getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(tree))


def test_every_private_helper_is_used_in_the_package():
    # A private top-level function or class that nothing in src/ refers to
    # outside its own definition is dead code, or kept alive only by tests.
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in Path(deconvbox.__file__).parent.glob("*.py")}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        and everywhere[node.name] == _references(node)[node.name]
    ]
    assert unused == []


def test_no_module_reads_the_environment():
    # Every setting comes from a config or an argument; parallelism comes from the
    # caller's CPU mask. A module that reads os.environ or calls os.getenv adds a
    # value that no config names.
    reads = [
        f"{path.stem}:{node.lineno}"
        for path in Path(deconvbox.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Attribute, ast.Name))
        and (getattr(node, "attr", None) or getattr(node, "id", None)) in ("environ", "getenv")
    ]
    assert reads == []
