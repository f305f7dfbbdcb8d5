"""Package layout, read from the sources with ast: every name is imported
from the module that defines it, so the package root re-exports only what
the benchmark's tests import from it, and no module, in the package or
among the tests, imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import maxram.cli

PACKAGE = Path(maxram.cli.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH_NAMES = ["CoverInstance", "greedy_cover", "validate_certificate"]
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=path.name)


def test_package_root_binds_only_the_names_the_benchmark_imports():
    docstring, *statements = parse(PACKAGE / "__init__.py").body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert all(isinstance(s, ast.ImportFrom) for s in statements)
    names = [alias.asname or alias.name for s in statements for alias in s.names]
    assert sorted(names) == BENCH_NAMES


@pytest.mark.parametrize(
    "path",
    [pytest.param(PACKAGE / name, id=name) for name in MODULES]
    + [pytest.param(TESTS / name, id=f"tests/{name}") for name in TEST_MODULES],
)
def test_module_imports_no_name_it_never_uses(path):
    tree = parse(path)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
