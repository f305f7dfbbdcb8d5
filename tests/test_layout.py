"""Package layout, read from the sources with ast: every name is imported
from the module that defines it, so the package root re-exports only what
the benchmark's tests import from it, no module, in the package or among
the tests, imports a name it never uses, the package imports nothing
outside the standard library and not dataclasses, and only the classes
that hold outside input (and CoverSolution) define __init__, and no
package function calls itself, and every module parses as Python 3.10.
Which modules each command loads is checked in a fresh interpreter."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxram
import maxram.cli
from cert_fixtures import canonical_certificates
from maxram.io import write_json

PACKAGE = Path(maxram.cli.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH_NAMES = {
    "CoverInstance": "maxram.cover",
    "greedy_cover": "maxram.cover",
    "validate_certificate": "maxram.validate",
}
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))
PERFBENCH = TESTS.parent / "perfbench"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=path.name)


def test_package_root_binds_only_the_names_the_benchmark_imports():
    docstring, *statements = parse(PACKAGE / "__init__.py").body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [type(s) for s in statements] == [ast.FunctionDef]
    assert statements[0].name == "__getattr__"


@pytest.mark.parametrize("name", sorted(BENCH_NAMES))
def test_package_root_resolves_each_bench_name_from_its_home(name):
    home = importlib.import_module(BENCH_NAMES[name])
    assert getattr(maxram, name) is getattr(home, name)


@pytest.mark.parametrize("name", ["exact_cover", "DEFAULT_BUDGET", "__all__"])
def test_package_root_refuses_any_other_name(name):
    with pytest.raises(AttributeError, match=name):
        getattr(maxram, name)


def modules_after(script: str) -> set[str]:
    """Every module a fresh interpreter holds after running script."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p
    )}
    script += "\nimport sys\nprint(' '.join(sys.modules))"
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


def loaded_after(script: str) -> set[str]:
    """The maxram modules a fresh interpreter holds after running script."""
    return {m for m in modules_after(script) if m.split(".")[0] == "maxram"}


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import maxram") == {"maxram"}


def test_help_loads_only_the_cli_and_its_errors():
    script = (
        "import contextlib, io\nfrom maxram.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n        main(['--help'])\n"
        "    except SystemExit as exc:\n        assert exc.code == 0\n"
    )
    assert loaded_after(script) == {"maxram", "maxram.cli", "maxram.errors"}


def test_exact_cover_loads_no_module_it_does_not_run(tmp_path):
    """cover --exact, --greedy and cover table do integer work only: they
    load no rational arithmetic, neither fractions nor decimal (unless
    the bare interpreter already loads them), and only the table, which
    writes CSV, leaves io unloaded."""
    runs = {
        "--exact": ("cli", "errors", "bits", "cover", "io"),
        "--greedy": ("cli", "errors", "bits", "cover", "io"),
        "table": ("cli", "errors", "bits", "cover"),
    }
    bare = modules_after("pass")
    for mode, modules in runs.items():
        if mode == "table":
            argv = ["cover", "table", "--max", "3"]
        else:
            argv = ["cover", "--m", "3", "--d", "2", "--n", "3", mode]
        argv += ["-o", str(tmp_path / "cover.out")]
        script = f"from maxram.cli import main\nassert main({argv!r}) == 0\n"
        loaded = modules_after(script)
        assert {m for m in loaded if m.split(".")[0] == "maxram"} == {
            "maxram", *(f"maxram.{m}" for m in modules)
        }, mode
        assert {"fractions", "decimal"}.isdisjoint(loaded - bare), mode


def test_the_counter_module_loads_no_other_package_module():
    """chromatic and cover share bits, so bits imports neither of them,
    nor anything that would load the cover code into chi."""
    assert loaded_after("import maxram.bits") == {"maxram", "maxram.bits"}


def test_chi_loads_no_coloring_cover_anchor_or_validator_module():
    """chi loads the search, its metric and io, whose rational literals
    need no module of their own."""
    script = (
        "import contextlib, io\nfrom maxram.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['chi', '--grid', '2,2']) == 0\n"
    )
    run = ("cli", "errors", "bits", "chromatic", "metric", "io")
    assert loaded_after(script) == {"maxram", *(f"maxram.{m}" for m in run)}


def test_extract_k_loads_no_anchor_module(tmp_path):
    """Only extract --baton builds an anchor sequence."""
    subset = tmp_path / "subset.json"
    subset.write_text('{"k": 1, "n": 1, "elements": [[0], [1]]}')
    argv = ["extract", "--subset", str(subset), "--k", "1",
            "-o", str(tmp_path / "embedding.json")]
    script = f"from maxram.cli import main\nassert main({argv!r}) == 0\n"
    loaded = loaded_after(script)
    assert "maxram.extraction" in loaded
    assert "maxram.anchors" not in loaded


def test_no_command_loads_dataclasses(tmp_path):
    """cover --exact, chi and validate of every certificate kind, all in
    one interpreter, leave dataclasses unloaded unless the bare interpreter
    already loads it (a site hook, say)."""
    runs = [
        ["cover", "--m", "3", "--d", "2", "--n", "3", "--exact",
         "-o", str(tmp_path / "cover.json")],
        ["chi", "--grid", "2,2", "-o", str(tmp_path / "chi.json")],
    ]
    for kind, certificate in canonical_certificates().items():
        path = tmp_path / f"{kind}.json"
        write_json(path, certificate)
        runs.append(["validate", str(path)])
    script = (
        "import contextlib, io\nfrom maxram.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {runs!r}:\n"
        "        assert main(argv) == 0, argv\n"
    )
    assert "dataclasses" not in modules_after(script) - modules_after("pass")


def test_validate_loads_every_module_the_benchmark_traces():
    """The benchmark's tracer reads each LAYERS module from sys.modules
    after a plain pass, and every pass runs validate."""
    script = (
        f"import sys\nsys.path.insert(0, {str(PERFBENCH)!r})\n"
        "from spans import LAYERS\nimport maxram.validate\n"
        "traced = {module for module, *_ in LAYERS}\n"
        "assert traced and traced <= sys.modules.keys(), traced\n"
    )
    assert "maxram.validate" in loaded_after(script)


def test_package_imports_only_the_standard_library():
    """pyproject declares no dependencies: every module a package file
    imports is the package's own or in the standard library."""
    allowed = sys.stdlib_module_names | {"maxram"}
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert outside == []


def test_no_package_module_imports_dataclasses():
    importers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert importers == []


def test_only_the_records_of_outside_input_and_cover_solution_have_init():
    """Records that only the program builds are NamedTuples that check
    nothing; a class with __init__ holds outside input and checks it, or is
    CoverSolution, whose fields callers assign."""
    with_init = {
        node.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "__init__"
            for item in node.body
        )
    }
    assert with_init == {
        "PointSet", "Baton", "CopyEmbedding", "GridSubset", "CoverInstance",
        "CoverSolution",
    }


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


def public_names(tree: ast.Module) -> list[str]:
    """The public names a module binds at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_is_used_in_the_package():
    """A public name that no package code reads serves only the tests, and
    a test oracle belongs in tests/. A read is a load of the name, an
    attribute of that name, or an import of it."""
    trees = {path.name: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in public_names(tree)
        if name not in used
    ]
    assert unused == []


def test_no_package_function_calls_itself():
    """A recursive function fails past Python's recursion limit, so every
    deep search in the package keeps its own stack. A self-call is a call
    of the function's own name, or of self.<name> in a method."""
    recursive = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(parse(path)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                callee = node.func if isinstance(node, ast.Call) else None
                if (
                    isinstance(callee, ast.Name)
                    and callee.id == func.name
                    or isinstance(callee, ast.Attribute)
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "self"
                    and callee.attr == func.name
                ):
                    recursive.append(f"{path.name}:{func.name}")
                    break
    assert recursive == []


def test_every_module_parses_as_python_3_10():
    """The package states requires-python >= 3.10, so no module, in the
    package or among the tests, may use syntax newer than 3.10."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    for path in paths:
        ast.parse(path.read_text(), filename=path.name, feature_version=(3, 10))
