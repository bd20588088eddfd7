"""The package's export list and the boundaries between its modules."""

import ast
import sys
from pathlib import Path

import pytest

import pcreduce


def test_every_export_resolves():
    missing = [name for name in pcreduce.__all__ if not hasattr(pcreduce, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(set(pcreduce.__all__)) == len(pcreduce.__all__)


def test_no_module_imports_private_names_of_another():
    # a private name belongs to its module: a decision another module needs
    # moves behind a public name of the module that owns it
    found = []
    for path in sorted(Path(pcreduce.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_every_public_function_is_used_or_exported():
    # a public function that no code of the package names and that the
    # package does not export has no caller but the tests: dead code
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(pcreduce.__file__).parent.glob("*.py"))}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{module}.{node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")
              and node.name not in named and node.name not in pcreduce.__all__]
    assert unused == []


def test_source_imports_only_the_standard_library():
    # speed comes from the algorithms and the per-call overhead, not from a
    # runtime dependency: the package stays pure Python
    package = Path(pcreduce.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["dependencies"] == []


def test_only_core_enumerates_triads():
    # core.triad_slots is the one triad table and core.triad the one way to
    # name a row of it: no other module enumerates triads with combinations
    found = []
    for path in sorted(Path(pcreduce.__file__).parent.glob("*.py")):
        if path.stem == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module == "itertools"
                    and any(alias.name == "combinations" for alias in node.names)):
                found.append(f"{path.name}: from itertools import combinations")
            elif isinstance(node, ast.Attribute) and node.attr == "combinations":
                found.append(f"{path.name}: .combinations")
    assert found == []


def test_every_cache_is_bounded():
    # a cache keyed by the order, unbounded, keeps every order's tables for
    # the life of the process: each cache names a finite maxsize
    found = []
    for path in sorted(Path(pcreduce.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for dec in getattr(node, "decorator_list", ()):
                text = ast.unparse(dec)
                if text.endswith("cache") or "cache(None" in text or "maxsize=None" in text:
                    found.append(f"{path.name}: {node.name} {text}")
    assert found == []
