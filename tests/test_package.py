"""The package's export list and the boundaries between its modules."""

import ast
import importlib
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


def test_every_name_the_benchmark_reaches_exists():
    # perfbench/ drives the package from outside, through the names below: a
    # rename or a deletion fails here rather than in a benchmark run
    bench = Path(pcreduce.__file__).parents[2] / "perfbench"
    reached, constants = set(), {}
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name) and node.value.value.id == "pc"):
                reached.add((node.value.attr, node.attr))
            elif path.stem == "tracer" and isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id in ("LAYERS", "MATRIX_CLASSES"):
                        constants[target.id] = ast.literal_eval(node.value)
    assert ("descent", "run") in reached
    missing = [f"{module}.{name}" for module, name in sorted(reached)
               if not hasattr(importlib.import_module(f"pcreduce.{module}"), name)]
    assert missing == []
    for layer in constants["LAYERS"]:
        importlib.import_module(f"pcreduce.{layer}")
    core = importlib.import_module("pcreduce.core")
    assert [cls for cls in constants["MATRIX_CLASSES"] if not hasattr(core, cls)] == []
    # what the workloads read of a run's result
    res = pcreduce.run(pcreduce.MultiplicativePCMatrix(3, (2.0, 4.0, 3.0)),
                       pcreduce.DescentConfig(p=2.0, h=0.1, max_iter=3))
    assert res.trace.records[-1].iteration <= 3
    assert isinstance(res.trace.clamp_events, tuple)
    assert len(res.best_upper) == 3
