"""The package's export list and the boundaries between its modules."""

import ast
import dataclasses
import importlib
import re
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


def test_only_core_computes_a_triad_residual():
    # core's residuals, all_defects and defects are the only sweeps of a
    # triad residual b_ij + b_jk - b_ik, so a moved defect is bit for bit a
    # fresh one: no other module writes X[a] + X[b] - X[c] over subscripts
    found = []
    for path in sorted(Path(pcreduce.__file__).parent.glob("*.py")):
        if path.stem == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                    and isinstance(node.right, ast.Subscript)
                    and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Add)
                    and isinstance(node.left.left, ast.Subscript)
                    and isinstance(node.left.right, ast.Subscript)):
                found.append(f"{path.name}: line {node.lineno}")
    assert found == []


def test_every_public_method_is_used():
    # a public, undecorated method of a package class that no code of the
    # package names and that overrides no base-class method (as
    # cli.Parser.error does) has no caller but the tests: dead code
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(pcreduce.__file__).parent.glob("*.py"))
             if path.stem != "__main__"}  # importing it runs the CLI
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    unused = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = getattr(importlib.import_module(f"pcreduce.{module}"), cls.name).__mro__[1:]
            unused += [f"{module}.{cls.name}.{node.name}" for node in cls.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not node.name.startswith("_") and not node.decorator_list
                       and node.name not in named
                       and not any(hasattr(base, node.name) for base in bases)]
    assert unused == []


def test_only_real_coerces_numbers_with_float():
    # core.real is the one coercion of an outside number.  float() would
    # also parse text, so besides real only the code that reads text calls
    # it or passes it on: matrixio (matrix and trace files), the option
    # parser and format_value (its own output).  Annotations do not count.
    allowed = {"core.real", "cli.build_parser", "cli.format_value"}
    found = []
    for path in sorted(Path(pcreduce.__file__).parent.glob("*.py")):
        if path.stem == "matrixio":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        annotations = []
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign):
                annotations.append(node.annotation)
            elif isinstance(node, ast.arg):
                annotations.append(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotations.append(node.returns)
        skip = {id(sub) for ann in annotations if ann is not None for sub in ast.walk(ann)}
        for top in tree.body:
            where = f"{path.stem}.{getattr(top, 'name', '')}"
            found += [f"{where}: line {node.lineno}" for node in ast.walk(top)
                      if isinstance(node, ast.Name) and node.id == "float"
                      and id(node) not in skip and where not in allowed]
    assert found == []


def test_only_conclude_makes_a_result():
    # descent.conclude is the one place a run's best iterate is picked:
    # descent.run and matrixio.read_trace_file both call it, and no other
    # code of the package calls DescentResult, by name or as an attribute
    found = []
    for path in sorted(Path(pcreduce.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(top, 'name', '')}"
            found += [f"{where}: line {node.lineno}" for node in ast.walk(top)
                      if isinstance(node, ast.Call) and where != "descent.conclude"
                      and getattr(node.func, "id", getattr(node.func, "attr", None))
                      == "DescentResult"]
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


def test_only_a_validating_class_is_a_dataclass():
    # a dataclass costs its generated methods at every import; a plain
    # record is a NamedTuple, and a dataclass must validate in __post_init__
    found = []
    for path in sorted(Path(pcreduce.__file__).parent.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"pcreduce.{path.stem}")
        found += [f"{path.stem}.{name}" for name, obj in vars(module).items()
                  if isinstance(obj, type) and obj.__module__ == module.__name__
                  and dataclasses.is_dataclass(obj) and not hasattr(obj, "__post_init__")]
    assert found == []


def test_readme_examples_run(capsys):
    # README's python blocks run in order in one namespace (the second uses
    # the first's a), so a renamed or deleted public name fails here
    readme = (Path(pcreduce.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out


def test_every_name_the_benchmark_reaches_exists(monkeypatch):
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
    # and what repro16 reads of run_all's outcomes, here of its first row
    repro = importlib.import_module("pcreduce.repro")
    monkeypatch.setattr(repro, "REFERENCE_RUNS", repro.REFERENCE_RUNS[:1])
    [oc] = repro.run_all()
    assert oc.row.label == "01_mult3_h0.1_l0.001"
    assert oc.result.stop_reason in pcreduce.descent.STOP_REASONS
    assert 0 <= oc.result.best_iter <= oc.result.trace.records[-1].iteration
    assert len(oc.result.best_upper) == 3
