"""The package's export list and the boundaries between its modules."""

import ast
from pathlib import Path

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
