"""Every module in src/dpmulti/ and tests/ reads each name it imports.

An import is unused when no Name node of the module reads the bound name.
__init__.py files are exempt (their imports are the package's re-exports),
as are `from __future__` imports and star imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "dpmulti", ROOT / "tests")
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_scan_finds_unused_imports():
    source = "\n".join(["from __future__ import annotations", "import os, os.path as osp", "import numpy.linalg",
                        "from a import b as c, d", "d()"])
    assert unused_imports(source) == ["os", "osp", "numpy", "c"]
    assert unused_imports("import numpy.linalg\nnumpy.linalg.norm\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == [], f"{path.name} imports names it never reads"
