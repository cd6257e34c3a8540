"""Every name that a module of the package imports is used in that module.

The source is read as text and walked as a syntax tree, nothing imported; a
name counts as used when it is loaded anywhere in the module, annotations
and the bodies of functions included.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qcohom"


def unused_imports(source: str) -> list[str]:
    """The names bound by an import in ``source`` and never loaded."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nimport sys\nfrom json import dumps, loads as read\nread(sys.argv)\n"
    assert unused_imports(source) == ["os", "dumps"]
