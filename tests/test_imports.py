"""Every name that a module of the package or of the tests imports is used
in that module, and the command-line front-end imports only public names of
the package.

The source is read as text and walked as a syntax tree, nothing imported; a
name counts as used when it is loaded anywhere in the module, annotations
and the bodies of functions included.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "qcohom"


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


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}",
)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nimport sys\nfrom json import dumps, loads as read\nread(sys.argv)\n"
    assert unused_imports(source) == ["os", "dumps"]


def private_imports(source: str) -> list[str]:
    """The underscore names that ``source`` imports from the package."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "qcohom")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_front_end_imports_public_names_only():
    assert private_imports((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def test_a_private_import_is_found():
    source = (
        "from __future__ import annotations\nfrom os import _exit\n"
        "from .toric import _euler_ring, check_omalous\nfrom qcohom.jobs import _RATIONAL\n"
    )
    assert private_imports(source) == ["_euler_ring", "_RATIONAL"]
