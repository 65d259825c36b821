"""Every name a package module imports is used in that module, or exported.

A deletion that leaves its last caller's import behind is caught here: the
name must appear somewhere else in the module, or in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "matroid_tverberg"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree):
    """(name, line) for each name bound by an import, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source):
    """``name (line N)`` for each imported name neither used nor in ``__all__``."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used_or_exported(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_an_unused_import_is_caught():
    source = (
        "import os\nfrom .errors import ParseError, UnknownColor\n"
        "__all__ = ['UnknownColor']\nos.sep\n"
    )
    assert unused_imports(source) == ["ParseError (line 2)"]
