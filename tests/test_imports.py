"""Every name a symtop module imports is read in that module.

No linter runs on this tree, so this test holds its unused-import rule: an
import that the module never reads is left over from an edit elsewhere.
"""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "symtop"

# Imports kept for readers outside the module: bench/tracing.py wraps
# dynamics.ham_vector_field by that name.
_KEPT = {("dynamics", "ham_vector_field")}


def imported_names(source: str) -> set[str]:
    """Names bound by the import statements of source, __future__ excepted."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    return names


def unused_imports(source: str) -> list[str]:
    """Imported names of source that no expression of it reads."""
    read = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    return sorted(imported_names(source) - read)


@pytest.mark.parametrize("module", sorted(p.stem for p in _SRC.glob("*.py") if p.stem != "__init__"))
def test_every_import_is_read(module):
    source = (_SRC / f"{module}.py").read_text()
    assert [name for name in unused_imports(source) if (module, name) not in _KEPT] == []


def test_kept_imports_are_still_imported():
    for module, name in _KEPT:
        assert name in imported_names((_SRC / f"{module}.py").read_text())


def test_unused_import_is_caught():
    source = "from __future__ import annotations\nimport math\nfrom .algebra3 import _dot, cross\n\nx = _dot\n"
    assert unused_imports(source) == ["cross", "math"]
