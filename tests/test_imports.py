"""Every name a symtop module imports is read in that module, and every
public name it defines is read by some module, or has a stated reason.

No linter runs on this tree, so this test holds its unused-import rule: an
import that the module never reads is left over from an edit elsewhere.  Its
second rule keeps the public surface exact: a public top-level name that only
tests read is a twin of the code the modules run, or code nothing needs.
"""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "symtop"

# Imports kept for readers outside the module: bench/tracing.py wraps
# dynamics.ham_vector_field by that name.
_KEPT = {("dynamics", "ham_vector_field")}


# Public names that no symtop module reads, each with the reason it stays.
_UNREAD_KEPT = {
    **{("algebra3", name): "paper map: the hat isomorphism R^3 -> so(3) and its inverse" for name in ("hat", "vee")},
    **{("reduction", name): "paper map: the circle, the projections, the right action and a section"
       for name in ("z_rotation", "tilde_tau", "project_full", "right_action", "section")},
    ("reduction", "poisson_map_residual"): "independent reference: the Poisson-map check for arbitrary reduced fields",
    ("dynamics", "free_top_analytic"): "independent reference: the closed-form free top that criterion 7 compares with",
    ("poisson", "ham_vector_field"): "bench/tracing.py wraps it",
    ("phase", "random_state"): "library API in the README",
    ("poisson", "coordinate"): "library API in the README",
}

# The names symtop/__init__.py re-exports, sorted.
_EXPORTS = [
    "BodyParams", "CotSO3State", "DipolePotential", "FullState", "LinearGravity", "OrbitLevel", "Potential",
    "ReducedState", "SE3Element", "ScalarField", "Se3DualPoint", "SpaceId", "SumPotential", "Trajectory",
    "ZeroPotential", "bracket", "casimirs", "coadjoint", "commutation_residual", "coordinate", "exp_so3",
    "flatten", "free_top_analytic", "ham_vector_field", "hamiltonian_field", "hat", "magnetic_form",
    "poisson_map_residual", "project_full", "random_state", "reorthonormalize", "right_action",
    "same_orbit_witness", "section", "simulate", "step", "structure_matrix", "tau", "tilde_tau", "unflatten",
    "vee", "z_rotation",
]


def _module_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(_SRC.glob("*.py")) if p.stem != "__init__"}


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


def bound_names(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement defines: a def or class, or the targets
    of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}


def unread_public_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each public top-level name of the modules in
    sources that no other statement of any of them reads.

    sources maps a module name to its source.  A read is a load of the name
    in its own module outside the statement that defines it, a load of it in
    a module that imports it by name, or module.name in a module that does
    `from . import module`.  An import alone reads nothing.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    public = {(module, name) for module, tree in trees.items() for stmt in tree.body
              for name in bound_names(stmt) if not name.startswith("_")}
    read = set()
    for module, tree in trees.items():
        modules, names = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = (node.module, alias.name)
        for stmt in tree.body:
            own = bound_names(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in names:
                        read.add(names[node.id])
                    elif node.id not in own:
                        read.add((module, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                    read.add((modules[node.value.id], node.attr))
    return sorted(public - read)


@pytest.mark.parametrize("module", sorted(_module_sources()))
def test_every_import_is_read(module):
    source = _module_sources()[module]
    assert [name for name in unused_imports(source) if (module, name) not in _KEPT] == []


def test_kept_imports_are_still_imported():
    for module, name in _KEPT:
        assert name in imported_names((_SRC / f"{module}.py").read_text())


def test_unused_import_is_caught():
    source = "from __future__ import annotations\nimport math\nfrom .algebra3 import _dot, cross\n\nx = _dot\n"
    assert unused_imports(source) == ["cross", "math"]


def test_every_public_name_is_read_or_kept_for_a_reason():
    assert unread_public_names(_module_sources()) == sorted(_UNREAD_KEPT)


def test_unread_public_name_is_caught():
    sources = {
        "a": "import math\n\n\ndef used():\n    return math.pi\n\n\ndef recursive(n):\n    return recursive(n - 1)\n"
             "\n\nLIMIT = 3\n\n\ndef _private():\n    return LIMIT\n\n\ndef only_tests_read():\n    return 1\n",
        "b": "from . import a\nfrom .a import used\n\n_x = used()\n",
        # a bare import, and a.name where `a` is no imported module, read nothing
        "c": "from .a import recursive\n\n\ndef _f():\n    return a.only_tests_read()\n",
    }
    assert unread_public_names(sources) == [("a", "only_tests_read"), ("a", "recursive")]
    sources["b"] += "_y = a.only_tests_read()\n"
    assert unread_public_names(sources) == [("a", "recursive")]


def test_init_re_exports_are_pinned():
    source = (_SRC / "__init__.py").read_text()
    assert sorted(imported_names(source)) == _EXPORTS
