"""Tests of the package's shape: what it exports and what its modules
import."""

from __future__ import annotations

import ast
from pathlib import Path

import upea

SRC = Path(upea.__file__).resolve().parent


def _module_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _all_of(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _defined(tree: ast.Module) -> set[str]:
    """Names a module's top level defines (not imports)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_every_package_name_is_listed_by_the_module_that_defines_it() -> None:
    trees = _module_trees()
    for name in upea.__all__:
        homes = [mod for mod, tree in trees.items() if name in _defined(tree)]
        assert len(homes) == 1, f"{name} is defined in {homes}"
        assert name in _all_of(trees[homes[0]]), f"{homes[0]}.__all__ omits {name}"


def test_the_package_imports_each_name_from_the_module_that_defines_it() -> None:
    # MeasurementPmf was once imported from statevector, which only
    # re-imports it from phase_math
    trees = _module_trees()
    for node in trees["__init__"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                home = trees[node.module]
                assert alias.name in _defined(home), f"{node.module} does not define {alias.name}"


def test_every_public_callable_has_a_contract_row() -> None:
    # tests/test_contract.py feeds each row's arguments their bad values, so
    # a new public name cannot skip the input contract
    from test_contract import CONTRACT

    missing = {name for name in upea.__all__ if callable(getattr(upea, name))} - set(CONTRACT)
    assert not missing, f"no contract row for {sorted(missing)}"


def _used(tree: ast.AST) -> set[str]:
    """Every name the module loads, string annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        notes = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _used(ast.parse(note.value, mode="eval"))
    return used


def test_no_module_imports_a_name_it_neither_uses_nor_exports() -> None:
    # no linter runs on this package, so a deletion that leaves an import
    # behind fails here
    for mod, tree in _module_trees().items():
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        unused = imported - _used(tree) - set(_all_of(tree))
        assert not unused, f"{mod}.py imports {sorted(unused)} and never uses them"
