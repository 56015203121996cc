"""The package namespace: every exported name resolves, once."""

from __future__ import annotations

import ast
import doctest
import importlib
import pkgutil
import sys
from pathlib import Path

import njkit


def test_every_exported_name_resolves_and_appears_once():
    names = njkit.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(njkit, name)]
    assert not missing
    assert "fn_bracket_decomposable" not in names
    assert "commutator_from_action" not in names
    assert "rn_bracket_forms" not in names
    # Second routes that live in tests/oracles.py, and the L-infinity check
    # that is mc_residual with no operator components.
    for gone in (
        "LInftyAlgebra",
        "LInftyReport",
        "linfty_validate",
        "algebroid_torsion_coefficients",
        "njl_generalized_jacobi",
        "njl_linfty",
    ):
        assert gone not in names


def test_runtime_imports_are_stdlib_or_njkit():
    """``dependencies = []`` in pyproject.toml: the package imports nothing
    outside the standard library and itself, at any depth of any module."""
    outside = []
    for path in sorted(Path(njkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "njkit" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert not outside


def test_no_float_literal_or_float_call_in_the_package():
    """Exact arithmetic only: no float literal and no ``float(...)`` call in
    any module of the package."""
    found = []
    for path in sorted(Path(njkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                found.append(f"{path.name}:{node.lineno}: float(...)")
    assert not found


def test_docstring_examples_run():
    """The ``>>>`` examples in the package's docstrings, module by module."""
    failed = attempted = 0
    names = [info.name for info in pkgutil.iter_modules(njkit.__path__)]
    for module in [njkit] + [importlib.import_module(f"njkit.{name}") for name in names]:
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 12
