"""The package namespace: every exported name resolves, once; the export
list is stated; nothing in the package is there only for the tests."""

from __future__ import annotations

import ast
import doctest
import importlib
import pkgutil
import sys
from pathlib import Path

import njkit

SRC = Path(njkit.__file__).parent

# Definitions that nothing in the package calls but that stay, named
# ``module.qualified_name``: public functions whose work the CLI runs
# through private variants, names that perfbench/tracer.py patches, and
# constructors kept for callers to come.
ENTRY_POINTS = (
    "algebroid.algebroid_over_point",
    "algebroid.delta_njld",
    "algebroid.phi_on_sections",
    "algebroid.validate_phi_chain_map",
    "braces.njl_twisted_betti",
    "cohomology.PairCochain",
    "cohomology.delta_njl",
    "cohomology.delta_njo",
    "cohomology.psi",
    "exact.SparseMatrix.from_rows",
    "forms.check_homotopy",
    "forms.d_fn",
    "forms.fn_betti",
    "lie.Endomorphism.from_rows",
    "lie.Endomorphism.power",
)

EXPORTS = [
    "AlgebroidForm",
    "AlgebroidMCReport",
    "BettiReport",
    "CNjLElement",
    "Cochain",
    "ConePair",
    "Endomorphism",
    "FiberForm",
    "GradedField",
    "GradedSpace",
    "LESReport",
    "LieAlgebra",
    "MCReport",
    "MaurerCartanCandidate",
    "NijenhuisLieAlgebra",
    "NijenhuisRepresentation",
    "NjlLInfty",
    "PairCochain",
    "Permutation",
    "Poly",
    "PolyAlgebroid",
    "Rational",
    "Representation",
    "SparseMatrix",
    "SuspendedHom",
    "ValidationReport",
    "VectorValuedForm",
    "adjoint_nijenhuis",
    "algebroid_fn_bracket",
    "algebroid_mc_residual",
    "algebroid_over_point",
    "algebroid_torsion",
    "b_from_field",
    "betti",
    "check_homotopy",
    "chi_sign",
    "d_fn",
    "deformed_bracket",
    "deformed_representation",
    "delta_lie",
    "delta_njl",
    "delta_njld",
    "delta_njo",
    "diagonal_operator",
    "enumerate_shuffles",
    "field_apply",
    "fn_betti",
    "fn_bracket",
    "format_rational",
    "graded_commutator",
    "homological_field_q",
    "koszul_sign",
    "les_verify",
    "mc_candidate",
    "mc_residual",
    "nijenhuis_torsion",
    "nijenhuis_torsion_form",
    "njl_twisted_betti",
    "nu_from_algebra",
    "parse_rational",
    "phi_map",
    "phi_on_sections",
    "poincare_h",
    "psi",
    "rn_bracket",
    "section_bracket",
    "shuffle_brace",
    "tau_from_operator",
    "to_suspended",
    "trivial_algebroid",
    "validate_algebroid",
    "validate_lie",
    "validate_nijenhuis",
    "validate_nijenhuis_representation",
    "validate_phi_chain_map",
    "validate_representation",
]


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
    # Helpers and builders that only tests use, now in tests/oracles.py and
    # tests/structures.py, and the unused DegreeList alias.
    for gone in (
        "LInftyAlgebra",
        "LInftyReport",
        "linfty_validate",
        "algebroid_torsion_coefficients",
        "njl_generalized_jacobi",
        "njl_linfty",
        "ScalarForm",
        "de_rham_d",
        "interior_product",
        "cochain_to_plain",
        "semidirect_nijenhuis",
        "semidirect_product",
        "DegreeList",
    ):
        assert gone not in names


def test_export_list():
    assert sorted(njkit.__all__) == EXPORTS


def _definitions_and_references() -> tuple[list, dict[str, list[tuple[ast.AST, ...]]]]:
    """Every function, method and class of the package as
    ``(module.qualified_name, node)``, and for every name, one tuple of
    enclosing definitions per reference (empty at module level). A
    reference is an ``ast.Name`` id, an ``ast.Attribute`` attribute or an
    ``ImportFrom`` name; the re-exports of ``__init__.py`` are not uses."""
    definitions: list[tuple[str, ast.AST]] = []
    references: dict[str, list[tuple[ast.AST, ...]]] = {}

    def walk(node: ast.AST, module: str, prefix: str, owners: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{prefix}.{child.name}"
                definitions.append((qualified, child))
                walk(child, module, qualified, owners + (child,))
                continue
            if isinstance(child, ast.Name):
                names = [child.id]
            elif isinstance(child, ast.Attribute):
                names = [child.attr]
            elif isinstance(child, ast.ImportFrom):
                names = [alias.name for alias in child.names]
            else:
                names = []
            for name in names:
                references.setdefault(name, []).append(owners)
            walk(child, module, prefix, owners)

    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        walk(ast.parse(path.read_text(encoding="utf-8")), module, module, ())
    return definitions, references


def test_every_definition_has_a_caller_in_the_package():
    """What only tests call lives in ``tests/``: every function, method and
    class of the package is referenced by name somewhere in the package
    outside its own definition, or is a listed entry point. Dunder methods
    and argparse's ``error`` override are called by Python and argparse."""
    definitions, references = _definitions_and_references()
    defined = {qualified for qualified, _ in definitions}
    assert [entry for entry in ENTRY_POINTS if entry not in defined] == []
    unused = []
    for qualified, node in definitions:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if qualified == "cli._Parser.error" or qualified in ENTRY_POINTS:
            continue
        if not any(node not in owners for owners in references.get(name, [])):
            unused.append(qualified)
    assert unused == []


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
