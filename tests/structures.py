"""Test-data builders: structures that only the tests construct.

The library reads Lie algebras, Nijenhuis pairs, forms and cochains from
input files; the tests also build them from smaller pieces. Here are the
semidirect product of an algebra with a module and its block operator
``diag(P, P_M)``, the trivial module, a degree-0 cochain from its constant
value, and polynomial vector fields on R^n from their components.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from njkit.cohomology import Cochain
from njkit.forms import VectorValuedForm
from njkit.lie import (
    Endomorphism,
    LieAlgebra,
    NijenhuisLieAlgebra,
    NijenhuisRepresentation,
    Representation,
    Vector,
    vector,
    zero_vector,
)
from njkit.poly import Poly


def block_diagonal(p: Endomorphism, q: Endomorphism) -> Endomorphism:
    """The operator acting as ``p`` on the first block and ``q`` on the second."""
    dim = p.dim + q.dim
    rows = []
    for i in range(p.dim):
        rows.append(tuple(p.rows[i]) + zero_vector(q.dim))
    for i in range(q.dim):
        rows.append(zero_vector(p.dim) + tuple(q.rows[i]))
    return Endomorphism(dim, tuple(rows))


def trivial_representation(algebra: LieAlgebra, dim: int) -> Representation:
    """The ``dim``-dimensional module on which every generator acts by zero."""
    return Representation(algebra, dim, tuple(Endomorphism.zero(dim) for _ in range(algebra.dim)))


def semidirect_product(rep: Representation) -> LieAlgebra:
    """The semidirect product of the algebra with its module:
    ``[(a, x), (b, y)] = ([a, b], a.y - b.x)``.

    Basis order: algebra generators first, then module generators.
    """
    alg = rep.algebra
    dim = alg.dim + rep.dim
    brackets: dict[tuple[int, int], Vector] = {}
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            value = alg.basis_bracket(i, j)
            brackets[(i, j)] = value + zero_vector(rep.dim)
    for i in range(alg.dim):
        for b in range(rep.dim):
            x = tuple(
                Fraction(1) if k == b else Fraction(0) for k in range(rep.dim)
            )
            value = rep.act_basis(i, x)
            brackets[(i, alg.dim + b)] = zero_vector(alg.dim) + value
    return LieAlgebra(dim, brackets)


def semidirect_nijenhuis(
    nja: NijenhuisLieAlgebra, nrep: NijenhuisRepresentation
) -> NijenhuisLieAlgebra:
    """Semidirect product equipped with the block operator ``diag(P, P_M)``."""
    algebra = semidirect_product(nrep.representation)
    operator = block_diagonal(nja.operator, nrep.operator)
    return NijenhuisLieAlgebra(algebra, operator)


def constant_cochain(source_dim: int, value: Sequence) -> Cochain:
    """The degree-0 cochain with the given value."""
    vec = vector(value)
    return Cochain(0, source_dim, len(vec), {(): vec})


def vector_field(n_vars: int, components: Mapping[int, Poly]) -> VectorValuedForm:
    """A degree-0 form from its components (1-based output indices)."""
    return VectorValuedForm(n_vars, 0, {((), a): p for a, p in components.items()})


def basis_field(n_vars: int, a: int) -> VectorValuedForm:
    """The coordinate vector field along ``x_a``."""
    return vector_field(n_vars, {a: Poly.const(n_vars, 1)})
