"""Second routes kept only as oracles for the library's one implementation.

Lie side: the defining formulas evaluated slot by slot. The
Chevalley-Eilenberg differential is the alternating sum over argument slots
with the bracket fed in as a coordinate vector, and the comparison map is
the sum over all ``2^n`` argument subsets that receive ``P``. The library
assembles the same maps from nonzero entries only (``njkit.cohomology``);
the tests compare the two entry for entry.

Geometric side: the algebroid axioms checked on frames, anchor
compatibility on frame pairs and the Jacobi identity with polynomial test
functions (against the one identity ``Q^2 = 0`` that ``validate_algebroid``
checks), the Nijenhuis torsion from its expanded coefficient formula and
from the definition with the bracket derived from the odd field (against
``algebroid_torsion``, assembled from the definition with the section
bracket, which ``algebroid_mc_residual`` also reads), the
Frolicher-Nijenhuis bracket from the wedge / Lie-derivative definition and
from the five-sum on general sections (against the five-sum on frame index
words in ``njkit.algebroid``), the
comparison map summed over every subset of slots that receives ``P``
(against the layered sum of ``phi_map``), the chain-map sweep with
``phi_map`` run on every field (against its extension from one ``phi_map``
per constant slot field in ``validate_phi_chain_map``), the Poincare
homotopy identity checked form by form (against the matrix identity on the
slices of ``njkit.forms``), the graded commutator of shifted-bundle fields
from the closed-form shuffle expansion of its coefficients (against the
composed action on generators), the exterior derivative from its
coordinate formula (against the odd field of the tangent algebroid), and
the Richardson-Nijenhuis bracket of vector-valued forms
from insertions (against the brace bracket of ``njkit.braces`` on constant
forms). The Lie derivative of scalar forms (the Cartan formula, which the
definition of the Frolicher-Nijenhuis bracket uses) and the anchor acting on
base functions live only here.

Brace side: the multi-argument shuffle brace summed straight from its
definition, over ordered disjoint input subsets with a Koszul sign found by
bubbling, against the pruned insertion in ``njkit.braces``; and each column
of the twisted differential expanded through the generic ``NjlLInfty.l``,
one ``l([alpha] * i + [x])`` per ``i``, against ``_twisted_complex``, which
computes the brace terms that read only ``alpha`` once per complex.

Maurer-Cartan side: the bracket family ``sum_{i+j-1=n} b_i{b_j}`` and the
operator family, one nested brace chain per ordered choice of operator
components, expanded brace by brace, against the curvature that
``mc_residual`` reads off the one alpha-expansion of ``NjlLInfty`` (with no
operator components the bracket family is the set of L-infinity
identities); the generalized Jacobi identity of ``NjlLInfty`` summed over
unshuffles; the six-term expansion of the bracket that the structure
element induces on plain-valued maps, against ``NjlLInfty.l`` on
one-component elements (``l_tagged``); and the inverses of the suspension
identifications, which only tests use.

Helpers that only the tests and these routes call, kept here rather than
shipped: scalar forms on R^n (``ScalarForm``), their wedge product, the
exterior derivative as the odd field of the tangent algebroid
(``de_rham_d``) and the insertion of a vector-valued form
(``interior_product``), which the Cartan-formula route needs; the word
``gather``, ``compose`` and ``inverse`` of permutations; ``degree_support``
of a polynomial; the antisymmetrized frame bracket ``structure_vector`` of
an algebroid; the plain side of the suspension dictionary
(``cochain_to_plain``, ``desuspend_output``); and the twisted differential
on one element (``twisted_l1``). Test-data builders live in
``tests/structures.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Callable, Iterator, Mapping, Sequence

import njkit.algebroid
from njkit.algebroid import (
    AlgebroidForm,
    FiberForm,
    GradedField,
    PolyAlgebroid,
    _anchor_image,
    _antisymmetrized,
    _check_operator,
    _check_section,
    algebroid_fn_bracket,
    b_from_field,
    field_apply,
    homological_field_q,
    phi_map,
    section_bracket,
    trivial_algebroid,
)
from njkit.braces import (
    _AlphaBraces,
    CNjLElement,
    MaurerCartanCandidate,
    MCReport,
    NjlLInfty,
    SuspendedHom,
    canonical_tuples,
    shuffle_brace,
    to_suspended,
)
from njkit.cohomology import Cochain, PairCochain, _complexes
from njkit.exact import Permutation, SparseMatrix, _merge_indices, chi_sign, enumerate_shuffles
from njkit.forms import VectorValuedForm, _check_same_base, _diagonal_differential, poincare_h
from njkit.lie import (
    Endomorphism,
    NijenhuisLieAlgebra,
    NijenhuisRepresentation,
    Representation,
    ValidationReport,
    Vector,
    deformed_representation,
    is_zero_vector,
    vec_add,
    vec_scale,
    vector,
    zero_vector,
)
from njkit.poly import Poly, _monomials
from structures import basis_field


# Helpers that only the tests and these routes call (see the header).


class ScalarForm(FiberForm):
    """A differential form on R^n with polynomial coefficients.

    ``entries[(i1, ..., ip)]`` with ``i1 < ... < ip`` (1-based) is the
    coefficient of ``dx^i1 ^ ... ^ dx^ip``; other index words are reached
    through :meth:`coefficient`, which antisymmetrizes. A scalar form of the
    tangent algebroid, so ``base_dim == rank == n_vars``.
    """

    def __init__(
        self, n_vars: int, degree: int, entries: Mapping[tuple[int, ...], Poly] | None = None
    ) -> None:
        super().__init__(n_vars, n_vars, degree, {} if entries is None else entries)

    @property
    def n_vars(self) -> int:
        return self.base_dim

    @classmethod
    def zero(cls, n_vars: int, degree: int) -> "ScalarForm":
        return ScalarForm(n_vars, degree)


def wedge(F: FiberForm, G: FiberForm) -> FiberForm:
    """The wedge product of two scalar forms, of the type of ``F``."""
    if F.base_dim != G.base_dim or F.rank != G.rank:
        raise ValueError("forms live on different algebroids")
    out: dict[tuple[int, ...], Poly] = {}
    for left, p in F.entries.items():
        for right, q in G.entries.items():
            merged = _merge_indices(left, right)
            if merged is None:
                continue
            sign, key = merged
            term = p.mul(q)
            if sign < 0:
                term = term.neg()
            out[key] = out[key].add(term) if key in out else term
    return F._with(out, F.degree + G.degree)


def de_rham_d(beta: ScalarForm) -> ScalarForm:
    """Exterior derivative of a scalar form: the action of the odd field of
    the tangent algebroid; ``d(d(beta)) = 0``."""
    return field_apply(homological_field_q(trivial_algebroid(beta.n_vars)), beta)


def gather(sigma: Permutation, seq: Sequence) -> tuple:
    """Return ``(seq[images[0]-1], ..., seq[images[n-1]-1])``.

    This is the word ``x_{sigma(1)}, ..., x_{sigma(n)}`` built from
    ``seq = (x_1, ..., x_n)``.
    """
    if len(seq) != sigma.size:
        raise ValueError("size mismatch")
    return tuple(seq[i - 1] for i in sigma.images)


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """The composite applying ``tau`` first, then ``sigma``."""
    if tau.size != sigma.size:
        raise ValueError("size mismatch")
    return Permutation(tuple(sigma.images[j - 1] for j in tau.images))


def inverse(sigma: Permutation) -> Permutation:
    """The permutation undoing ``sigma``."""
    inv = [0] * sigma.size
    for i, img in enumerate(sigma.images, start=1):
        inv[img - 1] = i
    return Permutation(tuple(inv))


def interior_product(K: VectorValuedForm, beta: ScalarForm) -> ScalarForm:
    """Insertion of a vector-valued form into a scalar form.

    For ``K`` of form degree ``a`` and ``beta`` of degree ``l >= 1`` the
    result has degree ``a + l - 1`` and value
    ``sum_{Sh(a, l-1)} sgn(sigma) beta(K(X_sigma(1..a)), X_sigma(a+1..))``;
    degree-0 ``beta`` gives zero. For a plain vector field this is the
    classical insertion into the first slot.
    """
    _check_same_base(K, beta)
    a, l = K.form_degree, beta.degree
    n = K.n_vars
    if l == 0:
        return ScalarForm.zero(n, max(a - 1, 0))
    deg = a + l - 1
    shuffles = enumerate_shuffles((a, l - 1))
    grouped = K._by_input()
    out: dict[tuple[int, ...], Poly] = {}
    for T in combinations(range(1, n + 1), deg):
        acc = Poly.zero(n)
        for sigma in shuffles:
            word = gather(sigma, T)
            head, tail = word[:a], word[a:]
            for j, p in grouped.get(head, ()):
                c = beta.coefficient((j,) + tail)
                if c.is_zero():
                    continue
                term = p.mul(c)
                if sigma.sign() < 0:
                    term = term.neg()
                acc = acc.add(term)
        if not acc.is_zero():
            out[T] = acc
    return ScalarForm(n, deg, out)


def degree_support(poly: Poly) -> set[int]:
    """Total degrees of the monomials actually present."""
    return {sum(exps) for exps in poly.terms}


def structure_vector(A: PolyAlgebroid, i: int, j: int) -> tuple[Poly, ...]:
    """Bracket components of frame sections i, j; antisymmetrized."""
    zero = tuple(Poly.zero(A.base_dim) for _ in range(A.rank))
    if i == j:
        return zero
    if i < j:
        return A.structure.get((i, j), zero)
    vec = A.structure.get((j, i))
    if vec is None:
        return zero
    return tuple(p.neg() for p in vec)


def desuspend_output(f: SuspendedHom) -> SuspendedHom:
    """Undo ``SuspendedHom.suspend_output``; only the degree bookkeeping moves."""
    if not f.sv_valued:
        raise ValueError("already plain-valued")
    return SuspendedHom._trusted(f.space, f.arity, f.total_degree - 1, False, f.values)


def cochain_to_plain(g: Cochain) -> SuspendedHom:
    """Identify a cochain with a plain-valued map on suspended arguments
    (the operator-complex side of the dictionary): the values of
    ``to_suspended(g)``, in degree ``-g.degree``."""
    return desuspend_output(to_suspended(g))


def twisted_l1(structure: NjlLInfty, alpha: CNjLElement, x: CNjLElement) -> CNjLElement:
    """The differential twisted at ``alpha`` on one element: the
    alpha-expansion of ``structure`` with tail ``[x]``, one brace table for
    the call. ``_twisted_complex`` keeps one table for all its columns."""
    return structure._alpha_expansion(_AlphaBraces(alpha), [x])


def evaluate_mixed(f: Cochain, args: Sequence) -> Vector:
    """Value of ``f`` on a mix of basis indices (ints) and coordinate vectors."""
    slots: list[list[tuple[int, Fraction]]] = []
    for a in args:
        if isinstance(a, int):
            slots.append([(a, 1)])
        else:
            slots.append([(i, c) for i, c in enumerate(a) if c])
    out = zero_vector(f.target_dim)
    stack: list[tuple[int, tuple[int, ...], Fraction]] = [(0, (), 1)]
    while stack:
        pos, chosen, coeff = stack.pop()
        if pos == len(slots):
            value = f.evaluate(chosen)
            if not is_zero_vector(value):
                out = vec_add(out, vec_scale(coeff, value))
            continue
        for i, c in slots[pos]:
            stack.append((pos + 1, chosen + (i,), coeff * c))
    return out


def delta_lie_slot_sum(rep: Representation, f: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential, one output tuple and slot at a time."""
    alg = rep.algebra
    n = f.degree
    values: dict[tuple[int, ...], Vector] = {}
    for idx in combinations(range(alg.dim), n + 1):
        total = zero_vector(rep.dim)
        for pos in range(n + 1):
            rest = idx[:pos] + idx[pos + 1 :]
            value = f.evaluate(rest)
            if is_zero_vector(value):
                continue
            term = rep.act_basis(idx[pos], value)
            total = vec_add(total, vec_scale((-1) ** pos, term))
        for p in range(n + 1):
            for q in range(p + 1, n + 1):
                rest = tuple(idx[t] for t in range(n + 1) if t != p and t != q)
                bracket_vec = alg.basis_bracket(idx[p], idx[q])
                if is_zero_vector(bracket_vec):
                    continue
                term = evaluate_mixed(f, (bracket_vec,) + rest)
                if not is_zero_vector(term):
                    total = vec_add(total, vec_scale((-1) ** (p + q), term))
        if not is_zero_vector(total):
            values[idx] = total
    return Cochain(n + 1, alg.dim, rep.dim, values)


def delta_njo_slot_sum(
    rep: Representation, deformed: Representation, p_m: Endomorphism, f: Cochain
) -> Cochain:
    """Operator-complex differential by delegation to the deformed module."""
    corrected = delta_lie_slot_sum(rep, f).map_values(p_m).scale(-1)
    return corrected.add(delta_lie_slot_sum(deformed, f))


def psi_subset_sum(
    nja: NijenhuisLieAlgebra, nrep: NijenhuisRepresentation, f: Cochain
) -> Cochain:
    """``sum_k sum_{i_1<...<i_k} (-1)^(n-k) P_M^(n-k) f(..., P(a_i), ...)``."""
    n = f.degree
    if n == 0:
        return f
    p = nja.operator
    p_m = nrep.operator
    pm_powers = [Endomorphism.identity(nrep.representation.dim)]
    for _ in range(n):
        pm_powers.append(pm_powers[-1].compose(p_m))
    p_columns = [
        p.apply(vector([1 if t == i else 0 for t in range(p.dim)])) for i in range(p.dim)
    ]
    values: dict[tuple[int, ...], Vector] = {}
    for idx in combinations(range(nja.algebra.dim), n):
        total = zero_vector(nrep.representation.dim)
        for k in range(n + 1):
            for subset in combinations(range(n), k):
                args = [p_columns[idx[t]] if t in subset else idx[t] for t in range(n)]
                term = evaluate_mixed(f, args)
                if not is_zero_vector(term):
                    term = pm_powers[n - k].apply(term)
                    total = vec_add(total, vec_scale((-1) ** (n - k), term))
        if not is_zero_vector(total):
            values[idx] = total
    return Cochain(n, nja.algebra.dim, nrep.representation.dim, values)


def _basis(degree: int, sdim: int, tdim: int, idx: tuple, t: int) -> Cochain:
    return Cochain(degree, sdim, tdim, {idx: [1 if s == t else 0 for s in range(tdim)]})


def _coords(f: Cochain, pos: dict, tag: tuple = ()) -> dict[int, Fraction]:
    return {
        pos[tag + (idx, t)]: c
        for idx, vec in f.values.items()
        for t, c in enumerate(vec)
        if c
    }


def delta_njl_slot_sum(
    nja: NijenhuisLieAlgebra,
    nrep: NijenhuisRepresentation,
    deformed: Representation,
    pair: PairCochain,
) -> PairCochain:
    """Cone differential ``(f, g) -> (delta_lie f, -psi f - delta_njo g)``."""
    rep = nrep.representation
    njo_out = psi_subset_sum(nja, nrep, pair.lie_part).scale(-1)
    if pair.njo_part is not None:
        njo_out = njo_out.sub(delta_njo_slot_sum(rep, deformed, nrep.operator, pair.njo_part))
    return PairCochain(pair.degree + 1, delta_lie_slot_sum(rep, pair.lie_part), njo_out)


def oracle_matrix(
    nja: NijenhuisLieAlgebra, nrep: NijenhuisRepresentation, which: str, degree: int
) -> SparseMatrix:
    """The differential of ``which`` from ``degree`` to ``degree + 1``,
    assembled column by column from the dense routes above, in the basis
    order of ``njkit.cohomology``."""
    keys = _complexes(nja, nrep)[which].keys
    dom, cod = keys(degree), keys(degree + 1)
    pos = {key: r for r, key in enumerate(cod)}
    rep, p_m = nrep.representation, nrep.operator
    deformed = deformed_representation(rep, nja.operator, p_m)
    sdim, tdim = nja.algebra.dim, rep.dim
    m = SparseMatrix(len(cod), len(dom))
    for col, key in enumerate(dom):
        if which == "njl":
            tag, idx, t = key
            lie = Cochain.zero(degree, sdim, tdim)
            njo = None if degree == 0 else Cochain.zero(degree - 1, sdim, tdim)
            if tag == "lie":
                lie = _basis(degree, sdim, tdim, idx, t)
            else:
                njo = _basis(degree - 1, sdim, tdim, idx, t)
            image = delta_njl_slot_sum(nja, nrep, deformed, PairCochain(degree, lie, njo))
            coords = _coords(image.lie_part, pos, ("lie",))
            coords.update(_coords(image.njo_part, pos, ("njo",)))
        else:
            f = _basis(degree, sdim, tdim, *key)
            if which == "ce":
                coords = _coords(delta_lie_slot_sum(rep, f), pos)
            else:
                coords = _coords(delta_njo_slot_sum(rep, deformed, p_m, f), pos)
        for row, value in coords.items():
            m.set(row, col, value)
    return m


def lie_derivative(K: VectorValuedForm, beta: ScalarForm) -> ScalarForm:
    """Lie derivative of a scalar form along a vector-valued form.

    The graded commutator ``i_K d - (-1)^(k-1) d i_K`` for ``K`` of form
    degree ``k``; for a plain vector field this is the Cartan formula
    ``i_X d + d i_X``.
    """
    _check_same_base(K, beta)
    k = K.form_degree
    first = interior_product(K, de_rham_d(beta))
    if beta.degree == 0:
        # i_K vanishes on functions, so the commutator's second term drops.
        return first
    second = de_rham_d(interior_product(K, beta))
    sign = -1 if (k - 1) % 2 else 1
    return first.sub(second.scale(sign))


def anchor_apply(A: PolyAlgebroid, X: AlgebroidForm, h: Poly) -> Poly:
    """Apply the anchor image of a section to a base function."""
    _check_section(A, X)
    if h.n_vars != A.base_dim:
        raise ValueError("function variable count mismatch")
    acc = Poly.zero(A.base_dim)
    for alpha, v in _anchor_image(A, X).items():
        acc = acc.add(v.mul(h.partial(alpha)))
    return acc


def validate_algebroid_on_frames(A: PolyAlgebroid) -> ValidationReport:
    """The algebroid axioms checked on frames, against the ``Q^2 = 0`` check
    of ``validate_algebroid``.

    Anchor compatibility on every frame pair along every base direction,
    and the Jacobi identity on frame triples ``(i, j, k)`` with ``i < j``
    and a polynomial test function of degree at most 2 in the third slot.
    An anchor record carries the ``x_alpha`` coefficient of
    ``[rho(e_i), rho(e_j)] - rho([e_i, e_j])``. Where the anchor fails, the
    test functions also flag triples whose Jacobiator vanishes on frames.
    """
    m, n = A.base_dim, A.rank
    failures: list[dict] = []
    checked = 0
    basis = [AlgebroidForm.basis_section(m, n, i) for i in range(1, n + 1)]

    for i, j in combinations(range(1, n + 1), 2):
        cvec = structure_vector(A, i, j)
        for alpha in range(1, m + 1):
            lhs = Poly.zero(m)
            for k in range(1, n + 1):
                lhs = lhs.add(cvec[k - 1].mul(A.anchor[k - 1][alpha - 1]))
            rhs = Poly.zero(m)
            for beta in range(1, m + 1):
                rho_i = A.anchor[i - 1][beta - 1]
                rho_j = A.anchor[j - 1][beta - 1]
                rhs = rhs.add(rho_i.mul(A.anchor[j - 1][alpha - 1].partial(beta)))
                rhs = rhs.sub(rho_j.mul(A.anchor[i - 1][alpha - 1].partial(beta)))
            checked += 1
            if lhs != rhs:
                failures.append(
                    {
                        "identity": "anchor",
                        "pair": [i, j],
                        "component": alpha,
                        "coefficient": rhs.sub(lhs).format(),
                    }
                )

    tests = [Poly.const(m, 1)]
    tests += [Poly.variable(m, a) for a in range(1, m + 1)]
    tests += [
        Poly.variable(m, a).mul(Poly.variable(m, b))
        for a in range(1, m + 1)
        for b in range(a, m + 1)
    ]
    for i, j in combinations(range(1, n + 1), 2):
        for k in range(1, n + 1):
            for h in tests:
                scaled = basis[k - 1].poly_scale(h)
                cyc = section_bracket(
                    A, section_bracket(A, basis[i - 1], basis[j - 1]), scaled
                )
                cyc = cyc.add(
                    section_bracket(A, section_bracket(A, basis[j - 1], scaled), basis[i - 1])
                )
                cyc = cyc.add(
                    section_bracket(A, section_bracket(A, scaled, basis[i - 1]), basis[j - 1])
                )
                checked += 1
                if not cyc.is_zero():
                    failures.append(
                        {"identity": "jacobi", "triple": [i, j, k], "test_function": h.format()}
                    )
    return ValidationReport("lie-algebroid axioms on frames", not failures, checked, failures)


def derived_bracket_torsion(A: PolyAlgebroid, P: AlgebroidForm) -> AlgebroidForm:
    """The torsion ``[PX, PY] - P[PX, Y] - P[X, PY] + P^2[X, Y]`` on frame
    pairs with the bracket derived from the odd field,
    ``b_from_field(homological_field_q(A))``, against ``algebroid_torsion``'s
    section bracket. Neither assumes the algebroid is valid."""
    _check_operator(A, P)
    bee = b_from_field(homological_field_q(A))
    m, n = P.base_dim, P.rank
    basis = [AlgebroidForm.basis_section(m, n, i) for i in range(1, n + 1)]
    entries: dict[tuple[tuple[int, ...], int], Poly] = {}
    for i, j in combinations(range(1, n + 1), 2):
        Ei, Ej = basis[i - 1], basis[j - 1]
        Pi, Pj = P.evaluate((Ei,)), P.evaluate((Ej,))
        value = bee((Pi, Pj))
        value = value.sub(P.evaluate((bee((Pi, Ej)),)))
        value = value.sub(P.evaluate((bee((Ei, Pj)),)))
        value = value.add(P.evaluate((P.evaluate((bee((Ei, Ej)),)),)))
        for q, poly in value.components().items():
            entries[((i, j), q)] = poly
    return AlgebroidForm(m, n, 2, entries)


def algebroid_torsion_coefficients(A: PolyAlgebroid, P: AlgebroidForm) -> AlgebroidForm:
    """The torsion from the expanded coefficient formula, against
    ``algebroid_torsion``'s assembly from the definition on frame pairs.

    Eight contractions of the operator matrix with the structure functions
    and the anchor. On the trivial algebroid the four structure terms drop
    and the classical coordinate formula remains.
    """
    _check_operator(A, P)
    m, n = A.base_dim, A.rank

    def p(i: int, j: int) -> Poly:
        return P.coefficient((i,), j)

    entries: dict[tuple[tuple[int, ...], int], Poly] = {}
    for i, j in combinations(range(1, n + 1), 2):
        for k in range(1, n + 1):
            acc = Poly.zero(m)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    acc = acc.add(p(i, a).mul(p(j, b)).mul(structure_vector(A, a, b)[k - 1]))
                    acc = acc.sub(p(b, k).mul(p(i, a)).mul(structure_vector(A, a, j)[b - 1]))
                    acc = acc.add(p(a, k).mul(p(b, a)).mul(structure_vector(A, i, j)[b - 1]))
                    acc = acc.sub(p(a, k).mul(p(j, b)).mul(structure_vector(A, i, b)[a - 1]))
            for a in range(1, n + 1):
                for beta in range(1, m + 1):
                    rho_a = A.anchor[a - 1][beta - 1]
                    if not rho_a.is_zero():
                        acc = acc.add(p(i, a).mul(rho_a).mul(p(j, k).partial(beta)))
                        acc = acc.sub(p(j, a).mul(rho_a).mul(p(i, k).partial(beta)))
                    rho_i = A.anchor[i - 1][beta - 1]
                    if not rho_i.is_zero():
                        acc = acc.sub(p(a, k).mul(rho_i).mul(p(j, a).partial(beta)))
                    rho_j = A.anchor[j - 1][beta - 1]
                    if not rho_j.is_zero():
                        acc = acc.add(p(a, k).mul(rho_j).mul(p(i, a).partial(beta)))
            if not acc.is_zero():
                entries[((i, j), k)] = acc
    return AlgebroidForm(m, n, 2, entries)


def fn_bracket_decomposable(K: VectorValuedForm, L: VectorValuedForm) -> VectorValuedForm:
    """The Frolicher-Nijenhuis bracket from the wedge/Lie-derivative definition.

    Every stored entry is one decomposable summand ``alpha (x) X`` with
    ``X`` a coordinate field, so the ``alpha ^ beta (x) [X, Y]`` term of
    the definition drops and four terms survive per pair of summands.
    """
    if K.n_vars != L.n_vars:
        raise ValueError("operands live over different variable counts")
    n = K.n_vars
    k, l = K.form_degree, L.form_degree
    sk = -1 if k % 2 else 1
    result = VectorValuedForm.zero(n, k + l)
    for (I, a), p in K.entries.items():
        alpha = ScalarForm(n, k, {I: p})
        X = basis_field(n, a)
        for (J, b), q in L.entries.items():
            beta = ScalarForm(n, l, {J: q})
            Y = basis_field(n, b)
            toward_Y = wedge(alpha, lie_derivative(X, beta))
            if l >= 1:
                toward_Y = toward_Y.add(
                    wedge(de_rham_d(alpha), interior_product(X, beta)).scale(sk)
                )
            toward_X = wedge(lie_derivative(Y, alpha), beta).neg()
            if k >= 1:
                toward_X = toward_X.add(
                    wedge(interior_product(Y, alpha), de_rham_d(beta)).scale(sk)
                )
            for key, poly in toward_Y.entries.items():
                result = result.add(VectorValuedForm(n, k + l, {(key, b): poly}))
            for key, poly in toward_X.entries.items():
                result = result.add(VectorValuedForm(n, k + l, {(key, a): poly}))
    return result


def fn_bracket_on_sections(
    A: PolyAlgebroid,
    K: AlgebroidForm,
    L: AlgebroidForm,
    sections: Sequence[AlgebroidForm],
) -> AlgebroidForm:
    """The Frolicher-Nijenhuis five-sum over the extended section bracket,
    on arbitrary sections.

    Every sum evaluates ``K`` and ``L`` afresh on its shuffled arguments.
    The two sums that plug a bracket of arguments back into ``K`` or ``L``
    vanish on commuting frames, but not on general sections.
    """
    for F in (K, L):
        if F.base_dim != A.base_dim or F.rank != A.rank:
            raise ValueError("form lives on a different algebroid")
    k, l = K.form_degree, L.form_degree
    args = tuple(sections)
    if len(args) != k + l:
        raise ValueError(f"expected {k + l} sections, got {len(args)}")
    for E in args:
        if E.base_dim != A.base_dim or E.rank != A.rank or E.form_degree != 0:
            raise ValueError("expected a section of the given algebroid")
    acc = K._with({}, 0)

    for sigma in enumerate_shuffles((k, l)):
        word = gather(sigma, args)
        term = section_bracket(A, K.evaluate(word[:k]), L.evaluate(word[k:]))
        acc = acc.add(term if sigma.sign() > 0 else term.neg())

    if l >= 1:
        for sigma in enumerate_shuffles((k, 1, l - 1)):
            word = gather(sigma, args)
            plugged = section_bracket(A, K.evaluate(word[:k]), word[k])
            term = L.evaluate((plugged,) + word[k + 1 :])
            acc = acc.sub(term if sigma.sign() > 0 else term.neg())

    if k >= 1:
        outer = -1 if (k * l) % 2 else 1
        for sigma in enumerate_shuffles((l, 1, k - 1)):
            word = gather(sigma, args)
            plugged = section_bracket(A, L.evaluate(word[:l]), word[l])
            term = K.evaluate((plugged,) + word[l + 1 :]).scale(outer)
            acc = acc.add(term if sigma.sign() > 0 else term.neg())

    if k >= 1 and l >= 1:
        outer = 1 if k % 2 else -1
        for sigma in enumerate_shuffles((2, k - 1, l - 1)):
            word = gather(sigma, args)
            inner = K.evaluate((section_bracket(A, word[0], word[1]),) + word[2 : k + 1])
            term = L.evaluate((inner,) + word[k + 1 :]).scale(outer)
            acc = acc.add(term if sigma.sign() > 0 else term.neg())

        outer = -1 if ((k - 1) * l) % 2 else 1
        for sigma in enumerate_shuffles((2, l - 1, k - 1)):
            word = gather(sigma, args)
            inner = L.evaluate((section_bracket(A, word[0], word[1]),) + word[2 : l + 1])
            term = K.evaluate((inner,) + word[l + 1 :]).scale(outer)
            acc = acc.add(term if sigma.sign() > 0 else term.neg())

    return acc


def fn_bracket_on_fields(
    K: VectorValuedForm, L: VectorValuedForm, fields: Sequence[VectorValuedForm]
) -> VectorValuedForm:
    """The five-sum on arbitrary vector fields of R^n: the tangent
    algebroid's case of :func:`fn_bracket_on_sections`."""
    if K.n_vars != L.n_vars:
        raise ValueError("operands live over different variable counts")
    return fn_bracket_on_sections(trivial_algebroid(K.n_vars), K, L, fields)


def _on_frames(A: PolyAlgebroid, degree: int, value_on) -> AlgebroidForm:
    """The degree-``degree`` form whose value on each increasing tuple of
    frame sections is ``value_on`` of that tuple."""
    m, n = A.base_dim, A.rank
    basis = [AlgebroidForm.basis_section(m, n, i) for i in range(1, n + 1)]
    entries = {}
    for T in combinations(range(1, n + 1), degree):
        for q, poly in value_on(tuple(basis[t - 1] for t in T)).components().items():
            entries[(T, q)] = poly
    return AlgebroidForm(m, n, degree, entries)


def fn_bracket_on_frames(A: PolyAlgebroid, K: AlgebroidForm, L: AlgebroidForm) -> AlgebroidForm:
    """The bracket assembled from :func:`fn_bracket_on_sections` on frame sections."""
    return _on_frames(
        A, K.form_degree + L.form_degree, lambda secs: fn_bracket_on_sections(A, K, L, secs)
    )


def phi_subset_sum(
    P: AlgebroidForm,
    bee: Callable[[Sequence[AlgebroidForm]], AlgebroidForm],
    args: Sequence[AlgebroidForm],
) -> AlgebroidForm:
    """``sum_k sum_{|S| = k} (-1)^(b-k) P^(b-k) bee(args with P on S)``: the
    comparison map on ``b`` sections, every outer power applied on its own."""
    b = len(args)
    p_args = [P.evaluate((E,)) for E in args]
    total = AlgebroidForm.zero(P.base_dim, P.rank, 0)
    for k in range(b + 1):
        outer_sign = -1 if (b - k) % 2 else 1
        for subset in combinations(range(b), k):
            plugged = [p_args[t] if t in subset else E for t, E in enumerate(args)]
            value = bee(tuple(plugged))
            for _ in range(b - k):
                value = P.evaluate((value,))
            total = total.add(value.scale(outer_sign))
    return total


def phi_on_frames(A: PolyAlgebroid, P: AlgebroidForm, X: GradedField) -> AlgebroidForm:
    """The comparison map assembled from :func:`phi_subset_sum` on frame
    sections, with the bracket of ``X``."""
    bee = b_from_field(X)
    return _on_frames(A, X.degree + 1, lambda secs: phi_subset_sum(P, bee, secs))


def phi_chain_map_sweep(
    A: PolyAlgebroid,
    P: AlgebroidForm,
    samples: int = 1,
    *,
    seed: int = 0,
    max_poly_degree: int = 1,
) -> ValidationReport:
    """The chain-map sweep of ``validate_phi_chain_map`` with ``phi_map``
    run on every field and on its ``d_Q`` image, against the library's
    extension from one ``phi_map`` per constant slot field. The field
    differential is looked up on the module at call time, so a test that
    replaces it changes both routes."""
    m, n = A.base_dim, A.rank
    q_field = homological_field_q(A)
    rng = random.Random(seed)
    monos = [Poly(m, {e: 1}) for d in range(max_poly_degree + 1) for e in _monomials(m, d)]
    failures: list[dict] = []
    checked = 0

    def check(X: GradedField, label: str) -> None:
        nonlocal checked
        if X.is_zero():
            return
        left = phi_map(A, P, njkit.algebroid._d_q(q_field, X))
        right = algebroid_fn_bracket(A, P, phi_map(A, P, X))
        checked += 1
        if left != right:
            failures.append({"identity": "chain-map", "field": label})

    def drawn() -> Poly:
        poly = Poly.zero(m)
        for mono in monos:
            poly = poly.add(mono.scale(Fraction(rng.randint(-2, 2), rng.randint(1, 2))))
        return poly

    for d in range(0, 4):
        slots = [
            [(I, i) for I in combinations(range(1, n + 1), arity) for i in range(1, bound + 1)]
            for arity, bound in ((d, m), (d + 1, n))
        ]
        for part, (kind, part_slots) in enumerate(zip("ad", slots)):
            for slot in part_slots:
                for mono in monos:
                    parts: list[dict] = [{}, {}]
                    parts[part] = {slot: mono}
                    check(GradedField(m, n, d, *parts), f"{kind}{slot}*{mono.format()}")
        for s in range(samples):
            parts = [{slot: drawn() for slot in part_slots} for part_slots in slots]
            check(GradedField(m, n, d, *parts), f"random(degree={d}, sample={s})")

    return ValidationReport(
        f"phi chain map (seed={seed}, samples={samples})",
        not failures,
        checked,
        failures,
    )


def homotopy_sweep(
    n: int,
    max_poly_degree: int,
    form_degrees: Sequence[int],
    h: Callable[[VectorValuedForm, int], VectorValuedForm] = poincare_h,
) -> ValidationReport:
    """``d_fn h + h d_fn = id`` for the diagonal operator on R^n, one
    monomial basis form at a time: both differentials taken afresh on each
    form, and the report built as ``check_homotopy`` builds it."""
    d = _diagonal_differential(n)
    monos = [e for degree in range(max_poly_degree + 1) for e in _monomials(n, degree)]
    failures: list[dict] = []
    checked = 0
    for j in form_degrees:
        for I in combinations(range(1, n + 1), j):
            for a in range(1, n + 1):
                for exps in monos:
                    K = VectorValuedForm(n, j, {(I, a): Poly(n, {exps: Fraction(1)})})
                    # h is zero on degree 0, so only the other term acts there.
                    left = d(h(K, n)) if j >= 1 else VectorValuedForm.zero(n, 0)
                    checked += 1
                    if left.add(h(d(K), n)) != K:
                        failures.append(
                            {"form_degree": j, "indices": list(I), "output": a, "exponents": list(exps)}
                        )
    return ValidationReport("poincare-homotopy", not failures, checked, failures)


def _rn_insertion(K: VectorValuedForm, L: VectorValuedForm) -> VectorValuedForm:
    """Plug ``K`` into the first slot of ``L`` and shuffle the rest: the
    insertion of ``K`` into each output component of ``L``."""
    n = L.n_vars
    entries = {}
    for b in range(1, n + 1):
        component = ScalarForm(
            n, L.form_degree, {I: p for (I, a), p in L.entries.items() if a == b}
        )
        for T, poly in interior_product(K, component).entries.items():
            entries[(T, b)] = poly
    return VectorValuedForm(n, max(K.form_degree + L.form_degree - 1, 0), entries)


def rn_bracket_forms(K: VectorValuedForm, L: VectorValuedForm) -> VectorValuedForm:
    """Richardson-Nijenhuis bracket of vector-valued forms.

    Characterized by ``i_[K,L] = [i_K, i_L]`` as operators on scalar forms;
    computed here by the two-sum insertion formula. Two vector fields
    bracket to zero (there is no slot to insert into).
    """
    k, l = K.form_degree, L.form_degree
    sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
    return _rn_insertion(K, L).sub(_rn_insertion(L, K).scale(sign))


def commutator_shuffle_expansion(X: GradedField, Y: GradedField) -> GradedField:
    """The graded commutator from the closed-form shuffle expansion of its
    coefficients.

    Four blocks for the base part and four for the fiber part: each field
    differentiates the other's coefficients or plugs its fiber part into
    the other's slots, and the two orders differ by ``-(-1)^(|X||Y|)``.
    """
    if X.base_dim != Y.base_dim or X.rank != Y.rank:
        raise ValueError("graded fields live on different algebroids")
    m, n = X.base_dim, X.rank
    b = X.degree + 1
    c = Y.degree + 1
    swap = -1 if ((b - 1) * (c - 1)) % 2 else 1

    def a_coeff(Z: GradedField, word: tuple[int, ...], alpha: int) -> Poly:
        return _antisymmetrized(Z.a_part, word, alpha, m)

    def d_coeff(Z: GradedField, word: tuple[int, ...], beta: int) -> Poly:
        return _antisymmetrized(Z.d_part, word, beta, m)

    a_part: dict[tuple[tuple[int, ...], int], Poly] = {}
    for T in combinations(range(1, n + 1), b + c - 2):
        for alpha in range(1, m + 1):
            acc = Poly.zero(m)
            for sigma in enumerate_shuffles((b - 1, c - 1)):
                word = gather(sigma, T)
                for theta in range(1, m + 1):
                    f = a_coeff(X, word[: b - 1], theta)
                    phi = a_coeff(Y, word[b - 1 :], alpha)
                    acc = acc.add(f.mul(phi.partial(theta)).scale(sigma.sign()))
            if c >= 2:
                for sigma in enumerate_shuffles((b, c - 2)):
                    word = gather(sigma, T)
                    for beta in range(1, n + 1):
                        g = d_coeff(X, word[:b], beta)
                        phi = a_coeff(Y, (beta,) + word[b:], alpha)
                        acc = acc.add(g.mul(phi).scale(sigma.sign()))
            for sigma in enumerate_shuffles((c - 1, b - 1)):
                word = gather(sigma, T)
                for theta in range(1, m + 1):
                    phi = a_coeff(Y, word[: c - 1], theta)
                    f = a_coeff(X, word[c - 1 :], alpha)
                    acc = acc.add(phi.mul(f.partial(theta)).scale(-swap * sigma.sign()))
            if b >= 2:
                for sigma in enumerate_shuffles((c, b - 2)):
                    word = gather(sigma, T)
                    for beta in range(1, n + 1):
                        psi = d_coeff(Y, word[:c], beta)
                        f = a_coeff(X, (beta,) + word[c:], alpha)
                        acc = acc.add(psi.mul(f).scale(-swap * sigma.sign()))
            a_part[(T, alpha)] = acc

    d_part: dict[tuple[tuple[int, ...], int], Poly] = {}
    for U in combinations(range(1, n + 1), b + c - 1):
        for omega in range(1, n + 1):
            acc = Poly.zero(m)
            for sigma in enumerate_shuffles((b - 1, c)):
                word = gather(sigma, U)
                for alpha in range(1, m + 1):
                    f = a_coeff(X, word[: b - 1], alpha)
                    psi = d_coeff(Y, word[b - 1 :], omega)
                    acc = acc.add(f.mul(psi.partial(alpha)).scale(sigma.sign()))
            for sigma in enumerate_shuffles((b, c - 1)):
                word = gather(sigma, U)
                for beta in range(1, n + 1):
                    g = d_coeff(X, word[:b], beta)
                    psi = d_coeff(Y, (beta,) + word[b:], omega)
                    acc = acc.add(g.mul(psi).scale(sigma.sign()))
            for sigma in enumerate_shuffles((c - 1, b)):
                word = gather(sigma, U)
                for alpha in range(1, m + 1):
                    phi = a_coeff(Y, word[: c - 1], alpha)
                    g = d_coeff(X, word[c - 1 :], omega)
                    acc = acc.add(phi.mul(g.partial(alpha)).scale(-swap * sigma.sign()))
            for sigma in enumerate_shuffles((c, b - 1)):
                word = gather(sigma, U)
                for beta in range(1, n + 1):
                    psi = d_coeff(Y, word[:c], beta)
                    g = d_coeff(X, (beta,) + word[c:], omega)
                    acc = acc.add(psi.mul(g).scale(-swap * sigma.sign()))
            d_part[(U, omega)] = acc

    return GradedField(m, n, X.degree + Y.degree, a_part, d_part)


def de_rham_coordinates(beta: ScalarForm) -> ScalarForm:
    """The exterior derivative from its coordinate formula:
    ``d(p dx^I) = sum_k dp/dx_k dx^k ^ dx^I``."""
    n = beta.n_vars
    out: dict[tuple[int, ...], Poly] = {}
    for key, poly in beta.entries.items():
        for k in range(1, n + 1):
            merged = _merge_indices((k,), key)
            if merged is None:
                continue
            sign, new_key = merged
            term = poly.partial(k).scale(sign)
            out[new_key] = out[new_key].add(term) if new_key in out else term
    return ScalarForm(n, beta.degree + 1, out)


def enumerate_local_shuffles(block_sizes: Sequence[int]) -> list[Permutation]:
    """Shuffles whose images at the block-leading positions also increase:
    the classical index set of the brace, whose terms ``brace_subset_sum``
    reaches through position subsets instead.

    >>> [p.images for p in enumerate_local_shuffles((1, 1))]
    [(1, 2)]
    >>> len(enumerate_local_shuffles((2, 2)))
    3
    """
    sizes = [k for k in block_sizes if k > 0]
    starts = []
    pos = 0
    for k in sizes:
        starts.append(pos)
        pos += k
    out = []
    for p in enumerate_shuffles(sizes):
        leading = [p.images[s] for s in starts]
        if all(leading[i] < leading[i + 1] for i in range(len(leading) - 1)):
            out.append(p)
    return out


def _ordered_disjoint_subsets(
    universe: tuple[int, ...], sizes: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    if not sizes:
        yield ()
        return
    for first in combinations(universe, sizes[0]):
        rest = tuple(p for p in universe if p not in first)
        for tail in _ordered_disjoint_subsets(rest, sizes[1:]):
            yield (first,) + tail


def brace_subset_sum(f: SuspendedHom, gs: Sequence[SuspendedHom]) -> SuspendedHom:
    """``f{g_1, ..., g_n}`` summed from its definition.

    On inputs ``x_1, ..., x_N`` one term per choice of disjoint position
    subsets ``S_1, ..., S_n`` (``|S_t|`` the arity of ``g_t``) with
    increasing minima. The blocks (each ``S_t`` and every leftover position
    on its own) are laid out by their minima; the term carries the Koszul
    sign of that rearrangement, found by bubbling it back, and
    ``(-1)^(|g_t| * d)`` for each ``g_t``, with ``d`` the input degree laid
    out before its block. ``f`` then takes the leftover inputs and the
    values ``g_t(x_{S_t})`` in block order.
    """
    arity = f.arity - len(gs) + sum(g.arity for g in gs)
    values = {}
    for x in canonical_tuples(f.space, arity):
        acc: dict = {}
        for subsets in _ordered_disjoint_subsets(tuple(range(arity)), [g.arity for g in gs]):
            if any(subsets[t][0] > subsets[t + 1][0] for t in range(len(gs) - 1)):
                continue
            used = {p for s in subsets for p in s}
            blocks = [(s, t) for t, s in enumerate(subsets)]
            blocks += [((p,), None) for p in range(arity) if p not in used]
            blocks.sort()
            order = [p for s, _ in blocks for p in s]
            sign = 1
            for end in range(len(order), 1, -1):
                for j in range(end - 1):
                    if order[j] > order[j + 1]:
                        if (x[order[j]][0] * x[order[j + 1]][0]) % 2:
                            sign = -sign
                        order[j], order[j + 1] = order[j + 1], order[j]
            slots = []
            before = 0
            for s, t in blocks:
                if t is None:
                    slots.append(x[s[0]])
                else:
                    if (gs[t].total_degree * before) % 2:
                        sign = -sign
                    slots.append(gs[t].evaluate([x[p] for p in s]))
                before += sum(x[p][0] for p in s)
            for key, v in f.evaluate_mixed(slots).items():
                acc[key] = acc.get(key, Fraction(0)) + sign * v
        acc = {key: v for key, v in acc.items() if v}
        if acc:
            values[x] = acc
    degree = f.total_degree + sum(g.total_degree for g in gs)
    return SuspendedHom(f.space, arity, degree, f.sv_valued, values)


def twisted_column_by_l(
    structure: NjlLInfty, alpha: CNjLElement, n: int, key: tuple
) -> dict[tuple, Fraction]:
    """The column of ``_twisted_complex`` at the degree-``n`` basis key
    ``(tag, args, b)``: the twisted differential of that basis element as
    ``sum_i (-1)^(i(i+1)/2) / i! * l([alpha] * i + [x])``, with every brace
    term computed afresh, keyed ``(tag, args, b)`` in degree ``n + 1``."""
    tag, tup, el = key
    space = structure.space
    value = {tup: {el: Fraction(1)}}
    if tag == "lie":
        x = CNjLElement(lie=[SuspendedHom(space, n, 1 - n, True, value)])
    else:
        x = CNjLElement(njo=[SuspendedHom(space, n - 1, 1 - n, False, value)])
    i_cap = max(h.arity for h in alpha.lie + x.lie) + 1
    total = CNjLElement()
    for i in range(1, i_cap + 1):
        coeff = Fraction((-1) ** ((i * (i + 1) // 2) % 2), factorial(i))
        total = total.add(structure.l([alpha] * i + [x]).scale(coeff))
    lie, njo = total.collect()
    out: dict[tuple, Fraction] = {}
    for part_tag, part in (("lie", lie), ("njo", njo)):
        for h in part.values():
            for args, gv in h.values.items():
                for b, v in gv.items():
                    out[(part_tag, args, b)] = v
    return out


def l_tagged(structure: NjlLInfty, tagged: Sequence[tuple[str, SuspendedHom]]) -> CNjLElement:
    """``structure.l`` on one-component elements: each ``(kind, h)`` is the
    element whose one component is ``h``, on side ``kind``."""
    return structure.l([CNjLElement(**{kind: [h]}) for kind, h in tagged])


def njl_generalized_jacobi(
    structure: NjlLInfty, inputs: Sequence[tuple[str, SuspendedHom]]
) -> CNjLElement:
    """Residual of the generalized Jacobi identity of ``structure`` on the
    given homogeneous inputs, summed over unshuffles through
    :func:`l_tagged`: zero for a genuine homotopy Lie structure."""
    n = len(inputs)
    degrees = [h.total_degree for _, h in inputs]
    out = CNjLElement()
    for i in range(1, n + 1):
        for sigma in enumerate_shuffles((i, n - i)):
            chi = chi_sign(sigma, degrees)
            sign = chi * ((-1) ** ((i * (n - i)) % 2))
            head = [inputs[sigma(t) - 1] for t in range(1, i + 1)]
            tail = [inputs[sigma(t) - 1] for t in range(i + 1, n + 1)]
            first = l_tagged(structure, head)
            if first.is_zero():
                continue
            term = structure.l([first] + [CNjLElement(**{t: [h]}) for t, h in tail])
            out = out.add(term.scale(sign))
    return out


def _ungraded_dim(h: SuspendedHom) -> int:
    dims = dict(h.space.dims)
    if set(dims) != {1}:
        raise ValueError("not a suspension of an ungraded space")
    return dims[1]


def _suspension_to_cochain(h: SuspendedHom, sv_valued: bool) -> Cochain:
    """Inverse of the suspension identifications for the given flavour."""
    dim = _ungraded_dim(h)
    if h.sv_valued != sv_valued:
        raise ValueError(f"expected a {'suspended' if sv_valued else 'plain'}-valued map")
    values = {}
    for args, gv in h.values.items():
        key = tuple(i for _, i in args)
        vec = [Fraction(0)] * dim
        for (_, j), v in gv.items():
            vec[j] = v
        values[key] = tuple(vec)
    return Cochain(h.arity, dim, dim, values)


def from_suspended(sf: SuspendedHom) -> Cochain:
    """Inverse of ``njkit.braces.to_suspended``."""
    return _suspension_to_cochain(sf, True)


def plain_to_cochain(h: SuspendedHom) -> Cochain:
    """Inverse of :func:`cochain_to_plain`."""
    return _suspension_to_cochain(h, False)


def graded_lie_on_plain_side(
    nu: SuspendedHom, f: SuspendedHom, g: SuspendedHom
) -> SuspendedHom:
    """The binary bracket induced on plain-valued elements once the bracket
    element is fixed: six brace terms with arity-driven signs (stated here
    for an ungraded base space). It is ``l_3(nu; f, g)`` of ``NjlLInfty``."""
    if f.sv_valued or g.sv_valued:
        raise ValueError("expects plain-valued elements")
    n, k = f.arity, g.arity
    sf, sg = f.suspend_output(), g.suspend_output()

    def sgn(e: int) -> int:
        return -1 if e % 2 else 1

    terms = [
        desuspend_output(shuffle_brace(nu, [sf, sg])).scale(sgn(n)),
        shuffle_brace(f, [shuffle_brace(nu, [sg])]),
        shuffle_brace(f, [shuffle_brace(sg, [nu])]).scale(sgn(k)),
        desuspend_output(shuffle_brace(nu, [sg, sf])).scale(sgn(n * k + k + 1)),
        shuffle_brace(g, [shuffle_brace(nu, [sf])]).scale(-sgn(n * k)),
        shuffle_brace(g, [shuffle_brace(sf, [nu])]).scale(sgn(n * k + n + 1)),
    ]
    out = terms[0]
    for t in terms[1:]:
        out = out.add(t)
    return out


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if total < 0:
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def bracket_family(b: Mapping[int, SuspendedHom], top: int) -> dict[int, SuspendedHom]:
    """``sum_{i+j-1=n} b_i{b_j}`` for each ``n <= top`` that a pair of
    components reaches, one brace per ordered pair."""
    family = {}
    for n in range(1, top + 1):
        acc = None
        for j in range(1, n + 1):
            i = n - j + 1
            if i in b and j in b:
                term = shuffle_brace(b[i], [b[j]])
                acc = term if acc is None else acc.add(term)
        if acc is not None:
            family[n] = acc
    return family


def operator_family(
    b: Mapping[int, SuspendedHom], r: Mapping[int, SuspendedHom], top: int
) -> dict[int, SuspendedHom]:
    """For each ``n <= top`` that some term reaches, the sum over ``m`` in
    ``b``, over ordered choices ``r_{a_1}, ..., r_{a_m}`` with
    ``a_1 + ... + a_m = n`` and over ``t = 0..m`` of
    ``(-1)^t sr_1{...sr_t{b_m{sr_{t+1}, ..., sr_m}}}``, with ``sr`` the
    suspended operator components: one nested brace chain per term."""
    family = {}
    for n in range(1, top + 1):
        acc = None
        for parts in range(1, n + 1):
            if parts not in b:
                continue
            for comp in _compositions(n - parts, parts):
                rs = [c + 1 for c in comp]
                if any(a not in r for a in rs):
                    continue
                srs = [r[a].suspend_output() for a in rs]
                for t in range(parts + 1):
                    inner = shuffle_brace(b[parts], srs[t:])
                    for j in range(t - 1, -1, -1):
                        inner = shuffle_brace(srs[j], [inner])
                    term = inner.scale((-1) ** (t % 2))
                    acc = term if acc is None else acc.add(term)
        if acc is not None:
            family[n] = acc
    return family


def _size(h: SuspendedHom | None) -> int:
    return 0 if h is None else sum(len(gv) for gv in h.values.values())


def mc_families(
    cand: MaurerCartanCandidate, n_max: int
) -> tuple[dict[int, SuspendedHom], dict[int, SuspendedHom]]:
    """Both Maurer-Cartan families of the candidate truncated at ``n_max``:
    the bracket family up to ``2*n_max - 1``, the operator family up to
    ``n_max**2``."""
    b = {a: h for a, h in cand.b.items() if a <= n_max}
    r = {a: h for a, h in cand.r.items() if a <= n_max}
    return bracket_family(b, 2 * n_max - 1), operator_family(b, r, n_max * n_max)


def mc_residual_by_hand(cand: MaurerCartanCandidate, n_max: int) -> MCReport:
    """The report of ``mc_residual`` from :func:`mc_families`, for an
    ``n_max`` that keeps every nonzero component."""
    bracket, operator = mc_families(cand, n_max)
    bracket_res = {n: _size(h) for n, h in bracket.items()}
    operator_res = {n: _size(h) for n, h in operator.items()}
    ok = not any(bracket_res.values()) and not any(operator_res.values())
    return MCReport(n_max, bracket_res, operator_res, ok)
