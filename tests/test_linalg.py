"""Exact integer linear algebra: SNF, dual groups, abelian decomposition."""

import random

import pytest
from hypothesis import given, strategies as st

from sympy import factorint

from hsplab.core import GroupElement, GroupSpec, enumerate_closure, make_group, make_hiding_oracle
from hsplab.errors import BoundExceeded, NotAbelian
from hsplab.linalg import (
    AbelianStructure,
    CosetQuotientView,
    LabelQuotientView,
    decompose_abelian,
    dual_subgroup,
    smith_normal_form,
    solve_character_kernel,
    subgroup_elements,
    subgroup_order,
    view_closure,
)


def mat_mul(a, b):
    cols = len(b[0])
    return [
        [sum(x * b[k][j] for k, x in enumerate(row)) for j in range(cols)]
        for row in a
    ]


def det(a) -> int:
    """Fraction-free Bareiss determinant."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def test_snf_fixed_example():
    U, D, V = smith_normal_form([[2, 0], [0, 3]])
    assert D == [[1, 0], [0, 6]]
    assert mat_mul(mat_mul(U, [[2, 0], [0, 3]]), V) == D
    assert abs(det(U)) == 1 and abs(det(V)) == 1


def test_snf_identity_and_zero():
    U, D, V = smith_normal_form([[1, 0], [0, 1]])
    assert D == [[1, 0], [0, 1]]
    U, D, V = smith_normal_form([[0]])
    assert D == [[0]]


def test_snf_postconditions_random():
    rng = random.Random(7)
    for _ in range(1000):
        r = rng.randrange(1, 7)
        c = rng.randrange(1, 7)
        A = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
        U, D, V = smith_normal_form(A)
        assert mat_mul(mat_mul(U, A), V) == D
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        diag = [D[i][i] for i in range(min(r, c))]
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        assert all(d >= 0 for d in diag)


@given(
    st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=1,
            max_size=5,
        )
    )
)
def test_snf_postconditions_property(A):
    U, D, V = smith_normal_form(A)
    assert mat_mul(mat_mul(U, A), V) == D
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    diag = [D[i][i] for i in range(min(len(A), len(A[0])))]
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)


def test_dual_subgroup_examples():
    z4 = AbelianStructure((4,))
    perp = subgroup_elements(z4, dual_subgroup(z4, [(2,)]))
    assert sorted(perp) == [(0,), (2,)]

    full = subgroup_elements(z4, dual_subgroup(z4, []))
    assert len(full) == 4

    z22 = AbelianStructure((2, 2))
    perp = subgroup_elements(z22, dual_subgroup(z22, [(1, 1)]))
    assert sorted(perp) == [(0, 0), (1, 1)]


def test_character_kernel_examples():
    z4 = AbelianStructure((4,))
    assert sorted(subgroup_elements(z4, solve_character_kernel(z4, [(2,)]))) == [(0,), (2,)]
    assert len(subgroup_elements(z4, solve_character_kernel(z4, [(0,)]))) == 4
    z22 = AbelianStructure((2, 2))
    assert subgroup_elements(z22, solve_character_kernel(z22, [(1, 0), (0, 1)])) == [(0, 0)]


def _all_subgroups(structure):
    """All subgroups of a small product of cyclic groups, by pair closures."""
    elements = structure.elements()
    seen = {}
    work = [[]]
    while work:
        gens = work.pop()
        sub = frozenset(subgroup_elements(structure, [list(g) for g in gens]))
        if sub in seen:
            continue
        seen[sub] = list(gens)
        for x in elements:
            if x not in sub:
                work.append(gens + [x])
    return list(seen)


@pytest.mark.parametrize("moduli", [(8,), (2, 2, 2), (4, 6), (3, 9), (2, 4)])
def test_duality_involution_and_order_product(moduli):
    structure = AbelianStructure(moduli)
    for sub in _all_subgroups(structure):
        h_gens = [list(t) for t in sub]
        perp = dual_subgroup(structure, h_gens)
        back = subgroup_elements(
            structure, solve_character_kernel(structure, perp)
        )
        assert frozenset(back) == sub
        perp_size = len(subgroup_elements(structure, perp))
        assert len(sub) * perp_size == structure.order


def test_subgroup_order_matches_enumeration():
    structure = AbelianStructure((4, 6))
    assert subgroup_order(structure, [(2, 3)]) == 2
    assert subgroup_order(structure, [(1, 0), (0, 1)]) == 24
    assert subgroup_order(structure, []) == 1


def test_decompose_z6():
    G = make_group(GroupSpec(kind="abelian", moduli=(6,)))
    dec = decompose_abelian(G, G.generators)
    assert tuple(sorted(dec.structure.moduli)) == (2, 3)


def test_decompose_trivial_and_z2k():
    G = make_group(GroupSpec(kind="abelian", moduli=(6,)))
    dec = decompose_abelian(G, [])
    assert dec.structure.moduli == ()

    Z = make_group(GroupSpec(kind="abelian", moduli=(2, 2, 2, 2)))
    dec = decompose_abelian(Z, Z.generators)
    assert tuple(sorted(dec.structure.moduli)) == (2, 2, 2, 2)


def _abelian(moduli, padded=False):
    """Z_moduli, with the identity and every generator twice when padded."""
    G = make_group(GroupSpec(kind="abelian", moduli=moduli))
    return G, G, [G.identity()] + G.generators * 2 if padded else G.generators


def _es3_mod_centre(label: bool):
    """es(3) modulo its centre, by enumerated cosets or by f-labels, with the
    identity and a repeated generator among the generators."""
    G = make_group(GroupSpec(kind="extraspecial", p=3))
    a, b = G.generators
    if label:
        view = LabelQuotientView(G, make_hiding_oracle(G, [G.commutator(a, b)], seed=3))
    else:
        view = CosetQuotientView(G, enumerate_closure(G, [G.commutator(a, b)]))
    return G, view, [a, G.identity(), b, a]


DECOMPOSITIONS = {
    "z4xz6": lambda: _abelian((4, 6), padded=True),
    "z2^4": lambda: _abelian((2, 2, 2, 2)),
    "z3xz9xz9": lambda: _abelian((3, 9, 9)),
    "es3-cosets": lambda: _es3_mod_centre(label=False),
    "es3-labels": lambda: _es3_mod_centre(label=True),
}


@pytest.mark.parametrize("case", sorted(DECOMPOSITIONS))
def test_decompose_gives_isomorphism(case):
    G, view, gens = DECOMPOSITIONS[case]()
    dec = decompose_abelian(view, gens)
    A = dec.structure
    order = len(view_closure(view, gens))
    assert all(len(factorint(m)) == 1 for m in A.moduli)
    assert A.order == order
    # bijective
    keys = set()
    for t in A.elements():
        x = dec.element_of(t)
        keys.add(view.key(x))
        assert dec.tuple_of(x) == t
    assert len(keys) == order
    # a homomorphism: adding a unit tuple is multiplying by the unit's element
    for t in A.elements():
        for unit in A.units():
            b = dec.element_of(unit)
            assert view.equal(dec.element_of(A.add(t, unit)), view.multiply(dec.element_of(t), b))
    # each generator has a tuple, and it names the generator
    for g in gens:
        assert view.equal(dec.element_of(dec.tuple_of(g)), g)
    # the relation rows hold among the generators, and they generate every
    # relation: their lattice has index |<gens>|
    for row in dec.relations:
        x = G.identity()
        for g, e in zip(gens, row):
            x = view.multiply(x, view.power(g, e))
        assert view.is_identity(x)
    assert abs(det(dec.relations)) == order


@pytest.mark.parametrize("p", [3, 5, 7])
def test_decompose_label_queries_linear_in_the_group(p):
    """Modulo the centre of es(p), over f-labels, the one pass makes exactly
    |<gens>| + k^2 f-queries for k generators: the table reuses the keys of
    the power scan."""
    G = make_group(GroupSpec(kind="extraspecial", p=p))
    a, b = G.generators
    f = make_hiding_oracle(G, [G.commutator(a, b)], seed=p)
    gens = [a, b, G.multiply(a, b), G.identity()]
    before = f.query_count
    dec = decompose_abelian(LabelQuotientView(G, f), gens)
    assert dec.structure.order == p * p
    assert f.query_count - before == p * p + len(gens) ** 2


def test_decompose_bound_is_the_group_order(monkeypatch):
    G = make_group(GroupSpec(kind="abelian", moduli=(4, 6)))
    monkeypatch.setenv("HSPLAB_MAX_ENUM", "23")
    with pytest.raises(BoundExceeded):
        decompose_abelian(G, G.generators)
    monkeypatch.setenv("HSPLAB_MAX_ENUM", "24")
    assert decompose_abelian(G, G.generators).structure.order == 24


def test_decompose_rejects_nonabelian(s8):
    with pytest.raises(NotAbelian):
        decompose_abelian(s8, s8.generators)
