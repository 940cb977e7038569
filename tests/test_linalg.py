"""Exact integer linear algebra: SNF, dual groups, abelian decomposition."""

import random

import pytest
from hypothesis import given, strategies as st

from hsplab.core import GroupElement, GroupSpec, enumerate_closure, make_group
from hsplab.errors import NotAbelian
from hsplab.linalg import (
    AbelianStructure,
    decompose_abelian,
    dual_subgroup,
    smith_normal_form,
    solve_character_kernel,
    subgroup_elements,
    subgroup_order,
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


def test_decompose_gives_isomorphism():
    G = make_group(GroupSpec(kind="abelian", moduli=(4, 6)))
    dec = decompose_abelian(G, G.generators)
    A = dec.structure
    assert A.order == 24
    keys = set()
    for t in A.elements():
        g = dec.element_of(t)
        keys.add(G.key(g))
        assert dec.tuple_of(g) == t
    assert len(keys) == 24
    for s in [(1, 2, 1), (3, 0, 1)]:
        for t in [(2, 2, 0), (1, 1, 1)]:
            lhs = dec.element_of(A.add(s, t))
            rhs = G.multiply(dec.element_of(s), dec.element_of(t))
            assert G.equal(lhs, rhs)


def test_decompose_rejects_nonabelian(s8):
    with pytest.raises(NotAbelian):
        decompose_abelian(s8, s8.generators)
