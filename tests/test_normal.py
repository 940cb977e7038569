"""Hidden normal subgroups: the presentation of G/N over the cover of G's
generators (one Abelian HSP at f's labels), its relators, and normal
closure."""

from itertools import combinations
from math import prod

import pytest

from hsplab.core import GroupElement, GroupSpec, enumerate_closure, make_group, make_hiding_oracle
from hsplab.errors import QuotientNotAbelian
from hsplab.linalg import AbelianStructure, LabelQuotientView, subgroup_order
from hsplab.normalsub import abelian_quotient_presentation, hidden_normal_subgroup, normal_closure
from hsplab.sim import SolverConfig
from hsplab.specfile import parse_cycles
from hsplab.verify import brute_force_hsp, subgroup_key

from conftest import q8_minus_one


def _presentation(G, f, seed):
    return abelian_quotient_presentation(LabelQuotientView(G, f), SolverConfig(seed=seed))


def _quotient_order(p) -> int:
    """|G/N|: the order of the cover over that of the kernel."""
    return prod(p.moduli) // subgroup_order(AbelianStructure(p.moduli), p.kernel)


def _relator_values(G, p) -> list:
    """The presentation's relators evaluated in G (not modulo N): the kernel
    words prod g_i^t_i and the generators' commutators."""
    words = [G.word(G.generators, t) for t in p.kernel]
    return words + [G.commutator(a, b) for a, b in combinations(G.generators, 2)]


def test_presentation_z2_cubed_quotient():
    G = make_group(GroupSpec(kind="abelian", moduli=(2, 2, 2)))
    n_gen = GroupElement(G.backend.encode((1, 1, 0)))
    f = make_hiding_oracle(G, [n_gen], seed=12)
    p = _presentation(G, f, 12)
    assert p.moduli == (2, 2, 2)
    assert _quotient_order(p) == 4
    id_label = f.peek(G.identity())
    for value in _relator_values(G, p):
        assert f.peek(value) == id_label


def test_presentation_constant_oracle_is_empty():
    """N = G: the kernel is the whole cover, so the quotient is trivial."""
    G = make_group(GroupSpec(kind="abelian", moduli=(2, 2)))
    elements = enumerate_closure(G, G.generators)
    f = make_hiding_oracle(G, elements, seed=14)
    p = _presentation(G, f, 14)
    assert p.moduli == (2, 2)
    assert _quotient_order(p) == 1


def test_presentation_q8_center_quotient(q8):
    """Q8/<-1> is Z2 x Z2: the cover Z4 x Z4 of i and j, modulo a kernel of
    index 4 that holds twice every tuple."""
    z = q8_minus_one(q8)
    f = make_hiding_oracle(q8, [z], seed=16)
    p = _presentation(q8, f, 16)
    assert p.moduli == (4, 4)
    assert _quotient_order(p) == 4
    A = AbelianStructure(p.moduli)
    assert subgroup_order(A, p.kernel + [(2, 0), (0, 2)]) == subgroup_order(A, p.kernel)


def test_presentation_rejects_nonabelian_quotient(s8):
    f = make_hiding_oracle(s8, [], seed=18)
    with pytest.raises(QuotientNotAbelian):
        _presentation(s8, f, 18)


def test_relator_values_z4():
    G = make_group(GroupSpec(kind="abelian", moduli=(4,)))
    two = GroupElement(G.backend.encode((2,)))
    f = make_hiding_oracle(G, [two], seed=20)
    p = _presentation(G, f, 20)
    assert p.moduli == (4,)
    assert p.kernel == [(2,)]
    values = _relator_values(G, p)
    assert len(values) == 1
    assert G.backend.decode(values[0].bits) == [2]
    assert f.peek(values[0]) == f.peek(G.identity())


def test_commutator_relator_lands_in_center(q8):
    z = q8_minus_one(q8)
    f = make_hiding_oracle(q8, [z], seed=22)
    values = _relator_values(q8, _presentation(q8, f, 22))
    center_keys = {q8.key(x) for x in enumerate_closure(q8, [z])}
    # [i, j] = i^2 = j^2 = -1: every relator value lies in the center
    assert all(q8.key(v) in center_keys for v in values)
    assert any(q8.equal(v, z) for v in values)


def test_kernel_words_lie_in_n(d16):
    """Each word prod g_i^t_i over the kernel's generators t lies in N."""
    es3 = make_group(GroupSpec(kind="extraspecial", p=3))
    a, b = es3.generators
    cases = [(d16, [d16.power(d16.generators[0], 2)]), (es3, [es3.commutator(a, b), a])]
    for seed, (G, n_gens) in enumerate(cases, 24):
        f = make_hiding_oracle(G, n_gens, seed=seed)
        p = _presentation(G, f, seed)
        assert p.kernel
        id_label = f.peek(G.identity())
        assert all(f.peek(G.word(G.generators, t)) == id_label for t in p.kernel)


def test_hidden_normal_subgroup_makes_no_membership_call(monkeypatch):
    """The kernel words come from one Abelian HSP over the cover of G's
    generators, not from constructive membership: order finding runs once
    per generator and abelian_hsp once."""
    from hsplab import membership, normalsub

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    calls = {"find_order": 0, "abelian_hsp": 0}

    def counted(name):
        real = getattr(normalsub, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(membership, "constructive_membership", refuse)
    monkeypatch.setattr(normalsub, "constructive_membership", refuse, raising=False)
    for name in calls:
        monkeypatch.setattr(normalsub, name, counted(name))
    G = make_group(GroupSpec(kind="extraspecial", p=3))
    a, b = G.generators
    f = make_hiding_oracle(G, [G.commutator(a, b), a], seed=32)
    out = hidden_normal_subgroup(G, f, SolverConfig(seed=33))
    assert calls == {"find_order": len(G.generators), "abelian_hsp": 1}
    elements = enumerate_closure(G, G.generators)
    assert subgroup_key(G, enumerate_closure(G, out.gens)) == subgroup_key(
        G, brute_force_hsp(G, elements, f)
    )


def test_normal_closure_s3():
    G = make_group(
        GroupSpec(
            kind="permutation",
            degree=3,
            perms=[parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3)],
        )
    )
    swap = GroupElement(G.backend.encode(parse_cycles("(1 2)", 3)))
    nc = normal_closure(G, [swap], bound=64)
    assert len(enumerate_closure(G, nc.gens)) == 6


def test_normal_closure_trivial_and_central(q8):
    assert normal_closure(q8, [], bound=64).gens == []
    z = q8_minus_one(q8)
    nc = normal_closure(q8, [z], bound=64)
    assert subgroup_key(q8, enumerate_closure(q8, nc.gens)) == subgroup_key(
        q8, enumerate_closure(q8, [z])
    )


def test_normal_closure_idempotent_and_monotone(d16):
    G = d16
    r2 = G.power(G.generators[0], 2)
    s = G.generators[1]
    once = normal_closure(G, [r2], bound=64)
    twice = normal_closure(G, once.gens, bound=64)
    key_once = subgroup_key(G, enumerate_closure(G, once.gens))
    assert key_once == subgroup_key(G, enumerate_closure(G, twice.gens))
    bigger = normal_closure(G, [r2, s], bound=64)
    assert key_once <= subgroup_key(G, enumerate_closure(G, bigger.gens))


def test_hidden_normal_trivial_cases():
    G = make_group(GroupSpec(kind="abelian", moduli=(2, 2)))
    elements = enumerate_closure(G, G.generators)
    f_inj = make_hiding_oracle(G, [], seed=26)
    out = hidden_normal_subgroup(G, f_inj, SolverConfig(seed=27))
    assert len(enumerate_closure(G, out.gens)) == 1
    f_const = make_hiding_oracle(G, elements, seed=28)
    out = hidden_normal_subgroup(G, f_const, SolverConfig(seed=29))
    assert len(enumerate_closure(G, out.gens)) == 4


def test_hidden_normal_q8_center(q8):
    z = q8_minus_one(q8)
    elements = enumerate_closure(q8, q8.generators)
    for seed in range(10):
        f = make_hiding_oracle(q8, [z], seed=100 + seed)
        out = hidden_normal_subgroup(q8, f, SolverConfig(seed=200 + seed))
        expected = brute_force_hsp(q8, elements, f)
        assert subgroup_key(q8, enumerate_closure(q8, out.gens)) == subgroup_key(
            q8, expected
        )


def test_hidden_normal_outputs_lie_in_n(d16):
    G = d16
    r2 = G.power(G.generators[0], 2)
    f = make_hiding_oracle(G, [r2], seed=30)
    out = hidden_normal_subgroup(G, f, SolverConfig(seed=31))
    id_label = f.peek(G.identity())
    assert all(f.peek(g) == id_label for g in out.gens)
