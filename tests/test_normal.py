"""Hidden normal subgroups via presentations, relators, and normal closure."""

import pytest

from hsplab.core import GroupElement, GroupSpec, enumerate_closure, make_group, make_hiding_oracle
from hsplab.errors import QuotientNotAbelian
from hsplab.linalg import LabelQuotientView
from hsplab.normalsub import (
    abelian_quotient_presentation,
    generator_quotients,
    hidden_normal_subgroup,
    normal_closure,
    relator_values,
)
from hsplab.sim import SolverConfig
from hsplab.specfile import parse_cycles
from hsplab.verify import brute_force_hsp, subgroup_key

from conftest import q8_minus_one


def test_presentation_z2_cubed_quotient():
    G = make_group(GroupSpec(kind="abelian", moduli=(2, 2, 2)))
    n_gen = GroupElement(G.backend.encode((1, 1, 0)))
    f = make_hiding_oracle(G, [n_gen], seed=12)
    p = abelian_quotient_presentation(LabelQuotientView(G, f))
    assert sorted(p.moduli) == [2, 2]
    id_label = f.peek(G.identity())
    for value in relator_values(G, p):
        assert f.peek(value) == id_label


def test_presentation_constant_oracle_is_empty():
    G = make_group(GroupSpec(kind="abelian", moduli=(2, 2)))
    elements = enumerate_closure(G, G.generators)
    f = make_hiding_oracle(G, elements, seed=14)
    p = abelian_quotient_presentation(LabelQuotientView(G, f))
    assert p.moduli == ()


def test_presentation_q8_center_quotient(q8):
    z = q8_minus_one(q8)
    f = make_hiding_oracle(q8, [z], seed=16)
    p = abelian_quotient_presentation(LabelQuotientView(q8, f))
    assert sorted(p.moduli) == [2, 2]


def test_presentation_rejects_nonabelian_quotient(s8):
    f = make_hiding_oracle(s8, [], seed=18)
    with pytest.raises(QuotientNotAbelian):
        abelian_quotient_presentation(LabelQuotientView(s8, f))


def test_relator_values_z4():
    G = make_group(GroupSpec(kind="abelian", moduli=(4,)))
    two = GroupElement(G.backend.encode((2,)))
    f = make_hiding_oracle(G, [two], seed=20)
    p = abelian_quotient_presentation(LabelQuotientView(G, f))
    assert p.moduli == (2,)
    values = relator_values(G, p)
    assert len(values) == 1
    assert G.backend.decode(values[0].bits) in ([0], [2])
    assert f.peek(values[0]) == f.peek(G.identity())


def test_commutator_relator_lands_in_center(q8):
    z = q8_minus_one(q8)
    f = make_hiding_oracle(q8, [z], seed=22)
    p = abelian_quotient_presentation(LabelQuotientView(q8, f))
    values = relator_values(q8, p)
    center_keys = {q8.key(x) for x in enumerate_closure(q8, [z])}
    # [i, j] = -1: every relator value lies in the center
    assert all(q8.key(v) in center_keys for v in values)
    assert any(q8.equal(v, z) for v in values)


def test_generator_quotients_lie_in_n():
    G = make_group(GroupSpec(kind="abelian", moduli=(4,)))
    two = GroupElement(G.backend.encode((2,)))
    f = make_hiding_oracle(G, [two], seed=24)
    p = abelian_quotient_presentation(LabelQuotientView(G, f))
    before = f.query_count
    quotients = generator_quotients(G, p)
    assert f.query_count == before  # the coordinates come from the decomposition
    id_label = f.peek(G.identity())
    assert quotients
    assert all(f.peek(q) == id_label for q in quotients)


def test_hidden_normal_subgroup_makes_no_membership_call(monkeypatch):
    """The generator quotients come from the decomposition's coordinates, not
    from constructive membership, order finding or an Abelian HSP; nothing
    is sampled."""
    from hsplab import membership, normalsub, sim

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(normalsub, "constructive_membership", refuse, raising=False)
    for module in (membership, sim):
        for name in ("find_order", "abelian_hsp"):
            monkeypatch.setattr(module, name, refuse)
    G = make_group(GroupSpec(kind="extraspecial", p=3))
    a, b = G.generators
    f = make_hiding_oracle(G, [G.commutator(a, b), a], seed=32)
    cfg = SolverConfig(seed=33)
    out = hidden_normal_subgroup(G, f, cfg)
    assert cfg.draws == 0
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
