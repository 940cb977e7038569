"""Constructive membership in commuting generator sets, in all three views."""

import pytest

from hsplab.core import GroupElement, GroupSpec, enumerate_closure, make_group, make_hiding_oracle
from hsplab.errors import InvariantBroken, NotCommuting
from hsplab.linalg import CosetQuotientView, LabelQuotientView
from hsplab.membership import (
    ExponentTuple,
    MembershipAnswer,
    constructive_membership,
    extract_expression,
)
from hsplab.sim import RngStream, SolverConfig
from hsplab.specfile import parse_cycles

from conftest import affine4_group, d16_group


def _perm(G, text):
    return GroupElement(G.backend.encode(parse_cycles(text, 8)))


def test_member_two_transpositions(s8):
    h1 = _perm(s8, "(1 2)")
    h2 = _perm(s8, "(3 4)")
    g = _perm(s8, "(1 2)(3 4)")
    ans = constructive_membership(s8, [h1, h2], g, SolverConfig(seed=41))
    assert ans.member
    assert ans.exponents.values == (1, 1)
    product = s8.multiply(s8.power(h1, 1), s8.power(h2, 1))
    assert s8.equal(product, g)


def test_identity_is_member(s8):
    h1 = _perm(s8, "(1 2 3)")
    ans = constructive_membership(s8, [h1], s8.identity(), SolverConfig(seed=42))
    assert ans.member
    assert all(v == 0 for v in ans.exponents.values)


def test_not_member(s8):
    h1 = _perm(s8, "(1 2)")
    g = _perm(s8, "(1 3)")
    # (1 2) and (1 3) do not commute; membership requires a commuting instance,
    # so test against the disjoint transposition instead
    g2 = _perm(s8, "(3 4)")
    ans = constructive_membership(s8, [h1], g2, SolverConfig(seed=43))
    assert not ans.member
    with pytest.raises(NotCommuting):
        constructive_membership(s8, [h1], g, SolverConfig(seed=44))


def test_member_soundness_randomized(s8):
    rng = RngStream(77)
    for trial in range(25):
        base = s8.identity()
        for _ in range(16):
            step = rng.choice(s8.generators)
            if rng.random() < 0.5:
                step = s8.invert(step)
            base = s8.multiply(base, step)
        h_list = [base, s8.power(base, 3)]
        g = s8.power(base, 1 + rng.randrange(9))
        ans = constructive_membership(s8, h_list, g, SolverConfig(seed=500 + trial))
        assert ans.member
        acc = s8.identity()
        for h, a in zip(h_list, ans.exponents.values):
            acc = s8.multiply(acc, s8.power(h, a))
        assert s8.equal(acc, g)


def test_completeness_against_enumeration(s8):
    rng = RngStream(88)
    for trial in range(25):
        base = s8.identity()
        for _ in range(16):
            step = rng.choice(s8.generators)
            base = s8.multiply(base, step)
        h_list = [s8.power(base, 2)]
        sub_keys = {s8.key(x) for x in enumerate_closure(s8, h_list)}
        candidate = base if s8.key(base) not in sub_keys else s8.power(base, 2)
        expected = s8.key(candidate) in sub_keys
        ans = constructive_membership(s8, h_list, candidate, SolverConfig(seed=600 + trial))
        assert ans.member == expected


def test_mod_generated_affine_type_b_element():
    """In the affine family modulo N, any translation is the identity coset."""
    G = affine4_group()
    n_gens = [GroupElement(b) for b in G.meta["elem2_normal_gens"]]
    n_elements = enumerate_closure(G, n_gens)
    h = G.generators[0]  # the type-(a) generator
    g = n_gens[0]  # a type-(b) element, so g is in N
    ans = constructive_membership(CosetQuotientView(G, n_elements), [h], g, SolverConfig(seed=45))
    assert ans.member
    assert all(v == 0 for v in ans.exponents.values)


def test_mod_hidden_agrees_with_unique_when_n_trivial():
    """With N trivial the three views are one regime: the group, G modulo a
    hidden N and G modulo a generated N give the same verdicts."""
    G = make_group(GroupSpec(kind="abelian", moduli=(12,)))
    f = make_hiding_oracle(G, [], seed=3)
    coset = CosetQuotientView(G, [G.identity()])
    h = GroupElement(G.backend.encode((2,)))
    g = GroupElement(G.backend.encode((8,)))
    plain = constructive_membership(G, [h], g, SolverConfig(seed=46))
    hidden = constructive_membership(LabelQuotientView(G, f), [h], g, SolverConfig(seed=47))
    generated = constructive_membership(coset, [h], g, SolverConfig(seed=51))
    assert plain.member and hidden.member and generated.member
    assert plain.exponents == hidden.exponents == generated.exponents
    outside = GroupElement(G.backend.encode((3,)))
    assert not constructive_membership(G, [h], outside, SolverConfig(seed=48)).member
    assert not constructive_membership(
        LabelQuotientView(G, f), [h], outside, SolverConfig(seed=49)
    ).member
    assert not constructive_membership(coset, [h], outside, SolverConfig(seed=52)).member


def test_label_quotient_membership_counts_pinned():
    """One fixed-seed call modulo a hidden normal subgroup: the f-queries and
    group operations it issues, certificates of its kernels included; the
    ambient orders are found over Z_840, 840 the exponent hint of S8."""
    G = d16_group()
    r, s = G.generators
    f = make_hiding_oracle(G, [G.power(r, 2)], seed=61)
    g = G.multiply(G.power(r, 5), s)
    queries, ops = f.query_count, G.stats.group_ops
    ans = constructive_membership(LabelQuotientView(G, f), [r, s], g, SolverConfig(seed=62))
    assert ans.exponents == ExponentTuple((1, 1), (2, 2))
    assert (f.query_count - queries, G.stats.group_ops - ops) == (18, 190)


def test_extract_expression_examples():
    got = extract_expression([(1, 1)], (2, 2))
    assert got == ExponentTuple((1,), (2,))
    assert extract_expression([(1, 0)], (2, 2)) is None
    # kernel <(2,3)> in Z4 x Z6: no multiple has last coordinate coprime to 6
    assert extract_expression([(2, 3)], (4, 6)) is None


def test_extract_expression_trivial_s():
    got = extract_expression([], (5, 3, 1))
    assert got is not None
    assert got.values == (0, 0)


def test_unverified_member_answer_raises(s8, monkeypatch):
    """A member answer that fails verification is a broken invariant, not an
    answer: the kernel it was read from is certified exact."""
    from hsplab import membership

    h = GroupElement(s8.backend.encode(parse_cycles("(1 2 3 4 5)", 8)))
    g = s8.power(h, 2)

    def wrong_exponents(view, h_list, g, cfg):
        return MembershipAnswer(True, ExponentTuple((1,), (5,)))

    monkeypatch.setattr(membership, "_attempt", wrong_exponents)
    with pytest.raises(InvariantBroken):
        constructive_membership(s8, [h], g, SolverConfig(seed=50))
