"""End-to-end hidden-subgroup solvers and their helpers."""

import subprocess
import sys
from itertools import combinations, count
from math import gcd
from pathlib import Path

import pytest

import hsplab
from hsplab.core import GroupElement, GroupSpec, enumerate_closure, make_group, make_hiding_oracle
from hsplab import normalsub, solvers
from hsplab.errors import (
    BudgetExceeded,
    NotElementaryAbelian2,
    NotNormal,
    QuotientBoundExceeded,
    UnsupportedInstance,
)
from hsplab.linalg import decompose_abelian
from hsplab.sim import RngStream, SolverConfig
from hsplab.normalsub import hidden_normal_subgroup, normal_query_budget
from hsplab.solvers import (
    LabelRecord,
    abelian_query_budget,
    check_elem2_normal,
    commutator_query_budget,
    coset_intersection_pick,
    elem2_query_budget,
    lifted_hsp,
    solve_abelian,
    solve_elem2_cyclic,
    solve_elem2_small_quotient,
    solve_small_commutator,
)
from hsplab.verify import brute_force_hsp, subgroup_key, subgroups_of

from conftest import SMALL_COMMUTATOR, affine4_group, affine5_group, small_commutator_group


def _check(G, f, result, elements):
    expected = brute_force_hsp(G, elements, f)
    assert subgroup_key(G, enumerate_closure(G, result.gens)) == subgroup_key(G, expected)


def test_commutator_solver_extraspecial_center():
    E = make_group(GroupSpec(kind="extraspecial", p=3))
    elements = enumerate_closure(E, E.generators)
    center = [
        x
        for x in elements
        if all(E.equal(E.multiply(x, g), E.multiply(g, x)) for g in E.generators)
    ]
    assert len(center) == 3
    f = make_hiding_oracle(E, center, seed=51)
    result = solve_small_commutator(E, f, SolverConfig(seed=52))
    _check(E, f, result, elements)
    assert len(enumerate_closure(E, result.gens)) == 3


def test_commutator_solver_whole_group():
    E = make_group(GroupSpec(kind="extraspecial", p=3))
    elements = enumerate_closure(E, E.generators)
    f = make_hiding_oracle(E, elements, seed=53)
    result = solve_small_commutator(E, f, SolverConfig(seed=54))
    assert len(enumerate_closure(E, result.gens)) == 27


def test_commutator_solver_abelian_degenerate():
    """With G' trivial the solver reduces to the Abelian case."""
    G = make_group(GroupSpec(kind="abelian", moduli=(2, 2, 2, 2)))
    elements = enumerate_closure(G, G.generators)
    h = [GroupElement(G.backend.encode((1, 1, 0, 0))), GroupElement(G.backend.encode((0, 0, 1, 1)))]
    f = make_hiding_oracle(G, h, seed=55)
    result = solve_small_commutator(G, f, SolverConfig(seed=56))
    _check(G, f, result, elements)


def test_commutator_budget_asserted_per_run():
    E = make_group(GroupSpec(kind="extraspecial", p=3))
    center = [
        x
        for x in enumerate_closure(E, E.generators)
        if all(E.equal(E.multiply(x, g), E.multiply(g, x)) for g in E.generators)
    ]
    f = make_hiding_oracle(E, center, seed=57)
    result = solve_small_commutator(E, f, SolverConfig(seed=58))
    assert result.f_query_budget is not None
    assert result.stats.f_queries <= result.f_query_budget
    import math

    expected = commutator_query_budget(3, max(1.0, math.log2(E.order_hint)))
    assert result.f_query_budget == expected
    # H = G' = Z(G): HG'/G' is trivial, so the Abelian HSP certifies the
    # trivial kernel, which needs no test, and no coset is scanned; the sieve
    # of G' then asks one generator of G' after f(1), which decides all of
    # G' ~ Z_3 (2 f-queries)
    assert result.stats.f_queries == 2


@pytest.mark.parametrize("variant", ["exponent-p", "exponent-p2"])
def test_commutator_solver_statevector_backend(variant):
    """Under the statevector sampler the rounds write F over all of G/G',
    |G'| * |G/G'| f-queries once per solve since f is asked once per
    element; B1 grows by that, so the solve stays within its budget."""
    E = make_group(GroupSpec(kind="extraspecial", p=3, variant=variant))
    elements = enumerate_closure(E, E.generators)
    f = make_hiding_oracle(E, [E.generators[0]], seed=61)
    cfg = SolverConfig(seed=62, backend="statevector")
    result = solve_small_commutator(E, f, cfg)
    _check(E, f, result, elements)
    rounds = result.stats.rng_draws
    assert rounds > 0
    import math

    ideal = commutator_query_budget(3, max(1.0, math.log2(E.order_hint)))
    assert result.f_query_budget == ideal + 3 * 9
    assert result.stats.f_queries <= result.f_query_budget


@pytest.mark.parametrize(
    "variant,gens", [("exponent-p", ["6:10"]), ("exponent-p2", ["6:4"])]
)
def test_statevector_commutator_draws_unchanged_by_the_record(monkeypatch, variant, gens):
    """The statevector state is built from the full F labels whether or not f
    is asked again, so a seeded solve draws the same characters as when
    every label was asked of f anew.  On exponent-p2, H = <g1> contains G',
    which the pick's p-th power gives, so the pick alone is returned."""
    from hsplab import sim

    draws = []
    real = sim.sample_character
    monkeypatch.setattr(sim, "sample_character", lambda *a: draws.append(real(*a)) or draws[-1])
    E = make_group(GroupSpec(kind="extraspecial", p=3, variant=variant))
    f = make_hiding_oracle(E, [E.generators[0]], seed=61)
    result = solve_small_commutator(E, f, SolverConfig(seed=62, backend="statevector"))
    assert [c[1] for c in draws] == [2, 0, 2, 0, 1, 2, 1, 1, 0, 2, 2]
    assert all(c[0] == 0 for c in draws)
    assert [g.hex for g in result.gens] == gens


@pytest.mark.parametrize(
    "k,solve", [(2, solve_elem2_small_quotient), (3, solve_elem2_cyclic)], ids=["small", "cyclic"]
)
def test_elem2_statevector_solves_within_budget(k, solve):
    """Under the statevector sampler the rounds write f over N and over each
    coset z*N a pick sweeps; f is asked once per element and B2 grows by
    n * (v - 1) for the sweeps, so both elem2 solvers finish within it."""
    G = make_group(GroupSpec(kind="wreath", k=k))
    n_gens = [GroupElement(bits) for bits in G.meta["elem2_normal_gens"]]
    swap = GroupElement(G.backend.encode(0, 0, 1))
    f = make_hiding_oracle(G, [G.multiply(swap, n_gens[0])], seed=81)
    result = solve(G, n_gens, f, SolverConfig(seed=82, backend="statevector"))
    _check(G, f, result, enumerate_closure(G, G.generators))
    assert result.stats.f_queries <= result.f_query_budget


@pytest.mark.parametrize("hidden", [[], [0], [1, 2]], ids=["trivial", "block", "two"])
def test_elem2_cyclic_statevector_on_affine4(hidden):
    """elem2-cyclic on affine k=4 under the statevector sampler: the orders
    are found over Z_30, 30 = 2 * 15 the group's exponent hint, not over
    Z_|GL(5, 2)| = Z_9,999,360, past the statevector cap; every answer is
    the brute-force H, within budget."""
    G = affine4_group()
    assert G.exponent_hint == 30
    n_gens = [GroupElement(bits) for bits in G.meta["elem2_normal_gens"]]
    f = make_hiding_oracle(G, [G.generators[i] for i in hidden], seed=83)
    result = solve_elem2_cyclic(G, n_gens, f, SolverConfig(seed=84, backend="statevector"))
    _check(G, f, result, enumerate_closure(G, G.generators))
    assert result.stats.f_queries <= result.f_query_budget


def _spied(f):
    """The elements f is asked, in order, recorded by wrapping its eval."""
    asked, real = [], f.eval
    f.eval = lambda g: asked.append(g) or real(g)
    return asked


def _normal_subgroup(G, f, cfg):
    return hidden_normal_subgroup(G, f, cfg)


@pytest.mark.parametrize(
    "kind,spec,solve",
    [
        ("abelian", GroupSpec(kind="abelian", moduli=(4, 6)), solve_abelian),
        ("commutator", GroupSpec(kind="extraspecial", p=3), solve_small_commutator),
        ("elem2-small", GroupSpec(kind="wreath", k=2), solve_elem2_small_quotient),
        ("elem2-cyclic", None, solve_elem2_cyclic),
        ("normal", GroupSpec(kind="extraspecial", p=3), _normal_subgroup),
    ],
)
def test_each_solver_asks_each_element_once(kind, spec, solve):
    """A solve keeps the labels f gave it, so no element is asked twice."""
    G = affine4_group() if spec is None else make_group(spec)
    if kind.startswith("elem2"):
        n_gens = [GroupElement(bits) for bits in G.meta["elem2_normal_gens"]]
        solve = lambda G, f, cfg, _solve=solve: _solve(G, n_gens, f, cfg)  # noqa: E731
    hidden = [G.commutator(*G.generators[:2])] if kind == "normal" else [G.generators[0]]
    f = make_hiding_oracle(G, hidden, seed=83)
    asked = _spied(f)
    solve(G, f, SolverConfig(seed=84))
    assert asked and len(asked) == len(set(asked)) == f.query_count


def test_wreath_diagonal_subgroup():
    G = make_group(GroupSpec(kind="wreath", k=3))
    elements = enumerate_closure(G, G.generators)
    assert len(elements) == 128
    b = G.backend
    diag = [GroupElement(b.encode(v, v, 0)) for v in (1, 2, 4)]
    diag.append(GroupElement(b.encode(0, 0, 1)))  # the swap
    n_gens = [GroupElement(bits) for bits in G.meta["elem2_normal_gens"]]
    f = make_hiding_oracle(G, diag, seed=59)
    result = solve_elem2_small_quotient(G, n_gens, f, SolverConfig(seed=60))
    _check(G, f, result, elements)


def test_elem2_small_h_equals_n_and_trivial():
    G = make_group(GroupSpec(kind="wreath", k=2))
    elements = enumerate_closure(G, G.generators)
    n_gens = [GroupElement(bits) for bits in G.meta["elem2_normal_gens"]]
    f = make_hiding_oracle(G, n_gens, seed=61)
    result = solve_elem2_small_quotient(G, n_gens, f, SolverConfig(seed=62))
    _check(G, f, result, elements)
    f_inj = make_hiding_oracle(G, [], seed=63)
    result = solve_elem2_small_quotient(G, n_gens, f_inj, SolverConfig(seed=64))
    assert len(enumerate_closure(G, result.gens)) == 1


def test_elem2_budget_asserted():
    G = make_group(GroupSpec(kind="wreath", k=2))
    n_gens = [GroupElement(bits) for bits in G.meta["elem2_normal_gens"]]
    f = make_hiding_oracle(G, n_gens, seed=65)
    result = solve_elem2_small_quotient(G, n_gens, f, SolverConfig(seed=66))
    assert result.f_query_budget is not None
    assert result.stats.f_queries <= result.f_query_budget


def test_elem2_small_quotient_bound():
    """|G/N| = 8 on the affine k=5 instance: a smaller quotient_bound refuses."""
    G = affine5_group()
    n_gens = [GroupElement(bits) for bits in G.meta["elem2_normal_gens"]]
    f = make_hiding_oracle(G, [], seed=67)
    for bound in (1, 7):
        with pytest.raises(QuotientBoundExceeded):
            solve_elem2_small_quotient(G, n_gens, f, SolverConfig(seed=68), quotient_bound=bound)
    result = solve_elem2_small_quotient(G, n_gens, f, SolverConfig(seed=68), quotient_bound=8)
    assert len(result.coset_reps) == 8


@pytest.mark.parametrize(
    "G", [affine5_group(), make_group(GroupSpec(kind="wreath", k=3))], ids=["affine5", "wreath3"]
)
def test_elem2_small_exact_at_large_epsilon(G):
    """At epsilon = 1/4 with the trivial subgroup hidden, every answer is the
    trivial subgroup: the Abelian HSP certifies each kernel it returns."""
    n_gens = [GroupElement(bits) for bits in G.meta["elem2_normal_gens"]]
    f = make_hiding_oracle(G, [], seed=71)
    for run in range(100):
        result = solve_elem2_small_quotient(G, n_gens, f, SolverConfig(0.25, seed=7_000 + run))
        assert all(G.is_identity(x) for x in result.gens), run


def test_commutator_solver_no_error_at_large_epsilon():
    """At epsilon = 1/4 the commutator solver's memberships never fail."""
    E = make_group(GroupSpec(kind="extraspecial", p=3))
    f = make_hiding_oracle(E, [], seed=72)
    for run in range(200):
        result = solve_small_commutator(E, f, SolverConfig(0.25, seed=8_000 + run))
        assert all(E.is_identity(x) for x in result.gens), run


def test_check_elem2_normal_rejections(s8):
    from hsplab.specfile import parse_cycles

    three_cycle = GroupElement(s8.backend.encode(parse_cycles("(1 2 3)", 8)))
    with pytest.raises(NotElementaryAbelian2):
        check_elem2_normal(s8, [three_cycle])
    swap = GroupElement(s8.backend.encode(parse_cycles("(1 2)", 8)))
    with pytest.raises(NotNormal):
        check_elem2_normal(s8, [swap])


def test_intersect_with_normal_z2_4():
    G = make_group(GroupSpec(kind="abelian", moduli=(2, 2, 2, 2)))
    h = [GroupElement(G.backend.encode((1, 1, 0, 0))), GroupElement(G.backend.encode((0, 0, 1, 1)))]
    f = make_hiding_oracle(G, h, seed=67)
    dec = decompose_abelian(G, G.generators)
    gens = lifted_hsp(dec, f, SolverConfig(seed=68))
    assert subgroup_key(G, enumerate_closure(G, gens)) == subgroup_key(
        G, enumerate_closure(G, h)
    )


def test_coset_intersection_pick_cases():
    G = make_group(GroupSpec(kind="wreath", k=2))
    b = G.backend
    n_gens = [GroupElement(bits) for bits in G.meta["elem2_normal_gens"]]
    dec = decompose_abelian(G, n_gens)
    swap = GroupElement(b.encode(0, 0, 1))
    # H = <swap>: z = swap is in H, so a pick must exist and land in H
    f = make_hiding_oracle(G, [swap], seed=69)
    pick = coset_intersection_pick(G, dec, f, swap, SolverConfig(seed=70))
    assert pick.u is not None
    member = G.multiply(G.invert(pick.u), swap)
    assert f.peek(member) == f.peek(G.identity())
    # H inside N: the swap coset misses H entirely
    f2 = make_hiding_oracle(G, [n_gens[0]], seed=71)
    pick2 = coset_intersection_pick(G, dec, f2, swap, SolverConfig(seed=72))
    assert pick2.u is None


def test_affine4_cyclic_solver_and_v_bound():
    G = affine4_group()
    elements = enumerate_closure(G, G.generators)
    assert len(elements) == 240
    n_gens = [GroupElement(bits) for bits in G.meta["elem2_normal_gens"]]
    # H = <M^3 b> for a translation b
    m_cubed = G.power(G.generators[0], 3)
    h = [G.multiply(m_cubed, n_gens[0])]
    f = make_hiding_oracle(G, h, seed=73)
    result = solve_elem2_cyclic(G, n_gens, f, SolverConfig(seed=74))
    _check(G, f, result, elements)
    # |V| <= 1 + h_3 + h_5 = 3 for |G/N| = 15
    assert result.coset_reps is not None
    assert len(result.coset_reps) <= 3


def test_elem2_cyclic_refuses_noncyclic_quotient():
    """Two wreath k=2 factors give G/N = Z2 x Z2, which the Sylow chain of
    one swap does not cover: with H = <second swap> the solver would miss
    H, so it certifies cyclicity and refuses the instance."""
    G = make_group(GroupSpec(kind="product", parts=[GroupSpec(kind="wreath", k=2)] * 2))
    n_gens = [GroupElement(bits) for bits in G.meta["elem2_normal_gens"]]
    f = make_hiding_oracle(G, [G.generators[-1]], seed=79)
    with pytest.raises(UnsupportedInstance, match="not cyclic"):
        solve_elem2_cyclic(G, n_gens, f, SolverConfig(seed=80))


def test_affine5_small_quotient_solver():
    G = affine5_group()
    elements = enumerate_closure(G, G.generators)
    assert len(elements) == 256
    assert G.meta["block_order"] == 8
    n_gens = [GroupElement(bits) for bits in G.meta["elem2_normal_gens"]]
    h = [G.generators[0]]  # hidden H = <M>, order 8, trivial intersection with N
    f = make_hiding_oracle(G, h, seed=75)
    result = solve_elem2_small_quotient(G, n_gens, f, SolverConfig(seed=76))
    _check(G, f, result, elements)


def test_elem2_cyclic_whole_group():
    G = affine4_group()
    elements = enumerate_closure(G, G.generators)
    n_gens = [GroupElement(bits) for bits in G.meta["elem2_normal_gens"]]
    f = make_hiding_oracle(G, list(G.generators), seed=77)
    result = solve_elem2_cyclic(G, n_gens, f, SolverConfig(seed=78))
    assert len(enumerate_closure(G, result.gens)) == 240


def test_solve_abelian_end_to_end():
    G = make_group(GroupSpec(kind="abelian", moduli=(3, 9)))
    elements = enumerate_closure(G, G.generators)
    for si, sub in enumerate(subgroups_of(G, elements)):
        f = make_hiding_oracle(G, list(sub), seed=80 + si)
        result = solve_abelian(G, f, SolverConfig(seed=90 + si))
        assert subgroup_key(G, enumerate_closure(G, result.gens)) == subgroup_key(G, sub)


def test_budget_formulas_respond_to_inputs():
    # more coset representatives or a bigger N never shrink the elem2 budget
    assert elem2_query_budget(3, 16, 2.0**-10) <= elem2_query_budget(9, 16, 2.0**-10)
    assert elem2_query_budget(3, 16, 2.0**-10) <= elem2_query_budget(3, 64, 2.0**-10)
    # B1 grows with the order bound, and with |G'| at a fixed |G/G'| bound
    assert commutator_query_budget(8, 10) < commutator_query_budget(8, 11)
    assert commutator_query_budget(8, 10) < commutator_query_budget(16, 11)
    # c = 8, L = 10: q = 128 and s = 7, so 8 + 8 * 7 * 8 = 456
    assert commutator_query_budget(8, 10) == 456
    # c = 3, L = 5: q = 32/3 and s = 4, so 3 + 3 * 4 * 4.415, rounded up
    assert commutator_query_budget(3, 5) == 56


@pytest.mark.parametrize(
    "variant,with_g1", [("exponent-p", 3), ("exponent-p2", 2)], ids=["exponent-p", "exponent-p2"]
)
def test_commutator_queries_grow_like_the_commutator_subgroup(variant, with_g1):
    """On es(p), G' ~ Z_p.  With H trivial the solver makes 2 f-queries:
    f(1), and one non-identity element of G' in the sieve, which decides
    all of G'.  With H = <g1> the one kernel generator's coset scan stops
    at its first element, a member of H and the pick.  On exponent-p the
    sieve then asks one element of G' (3 f-queries); on exponent-p2 the
    pick's p-th power generates G', inside H, and the sieve asks nothing
    (2).  Neither grows with |G'| = p or |G/G'| = p^2, and each stays
    within B1."""
    for p in (3, 5, 7, 11, 13):
        G = make_group(GroupSpec(kind="extraspecial", p=p, variant=variant))
        elements = enumerate_closure(G, G.generators)
        for hidden, expected in (([], 2), ([G.generators[0]], with_g1)):
            f = make_hiding_oracle(G, hidden, seed=p)
            result = solve_small_commutator(G, f, SolverConfig(seed=p + 1))
            assert result.stats.f_queries == expected, (p, len(hidden))
            assert expected <= result.f_query_budget
            _check(G, f, result, elements)


def test_commutator_solver_makes_no_normal_closure_of_h(monkeypatch):
    """HG' comes from one Abelian HSP over G/G': the solver builds no
    presentation of G/HG' and runs the normal closure only for G'."""
    from hsplab import normalsub

    calls = []
    for name in ("normal_closure", "abelian_quotient_presentation"):
        real = getattr(normalsub, name)
        monkeypatch.setattr(
            normalsub, name, lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a)
        )
    G = make_group(GroupSpec(kind="extraspecial", p=5))
    f = make_hiding_oracle(G, [G.generators[1]], seed=3)
    result = solve_small_commutator(G, f, SolverConfig(seed=4))
    assert calls == ["normal_closure"]  # the one inside commutator_subgroup
    assert len(enumerate_closure(G, result.gens)) == 5


def test_solve_abelian_reads_h_off_the_hiding_generators():
    """The ideal sampler takes H from the tuples of the generators the hiding
    oracle was built from: no harness peek, and no pairwise closure check."""
    G = make_group(GroupSpec(kind="abelian", moduli=(4, 6)))
    f = make_hiding_oracle(G, [GroupElement(G.backend.encode((2, 3)))], seed=3)
    before = G.stats.group_ops
    result = solve_abelian(G, f, SolverConfig(seed=4))
    assert f.harness_queries == 0
    assert result.stats.group_ops == G.stats.group_ops - before == 27
    assert len(enumerate_closure(G, result.gens)) == 2


def test_provider_falls_back_for_generators_outside_the_group():
    """A hidden generator outside <G.generators> has no tuple, so the ideal
    sampler falls back to its collision search and H on G is still found."""
    G = make_group(GroupSpec(kind="permutation", degree=4, perms=[[1, 0, 2, 3], [0, 1, 3, 2]]))
    outside = GroupElement(G.backend.encode([1, 2, 0, 3]))
    f = make_hiding_oracle(G, [outside, G.generators[0]], seed=5)
    result = solve_abelian(G, f, SolverConfig(seed=6))
    assert f.harness_queries > 0  # the collision search peeked
    _check(G, f, result, enumerate_closure(G, G.generators))


def test_elem2_h_on_n_read_off_the_hiding_generators():
    """Over the decomposition of N, the ideal sampler takes H on N from the
    hiding generators when they all lie in N, and searches for collisions
    when one does not."""
    G = make_group(GroupSpec(kind="wreath", k=2))
    n_gens = [GroupElement(bits) for bits in G.meta["elem2_normal_gens"]]
    dec = decompose_abelian(G, n_gens)
    swap = GroupElement(G.backend.encode(0, 0, 1))
    for hidden, peeks in (([n_gens[0]], False), ([swap], True)):
        f = make_hiding_oracle(G, hidden, seed=7)
        gens = lifted_hsp(dec, f, SolverConfig(seed=8))
        assert (f.harness_queries > 0) == peeks
        assert len(enumerate_closure(G, gens)) == (1 if peeks else 2)


def test_abelian_budget_is_b0():
    """Z4 x Z6 splits into k = 3 cyclic factors of A, |A| = 24:
    B0 = ceil(1 + 3 * (1 + log2 24)) = 18, and the statevector sampler adds
    |A|, every element of A being asked once."""
    G = make_group(GroupSpec(kind="abelian", moduli=(4, 6)))
    h = [GroupElement(G.backend.encode((2, 0)))]
    assert abelian_query_budget(3, 24) == 18
    for backend, budget, used in (("ideal", 18, None), ("statevector", 18 + 24, 24)):
        f = make_hiding_oracle(G, h, seed=9)
        result = solve_abelian(G, f, SolverConfig(seed=10, backend=backend))
        _check(G, f, result, enumerate_closure(G, G.generators))
        assert result.f_query_budget == budget
        assert result.stats.f_queries <= budget
        assert used is None or result.stats.f_queries == used


def test_abelian_budget_overrun_raises(monkeypatch):
    monkeypatch.setattr(solvers, "abelian_query_budget", lambda *args: 0)
    G = make_group(GroupSpec(kind="abelian", moduli=(4, 6)))
    f = make_hiding_oracle(G, [GroupElement(G.backend.encode((2, 0)))], seed=11)
    with pytest.raises(BudgetExceeded):
        solve_abelian(G, f, SolverConfig(seed=12))


def test_normal_budget_counts_the_commute_check_and_certificates():
    """es(3) of exponent p^2 with N = <a^3, b>: the cover of a and b is
    Z9 x Z3 and its kernel <(3, 0), (0, 1)>.  The solver asks f(ab) and
    f(ba) for the commute check, then f(1) and one test per kernel
    generator: 5 f-queries, against B_N = 4 - 2 + 1 + 2 * (1 + log2 27),
    rounded up, 15."""
    G = make_group(GroupSpec(kind="extraspecial", p=3, variant="exponent-p2"))
    a, b = G.generators
    f = make_hiding_oracle(G, [G.power(a, 3), b], seed=13)
    result = hidden_normal_subgroup(G, f, SolverConfig(seed=14))
    _check(G, f, result, enumerate_closure(G, G.generators))
    assert (result.method, result.stats.f_queries, result.f_query_budget) == ("normal", 5, 15)
    assert normal_query_budget(2, 27) == 15
    # the statevector sampler writes f over the cover once more
    result = hidden_normal_subgroup(G, f, SolverConfig(seed=14, backend="statevector"))
    assert result.f_query_budget == 15 + 27


@pytest.mark.parametrize("variant,queries", [("exponent-p", 2), ("exponent-p2", 4)])
def test_normal_queries_do_not_grow_with_p(variant, queries):
    """On es(p) with N = G', whatever p: the commute check asks f twice.
    On exponent p the cover Z_p x Z_p is G/G' and its kernel trivial, so no
    certificate is asked; on exponent p^2 the cover Z_p^2 x Z_p has kernel
    <(p, 0)>, certified by f(1) and f(a^p).  Each stays within B_N."""
    for p in (3, 5, 7, 11, 13):
        G = make_group(GroupSpec(kind="extraspecial", p=p, variant=variant))
        f = make_hiding_oracle(G, [G.commutator(*G.generators)], seed=p)
        result = hidden_normal_subgroup(G, f, SolverConfig(seed=p + 1))
        assert result.stats.f_queries == queries, p
        assert queries <= result.f_query_budget
        _check(G, f, result, enumerate_closure(G, G.generators))


def test_normal_budget_overrun_raises(monkeypatch):
    monkeypatch.setattr(normalsub, "normal_query_budget", lambda *args: 0)
    G = make_group(GroupSpec(kind="extraspecial", p=3))
    f = make_hiding_oracle(G, [G.commutator(*G.generators)], seed=15)
    with pytest.raises(BudgetExceeded):
        hidden_normal_subgroup(G, f, SolverConfig(seed=16))


def _loaded_after_commutator_solve(module: str) -> bool:
    """Whether a fresh interpreter has `module` loaded after one commutator
    solve on es(3) with the ideal sampler."""
    src = str(Path(hsplab.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "from hsplab.core import GroupSpec, make_group, make_hiding_oracle\n"
        "from hsplab.sim import SolverConfig\n"
        "from hsplab.solvers import solve_small_commutator\n"
        "G = make_group(GroupSpec(kind='extraspecial', p=3))\n"
        "solve_small_commutator(G, make_hiding_oracle(G, [], seed=1), SolverConfig(seed=2))\n"
        f"print({module!r} in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    return out.stdout.strip() == "True"


def test_commutator_solve_leaves_numpy_unloaded():
    """Only the statevector sampler needs numpy, so it is imported there."""
    assert not _loaded_after_commutator_solve("numpy")


def test_commutator_solve_leaves_sympy_unloaded():
    """Factoring is trial division in core; a solve imports no sympy."""
    assert not _loaded_after_commutator_solve("sympy")


@pytest.mark.parametrize("name", SMALL_COMMUTATOR)
def test_sieve_finds_h_on_the_commutator_subgroup(name):
    """For every subgroup H, the record's sieve of G' alone (its generators
    with no picks) leaves `inside` equal to H on G' (by brute force over G')
    and every other element of G' outside, and those generators close to
    H on G'; it asks f at most |G'| times, and on es(3), where G' ~ Z_3,
    exactly twice: f(1) and one element deciding all of G'."""
    G = small_commutator_group(name)
    g_prime = normalsub.commutator_subgroup(G, 64).closure_certificate
    for i, sub in enumerate(subgroups_of(G, enumerate_closure(G, G.generators))):
        f = make_hiding_oracle(G, sub, seed=i)
        record = LabelRecord(G, f, g_prime)
        gens = record.generators([])
        members = {x.value for x in brute_force_hsp(G, g_prime, f)}
        assert {x.value for x in enumerate_closure(G, gens)} == members, i
        assert record.inside == members, i
        assert record.outside == {x.value for x in g_prime} - members, i
        assert f.query_count <= len(g_prime)
        if name.startswith("es3"):
            assert f.query_count == 2


def _coset_key(G, g_prime, y):
    return min(G.backend.mul(y.value, c.value) for c in g_prime)


@pytest.mark.parametrize("name", ["es3-p", "d16"])
def test_label_record_inference_rules(name):
    """Each rule of the record on its own, for every subgroup H: two labels
    in one coset x*G' put c = x^-1 (x c) inside when they are equal and c in
    H, and outside with its unit powers when they differ; a member found by
    a certificate puts its first power in G' and its commutator with an
    earlier one inside; and nothing outside H on G' ever gets inside."""
    G = small_commutator_group(name)
    elements = enumerate_closure(G, G.generators)
    g_prime = normalsub.commutator_subgroup(G, 64).closure_certificate
    x = next(g for g in G.generators if g not in g_prime)
    key = _coset_key(G, g_prime, x)
    for i, sub in enumerate(subgroups_of(G, elements)):
        h = {y.value for y in enumerate_closure(G, sub)}
        for c in g_prime[1:]:
            record = LabelRecord(G, make_hiding_oracle(G, sub, seed=i), g_prime)
            record.member(x.value, key)
            record.member(G.multiply(x, c).value, key)
            if c.value in h:
                assert c.value in record.inside
            else:
                order = next(j for j in count(1) if G.is_identity(G.power(c, j)))
                units = {G.power(c, j).value for j in range(1, order) if gcd(j, order) == 1}
                assert units <= record.outside
            assert record.inside <= h
        record = LabelRecord(G, make_hiding_oracle(G, sub, seed=i), g_prime)
        outside_g_prime = [g for g in elements if g not in g_prime]
        picks = [y for y in map(record.first_member, outside_g_prime) if y is not None]
        assert {y.value for y in picks} <= h
        for j, y in enumerate(picks):
            z = y
            while z not in g_prime:
                z = G.multiply(z, y)
            assert z.value in record.inside
            for m in picks[:j]:  # y^-1 m^-1 y m
                assert G.multiply(G.invert(G.multiply(m, y)), G.multiply(y, m)).value in record.inside
        assert record.inside <= h


class _SpyOracle:
    """A hiding oracle that fails the test when it is asked for an element
    whose membership in H the labels it gave before imply, by the record's
    rules recomputed from scratch: H on G' contains the closure of the
    quotients b^-1 a in G' of equal labels, and of the first powers in G'
    and the commutators of the members outside G'; the unit powers of the
    quotients of unequal labels, times that closure, lie outside H."""

    def __init__(self, f, g_prime):
        self.f, self.group, self.peek, self.hidden_gens = f, f.group, f.peek, f.hidden_gens
        self.g_prime, self.asked = set(g_prime), []

    def eval(self, y):
        assert not self._implied(y), (y, self.asked)
        self.asked.append((y, self.f.eval(y)))
        return self.asked[-1][1]

    def _implied(self, y) -> bool:
        if not self.asked:
            return False
        G, base = self.group, self.asked[0][1]

        def quotient(b, a):  # b^-1 a
            return G.multiply(G.invert(b), a)

        pairs = [(quotient(b, a), lb == la) for (b, lb), (a, la) in combinations(self.asked, 2)]
        pairs = [(z, equal) for z, equal in pairs if z in self.g_prime]
        members = [a for a, label in self.asked if label == base and a not in self.g_prime]
        seeds = [z for z, equal in pairs if equal]
        for m in members:
            z = m
            while z not in self.g_prime:
                z = G.multiply(z, m)
            seeds.append(z)
        seeds += [quotient(G.multiply(m, a), G.multiply(a, m)) for m, a in combinations(members, 2)]
        inside = set(enumerate_closure(G, seeds))
        units = set()
        for z, equal in pairs:
            order = next(j for j in count(1) if G.is_identity(G.power(z, j)))
            if not equal:
                units |= {G.power(z, j) for j in range(1, order) if gcd(j, order) == 1}
        outside = {G.multiply(u, k) for u in units for k in inside}
        return any(
            quotient(b, y) in inside or (label == base and quotient(b, y) in outside)
            for b, label in self.asked
        )


@pytest.mark.parametrize("name", SMALL_COMMUTATOR)
def test_commutator_solver_never_asks_an_implied_label(name):
    """Over every subgroup H, each f-query of the commutator solver is an
    element whose membership its earlier labels leave open, and the answer
    is H."""
    G = small_commutator_group(name)
    elements = enumerate_closure(G, G.generators)
    g_prime = normalsub.commutator_subgroup(G, 64).closure_certificate
    for i, sub in enumerate(subgroups_of(G, elements)):
        spy = _SpyOracle(make_hiding_oracle(G, sub, seed=i), g_prime)
        result = solve_small_commutator(G, spy, SolverConfig(seed=i))
        _check(G, spy.f, result, elements)
        assert result.stats.f_queries == len(spy.asked)
