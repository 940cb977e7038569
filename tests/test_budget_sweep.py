"""Quick budget sweep: every subgroup of small Abelian groups through
solve_abelian and of small non-Abelian groups through
solve_small_commutator, and every normal subgroup of small non-Abelian
groups through hidden_normal_subgroup, each under both samplers and two
epsilons.

Each solve must return H and stay within its f_query_budget.  The only error
allowed is QuotientNotAbelian, and only where G/N is not Abelian."""

from hsplab.core import GroupSpec, enumerate_closure, make_group, make_hiding_oracle
from hsplab.errors import QuotientNotAbelian
from hsplab.normalsub import hidden_normal_subgroup
from hsplab.sim import SolverConfig, splitmix64
from hsplab.solvers import solve_abelian, solve_small_commutator
from hsplab.verify import subgroup_key, subgroups_of

from conftest import SMALL_COMMUTATOR, d16_group, small_commutator_group

ABELIAN = [(4, 6), (2, 2, 2, 2), (8, 2), (3, 9), (5, 5)]
CONFIGS = [(epsilon, backend) for backend in ("ideal", "statevector") for epsilon in (2.0**-10, 0.25)]
NON_ABELIAN = [
    GroupSpec(kind="extraspecial", p=3, variant="exponent-p"),
    GroupSpec(kind="extraspecial", p=3, variant="exponent-p2"),
    GroupSpec(kind="extraspecial", p=5),
    None,  # the dihedral group of order 16
    GroupSpec(kind="wreath", k=2),
]


def _failure(G, sub, result) -> list:
    """What is wrong with a solve of H = sub: a wrong answer, an overrun."""
    out = []
    if subgroup_key(G, enumerate_closure(G, result.gens)) != subgroup_key(G, sub):
        out.append("wrong subgroup")
    if result.stats.f_queries > result.f_query_budget:
        out.append(f"{result.stats.f_queries} > budget {result.f_query_budget}")
    return out


def test_abelian_budget_sweep():
    failures, solves = [], 0
    for gi, moduli in enumerate(ABELIAN):
        G = make_group(GroupSpec(kind="abelian", moduli=moduli))
        for si, sub in enumerate(subgroups_of(G, enumerate_closure(G, G.generators))):
            for ci, (epsilon, backend) in enumerate(CONFIGS):
                seed = splitmix64(gi << 16 ^ si << 4 ^ ci)
                f = make_hiding_oracle(G, sub, seed=seed)
                result = solve_abelian(G, f, SolverConfig(epsilon, seed + 1, backend))
                failures += [(moduli, si, backend, epsilon, e) for e in _failure(G, sub, result)]
                solves += 1
    assert failures == []
    assert solves == 4 * (16 + 67 + 11 + 10 + 8)


def test_commutator_budget_sweep():
    failures, solves = [], 0
    for gi, name in enumerate(SMALL_COMMUTATOR):
        G = small_commutator_group(name)
        for si, sub in enumerate(subgroups_of(G, enumerate_closure(G, G.generators))):
            for ci, (epsilon, backend) in enumerate(CONFIGS):
                seed = splitmix64(gi << 16 ^ si << 4 ^ ci)
                f = make_hiding_oracle(G, sub, seed=seed)
                result = solve_small_commutator(G, f, SolverConfig(epsilon, seed + 1, backend))
                failures += [(gi, si, backend, epsilon, e) for e in _failure(G, sub, result)]
                solves += 1
    assert failures == []
    assert solves == 4 * (19 + 10 + 19 + 30 + 106)


def test_normal_budget_sweep():
    failures, solves, refused = [], 0, 0
    for gi, spec in enumerate(NON_ABELIAN):
        G = d16_group() if spec is None else make_group(spec)
        for si, sub in enumerate(subgroups_of(G, enumerate_closure(G, G.generators))):
            keys = subgroup_key(G, sub)
            if any(G.key(G.conjugate(g, x)) not in keys for g in G.generators for x in sub):
                continue  # not normal
            for ci, (epsilon, backend) in enumerate(CONFIGS):
                seed = splitmix64(gi << 16 ^ si << 4 ^ ci)
                f = make_hiding_oracle(G, sub, seed=seed)
                solves += 1
                try:
                    result = hidden_normal_subgroup(G, f, SolverConfig(epsilon, seed + 1, backend))
                except QuotientNotAbelian:
                    refused += 1
                    pairs = [(a, b) for a in G.generators for b in G.generators]
                    if all(G.key(G.commutator(a, b)) in keys for a, b in pairs):
                        failures.append((gi, si, backend, epsilon, "refused an Abelian quotient"))
                    continue
                failures += [(gi, si, backend, epsilon, e) for e in _failure(G, sub, result)]
    assert failures == []
    assert (solves, refused) == (4 * 56, 4 * 15)
