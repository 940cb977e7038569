"""Hidden normal subgroups with an Abelian quotient, by one Abelian HSP over
the cover of G's generators, and normal closure.

When G/N is Abelian, t -> prod g_i^t_i modulo N is a homomorphism from the
cover Z_m1 x ... x Z_mk onto G/N, m_i the order of generator g_i in G, and f
read through a `LabelQuotientView` hides its kernel.  `sim.cover_oracle`
builds that oracle; non-Abelian quotients are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil, log2, prod
from typing import Optional, Sequence

from .core import BlackBoxGroup, GroupElement, HidingOracle, SolveFrame, SubgroupResult
from .core import enumerate_closure, enum_bound
from .errors import QuotientNotAbelian
from .linalg import LabelQuotientView
from .sim import SolverConfig, abelian_hsp, cover_oracle, find_order


@dataclass
class AbelianPresentation:
    """G/N as the cover Z_m1 x ... x Z_mk of G's generators modulo `kernel`,
    the tuples t with prod g_i^t_i in N."""

    moduli: tuple[int, ...]
    kernel: list[tuple[int, ...]]


@dataclass
class NormalGenerators:
    gens: list[GroupElement]
    closure_certificate: Optional[list[GroupElement]] = None


def abelian_quotient_presentation(view: LabelQuotientView, cfg: SolverConfig) -> AbelianPresentation:
    """G/N over the cover of G's generators: their orders in G, found on G's
    own key with no f-query, and the kernel of one Abelian HSP on the cover
    oracle at f's labels.  QuotientNotAbelian when the generators do not
    commute modulo N."""
    G = view.group
    if not view.commuting(G.generators):
        raise QuotientNotAbelian("generators do not commute modulo the hidden subgroup")
    moduli = tuple(find_order(G, g, cfg.child("order")) for g in G.generators)
    return AbelianPresentation(moduli, abelian_hsp(cover_oracle(view, G.generators, moduli), cfg))


def _commutators(G: BlackBoxGroup, xs: Sequence[GroupElement]) -> list[GroupElement]:
    """[x_i, x_j] for every pair i < j, in order."""
    return [G.commutator(a, b) for a, b in combinations(xs, 2)]


def normal_closure(
    G: BlackBoxGroup,
    seeds: Sequence[GroupElement],
    bound: Optional[int] = None,
) -> NormalGenerators:
    """Smallest normal subgroup of G containing the seeds.

    Deterministic worklist: close the generating set under conjugation by the
    group generators, interleaved with subgroup closure.  The closure of the
    final generating set is returned as the certificate.
    """
    bound = enum_bound() if bound is None else bound
    gens = [s for s in seeds if not G.is_identity(s)]
    closure = enumerate_closure(G, gens, bound)
    keys = {G.key(x) for x in closure}
    work = list(gens)
    while work:
        x = work.pop()
        for g in G.generators:
            c = G.conjugate(g, x)
            if G.key(c) not in keys:
                gens.append(c)
                work.append(c)
                closure = enumerate_closure(G, gens, bound)
                keys = {G.key(x) for x in closure}
    return NormalGenerators(gens, closure)


def commutator_subgroup(G: BlackBoxGroup, bound: int) -> NormalGenerators:
    """G' as the normal closure of the generators' pairwise commutators."""
    return normal_closure(G, _commutators(G, G.generators), bound)


def normal_query_budget(k: int, cover_order: int) -> int:
    """Documented closed-form f-query budget B_N for hidden_normal_subgroup
    (ideal sampler), k generators of G and |A| = cover_order the order of
    their cover.  f is asked once per element: k^2 - k for the commute check
    at f's labels (f(g_i g_j) and f(g_j g_i) for each pair); none for the
    orders m_i, found on G's own key; and the certificates of the one
    Abelian HSP over A: f(0), then at most k tests per certified kernel over
    at most 1 + log2|A| kernels, each strictly inside the last.  So
    B_N = k^2 - k + 1 + k * (1 + log2|A|).  The statevector sampler writes f
    over A once; hidden_normal_subgroup adds |A|."""
    return ceil(k * k - k + 1 + k * (1 + log2(cover_order)))


def hidden_normal_subgroup(G: BlackBoxGroup, f: HidingOracle, cfg: SolverConfig) -> SubgroupResult:
    """Generators of the hidden normal subgroup N: the normal closure of the
    words prod g_i^t_i over the kernel's generators t, which lie in N, and
    of the generators' commutators.  These generate N: the kernel words
    generate N modulo G', and G' <= N since G/N is Abelian."""
    f = SolveFrame(f, cfg)
    p = abelian_quotient_presentation(LabelQuotientView(G, f), cfg)
    words = [G.word(G.generators, t) for t in p.kernel]
    n = normal_closure(G, words + _commutators(G, G.generators))
    cover_order = prod(p.moduli)
    budget = normal_query_budget(len(p.moduli), cover_order)
    if cfg.backend == "statevector":
        budget += cover_order
    return f.result(n.gens, "normal", budget)
