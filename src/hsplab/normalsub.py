"""Hidden normal subgroups via presentations and normal closure.

Restricted to Abelian quotients G/N, which is exactly what the
small-commutator solver consumes; non-Abelian quotients are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod
from typing import Optional, Sequence

from .core import BlackBoxGroup, GroupElement, HidingOracle, SolveFrame, SubgroupResult
from .core import enumerate_closure, enum_bound
from .errors import NotAbelian, QuotientNotAbelian
from .linalg import LabelQuotientView, decompose_abelian
from .sim import SolverConfig


@dataclass
class AbelianPresentation:
    """Presentation of an Abelian quotient G/N, carried as G-encodings.

    Relators are the powers t_i^{d_i} and all pairwise commutators [t_i, t_j].
    `coordinates[i]` expresses G's i-th generator modulo N over the t_j.
    """

    generators: list[GroupElement]
    moduli: tuple[int, ...]
    coordinates: list[tuple[int, ...]]


@dataclass
class NormalGenerators:
    gens: list[GroupElement]
    closure_certificate: Optional[list[GroupElement]] = None


def abelian_quotient_presentation(view: LabelQuotientView) -> AbelianPresentation:
    """Decompose G/N over the view's f-labels; generators are lifted to G-encodings."""
    try:
        dec = decompose_abelian(view, view.group.generators)
    except NotAbelian as exc:
        raise QuotientNotAbelian("generators do not commute modulo the hidden subgroup") from exc
    return AbelianPresentation(list(dec.basis), dec.structure.moduli, dec.generator_tuples)


def _commutators(G: BlackBoxGroup, xs: Sequence[GroupElement]) -> list[GroupElement]:
    """[x_i, x_j] for every pair i < j, in order."""
    return [G.commutator(a, b) for a, b in combinations(xs, 2)]


def relator_values(G: BlackBoxGroup, p: AbelianPresentation) -> list[GroupElement]:
    """Relators evaluated in G (not modulo N): t_i^{d_i} and [t_i, t_j]."""
    powers = [G.power(t, d) for t, d in zip(p.generators, p.moduli)]
    return powers + _commutators(G, p.generators)


def generator_quotients(G: BlackBoxGroup, p: AbelianPresentation) -> list[GroupElement]:
    """For each generator x of G, form y = prod t_j^a_j from x's coordinates
    over the presentation generators and emit y^-1 x; every output lies in
    N, since xN = yN."""
    out = []
    for x, coordinates in zip(G.generators, p.coordinates):
        y = G.word(p.generators, coordinates)
        out.append(G.multiply(G.invert(y), x))
    return out


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


def normal_query_budget(quotient_order: int, k: int) -> int:
    """Documented closed-form f-query budget B_N for hidden_normal_subgroup,
    k generators of G.  Its f-queries are decompose_abelian's key calls on
    G/N at f's labels: k^2 - k for the commute check, |G/N| for the identity
    and each other element as it joins the table, and k for the powers that
    land in it; asking f once per element can only lower that.  |G/N| is
    the product of the presentation's moduli; nothing is sampled."""
    return quotient_order + k * k


def hidden_normal_subgroup(G: BlackBoxGroup, f: HidingOracle, cfg: SolverConfig) -> SubgroupResult:
    """Generators of the hidden normal subgroup N: normal closure of the
    relator values R0 and the generator quotients S0.  Both lie in N by
    construction: R0 because the decomposition at f's labels found the
    orders and checked commutation, S0 because the decomposition's
    coordinates express each generator exactly modulo N.  Nothing is
    sampled, so `cfg` draws nothing."""
    f = SolveFrame(f, cfg)
    p = abelian_quotient_presentation(LabelQuotientView(G, f))
    n = normal_closure(G, relator_values(G, p) + generator_quotients(G, p))
    return f.result(n.gens, "normal", normal_query_budget(prod(p.moduli), len(G.generators)))
