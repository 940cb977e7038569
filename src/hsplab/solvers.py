"""The two headline hidden-subgroup solvers: small commutator subgroup, and
elementary Abelian normal 2-subgroup with small or cyclic quotient.

Query accounting: with the ideal sampler, quantum rounds are simulated on the
harness side and exempt from solver accounting; the f-queries counted against
the budgets below are the classical-control queries the solver itself issues
(enumeration scans, kernel certificates, label-keyed quotient arithmetic).
The solvers hand `sim` views (a `LabelQuotientView` of f, the group, a quotient)
and element maps; only `sim` derives the harness path from a view.  Each
solver opens a `core.SolveFrame` on its f and returns through it, which
checks the solver's budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gcd, lcm, log2
from typing import Callable, Optional, Sequence

from .core import (
    BlackBoxGroup,
    CosetLabelOracle,
    GroupElement,
    HidingOracle,
    SolveFrame,
    SubgroupResult,
    _closure,
    _factor,
    enumerate_closure,
    enum_bound,
)
from .errors import (
    BoundExceeded,
    CommutatorBoundExceeded,
    NotCommuting,
    NotElementaryAbelian2,
    NotNormal,
    QuotientBoundExceeded,
    UnsupportedInstance,
)
from .linalg import (
    AbelianDecomposition,
    AbelianStructure,
    CosetQuotientView,
    LabelQuotientView,
    decompose_abelian,
    view_closure,
)
from .membership import constructive_membership
from .normalsub import commutator_subgroup
from .sim import QuantumFunctionOracle, SolverConfig, _hiding_provider, abelian_hsp, find_order


@dataclass
class CosetPick:
    z: GroupElement
    u: Optional[GroupElement] = None  # element of N with u^-1 z in H


def commutator_query_budget(c: int, L: float) -> int:
    """Documented closed-form f-query budget B1 for solve_small_commutator,
    with the ideal sampler.

    c = |G'|, L = log2 of the order bound, q = 2^L / c >= |G/G'| and
    s = ceil(log2 q), which bounds the number of prime-power cyclic factors
    of G/G' (each has order at least 2), so the number of kernel generators
    too.  f is asked at most once per element, so the solver's f-queries are:
    - the sieve of G' for H on G', f(1) first, which asks each element of G'
      at most once: at most c;
    - the certificates of the one Abelian HSP over G/G', which never form
      F(0): a scan of x*G' of at most c per kernel generator x, at
      most s per certified kernel and at most 1 + log2 q kernels, since
      each one certified strictly contains the next: c * s * (1 + log2 q);
    - no coset scan: each pick is the member of H a certificate stopped at.
    So B1 = c + c * s * (1 + log2 q).  Epsilon bounds only extra sampling
    rounds, which make no f-query, so it does not enter.  The statevector
    sampler instead writes F over all of G/G', c * |G/G'| f-queries once
    per solve; solve_small_commutator adds that.
    """
    q = max(1.0, 2.0**L / c)
    s = ceil(log2(q))
    return ceil(c + c * s * (1 + log2(q)))


def elem2_query_budget(v: int, n: int, epsilon: float) -> int:
    """Documented closed-form f-query budget B2 for the elem2 solvers.

    v = |V| (coset representatives, the identity included), n = |N|.  With
    the ideal sampler only the kernel certificates touch f directly: one
    Abelian HSP finds H on N and one probes each of the other v - 1
    representatives, over Z2 x N, of rank rho = 1 + log2 n.  Each call
    certifies at most rho + 1 descending kernels of at most rho generators,
    after f(0) once: 1 + rho * (rho + 1) evals.  The statevector sampler
    also writes f over each coset z*N a pick sweeps: _solve_elem2 adds that.
    """
    r = max(1, ceil(log2(1.0 / epsilon)))
    rho = n.bit_length()
    return 8 * (v + 2) + 4 * r + n + v * (1 + rho * (rho + 1))


def abelian_query_budget(k: int, order: int) -> int:
    """Documented closed-form f-query budget B0 for solve_abelian (ideal
    sampler), k cyclic factors of A = G, |A| = order.  Decomposing G asks f
    nothing and f is asked once per element, so only the certificates of
    one Abelian HSP over A count: f(0), 1, and at most k tests per certified
    kernel over at most 1 + log2|A| kernels, each strictly inside the last.
    The statevector sampler writes f over A once; solve_abelian adds |A|."""
    return ceil(1 + k * (1 + log2(order)))


def solve_abelian(G: BlackBoxGroup, f: HidingOracle, cfg: SolverConfig) -> SubgroupResult:
    """Hidden subgroup of an Abelian black-box group, via its decomposition."""
    f = SolveFrame(f, cfg)
    dec = decompose_abelian(G, G.generators)
    A = dec.structure
    budget = abelian_query_budget(len(A.moduli), A.order)
    if cfg.backend == "statevector":
        budget += A.order
    return f.result(lifted_hsp(dec, f, cfg), "abelian", budget)


def solve_small_commutator(
    G: BlackBoxGroup, f: HidingOracle, cfg: SolverConfig, commutator_bound: int = 64
) -> SubgroupResult:
    """Hidden subgroup when |G'| is small, by the H = H1 assembly:
    H1 is generated by H on G' together with one member of each coset
    x*G' over generators x of H*G' modulo G'.

    F(x), the sorted f-labels over x*G', hides H*G', which contains G'; so
    F hides H*G'/G' in the Abelian group G/G'.  G/G' is decomposed once,
    with group operations and no f-query, and one Abelian HSP over it finds
    H*G'/G'."""
    f = SolveFrame(f, cfg)

    # (1) enumerate G' as the normal closure of the generator commutators
    try:
        g_prime = commutator_subgroup(G, commutator_bound).closure_certificate
    except BoundExceeded as exc:
        raise CommutatorBoundExceeded(str(exc)) from exc

    # (2) generators of H on G' by a sieve of G', f(1) first
    h_cap_gprime = sieve_generators(G, f, g_prime)

    # (3) decompose G/G' with no f-query; (4) H*G'/G' by one Abelian HSP
    dec = decompose_abelian(CosetQuotientView(G, g_prime), G.generators)
    F = CosetLabelOracle(G, f, g_prime)
    hgp = lifted_hsp(dec, F, cfg, member=F.first_member)

    # (5) the first member of H in each x*G', found by x's certificate: no f-query
    picks = [F.first_member(x) for x in hgp]

    # (6) assemble H1
    gens = picks + h_cap_gprime
    order_bound = G.order_hint or enum_bound()
    budget = commutator_query_budget(len(g_prime), max(1.0, log2(order_bound)))
    if cfg.backend == "statevector":
        budget += len(g_prime) * dec.structure.order
    return f.result(gens, "commutator", budget)


def sieve_generators(G: BlackBoxGroup, f, elements: Sequence[GroupElement]) -> list:
    """Generators of H on the subgroup S of G whose elements are given,
    identity first, asking f only where the answers so far leave membership
    open.  A member y joins the generators and `inside` becomes their
    closure; a non-member x puts x^j*k in `outside`, for j prime to ord(x)
    and k inside, since x^j*k in H would give x^j, so x, in H.  f(1) is the
    first query and no element is asked twice.  Works on raw encodings."""
    mul, one, stats = G.backend.mul, G.backend.identity, G.stats
    base = f.eval(G.identity())
    gens, inside, outside = [], {one}, set()
    for x in elements:
        if x.value in inside or x.value in outside:
            continue
        if f.eval(x) == base:
            gens.append(x)
            values = [y.value for y in gens]
            inside = set(_closure(mul, None, one, values, len(elements)))
            stats.group_ops += len(inside) * len(values)
            continue
        powers = [x.value]
        while powers[-1] != one:
            powers.append(mul(powers[-1], x.value))
        n = len(powers)  # ord(x); powers[j - 1] = x^j
        units = [xj for j, xj in enumerate(powers[:-1], 1) if gcd(j, n) == 1]
        outside.update(mul(xj, k) for xj in units for k in inside)
        stats.group_ops += n - 1 + len(units) * len(inside)
    return gens


def check_elem2_normal(
    G: BlackBoxGroup,
    n_gens: Sequence[GroupElement],
    bound: Optional[int] = None,
) -> list[GroupElement]:
    """Verify <n_gens> is an elementary Abelian 2-group, normal in G; return
    its enumerated elements."""
    if not all(G.is_identity(G.multiply(a, a)) for a in n_gens):
        raise NotElementaryAbelian2("a generator has order > 2")
    if not G.commuting(n_gens):
        raise NotElementaryAbelian2("generators do not commute")
    n_elements = enumerate_closure(G, n_gens, bound)
    keys = {G.key(x) for x in n_elements}
    for g in G.generators:
        for x in n_gens:
            if G.key(G.conjugate(g, x)) not in keys:
                raise NotNormal("conjugate of a subgroup generator escapes N")
    return n_elements


def lifted_hsp(dec: AbelianDecomposition, f, cfg: SolverConfig, member=None) -> list:
    """Generators, lifted to G, of the subgroup that the oracle f of G hides
    over dec's group (H on N when dec decomposes a normal N), by one Abelian
    HSP.  The ideal sampler reads that subgroup off the generators f was
    built from when they all lie in dec's group, and otherwise searches for
    label collisions; `member`, when given, certifies kernel generators in
    place of f(t) = f(0)."""
    view = LabelQuotientView(f.group, f)
    provider = _hiding_provider(view, dec.tuple_of)
    oracle = QuantumFunctionOracle(dec.structure, view, dec.element_of, provider, member)
    return [dec.element_of(t) for t in abelian_hsp(oracle, cfg)]


def coset_intersection_pick(
    G: BlackBoxGroup,
    dec: AbelianDecomposition,
    f: HidingOracle,
    z: GroupElement,
    cfg: SolverConfig,
) -> CosetPick:
    """Probe z*N for a member of H: the function on Z2 x N with
    F(0, x) = f(x), F(1, x) = f(x z) hides a subgroup whose (1, u) generators
    certify z*N on H nonempty and yield the pick u^-1 z."""
    structure = AbelianStructure((2,) + dec.structure.moduli)

    def elem(t):
        x = dec.element_of(t[1:])
        return x if t[0] == 0 else G.multiply(x, z)

    gens = abelian_hsp(QuantumFunctionOracle(structure, LabelQuotientView(G, f), elem), cfg)
    u = next((dec.element_of(t[1:]) for t in gens if t[0] == 1), None)
    return CosetPick(z, u)


def _solve_elem2(
    G: BlackBoxGroup,
    n_gens: Sequence[GroupElement],
    f: HidingOracle,
    cfg: SolverConfig,
    method: str,
    coset_reps: Callable[[CosetQuotientView], list[GroupElement]],
) -> SubgroupResult:
    """The frame both elem2 solvers share: check N, find H on N, probe each
    coset representative V = coset_reps(G/N) but the first (the identity)
    for a member of H, and assemble H from the picks and H on N."""
    f = SolveFrame(f, cfg)
    n_elements = check_elem2_normal(G, n_gens)
    dec = decompose_abelian(G, list(n_gens))
    h_cap_n = lifted_hsp(dec, f, cfg.child("cap"))
    reps = coset_reps(CosetQuotientView(G, n_elements))
    picks = [
        coset_intersection_pick(G, dec, f, z, cfg.child("pick"))
        for z in reps[1:]
    ]
    gens = [G.multiply(G.invert(cp.u), cp.z) for cp in picks if cp.u is not None]
    gens += [x for x in h_cap_n if not G.is_identity(x)]
    budget = elem2_query_budget(len(reps), len(n_elements), cfg.epsilon)
    if cfg.backend == "statevector":
        budget += len(n_elements) * (len(reps) - 1)
    return f.result(gens, method, budget, coset_reps=reps)


def solve_elem2_small_quotient(
    G: BlackBoxGroup,
    n_gens: Sequence[GroupElement],
    f: HidingOracle,
    cfg: SolverConfig,
    quotient_bound: int = 256,
) -> SubgroupResult:
    """Hidden subgroup given an elementary Abelian normal 2-subgroup N with
    small G/N: probe every coset representative."""

    def every_coset(qview: CosetQuotientView) -> list[GroupElement]:
        try:
            return view_closure(qview, G.generators, quotient_bound)
        except BoundExceeded as exc:
            raise QuotientBoundExceeded(f"|G/N| exceeds {quotient_bound}") from exc

    return _solve_elem2(G, n_gens, f, cfg, "elem2-small", every_coset)


def solve_elem2_cyclic(
    G: BlackBoxGroup,
    n_gens: Sequence[GroupElement],
    f: HidingOracle,
    cfg: SolverConfig,
) -> SubgroupResult:
    """Hidden subgroup for cyclic G/N: V is assembled from powers of Sylow
    generators of the quotient, so |V| stays logarithmic in |G/N|.

    The quotient order q is the lcm of the generators' quotient orders, so
    for each p^h exactly dividing q some generator g of quotient order o
    carries the whole p-part, and x_p = g^(o/p^h) has quotient order p^h.
    The chain x_p^(p^j), j < h, gives distinct non-trivial cosets.

    Cyclicity is certified, not assumed: G/N is cyclic iff every generator
    lies in <x>N for x the product of the x_p, tested by constructive
    membership in G/N; otherwise UnsupportedInstance is raised."""

    def sylow_chains(qview: CosetQuotientView) -> list[GroupElement]:
        def quotient_order(x: GroupElement) -> int:
            ambient = find_order(G, x, cfg.child("amb"), order_bound=G.order_hint)
            return find_order(qview, x, cfg.child("quot"), order_bound=ambient)

        orders = [quotient_order(g) for g in G.generators]
        q = lcm(*orders) if orders else 1
        reps = [G.identity()]
        x = G.identity()
        for p, h in _factor(q).items():
            target = p**h
            o, g = next((o, g) for o, g in zip(orders, G.generators) if o % target == 0)
            x_p = G.power(g, o // target)
            x = G.multiply(x, x_p)
            # powers x_p^(p^j) walk down the subgroup chain of the cyclic Sylow
            reps += [G.power(x_p, p**j) for j in range(h)]
        for o, g in zip(orders, G.generators):
            if o == 1:
                continue  # g lies in N
            try:
                member = constructive_membership(qview, [x], g, cfg.child("cyclic")).member
            except NotCommuting:
                member = False
            if not member:
                raise UnsupportedInstance("G/N is not cyclic: elem2-cyclic does not apply")
        return reps

    return _solve_elem2(G, n_gens, f, cfg, "elem2-cyclic", sylow_chains)
