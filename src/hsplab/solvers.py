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
from functools import cache
from itertools import accumulate, repeat, takewhile
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
    _element,
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
    too.  f is asked at most once per element, f(1) first, where the labels
    so far leave membership open; besides f(1) the solver's f-queries are:
    - the certificates of the one Abelian HSP over G/G', which never form
      F(0): a scan of x*G' of at most c per kernel generator x, at
      most s per certified kernel and at most 1 + log2 q kernels, since
      each one certified strictly contains the next: c * s * (1 + log2 q);
    - no coset scan: each pick is the member of H a certificate stopped at;
    - the sieve of G', at most the c - 1 elements other than 1.
    So B1 = c + c * s * (1 + log2 q); epsilon bounds only extra sampling
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
    H*G'/G'.  A `LabelRecord` of f's labels certifies each kernel generator x
    by x's pick, the first member of H in x*G', and then sieves G'."""
    f = SolveFrame(f, cfg)

    # (1) enumerate G' as the normal closure of the generator commutators
    try:
        g_prime = commutator_subgroup(G, commutator_bound).closure_certificate
    except BoundExceeded as exc:
        raise CommutatorBoundExceeded(str(exc)) from exc

    # (2) the record, f(1) first; (3) decompose G/G' with no f-query;
    # (4) H*G'/G' by one Abelian HSP, whose certificates keep the picks
    record = LabelRecord(G, f, g_prime)
    first_member = cache(record.first_member)  # each x certified once, its pick kept
    dec = decompose_abelian(CosetQuotientView(G, g_prime), G.generators)
    hgp = lifted_hsp(dec, CosetLabelOracle(G, f, g_prime), cfg, member=first_member)
    picks = [first_member(x) for x in hgp]

    # (5) the sieve of G', then the assembly of H1
    gens = record.generators(picks)
    order_bound = G.order_hint or enum_bound()
    budget = commutator_query_budget(len(g_prime), max(1.0, log2(order_bound)))
    if cfg.backend == "statevector":
        budget += len(g_prime) * dec.structure.order
    return f.result(gens, "commutator", budget)


class LabelRecord:
    """What one solve's f-labels imply about H on a normal subgroup N of G,
    given by its elements (G' in the commutator solver).  f(a) = f(b) iff
    b^-1 a lies in H, so where a and b share a coset of N equal labels put
    b^-1 a `inside`, the closure of the members of H on N found, and unequal
    ones put its unit powers, times `inside`, `outside`.  A member y outside
    N puts inside its first power in N and its commutators with the earlier
    such members.  Works on raw encodings; counts each product as a group op."""

    def __init__(self, G: BlackBoxGroup, f, n_elements: Sequence[GroupElement]):
        backend = G.backend
        self.mul, self.inv, self.one, self.length = backend.mul, backend.inv, backend.identity, backend.n
        self.f, self.stats, self.order = f, G.stats, [x.value for x in n_elements]
        self.n, self.inside, self.outside, self.units = set(self.order), {self.one}, set(), set()
        self.gens, self.members, self.asked = [], [], {}
        self.base = f.eval(G.identity())

    def member(self, y: int, key: int) -> bool:
        """Whether y, in the coset of N of least encoding `key`, is in H: read
        off y = b*z, b = 1 or asked, z inside or (b in H) outside; else asked."""
        if y in self.inside or y in self.outside:
            return y in self.inside
        mul, inv, base, same = self.mul, self.inv, self.base, self.asked.setdefault(key, [])
        pairs = [(y, base)] if y in self.n else []
        for b_inv, label in same:  # (b^-1, f(b))
            self.stats.group_ops += 1
            z = mul(b_inv, y)
            if z in self.inside or label == base and z in self.outside:
                return label == base and z in self.inside
            pairs.append((z, label))
        label = self.f.eval(_element(y, self.length))
        for z, seen in pairs:
            self._decide(z, label == seen)
        same.append((inv(y), label))
        self.stats.group_ops += 1
        if label != base or y in self.n:
            return label == base
        k, z = next((k, z) for k, z in enumerate(accumulate(repeat(y), mul)) if z in self.n)
        self._decide(z, True, {y})
        for m in self.members:  # y^-1 m^-1 y m
            self._decide(mul(inv(mul(m, y)), mul(y, m)), True, {y, m})
        self.stats.group_ops += k + 4 * len(self.members)
        self.members.append(y)
        return True

    def _decide(self, z: int, member: bool, source: Optional[set] = None) -> None:
        if z in (self.inside if member else self.units):
            return
        if len(self.inside) + len(self.outside) == len(self.n):
            return  # every element of N is decided
        mul = self.mul
        if member:  # source: the members z is a power or commutator of
            self.gens.append((z, source))
            self.inside = set(_closure(mul, None, self.one, [g for g, _ in self.gens], len(self.n)))
            self.outside = {mul(u, k) for u in self.units for k in self.inside}
            ops = len(self.inside) * (len(self.gens) + len(self.units))
        else:  # z^1 .. z^(n-1), n = ord(z); only its new units join outside
            powers = list(takewhile(lambda zj: zj != self.one, accumulate(repeat(z), mul)))
            new = {zj for j, zj in enumerate(powers, 1) if gcd(j, len(powers) + 1) == 1} - self.units
            self.units |= new
            self.outside |= {mul(u, k) for u in new for k in self.inside}
            ops = len(powers) + len(new) * len(self.inside)
        self.stats.group_ops += ops

    def first_member(self, x: GroupElement) -> Optional[GroupElement]:
        """The first y of x*N in key order that is in H, or None: x*N meets H
        iff x lies in H*N, so this certifies x there, and y is x's pick."""
        coset = sorted(self.mul(x.value, c) for c in self.order)
        self.stats.group_ops += len(coset)
        y = next((y for y in coset if self.member(y, coset[0])), None)
        return None if y is None else _element(y, self.length)

    def generators(self, picks: Sequence[GroupElement]) -> list:
        """Sieve N, asking f where membership is open, so `inside` is H on N;
        then the picks, and each generator of H on N not derived from picks."""
        key = min(self.order)
        for z in self.order:
            self.member(z, key)
        values = {y.value for y in picks}
        gens = [z for z, source in self.gens if not (source and source <= values)]
        return list(picks) + [_element(z, self.length) for z in gens]


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
            ambient = find_order(G, x, cfg.child("amb"), order_bound=G.exponent_hint)
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
