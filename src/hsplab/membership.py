"""Constructive membership tests in Abelian subgroups.

Three regimes share one reduction: given pairwise-commuting h_1..h_r and g
(commuting in the group, modulo a hidden normal subgroup, or modulo a normal
subgroup given by generators), compute the element orders s_1..s_r, s in the
relevant quotient, hide the kernel of
phi(a_1..a_r, a) = h_1^{a_1} ... h_r^{a_r} g^{-a}
over Z_{s_1} x ... x Z_{s_r} x Z_s, and read off an expression for g from a
kernel element whose last coordinate is coprime to s.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .core import BlackBoxGroup, GroupElement, GroupView, enumerate_closure, HidingOracle
from .errors import HspError, InvariantBroken, MemberUnverified, NotCommuting
from .linalg import AbelianStructure, CosetQuotientView, LabelQuotientView
from .sim import QuantumFunctionOracle, SolverConfig, _kernel_provider, abelian_hsp, find_order


@dataclass(frozen=True)
class ExponentTuple:
    """Exponents alpha_i with 0 <= alpha_i < s_i for the commuting generators."""

    values: tuple[int, ...]
    moduli: tuple[int, ...]

    def __post_init__(self):
        if not all(0 <= v < max(m, 1) or m == 1 for v, m in zip(self.values, self.moduli)):
            raise InvariantBroken(f"exponents {self.values} out of range {self.moduli}")


@dataclass(frozen=True)
class MembershipAnswer:
    member: bool
    exponents: Optional[ExponentTuple] = None


NOT_MEMBER = MembershipAnswer(False)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return abs(a), (1 if a >= 0 else -1), 0
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


def extract_expression(
    kernel_gens: Sequence[Sequence[int]], moduli: Sequence[int]
) -> Optional[ExponentTuple]:
    """Expression for g from the kernel of phi, via its canonical generators.

    moduli = (s_1, ..., s_r, s).  Returns None when no kernel element has a
    last coordinate coprime to s (g is not representable).
    """
    moduli = tuple(moduli)
    s = moduli[-1]
    r = len(moduli) - 1
    if s == 1:
        return ExponentTuple((0,) * r, moduli[:-1])
    # Combine generators to reach gcd of the achievable last coordinates.
    cur = [0] * len(moduli)
    cur_last = 0
    for gen in kernel_gens:
        lc = gen[-1] % s
        if lc == 0:
            continue
        g, x, y = _xgcd(cur_last, lc)
        cur = [x * a + y * b for a, b in zip(cur, gen)]
        cur_last = g
    if cur_last == 0 or gcd(cur_last, s) != 1:
        return None
    # Scale so the last coordinate is 1 mod s; then g = prod h_i^{values_i}.
    _, x, _ = _xgcd(cur_last, s)
    scaled = [(x * v) % m for v, m in zip(cur, moduli)]
    return ExponentTuple(tuple(scaled[:-1]), moduli[:-1])


def _phi_oracle(
    view: GroupView,
    h_list: Sequence,
    g,
    orders: Sequence[int],
    s: int,
) -> QuantumFunctionOracle:
    structure = AbelianStructure(tuple(orders) + (s,))
    g_inv = view.invert(g)
    power_tables = []
    for h, sh in zip(h_list, orders):
        table = [view.identity()]
        for _ in range(sh - 1):
            table.append(view.multiply(table[-1], h))
        power_tables.append(table)
    g_table = [view.identity()]
    for _ in range(s - 1):
        g_table.append(view.multiply(g_table[-1], g_inv))

    def elem(t):
        x = view.identity()
        for table, a in zip(power_tables, t[:-1]):
            x = view.multiply(x, table[a])
        return view.multiply(x, g_table[t[-1]])

    images = list(h_list) + [g_inv]
    return QuantumFunctionOracle(structure, view, elem, _kernel_provider(view, images, structure))


def membership_view(
    G: BlackBoxGroup,
    mode: str,
    f: Optional[HidingOracle] = None,
    n_gens: Optional[Sequence[GroupElement]] = None,
    n_elements: Optional[Sequence[GroupElement]] = None,
) -> GroupView:
    if mode == "unique":
        return G
    if mode == "mod-hidden":
        if f is None:
            raise HspError("mod-hidden membership needs the hiding oracle f")
        return LabelQuotientView(G, f)
    if mode == "mod-generated":
        if n_elements is None:
            if n_gens is None:
                raise HspError("mod-generated membership needs n_gens or n_elements")
            n_elements = enumerate_closure(G, n_gens)
        return CosetQuotientView(G, n_elements)
    raise ValueError(f"unknown membership mode {mode!r}")


def constructive_membership(
    G: BlackBoxGroup,
    h_list: Sequence[GroupElement],
    g: GroupElement,
    cfg: SolverConfig,
    mode: str = "unique",
    f: Optional[HidingOracle] = None,
    n_gens: Optional[Sequence[GroupElement]] = None,
    n_elements: Optional[Sequence[GroupElement]] = None,
) -> MembershipAnswer:
    """Either express g as a product of powers of the h_i or report NotMember.

    Member answers are verified by multiplication at the mode's equality;
    order-finding failures are absorbed by re-running with fresh seeds, and
    MemberUnverified is raised when every attempt fails verification.
    """
    view = membership_view(G, mode, f, n_gens, n_elements)
    for i, a in enumerate(h_list):
        for b in h_list[i + 1 :]:
            if not view.commute(a, b):
                raise NotCommuting("generators must commute in the chosen quotient")
        if not view.commute(a, g):
            raise NotCommuting("g must commute with every generator")
    attempts = 3
    for _ in range(attempts):
        sub = cfg.child("membership")
        answer = _attempt(G, view, h_list, g, sub, mode)
        if not answer.member:
            return answer
        # verify by multiplication at the view's equality
        x = view.identity()
        for h, a in zip(h_list, answer.exponents.values):
            x = view.multiply(x, view.power(h, a))
        if view.key(x) == view.key(g):
            return answer
    raise MemberUnverified(f"no member answer passed verification in {attempts} attempts")


def _attempt(
    G: BlackBoxGroup,
    view: GroupView,
    h_list: Sequence[GroupElement],
    g: GroupElement,
    cfg: SolverConfig,
    mode: str,
) -> MembershipAnswer:
    ambient_bounds = []
    for x in list(h_list) + [g]:
        if mode == "unique":
            ambient_bounds.append(G.order_hint)
        else:
            # the order in G is a multiple of the order in the quotient
            ambient_bounds.append(
                find_order(G, x, cfg.child("ambient-order"), order_bound=G.order_hint)
            )
    orders = [
        find_order(view, h, cfg.child("order"), order_bound=b)
        for h, b in zip(h_list, ambient_bounds[:-1])
    ]
    s = find_order(view, g, cfg.child("order-g"), order_bound=ambient_bounds[-1])
    oracle = _phi_oracle(view, h_list, g, orders, s)
    kernel = abelian_hsp(oracle, cfg.child("kernel"))
    expr = extract_expression(kernel, tuple(orders) + (s,))
    if expr is None:
        return NOT_MEMBER
    return MembershipAnswer(True, expr)
