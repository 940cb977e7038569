"""Constructive membership tests in Abelian subgroups.

Three regimes share one reduction, each a GroupView: the group itself, G
modulo a hidden normal subgroup (LabelQuotientView) and G modulo a normal
subgroup given by its elements (CosetQuotientView).  Given h_1..h_r and g
commuting pairwise in the view, compute the element orders s_1..s_r, s in
the view, hide the kernel of
phi(a_1..a_r, a) = h_1^{a_1} ... h_r^{a_r} g^{-a}
over Z_{s_1} x ... x Z_{s_r} x Z_s, and read off an expression for g from a
kernel element whose last coordinate is coprime to s.  phi is
`sim.cover_oracle` over the images h_1..h_r, g^-1, and a member answer is
checked with one `GroupView.word`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .core import GroupView
from .errors import InvariantBroken, NotCommuting
from .linalg import QuotientView
from .sim import SolverConfig, abelian_hsp, cover_oracle, find_order


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


def constructive_membership(
    view: GroupView,
    h_list: Sequence,
    g,
    cfg: SolverConfig,
) -> MembershipAnswer:
    """Either express g as a product of powers of the h_i in the view or
    report NotMember.  The view is the regime: a BlackBoxGroup (unique
    encodings), a LabelQuotientView (modulo a hidden normal subgroup) or a
    CosetQuotientView (modulo a normal subgroup given by its elements).

    The kernel `abelian_hsp` returns is exact, so a member answer is too;
    it is still verified by multiplication at the view's equality, and a
    failed verification is an InvariantBroken.
    """
    if not view.commuting(list(h_list) + [g]):
        raise NotCommuting("g and the generators must commute pairwise in the view")
    answer = _attempt(view, h_list, g, cfg.child("membership"))
    if not answer.member:
        return answer
    if view.key(view.word(h_list, answer.exponents.values)) != view.key(g):
        raise InvariantBroken(f"member answer {answer.exponents.values} fails verification")
    return answer


def _attempt(view: GroupView, h_list: Sequence, g, cfg: SolverConfig) -> MembershipAnswer:
    xs = list(h_list) + [g]
    if isinstance(view, QuotientView):
        # the order in the group is a multiple of the order in the quotient
        bounds = [find_order(view.group, x, cfg.child("ambient-order")) for x in xs]
    else:
        bounds = [view.exponent_hint] * len(xs)
    orders = [
        find_order(view, h, cfg.child("order"), order_bound=b)
        for h, b in zip(h_list, bounds[:-1])
    ]
    s = find_order(view, g, cfg.child("order-g"), order_bound=bounds[-1])
    oracle = cover_oracle(view, list(h_list) + [view.invert(g)], tuple(orders) + (s,))
    kernel = abelian_hsp(oracle, cfg.child("kernel"))
    expr = extract_expression(kernel, tuple(orders) + (s,))
    if expr is None:
        return NOT_MEMBER
    return MembershipAnswer(True, expr)
