"""Brute-force ground truth: exhaustive subgroup machinery, hiding-oracle
validation, solver-output verification, and sampler statistics.

These paths may be exponential by design; they are the oracle side of every
acceptance check and never feed back into the solvers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import BlackBoxGroup, GroupElement, HidingOracle, enumerate_closure
from .errors import BoundExceeded, HspError
from .sim import RngStream

EXHAUSTIVE_CAP = 1 << 10


def brute_force_hsp(
    G: BlackBoxGroup, elements: Sequence[GroupElement], f: HidingOracle
) -> list[GroupElement]:
    """The universal oracle: {g : f(g) = f(identity)} over an enumerated G."""
    base = f.peek(G.identity())
    return [x for x in elements if f.peek(x) == base]


def verify_hiding(
    G: BlackBoxGroup,
    elements: Sequence[GroupElement],
    f: HidingOracle,
    h_gens: Sequence[GroupElement],
) -> bool:
    """Exhaustive two-sided check that f is constant exactly on left cosets
    of <h_gens>."""
    h_keys = {G.key(x) for x in enumerate_closure(G, h_gens)}
    for a in elements:
        a_inv = G.invert(a)
        la = f.peek(a)
        for b in elements:
            same_coset = G.key(G.multiply(a_inv, b)) in h_keys
            if (la == f.peek(b)) != same_coset:
                return False
    return True


def subgroup_key(G: BlackBoxGroup, elements: Sequence[GroupElement]) -> frozenset:
    return frozenset(G.key(x) for x in elements)


class _CayleyTable:
    """The enumerated G by index: one index per element key, and each
    product multiplied once, on first use, and kept in its row."""

    def __init__(self, G: BlackBoxGroup, elements: Sequence[GroupElement]):
        self.G = G
        self.elements = list(elements)
        self.index = {G.key(x): i for i, x in enumerate(self.elements)}
        self.identity = self.index[G.key(G.identity())]
        self._rows: list[Optional[list]] = [None] * len(self.elements)

    def closure(self, gens: Sequence[int]) -> list[int]:
        """Indices of <gens>, in the BFS order of enumerate_closure."""
        # not core._closure: subgroups_of runs 1.8x slower through it, the cached rows lost
        G, elements, index, rows = self.G, self.elements, self.index, self._rows
        gens = [g for g in gens if g != self.identity]
        out = [self.identity]
        seen = set(out)
        frontier = out
        while frontier:
            nxt = []
            for x in frontier:
                row = rows[x]
                if row is None:
                    row = rows[x] = [None] * len(rows)
                for s in gens:
                    y = row[s]
                    if y is None:
                        y = row[s] = index[G.key(G.multiply(elements[x], elements[s]))]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            out += nxt
            frontier = nxt
        return out


def subgroups_of(
    G: BlackBoxGroup,
    elements: Sequence[GroupElement],
    max_count: Optional[int] = None,
    rng: Optional[RngStream] = None,
) -> list[list[GroupElement]]:
    """All subgroups (exhaustive fixpoint, |G| <= 2^10) or max_count seeded
    random ones via random element closures."""
    if max_count is None:
        if len(elements) > EXHAUSTIVE_CAP:
            raise BoundExceeded(
                f"exhaustive subgroup enumeration capped at {EXHAUSTIVE_CAP}"
            )
        table = _CayleyTable(G, elements)
        trivial = [table.identity]
        found = {frozenset(trivial): trivial}
        work = [trivial]
        while work:
            sub = work.pop()
            members = frozenset(sub)
            for x in range(len(elements)):
                if x in members:
                    continue  # <sub, x> is sub, found already
                # closing over all members keeps the fixpoint simple
                extended = table.closure(sub + [x])
                key = frozenset(extended)
                if key not in found:
                    found[key] = extended
                    work.append(extended)
        return [[table.elements[i] for i in sub] for sub in found.values()]
    rng = rng or RngStream(0)
    out: dict[frozenset, list[GroupElement]] = {}
    attempts = 0
    while len(out) < max_count and attempts < 50 * max_count:
        attempts += 1
        seeds = [rng.choice(elements) for _ in range(rng.randrange(3))]
        try:
            sub = enumerate_closure(G, seeds)
        except BoundExceeded:
            continue
        out.setdefault(subgroup_key(G, sub), sub)
    return list(out.values())


def chi_square_uniform(samples: Sequence, support: Sequence) -> tuple[float, float]:
    """Pearson statistic and p-value against the uniform null on `support`."""
    support = list(support)
    if not support:
        raise HspError("chi-square test needs a non-empty support")
    counts = {s: 0 for s in support}
    for s in samples:
        counts[s] += 1
    n = len(samples)
    k = len(support)
    if k == 1:
        return 0.0, 1.0
    from scipy.stats import chi2

    expected = n / k
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    p = float(chi2.sf(stat, k - 1))
    return stat, p

