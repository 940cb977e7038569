"""Exact simulation of the quantum primitives: Fourier sampling over finite
Abelian groups, the Abelian hidden-subgroup solver, and order finding.

A `QuantumFunctionOracle` reads f through a view: its counted path is the
view's key and its harness path the view's `hkey`, taken only here, so a
solver hands over a view and an element map and never peeks itself.

Two sampler backends produce uniform draws from H-perp:

* ``ideal`` determines the hidden subgroup on the harness side (by label
  collision search, or by a structure-aware provider attached to the oracle)
  and then draws directly from the dual subgroup.  Its classical probing is
  harness-privileged and tallied separately from solver queries.
* ``statevector`` runs the five circuit steps literally on an explicit
  amplitude vector and measures the first register.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil, gcd, log2
from typing import Callable, Optional, Sequence

import numpy as np

from .core import GroupView
from .errors import (
    HspError,
    InvariantBroken,
    NoOrderBound,
    OracleInconsistent,
    RoundBudgetExceeded,
    TooLarge,
)
from .linalg import (
    AbelianStructure,
    CharacterVector,
    QuotientView,
    decompose_abelian,
    dual_subgroup,
    hom_kernel,
    solve_character_kernel,
    subgroup_elements,
    subgroup_order,
    row_basis,
)

STATEVECTOR_CAP = 1 << 16
MAX_ROUNDS = 100_000  # sampling rounds before abelian_hsp gives up


def splitmix64(x: int) -> int:
    """One step of the splitmix64 sequence; used to derive child seeds."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class RngStream:
    """Seeded RNG with a draw counter (rng_draws in QueryStats)."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)
        self.draws = 0

    def randrange(self, n: int) -> int:
        self.draws += 1
        return self._rng.randrange(n)

    def random(self) -> float:
        self.draws += 1
        return self._rng.random()

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


@dataclass
class SolverConfig:
    """Per-solve configuration: failure budget, seed, and sampler kind."""

    epsilon: float = 2.0**-10
    seed: int = 0
    backend: str = "ideal"  # sampler kind: ideal | statevector

    def __post_init__(self):
        if not 0 < self.epsilon < 0.5:
            raise HspError(f"epsilon must be in (0, 1/2), got {self.epsilon}")
        self._rng: Optional[RngStream] = None
        self._child_counter = 0

    @property
    def rng(self) -> RngStream:
        if self._rng is None:
            self._rng = RngStream(self.seed)
        return self._rng

    @property
    def stable_rounds(self) -> int:
        """Consecutive non-shrinking rounds required: (1/2)^r <= epsilon."""
        return max(1, ceil(log2(1.0 / self.epsilon)))

    def child(self, tag: str = "") -> "SolverConfig":
        """Derive an independently seeded sub-configuration (splitmix64)."""
        self._child_counter += 1
        mix = splitmix64(self.seed ^ splitmix64(self._child_counter))
        for ch in tag:
            mix = splitmix64(mix ^ ord(ch))
        return SolverConfig(self.epsilon, mix, self.backend)


class QuantumFunctionOracle:
    """The function t -> elem(t) over an Abelian structure, labelled by a view.

    ``eval`` is the counted path, the view's key; ``peek`` is the
    harness-privileged path, the view's hkey.  Equal labels stand for equal
    (coset) states; distinct labels stand for orthogonal states.
    ``subgroup_provider`` (when set) lets the harness determine the hidden
    subgroup without a full collision sweep.
    """

    def __init__(
        self,
        structure: AbelianStructure,
        view: GroupView,
        elem: Callable[[tuple], object],
        subgroup_provider: Optional[Callable[[], list[tuple]]] = None,
    ):
        self.structure = structure
        self._view = view
        self._elem = elem
        self._provider = subgroup_provider
        self._ideal_cache: Optional[dict] = None

    def eval(self, t: Sequence[int]) -> str:
        return self._view.key(self._elem(self.structure.reduce(t)))

    def peek(self, t: Sequence[int]) -> str:
        return self._view.hkey(self._elem(self.structure.reduce(t)))

    def hidden_subgroup_gens(self) -> list[tuple]:
        """Harness-side determination of the hidden subgroup's generators."""
        if self._provider is not None:
            return [self.structure.reduce(t) for t in self._provider()]
        return self._collision_search()

    def _collision_search(self) -> list[tuple]:
        A = self.structure
        zero_label = self.peek(A.zero())
        members = [t for t in A.elements() if self.peek(t) == zero_label]
        member_set = set(members)
        for a in members:
            if A.neg(a) not in member_set:
                raise OracleInconsistent("collision class not closed under inverse")
            for b in members:
                if A.add(a, b) not in member_set:
                    raise OracleInconsistent("collision class not closed under addition")
        return [t for t in row_basis(members) if any(x % m for x, m in zip(t, A.moduli))]


def _ideal_state(f: QuantumFunctionOracle) -> dict:
    if f._ideal_cache is None:
        h_gens = f.hidden_subgroup_gens()
        A = f.structure
        perp_gens = [list(c.coeffs) for c in dual_subgroup(A, h_gens)]
        perp = subgroup_elements(A, perp_gens)
        f._ideal_cache = {"h_gens": h_gens, "perp": perp}
    return f._ideal_cache


def sample_character(f: QuantumFunctionOracle, backend: str, rng: RngStream) -> CharacterVector:
    """One Fourier-sampling round: a character drawn uniformly from H-perp."""
    if backend == "ideal":
        state = _ideal_state(f)
        perp = state["perp"]
        draw = perp[rng.randrange(len(perp))]
        # sanity: the draw annihilates the hidden subgroup it was derived from
        if any(f.structure.pairing(draw, h) for h in state["h_gens"]):
            raise InvariantBroken(f"character {draw} does not annihilate the hidden subgroup")
        return CharacterVector(tuple(draw))
    if backend == "statevector":
        return _statevector_sample(f, rng)
    raise HspError(f"unknown sampler backend {backend!r}")


def _statevector_sample(f: QuantumFunctionOracle, rng: RngStream) -> CharacterVector:
    A = f.structure
    if A.order > STATEVECTOR_CAP:
        raise TooLarge(f"statevector cap {STATEVECTOR_CAP} exceeded by |A| = {A.order}")
    if not A.moduli:
        return CharacterVector(())
    order = A.order
    elements = A.elements()
    # Step 1+2: uniform superposition over A with an empty label register.
    # Step 3: oracle write; amplitudes grouped by label class.
    classes: dict[str, list[tuple]] = {}
    for t in elements:
        classes.setdefault(f.eval(t), []).append(t)
    # Step 4: exact QFT over each cyclic factor, done per label class since
    # the label register is untouched by the transform.
    shape = tuple(A.moduli)
    probs = np.zeros(shape)
    for label, ts in classes.items():
        grid = np.zeros(shape, dtype=complex)
        for t in ts:
            grid[t] = 1.0 / np.sqrt(order)
        amp = np.fft.fftn(grid) / np.sqrt(order)
        probs += np.abs(amp) ** 2
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise HspError(f"statevector probabilities sum to {total}")
    flat = probs.reshape(-1)
    flat = np.where(flat < 1e-12, 0.0, flat)
    flat = flat / flat.sum()
    # Step 5: measure the first register.
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(flat), u, side="right"))
    idx = min(idx, len(flat) - 1)
    coeffs = []
    for m in reversed(A.moduli):
        coeffs.append(idx % m)
        idx //= m
    return CharacterVector(tuple(reversed(coeffs)))


def annihilates(structure: AbelianStructure, c: Sequence[int], x: Sequence[int]) -> bool:
    return structure.pairing(c, x) == 0


def abelian_hsp(f: QuantumFunctionOracle, cfg: SolverConfig) -> list[tuple[int, ...]]:
    """Generators of the subgroup hidden by f, failure probability <= epsilon.

    Draws characters and maintains the joint kernel; stops once the kernel is
    unchanged for ceil(log2(1/epsilon)) consecutive rounds (each fresh uniform
    draw halves a strictly-too-large kernel with probability >= 1/2).
    """
    structure = f.structure
    if not structure.moduli or structure.order == 1:
        return []
    rng = cfg.rng
    samples: list[tuple[int, ...]] = []
    kernel_gens = None  # None means "whole group so far"
    kernel_order = structure.order
    stable = 0
    rounds = 0
    while stable < cfg.stable_rounds:
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise RoundBudgetExceeded(f"no convergence in {MAX_ROUNDS} rounds")
        c = sample_character(f, cfg.backend, rng)
        samples.append(tuple(c.coeffs))
        current = (
            kernel_gens
            if kernel_gens is not None
            else [u for u in _unit_tuples(structure)]
        )
        if all(annihilates(structure, c, x) for x in current):
            stable += 1
            continue
        kernel_gens = solve_character_kernel(structure, samples)
        new_order = subgroup_order(structure, kernel_gens)
        if new_order >= kernel_order:
            raise InvariantBroken(f"kernel did not shrink: {new_order} >= {kernel_order}")
        kernel_order = new_order
        stable = 0
    if kernel_gens is None:
        kernel_gens = [u for u in _unit_tuples(structure)]
    return [t for t in kernel_gens if any(t)]


def _unit_tuples(structure: AbelianStructure):
    for i, m in enumerate(structure.moduli):
        if m > 1:
            unit = [0] * len(structure.moduli)
            unit[i] = 1
            yield tuple(unit)


def order_from_multiple(view: GroupView, g, m: int) -> int:
    """Exact order of g given a multiple m of it (harness-side shortcut)."""
    from sympy import factorint

    id_key = view.hkey(view.identity())
    d = m
    for p in factorint(m):
        while d % p == 0 and view.hkey(view.power(g, d // p)) == id_key:
            d //= p
    return d


def cyclic_power_oracle(view: GroupView, g, m: int) -> QuantumFunctionOracle:
    """Oracle k -> label(g^k) over Z_m, with a harness order provider."""
    cache: dict[int, object] = {}

    def elem(t):
        k = t[0]
        if k not in cache:
            cache[k] = view.power(g, k)
        return cache[k]

    def provider():
        d = order_from_multiple(view, g, m)
        return [(d % m,)] if d < m else []

    return QuantumFunctionOracle(AbelianStructure((m,)), view, elem, provider)


class _HarnessView(QuotientView):
    """A view whose equality is the wrapped view's harness-privileged key."""

    def key(self, a) -> str:
        return self.group.hkey(a)


def _kernel_provider(view: GroupView, images: Sequence, structure: AbelianStructure) -> Callable:
    """Harness provider for the kernel of t -> prod images_i^t_i over
    `structure`: decompose the Abelian group the images generate at the
    view's harness key and solve the congruence kernel exactly."""

    def provider():
        dec = decompose_abelian(_HarnessView(view), images)
        rows = [dec.tuple_of(x) for x in images]
        return hom_kernel(structure.moduli, rows, dec.structure)

    return provider


def find_order(
    view: GroupView,
    g,
    cfg: SolverConfig,
    order_bound: Optional[int] = None,
) -> int:
    """Exact order of g (or of its coset when `view` is a quotient view),
    realized as the Abelian HSP over Z_m with f(k) = label(g^k).  Without an
    order_bound the view's order_hint is used; quotient views have none."""
    if order_bound is None:
        order_bound = view.order_hint
    if order_bound is None:
        raise NoOrderBound("need a known multiple of the order")
    m = int(order_bound)
    if m < 1:
        raise NoOrderBound(f"bad order bound {m}")
    if view.is_identity(g):
        return 1
    if m == 1:
        return 1
    oracle = cyclic_power_oracle(view, g, m)
    gens = abelian_hsp(oracle, cfg)
    d = m
    for t in gens:
        d = gcd(d, t[0])
    return d
