"""Exact simulation of the quantum primitives: Fourier sampling over finite
Abelian groups, the Abelian hidden-subgroup solver, and order finding.

A `QuantumFunctionOracle` reads f through a view: its counted path is the
view's key and its harness path the view's `hkey`, taken only here, so a
solver hands over a view and an element map and never peeks itself.
Order finding, constructive membership and the hidden normal subgroup ask
one kind of oracle, `cover_oracle`: t -> prod x_i^t_i over
Z_m1 x ... x Z_mk, whose kernel is the relation lattice of the x_i.

Two sampler backends produce uniform draws from H-perp:

* ``ideal`` determines the hidden subgroup on the harness side (by label
  collision search, or by a structure-aware provider attached to the oracle)
  and then draws directly from the dual subgroup.  Its classical probing is
  harness-privileged and tallied separately from solver queries.
* ``statevector`` runs the five circuit steps literally on an explicit
  amplitude vector and measures the first register.

Every answer of `abelian_hsp` is certified exact through the counted path;
epsilon bounds only the chance of a failed certificate and extra sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property
from math import ceil, gcd, log2
from typing import Callable, Optional, Sequence

from .core import GroupView, _factor
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
    QuotientView,
    decompose_abelian,
    dual_subgroup,
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
    """Seeded RNG whose draws (rng_draws in QueryStats) are counted in
    `tally`, a one-element list that every stream of one solve shares."""

    def __init__(self, seed: int, tally: Optional[list[int]] = None):
        self.seed = seed
        self._rng = random.Random(seed)
        self.tally = [0] if tally is None else tally

    @property
    def draws(self) -> int:
        return self.tally[0]

    def randrange(self, n: int) -> int:
        self.tally[0] += 1
        return self._rng.randrange(n)

    def random(self) -> float:
        self.tally[0] += 1
        return self._rng.random()

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


@dataclass
class SolverConfig:
    """Per-solve configuration: sampling epsilon, seed, and sampler kind."""

    epsilon: float = 2.0**-10
    seed: int = 0
    backend: str = "ideal"  # sampler kind: ideal | statevector

    def __post_init__(self):
        if not 0 < self.epsilon < 0.5:
            raise HspError(f"epsilon must be in (0, 1/2), got {self.epsilon}")
        self._rng: Optional[RngStream] = None
        self._child_counter = 0
        self._tally = [0]  # draws of the root's stream and every child's

    @property
    def rng(self) -> RngStream:
        if self._rng is None:
            self._rng = RngStream(self.seed, self._tally)
        return self._rng

    @property
    def draws(self) -> int:
        """Draws of this config's root stream and of every derived stream."""
        return self._tally[0]

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
        sub = SolverConfig(self.epsilon, mix, self.backend)
        sub._tally = self._tally
        return sub


class QuantumFunctionOracle:
    """The function t -> elem(t) over an Abelian structure, labelled by a view.

    ``eval`` is the counted path, the view's key; ``peek`` is the
    harness-privileged path, the view's hkey.  Equal labels stand for equal
    (coset) states; distinct labels stand for orthogonal states.
    ``subgroup_provider`` (when set) lets the harness determine the hidden
    subgroup without a full collision sweep; it returns None when it cannot
    tell, and the sweep runs instead.
    """

    def __init__(
        self,
        structure: AbelianStructure,
        view: GroupView,
        elem: Callable[[tuple], object],
        subgroup_provider: Optional[Callable[[], list[tuple]]] = None,
        member: Optional[Callable] = None,
    ):
        self.structure = structure
        self._view = view
        self._elem = elem
        self._provider = subgroup_provider
        self._member = member

    def eval(self, t: Sequence[int]) -> str:
        return self._view.key(self._elem(self.structure.reduce(t)))

    def peek(self, t: Sequence[int]) -> str:
        return self._view.hkey(self._elem(self.structure.reduce(t)))

    @cached_property
    def _zero_label(self) -> str:
        return self.eval(self.structure.zero())

    def certifies(self, t: Sequence[int]) -> bool:
        """Whether t is in the hidden subgroup, on the counted path: f(t) = f(0),
        f(0) asked at the first such test, or, when `member` is set,
        member(elem(t)) finds a witness."""
        if self._member is None:
            return self._zero_label == self.eval(t)
        return self._member(self._elem(self.structure.reduce(t))) is not None

    def hidden_subgroup_gens(self) -> list[tuple]:
        """Harness-side determination of the hidden subgroup's generators."""
        provided = None if self._provider is None else self._provider()
        if provided is not None:
            return [self.structure.reduce(t) for t in provided]
        return self._collision_search()

    @cached_property
    def _ideal_state(self) -> tuple[list, list]:
        """The hidden subgroup's generators and H-perp, found once per oracle."""
        h_gens = self.hidden_subgroup_gens()
        return h_gens, subgroup_elements(self.structure, dual_subgroup(self.structure, h_gens))

    @cached_property
    def _statevector_cdf(self):
        """The cumulative distribution of the measured first register after
        the circuit's first four steps, built once per oracle; None when A is
        trivial."""
        import numpy as np  # only this sampler needs it, and it is slow to import

        A = self.structure
        if A.order > STATEVECTOR_CAP:
            raise TooLarge(f"statevector cap {STATEVECTOR_CAP} exceeded by |A| = {A.order}")
        if not A.moduli:
            return None
        order = A.order
        # Step 1+2: uniform superposition over A with an empty label register.
        # Step 3: oracle write; amplitudes grouped by label class.
        classes: dict[str, list[tuple]] = {}
        for t in A.elements():
            classes.setdefault(self.eval(t), []).append(t)
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
        return np.cumsum(flat / flat.sum())

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


def sample_character(f: QuantumFunctionOracle, backend: str, rng: RngStream) -> tuple[int, ...]:
    """One Fourier-sampling round: a character, as its coefficient tuple,
    drawn uniformly from H-perp."""
    if backend == "ideal":
        h_gens, perp = f._ideal_state
        draw = perp[rng.randrange(len(perp))]
        # sanity: the draw annihilates the hidden subgroup it was derived from
        if any(f.structure.pairing(draw, h) for h in h_gens):
            raise InvariantBroken(f"character {draw} does not annihilate the hidden subgroup")
        return draw
    if backend == "statevector":
        return _statevector_sample(f, rng)
    raise HspError(f"unknown sampler backend {backend!r}")


def _statevector_sample(f: QuantumFunctionOracle, rng: RngStream) -> tuple[int, ...]:
    """Step 5, measuring the first register of the oracle's one state."""
    cdf = f._statevector_cdf
    if cdf is None:
        return ()
    idx = min(int(cdf.searchsorted(rng.random(), side="right")), len(cdf) - 1)
    coeffs = []
    for m in reversed(f.structure.moduli):
        coeffs.append(idx % m)
        idx //= m
    return tuple(reversed(coeffs))


def abelian_hsp(f: QuantumFunctionOracle, cfg: SolverConfig) -> list[tuple[int, ...]]:
    """Generators of the subgroup hidden by f, exactly.

    Draws characters and maintains the joint kernel, which always contains
    H.  Once the kernel is unchanged for ceil(log2(1/epsilon)) consecutive
    rounds it is certified: it equals H iff each of its generators t passes
    `f.certifies`, f(t) = f(0) by default (counted evals, f(0) asked once,
    and not at all when only the trivial kernel is certified).
    A kernel that fails is too large, so it is not certified again; sampling
    goes on until it shrinks.  Epsilon bounds only the chance of extra
    rounds, never of a wrong answer.  Each certified kernel has at most k
    generators (k cyclic factors) and the kernels strictly descend, so one
    call's certificates cost at most 1 + k * (1 + log2|A|) tests.
    """
    structure = f.structure
    if not structure.moduli or structure.order == 1:
        return []
    rng, stable_rounds, pairing = cfg.rng, cfg.stable_rounds, structure.pairing
    samples: list[tuple[int, ...]] = []
    kernel_gens = structure.units()
    kernel_order = structure.order
    refuted = False  # the current kernel failed its certificate
    stable = 0
    rounds = 0
    while True:
        if stable >= stable_rounds and not refuted:
            gens = [t for t in kernel_gens if any(t)]
            if all(f.certifies(t) for t in gens):
                return gens
            refuted = True
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise RoundBudgetExceeded(f"no convergence in {MAX_ROUNDS} rounds")
        c = sample_character(f, cfg.backend, rng)
        samples.append(c)
        if not any(pairing(c, x) for x in kernel_gens):  # c annihilates the kernel
            stable += 1
            continue
        kernel_gens = solve_character_kernel(structure, samples)
        new_order = subgroup_order(structure, kernel_gens)
        if new_order >= kernel_order:
            raise InvariantBroken(f"kernel did not shrink: {new_order} >= {kernel_order}")
        kernel_order = new_order
        refuted = False
        stable = 0


def order_from_multiple(view: GroupView, g, m: int) -> int:
    """Exact order of g given a multiple m of it (harness-side shortcut)."""
    id_key = view.hkey(view.identity())
    d = m
    for p in _factor(m):
        while d % p == 0 and view.hkey(view.power(g, d // p)) == id_key:
            d //= p
    return d


class _HarnessView(QuotientView):
    """A view whose equality is the wrapped view's harness-privileged key."""

    def key(self, a):
        return self.group.hkey(a)


def _kernel_provider(view: GroupView, images: Sequence) -> Callable:
    """Harness provider for the kernel of t -> prod images_i^t_i over a
    structure whose moduli are multiples of the images' orders: the
    relations among the images, found by decomposing the group they
    generate at the view's harness key, generate that kernel once reduced."""
    return lambda: decompose_abelian(_HarnessView(view), images).relations


def cover_oracle(
    view: GroupView, images: Sequence, moduli: Sequence[int], provider: Optional[Callable] = None
) -> QuantumFunctionOracle:
    """The oracle of t -> prod images_i^t_i over Z_m1 x ... x Z_mk, each m_i a
    multiple of image i's order in the view.  Its kernel is the relation
    lattice of the images; each element is formed by `view.word` when first
    asked and then kept.  `provider` defaults to those relations."""
    elem = cache(lambda t: view.word(images, t))
    if provider is None:
        provider = _kernel_provider(view, images)
    return QuantumFunctionOracle(AbelianStructure(tuple(moduli)), view, elem, provider)


def _hiding_provider(view: GroupView, tuple_of: Callable) -> Callable:
    """Harness provider for what a label view's oracle hides over a decomposed
    group: the tuples of the generators that oracle was built from, or None
    (unknown, or one has no tuple) so that the collision search runs."""

    def provider():
        gens = view.oracle.hidden_gens()
        tuples = None if gens is None else [tuple_of(h) for h in gens]
        return None if tuples is None or None in tuples else tuples

    return provider


def find_order(
    view: GroupView,
    g,
    cfg: SolverConfig,
    order_bound: Optional[int] = None,
) -> int:
    """Exact order of g (or of its coset when `view` is a quotient view),
    realized as the Abelian HSP over Z_m on the cover oracle k -> g^k, whose
    harness provider reads the order off `order_from_multiple`.  Without an
    order_bound the view's exponent_hint is used; quotient views have none."""
    if order_bound is None:
        order_bound = view.exponent_hint
    if order_bound is None:
        raise NoOrderBound("need a known multiple of the order")
    m = int(order_bound)
    if m < 1:
        raise NoOrderBound(f"bad order bound {m}")
    if view.is_identity(g) or m == 1:
        return 1
    provider = lambda: [(order_from_multiple(view, g, m),)]  # order m reduces to 0
    gens = abelian_hsp(cover_oracle(view, [g], (m,), provider), cfg)
    return gcd(m, *(t[0] for t in gens))
