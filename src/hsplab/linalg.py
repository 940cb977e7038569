"""Exact integer linear algebra over products of cyclic groups.

Smith normal form with transform matrices, dual-group (character) arithmetic,
and reconstruction of a subgroup from sampled orthogonal characters.  All
arithmetic is arbitrary precision; no modular shortcuts.

Also the quotient views of a black-box group G: G modulo a hidden normal
subgroup (equality by f-labels) and G modulo an enumerated normal subgroup
(equality by canonical coset keys).  They implement the same GroupView
interface as BlackBoxGroup, so closure, power, order finding and the Abelian
decomposition take a group or a quotient alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod
from operator import mul
from typing import Optional, Sequence

from .errors import BoundExceeded, InvariantBroken, NotAbelian
from .core import (
    BlackBoxGroup,
    GroupElement,
    GroupView,
    _closure,
    _coset_keys,
    _factor,
    enum_bound,
)

Matrix = list[list[int]]


@dataclass(frozen=True)
class AbelianStructure:
    """Z_m1 x ... x Z_mk presented by its list of cyclic moduli."""

    moduli: tuple[int, ...]

    @cached_property
    def exponent(self) -> int:
        return lcm(*self.moduli) if self.moduli else 1

    @cached_property
    def order(self) -> int:
        return prod(self.moduli)

    @cached_property
    def _weights(self) -> tuple[int, ...]:
        return tuple(self.exponent // m for m in self.moduli)

    def reduce(self, t: Sequence[int]) -> tuple[int, ...]:
        return tuple(x % m for x, m in zip(t, self.moduli))

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a: Sequence[int]) -> tuple[int, ...]:
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def units(self) -> list[tuple[int, ...]]:
        """The unit tuples of the non-trivial factors, which generate the group."""
        k = len(self.moduli)
        return [tuple(int(i == j) for j in range(k)) for i, m in enumerate(self.moduli) if m > 1]

    def elements(self) -> list[tuple[int, ...]]:
        return list(product(*map(range, self.moduli)))

    def pairing(self, c: Sequence[int], x: Sequence[int]) -> int:
        """Sum of c_j * x_j * (M/m_j) mod M; zero iff chi_c(x) = 1."""
        return sum(map(mul, map(mul, c, x), self._weights)) % self.exponent


def identity_matrix(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U*a*V = D diagonal, d1 | d2 | ..., U, V unimodular."""
    rows, cols = len(a), len(a[0])
    D = [list(map(int, row)) for row in a]
    U = identity_matrix(rows)
    V = identity_matrix(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        for k in range(cols):
            D[i][k] -= q * D[j][k]
        for k in range(rows):
            U[i][k] -= q * U[j][k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for k in range(rows):
            D[k][i] -= q * D[k][j]
        for k in range(cols):
            V[k][i] -= q * V[k][j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for k in range(rows):
            D[k][i], D[k][j] = D[k][j], D[k][i]
        for k in range(cols):
            V[k][i], V[k][j] = V[k][j], V[k][i]

    t = 0
    while t < min(rows, cols):
        # Move a nonzero entry of minimal magnitude to the pivot position.
        # Re-selecting after every reduction pass keeps entries small (the
        # swap-in-place variant can blow entries up doubly exponentially).
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(D[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        remainder = False
        for i in range(t + 1, rows):
            if D[i][t]:
                row_op(i, t, D[i][t] // D[t][t])
                remainder = remainder or D[i][t] != 0
        for j in range(t + 1, cols):
            if D[t][j]:
                col_op(j, t, D[t][j] // D[t][t])
                remainder = remainder or D[t][j] != 0
        if remainder:
            continue  # a strictly smaller entry exists; take it as the pivot
        # Row and column are clear; enforce the divisibility chain.
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if D[i][j] % D[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offending row to the pivot row
            continue
        if D[t][t] < 0:
            for k in range(cols):
                D[t][k] = -D[t][k]
            for k in range(rows):
                U[t][k] = -U[t][k]
        t += 1
    return U, D, V


def row_basis(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Hermite-style basis of the lattice generated by the given rows."""
    work = [list(map(int, r)) for r in rows if any(r)]
    if not work:
        return []
    cols = len(work[0])
    basis: list[list[int]] = []
    pivot_col = 0
    r = 0
    while pivot_col < cols and r < len(work):
        # gcd-eliminate column pivot_col among rows r..end
        while True:
            live = [i for i in range(r, len(work)) if work[i][pivot_col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(work[i][pivot_col]))
            i0 = live[0]
            for i in live[1:]:
                q = work[i][pivot_col] // work[i0][pivot_col]
                work[i] = [x - q * y for x, y in zip(work[i], work[i0])]
        live = [i for i in range(r, len(work)) if work[i][pivot_col] != 0]
        if live:
            work[r], work[live[0]] = work[live[0]], work[r]
            if work[r][pivot_col] < 0:
                work[r] = [-x for x in work[r]]
            r += 1
        pivot_col += 1
    return [row for row in work[:r] if any(row)]


def lattice_solutions(B: Matrix, modulus: int) -> list[list[int]]:
    """Basis of the lattice {x in Z^k : B x = 0 (mod modulus)}."""
    k = len(B[0])
    _, D, V = smith_normal_form(B)
    # d == 0 (no constraint) -> free coordinate
    mults = []
    for i in range(k):
        d = D[i][i] if i < len(D) else 0
        mults.append(1 if d == 0 else modulus // gcd(d, modulus))
    basis = []
    for j in range(k):
        basis.append([V[row][j] * mults[j] for row in range(k)])
    return basis


def _pairing_kernel(
    structure: AbelianStructure, rows: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Generators of {x in structure : pairing(row, x) = 0 for every row}: the
    kernel of x -> (pairing(row, x))_row into Z_M^len(rows), M the exponent."""
    M = structure.exponent
    images = [
        [r[j] * (M // m) for r in rows] for j, m in enumerate(structure.moduli)
    ]
    return hom_kernel(structure.moduli, images, AbelianStructure((M,) * len(rows)))


def dual_subgroup(
    structure: AbelianStructure, h_gens: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Generators of H-perp, the characters trivial on <h_gens>, as their
    coefficient tuples c: chi_c(x) = exp(2*pi*i * sum c_j x_j / m_j)."""
    return _pairing_kernel(structure, [structure.reduce(h) for h in h_gens])


def solve_character_kernel(
    structure: AbelianStructure, samples: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Generators of the joint kernel of the sampled characters."""
    return _pairing_kernel(structure, [structure.reduce(c) for c in samples])


def subgroup_order(structure: AbelianStructure, gens: Sequence[Sequence[int]]) -> int:
    """Order of the subgroup of `structure` generated by the tuples: |A| over
    the index in Z^k of the lattice they span with the moduli's multiples,
    which is the product of the pivots of its square echelon basis."""
    k = len(structure.moduli)
    if k == 0:
        return 1
    rows = [list(structure.reduce(g)) for g in gens]
    rows += [[structure.moduli[i] if j == i else 0 for j in range(k)] for i in range(k)]
    basis = row_basis(rows)
    return structure.order // prod(basis[i][i] for i in range(k))


def subgroup_elements(
    structure: AbelianStructure, gens: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """All elements of the subgroup generated by the tuples, sorted."""
    gens = [structure.reduce(g) for g in gens]
    return sorted(_closure(structure.add, None, structure.zero(), gens, structure.order))


def hom_kernel(
    domain_moduli: Sequence[int],
    image_rows: Sequence[Sequence[int]],
    codomain: AbelianStructure,
) -> list[tuple[int, ...]]:
    """Kernel generators of the homomorphism Z_domain -> codomain.

    image_rows[i] is the codomain tuple of the i-th unit vector of the domain.
    """
    r = len(domain_moduli)
    if r == 0:
        return []
    if not codomain.moduli:  # everything maps to the trivial group
        return AbelianStructure(tuple(domain_moduli)).units()
    L = codomain.exponent
    B = []
    for j, mu in enumerate(codomain.moduli):
        B.append([image_rows[i][j] * (L // mu) for i in range(r)])
    basis = lattice_solutions(B, L)
    reduced = [[x % m for x, m in zip(v, domain_moduli)] for v in basis]
    out = []
    for v in row_basis(reduced):
        t = tuple(x % m for x, m in zip(v, domain_moduli))
        if any(t):
            out.append(t)
    return out


class QuotientView(GroupView):
    """The elements and products of `group`, with an equality of its own."""

    def __init__(self, group: GroupView):
        self.group = group

    def identity(self):
        return self.group.identity()

    def multiply(self, a, b):
        return self.group.multiply(a, b)

    def invert(self, a):
        return self.group.invert(a)


class LabelQuotientView(QuotientView):
    """G modulo a hidden normal subgroup: equality via f-labels."""

    def __init__(self, G: BlackBoxGroup, f):
        super().__init__(G)
        self.oracle = f

    def key(self, a) -> str:
        return self.oracle.eval(a)

    def hkey(self, a) -> str:
        return self.oracle.peek(a)


class CosetQuotientView(QuotientView):
    """G modulo a normal subgroup given by its enumerated elements."""

    def __init__(self, G: BlackBoxGroup, n_elements: Sequence[GroupElement]):
        super().__init__(G)
        self._coset_key = _coset_keys(G, n_elements)

    def key(self, a) -> int:
        return self._coset_key(a)


def view_closure(view: GroupView, seeds, bound: Optional[int] = None):
    """Distinct elements of <seeds> under the view's equality, BFS order.

    Unlike enumerate_closure it does not drop identity seeds first: on a
    LabelQuotientView that test would cost f-queries."""
    bound = enum_bound() if bound is None else bound
    return _closure(view.multiply, view.key, view.identity(), list(seeds), bound)


class AbelianDecomposition:
    """Isomorphism of the Abelian group <g_1..g_k> with a product of cyclic
    groups of prime-power order.

    Every element is one word g_1^e_1 ... g_k^e_k with 0 <= e_i < r_i, where
    r_i is the least power of g_i that lies in <g_1..g_{i-1}>.  The rows
    `relations`, r_i u_i minus the exponents of g_i^r_i, are triangular and
    generate every relation among the generators.  With U R V = D the Smith
    normal form of that matrix, a word's tuple is its exponent row times V,
    taken modulo each prime-power part of the invariant factors in turn.

    So row i of V, reduced the same way, is g_i's tuple: `generator_tuples`
    expresses every generator over `basis` without a key call.  (For g_i in
    <g_1..g_{i-1}> its unit row and its word's exponents differ by a
    relation, and every row of R V = U^-1 D vanishes modulo the parts.)"""

    def __init__(self, view: GroupView, table: dict, relations: Matrix):
        self.view = view
        self.relations = relations
        parts, V = [], []  # parts: (column of V, prime-power modulus)
        if relations:
            _, D, V = smith_normal_form(relations)
            for i in range(len(relations)):
                parts += [(i, p**a) for p, a in _factor(D[i][i]).items()]
        self.structure = AbelianStructure(tuple(q for _, q in parts))
        self.generator_tuples = [tuple(row[i] % q for i, q in parts) for row in V]
        self._to_tuple = {}  # view key -> tuple
        self._from_tuple = {}  # tuple -> element
        columns = [([row[i] for row in V], q) for i, q in parts]
        for key, (exponents, x) in table.items():
            t = tuple(sum(map(mul, exponents, column)) % q for column, q in columns)
            self._to_tuple[key] = t
            self._from_tuple[t] = x
        if len(self._from_tuple) != len(table):
            raise InvariantBroken(
                f"decomposition covers {len(self._from_tuple)} of {len(table)} elements"
            )
        self.basis = [self.element_of(u) for u in identity_matrix(len(parts))]

    def tuple_of(self, x) -> Optional[tuple[int, ...]]:
        """x's tuple, or None when x lies outside the decomposed group."""
        return self._to_tuple.get(self.view.key(x))

    def element_of(self, t: Sequence[int]):
        return self._from_tuple[self.structure.reduce(t)]


def decompose_abelian(view: GroupView, gens: Sequence) -> AbelianDecomposition:
    """Decompose the Abelian group generated by `gens` in one pass (classical
    stand-in for the quantum decomposition of Abelian black-box groups).

    Each generator is powered until it lands in the table of the group its
    predecessors generate, and the table is extended by its lower powers,
    keyed by the scan itself; one Smith normal form of the triangular
    relations gives the structure.  The view's key is called exactly
    |<gens>| + k^2 times for k generators: k^2 - k by the commute check, one
    for the identity, one per power landing in the table, and one per other
    element.  `view` is a BlackBoxGroup or a quotient view.  Raises
    NotAbelian if the generators do not commute, BoundExceeded if |<gens>|
    exceeds the enumeration bound.
    """
    gens = list(gens)
    if not view.commuting(gens):
        raise NotAbelian("generators do not commute")
    bound = enum_bound()
    k = len(gens)
    identity = view.identity()
    table = {view.key(identity): ((0,) * k, identity)}  # key -> (exponents, element)
    relations = []
    for i, g in enumerate(gens):
        powers = []  # (key, element) of g^1 .. g^(r-1)
        x = g
        while (kx := view.key(x)) not in table:
            if len(table) * (len(powers) + 2) > bound:
                raise BoundExceeded(f"|<gens>| exceeds bound {bound}")
            powers.append((kx, x))
            x = view.multiply(x, g)
        relation = [-e for e in table[kx][0]]
        relation[i] += len(powers) + 1
        relations.append(relation)
        for exponents, s in list(table.values()):
            for j, (ky, y) in enumerate(powers, 1):
                if any(exponents):  # s is not the identity
                    y = view.multiply(s, y)
                    ky = view.key(y)
                table[ky] = (exponents[:i] + (j,) + exponents[i + 1 :], y)
    return AbelianDecomposition(view, table, relations)
