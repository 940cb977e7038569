"""Black-box group model: element encodings, oracle bundles, concrete backends.

Elements are fixed-length bit encodings, carried as an int and a length;
bitstrings and length:hex tokens are their spelling at input and output.
All semantic access goes through the owning group's oracles; equality is
decided by the group's key, never by the caller comparing raw bits.  A
black-box group's encodings are unique, so its key is the encoding's int:
for one length, int order is bitstring order, so a least key over a coset
picks the element the least bitstring would.  The quotient views of linalg
have non-unique encodings and keys of their own.

Whether a bitstring encodes a group element is decided in one place,
`Backend.validate`, where encodings enter: a group's generators, the affine
spec's block, the CLI's --hidden tokens and a hiding oracle's hidden
generators.  Every other element is a product of those, so the backends'
multiply and invert trust their operands and compute on their ints.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from itertools import combinations
from math import factorial, lcm, prod
from typing import Callable, Iterable, Optional, Sequence

from .errors import BadSpec, BoundExceeded, BudgetExceeded, InvalidEncoding

DEFAULT_ENUM_BOUND = 4096
MAX_ENCODING_BITS = 1 << 16  # longest length:hex token accepted


def enum_bound() -> int:
    """Enumeration cap; the HSPLAB_MAX_ENUM environment variable, a positive
    integer, overrides it (unset or empty: the default)."""
    value = os.environ.get("HSPLAB_MAX_ENUM")
    if not value:
        return DEFAULT_ENUM_BOUND
    try:
        bound = int(value)
    except ValueError:
        bound = 0
    if bound < 1:
        raise BadSpec(f"HSPLAB_MAX_ENUM must be a positive integer, got {value!r}")
    return bound


class GroupElement:
    """A group element: a fixed-length encoding, carried as the int `value`
    of its `length` bits (first bit most significant).

    `GroupElement(bits)` and `from_hex` check their input; backend products
    come through `_element`, which trusts its value.  Elements are immutable
    and equal exactly when their encodings are.
    """

    __slots__ = ("value", "length")

    def __init__(self, bits: str):
        if not isinstance(bits, str) or not bits or set(bits) - {"0", "1"}:
            raise InvalidEncoding(f"not a bitstring: {bits!r}")
        _set_value(self, int(bits, 2))
        _set_length(self, len(bits))

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def __reduce__(self):
        return _element, (self.value, self.length)

    @property
    def bits(self) -> str:
        return format(self.value, f"0{self.length}b")

    @property
    def hex(self) -> str:
        return f"{self.length}:{self.value:x}"

    @classmethod
    def from_hex(cls, text: str) -> "GroupElement":
        length, _, digits = text.partition(":")
        try:
            width, value = int(length), int(digits, 16)
        except ValueError:
            raise InvalidEncoding(f"not a length:hex token: {text!r}") from None
        if not 0 < width <= MAX_ENCODING_BITS or value < 0 or value.bit_length() > width:
            raise InvalidEncoding(f"hex value does not fit its length: {text!r}")
        return _element(value, width)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.value == other.value and self.length == other.length

    def __hash__(self):
        return hash((self.value, self.length))

    def __repr__(self):
        return f"GroupElement({self.bits})"


_set_value, _set_length = GroupElement.value.__set__, GroupElement.length.__set__
_new = object.__new__


def _element(value: int, length: int) -> GroupElement:
    """The element of a trusted encoding, built without the bitstring check."""
    g = _new(GroupElement)
    _set_value(g, value)
    _set_length(g, length)
    return g


@dataclass
class QueryStats:
    """Monotone counters accumulated over a solver run."""

    f_queries: int = 0
    group_ops: int = 0
    rng_draws: int = 0


@dataclass
class SubgroupResult:
    gens: list[GroupElement]
    stats: QueryStats
    method: str
    f_query_budget: int
    coset_reps: Optional[list[GroupElement]] = None  # V, for the elem2 solvers


def _coset_keys(G: BlackBoxGroup, members: Sequence[GroupElement], label=None) -> Callable:
    """The function x -> canonical key of the coset x*S of G, for a subgroup S
    given by its members: the least key over the coset.  A miss multiplies
    the raw encodings of the whole coset once, |S| group operations, and
    caches the answer under each of its elements, so all calls together
    make at most |G| multiplies.  `label`, when given, maps the least key to
    the value cached and returned."""
    mul, stats = G.backend.mul, G.stats
    values = [s.value for s in members]
    cache: dict = {}

    def coset_key(x: GroupElement):
        found = cache.get(x.value)
        if found is None:
            keys = [mul(x.value, s) for s in values]
            stats.group_ops += len(keys)
            found = min(keys)
            if label is not None:
                found = label(found)
            cache.update(dict.fromkeys(keys, found))
        return found

    return coset_key


def _chunk_width(n: int) -> int:
    return max(1, (n - 1).bit_length())


class Backend:
    """Concrete realization of the multiply/invert/identity oracles.

    An encoding of `n` bits is the int it spells; `unpack` splits it into the
    backend's fields and `pack` joins them, by default as fields of `widths`
    bits, the first most significant.  `decode`/`encode` are the same layout
    on bitstrings.  `mul`/`inv` trust their operands: membership is decided
    once, by `validate`, where an encoding enters.
    """

    kind: str
    n: int
    identity: int  # the identity's encoding
    order_hint: Optional[int] = None  # a known multiple of the group order
    exponent_hint: Optional[int] = None  # a known multiple of every element's order

    def _set_widths(self, widths: Sequence[int]) -> None:
        self.widths = list(widths)
        self.n = sum(widths)
        shifts = [sum(widths[i + 1 :]) for i in range(len(widths))]
        self._layout = [(s, (1 << w) - 1) for s, w in zip(shifts, widths)]

    def unpack(self, value: int):
        return [value >> s & mask for s, mask in self._layout]

    def pack(self, fields: Iterable[int]) -> int:
        out = 0
        for w, x in zip(self.widths, fields):
            out = out << w | x
        return out

    def decode(self, bits: str):
        return self.unpack(int(bits, 2))

    def encode(self, *fields) -> str:
        return format(self.pack(*fields), f"0{self.n}b")

    def _is_element(self, fields) -> bool:
        """Whether the fields of an encoding of the right length are a group element."""
        return True

    def validate(self, bits: str) -> None:
        """Raise InvalidEncoding unless bits encodes an element of the group."""
        if len(bits) != self.n or set(bits) - {"0", "1"} or not self._is_element(self.decode(bits)):
            raise InvalidEncoding(f"not a {self.kind} element: {bits!r}")

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError


class PermutationBackend(Backend):
    """Permutations of {0..d-1}; left action, (g*h)(x) = g(h(x))."""

    kind = "permutation"

    def __init__(self, degree: int):
        if degree < 1 or degree > 64:
            raise BadSpec(f"unsupported permutation degree {degree}")
        self.degree = degree
        self.width = _chunk_width(degree)
        self._set_widths([self.width] * degree)
        self._shifts = [s for s, _ in self._layout]
        self._mask = (1 << self.width) - 1
        self.identity = self.pack(range(degree))
        self.order_hint = factorial(degree)
        self.exponent_hint = lcm(*range(1, degree + 1))

    def _is_element(self, images: list[int]) -> bool:
        return sorted(images) == list(range(self.degree))

    def mul(self, a: int, b: int) -> int:
        """Field x of a*b is field (field x of b) of a."""
        width, mask, shifts = self.width, self._mask, self._shifts
        out = 0
        for s in shifts:
            out = out << width | a >> shifts[b >> s & mask] & mask
        return out

    def inv(self, a: int) -> int:
        """Field (field i of a) of the inverse is i."""
        mask, shifts = self._mask, self._shifts
        out = 0
        for i, s in enumerate(shifts):
            out |= i << shifts[a >> s & mask]
        return out


class Gf2MatrixBackend(Backend):
    """Invertible dim x dim matrices over GF(2), row-major bit encoding."""

    kind = "gf2matrix"

    def __init__(self, dim: int):
        if dim < 1 or dim > 12:
            raise BadSpec(f"unsupported GF(2) matrix dimension {dim}")
        self.dim = dim
        self._set_widths([dim] * dim)
        self._row_mask = (1 << dim) - 1
        self._ones = sum(1 << (dim * i) for i in range(dim))  # bit 0 of every row
        self.identity = self.pack(1 << (dim - 1 - i) for i in range(dim))
        self.order_hint = prod(2**dim - 2**i for i in range(dim))
        # unipotent part 2^ceil(log2 dim), semisimple part lcm(2^d - 1), d <= dim
        self.exponent_hint = 2 ** (dim - 1).bit_length() * lcm(*(2**d - 1 for d in range(1, dim + 1)))

    def _inverse_rows(self, rows: Sequence[int]) -> Optional[list[int]]:
        """The rows of the inverse, by Gauss-Jordan elimination on [rows | I];
        None when the matrix is singular."""
        dim = self.dim
        work = [r << dim | 1 << (dim - 1 - i) for i, r in enumerate(rows)]
        for rank in range(dim):
            bit = 1 << (2 * dim - 1 - rank)
            for i in range(rank, dim):
                if work[i] & bit:
                    break
            else:
                return None
            pivot = work[i]
            work[i] = work[rank]
            work = [r ^ pivot if r & bit else r for r in work]
            work[rank] = pivot
        return [r & self._row_mask for r in work]

    def _is_element(self, rows: Sequence[int]) -> bool:
        return self._inverse_rows(rows) is not None

    def mul(self, a: int, b: int) -> int:
        """Row i of a*b is the XOR of the rows of b that row i of a picks.
        Bit j of every row of a, one bit per row field, times the row of b
        that bit j picks puts that row into each field whose bit j is set;
        each copy fits its field, so nothing carries."""
        dim, ones, row = self.dim, self._ones, self._row_mask
        out = 0
        for j in range(dim):
            out ^= (a >> j & ones) * (b >> dim * j & row)
        return out

    def inv(self, a: int) -> int:
        return self.pack(self._inverse_rows(self.unpack(a)))


class AffineGf2Backend(Gf2MatrixBackend):
    """(k+1)x(k+1) GF(2) matrices of shape [[A, b], [0, 1]] with A invertible."""

    kind = "affinegf2"

    def __init__(self, k: int):
        if k < 1 or k > 11:
            raise BadSpec(f"unsupported affine dimension k={k}")
        super().__init__(k + 1)
        self.k = k

    def _is_element(self, rows: Sequence[int]) -> bool:
        return rows[-1] == 1 and super()._is_element(rows)


class WreathBackend(Backend):
    """Wreath product of the elementary Abelian 2-group of rank k with a swap.

    An element (v, w, s) is encoded as v, then w (k bits each), then the swap
    bit s."""

    kind = "wreath"

    def __init__(self, k: int):
        if k < 1 or k > 10:
            raise BadSpec(f"unsupported wreath rank k={k}")
        self.k = k
        self.n = 2 * k + 1
        self._mask = (1 << k) - 1
        self.identity = 0
        self.order_hint = 2 ** (2 * k + 1)
        self.exponent_hint = 4

    def unpack(self, value: int) -> tuple[int, int, int]:
        return value >> (self.k + 1), value >> 1 & self._mask, value & 1

    def pack(self, v: int, w: int, s: int) -> int:
        return v << (self.k + 1) | w << 1 | s

    def _swap(self, a: int) -> int:
        """a with its v and w exchanged."""
        k = self.k
        return (a >> 1 & self._mask) << (k + 1) | (a >> (k + 1)) << 1 | a & 1

    def mul(self, a: int, b: int) -> int:
        """(v1, w1, s1)(v2, w2, s2) is the XOR of a with b, b's v and w
        exchanged when s1 is set."""
        return a ^ (self._swap(b) if a & 1 else b)

    def inv(self, a: int) -> int:
        return self._swap(a) if a & 1 else a


class _MixedRadixBackend(Backend):
    """Coordinate tuples 0 <= v_i < moduli[i], each in a bit field of widths[i]."""

    moduli: Sequence[int]
    identity = 0

    def _is_element(self, values: list[int]) -> bool:
        return all(v < m for v, m in zip(values, self.moduli))


class ExtraSpecialBackend(_MixedRadixBackend):
    """Extra-special group of order p^3 for an odd prime p.

    variant "exponent-p": Heisenberg triples (a, b, c) over Z_p with
        (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b').
    variant "exponent-p2": pairs (a mod p^2, b mod p) with
        (a,b)*(a',b') = (a + a'*(1+p)^b, b+b'), where (1+p)^b = 1+b*p mod p^2.
    """

    kind = "extraspecial"

    def __init__(self, p: int, variant: str = "exponent-p"):
        if not 2 < p <= 31 or _factor(p) != {p: 1}:
            raise BadSpec(f"extra-special backend needs an odd prime up to 31, got {p}")
        if variant not in ("exponent-p", "exponent-p2"):
            raise BadSpec(f"unknown extra-special variant {variant!r}")
        self.p = p
        self.variant = variant
        if variant == "exponent-p":
            self._set_widths([_chunk_width(p)] * 3)
            self.moduli = [p, p, p]
        else:
            self._set_widths([_chunk_width(p * p), _chunk_width(p)])
            self.moduli = [p * p, p]
        self._low = self.widths[-1]
        self._mask = (1 << self._low) - 1
        self.order_hint = p**3
        self.exponent_hint = p if variant == "exponent-p" else p * p

    def mul(self, x: int, y: int) -> int:
        p, low, mask = self.p, self._low, self._mask
        if self.variant == "exponent-p":
            a1, b1, c1 = x >> 2 * low, x >> low & mask, x & mask
            a2, b2, c2 = y >> 2 * low, y >> low & mask, y & mask
            return (a1 + a2) % p << 2 * low | (b1 + b2) % p << low | (c1 + c2 + a1 * b2) % p
        a1, b1 = x >> low, x & mask
        a2, b2 = y >> low, y & mask
        return (a1 + a2 * (1 + b1 * p)) % (p * p) << low | (b1 + b2) % p

    def inv(self, x: int) -> int:
        p, low, mask = self.p, self._low, self._mask
        if self.variant == "exponent-p":
            a, b, c = x >> 2 * low, x >> low & mask, x & mask
            return (-a) % p << 2 * low | (-b) % p << low | (a * b - c) % p
        a, b = x >> low, x & mask
        return (-a * (1 + (-b % p) * p)) % (p * p) << low | (-b) % p


class AbelianBackend(_MixedRadixBackend):
    """Direct product of cyclic groups Z_m1 x ... x Z_mk, additive tuples."""

    kind = "abelian"

    def __init__(self, moduli: Sequence[int]):
        if not moduli or any(m < 1 for m in moduli):
            raise BadSpec(f"bad moduli {moduli}")
        if prod(moduli) > 2**20:
            raise BadSpec(f"abelian backend too large: {moduli}")
        self.moduli = tuple(moduli)
        self._set_widths([_chunk_width(m) for m in moduli])
        self._radix = [(s, mask, m) for (s, mask), m in zip(self._layout, self.moduli)]
        self.order_hint = prod(moduli)
        self.exponent_hint = lcm(*moduli)

    def mul(self, a: int, b: int) -> int:
        out = 0
        for s, mask, m in self._radix:
            out |= ((a >> s & mask) + (b >> s & mask)) % m << s
        return out

    def inv(self, a: int) -> int:
        out = 0
        for s, mask, m in self._radix:
            out |= -(a >> s & mask) % m << s
        return out


class ProductBackend(Backend):
    """Direct product of arbitrary backends with concatenated encodings; the
    fields are the parts' encodings."""

    kind = "product"

    def __init__(self, parts: Sequence[Backend]):
        if not parts:
            raise BadSpec("empty product")
        self.parts = list(parts)
        self._set_widths([p.n for p in parts])
        self.identity = self.pack(p.identity for p in parts)
        hints = [p.order_hint for p in parts]
        self.order_hint = prod(hints) if all(hints) else None
        exponents = [p.exponent_hint for p in parts]
        self.exponent_hint = lcm(*exponents) if all(exponents) else None

    def _is_element(self, values: list[int]) -> bool:
        return all(p._is_element(p.unpack(v)) for p, v in zip(self.parts, values))

    def mul(self, a: int, b: int) -> int:
        return self.pack(p.mul(x, y) for p, x, y in zip(self.parts, self.unpack(a), self.unpack(b)))

    def inv(self, a: int) -> int:
        return self.pack(p.inv(x) for p, x in zip(self.parts, self.unpack(a)))


class GroupView:
    """The group interface: identity, multiply, invert and a canonical key
    deciding equality.  A BlackBoxGroup is one; the quotient views of linalg
    are others, whose key decides equality modulo a normal subgroup.  The
    derived operations below are written once, against that interface.
    """

    order_hint: Optional[int] = None  # a known multiple of the group order
    exponent_hint: Optional[int] = None  # a known multiple of every element's order

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def key(self, a):
        raise NotImplementedError

    def hkey(self, a):
        """Harness-privileged key (default: same as key)."""
        return self.key(a)

    def equal(self, g, h) -> bool:
        return self.key(g) == self.key(h)

    def is_identity(self, g) -> bool:
        return self.key(g) == self.key(self.identity())

    def commute(self, a, b) -> bool:
        return self.key(self.multiply(a, b)) == self.key(self.multiply(b, a))

    def commuting(self, xs) -> bool:
        """Whether the elements commute pairwise; pairs (x_i, x_j), i < j, are
        checked in order, up to the first that does not commute."""
        return all(self.commute(a, b) for a, b in combinations(xs, 2))

    def power(self, g, k: int):
        return self.word([g], [k])

    def word(self, xs, exponents):
        """prod x_i^e_i, in order: each power is squared and multiplied into
        one running product, which starts at the identity."""
        result = self.identity()
        for g, k in zip(xs, exponents):
            if k < 0:
                g, k = self.invert(g), -k
            while k:
                if k & 1:
                    result = self.multiply(result, g)
                if k >> 1:
                    g = self.multiply(g, g)
                k >>= 1
        return result

    def commutator(self, a, b):
        return self.multiply(self.multiply(a, b), self.invert(self.multiply(b, a)))

    def conjugate(self, g, x):
        """g * x * g^-1."""
        return self.multiply(self.multiply(g, x), self.invert(g))


class BlackBoxGroup(GroupView):
    """Oracle bundle: multiply, invert, identity, equality test, generators."""

    def __init__(self, backend: Backend, generator_bits: Sequence[str], meta: Optional[dict] = None):
        self.backend = backend
        self.stats = QueryStats()
        self.meta = meta or {}
        self._identity = _element(backend.identity, backend.n)
        for bits in generator_bits:
            backend.validate(bits)
        self.generators = [GroupElement(b) for b in generator_bits] or [self._identity]

    @property
    def order_hint(self) -> Optional[int]:
        return self.backend.order_hint

    @property
    def exponent_hint(self) -> Optional[int]:
        return self.backend.exponent_hint

    def identity(self) -> GroupElement:
        return self._identity

    def multiply(self, g: GroupElement, h: GroupElement) -> GroupElement:
        self.stats.group_ops += 1
        backend = self.backend
        return _element(backend.mul(g.value, h.value), backend.n)

    def invert(self, g: GroupElement) -> GroupElement:
        self.stats.group_ops += 1
        backend = self.backend
        return _element(backend.inv(g.value), backend.n)

    def key(self, g: GroupElement) -> int:
        return g.value


@dataclass
class GroupSpec:
    """Declarative description of a concrete group, see the spec-file grammar."""

    kind: str
    degree: Optional[int] = None
    perms: Optional[list[list[int]]] = None  # permutations as image lists
    dim: Optional[int] = None
    matrices: Optional[list[list[str]]] = None  # each matrix as list of row bitstrings
    k: Optional[int] = None
    block: Optional[list[str]] = None  # k row bitstrings of the invertible block
    translations: Optional[list[str]] = None  # k-bit columns of type-(b) generators
    p: Optional[int] = None
    variant: str = "exponent-p"
    moduli: Optional[list[int]] = None
    parts: Optional[list["GroupSpec"]] = None


def _affine_generators(backend: AffineGf2Backend, block_rows: list[str], translations: list[str]):
    k = backend.k
    block_gen = backend.encode(
        [int(r, 2) << 1 for r in block_rows] + [1]
    )
    try:
        backend.validate(block_gen)
    except InvalidEncoding as exc:
        raise BadSpec(f"type-(a) block is not invertible: {exc}") from exc
    trans_gens = []
    for t in translations:
        if len(t) != k or set(t) - {"0", "1"}:
            raise BadSpec(f"bad translation vector {t!r}")
        rows = [(1 << (k - i)) | int(t[i]) for i in range(k)] + [1]
        trans_gens.append(backend.encode(rows))
    return block_gen, trans_gens


def make_group(spec: GroupSpec) -> BlackBoxGroup:
    """Construct a black-box group from a declarative spec."""
    if spec.kind == "permutation":
        if not spec.degree or not spec.perms:
            raise BadSpec("permutation spec needs degree and generators")
        backend = PermutationBackend(spec.degree)
        gens = []
        for images in spec.perms:
            if sorted(images) != list(range(spec.degree)):
                raise BadSpec(f"not a permutation of 0..{spec.degree - 1}: {images}")
            gens.append(backend.encode(images))
        return BlackBoxGroup(backend, gens)

    if spec.kind == "gf2matrix":
        if not spec.dim or not spec.matrices:
            raise BadSpec("gf2matrix spec needs dim and generators")
        backend = Gf2MatrixBackend(spec.dim)
        gens = []
        for rows in spec.matrices:
            if len(rows) != spec.dim or any(len(r) != spec.dim for r in rows):
                raise BadSpec(f"bad matrix shape: {rows}")
            gens.append("".join(rows))
        return BlackBoxGroup(backend, gens)

    if spec.kind == "affinegf2":
        if not spec.k or not spec.block:
            raise BadSpec("affinegf2 spec needs k and a block")
        if len(spec.block) != spec.k or any(len(r) != spec.k for r in spec.block):
            raise BadSpec(f"block must be {spec.k} rows of {spec.k} bits")
        backend = AffineGf2Backend(spec.k)
        block_gen, trans_gens = _affine_generators(backend, spec.block, spec.translations or [])
        block = int(block_gen, 2)
        block_order = _order_of(block, backend.mul, lambda v: v == backend.identity, 1 << 20)
        backend.exponent_hint = 2 * block_order  # (M, v)^ord(M) is a translation
        meta = {
            "k": spec.k,
            "block_order": block_order,
            "elem2_normal_gens": trans_gens,
        }
        return BlackBoxGroup(backend, [block_gen] + trans_gens, meta)

    if spec.kind == "wreath":
        if not spec.k:
            raise BadSpec("wreath spec needs k")
        backend = WreathBackend(spec.k)
        gens = [backend.encode(1 << i, 0, 0) for i in range(spec.k)]
        gens += [backend.encode(0, 1 << i, 0) for i in range(spec.k)]
        swap = backend.encode(0, 0, 1)
        meta = {"k": spec.k, "elem2_normal_gens": list(gens)}
        return BlackBoxGroup(backend, gens + [swap], meta)

    if spec.kind == "extraspecial":
        if not spec.p:
            raise BadSpec("extraspecial spec needs p")
        backend = ExtraSpecialBackend(spec.p, spec.variant)
        if spec.variant == "exponent-p":
            gens = [backend.encode([1, 0, 0]), backend.encode([0, 1, 0])]
        else:
            gens = [backend.encode([1, 0]), backend.encode([0, 1])]
        return BlackBoxGroup(backend, gens, {"p": spec.p, "variant": spec.variant})

    if spec.kind == "abelian":
        if not spec.moduli:
            raise BadSpec("abelian spec needs moduli")
        backend = AbelianBackend(spec.moduli)
        gens = []
        for i, m in enumerate(spec.moduli):
            if m > 1:
                unit = [0] * len(spec.moduli)
                unit[i] = 1
                gens.append(backend.encode(unit))
        return BlackBoxGroup(backend, gens, {"moduli": tuple(spec.moduli)})

    if spec.kind == "product":
        if not spec.parts:
            raise BadSpec("product spec needs parts")
        groups = [make_group(p) for p in spec.parts]
        backend = ProductBackend([g.backend for g in groups])
        gens = []
        ids = [g.identity().bits for g in groups]
        for i, g in enumerate(groups):
            for gen in g.generators:
                pieces = list(ids)
                pieces[i] = gen.bits
                gens.append("".join(pieces))
        elem2 = None
        if all("elem2_normal_gens" in g.meta for g in groups):
            elem2 = []
            for i, g in enumerate(groups):
                for nb in g.meta["elem2_normal_gens"]:
                    pieces = list(ids)
                    pieces[i] = nb
                    elem2.append("".join(pieces))
        meta = {"parts": [g.meta for g in groups]}
        if elem2 is not None:
            meta["elem2_normal_gens"] = elem2
        return BlackBoxGroup(backend, gens, meta)

    raise BadSpec(f"unknown group kind {spec.kind!r}")


def _factor(n: int) -> dict[int, int]:
    """Prime factorization {p: a} of n >= 1, primes in increasing order, by
    trial division.  Every n factored divides an order hint or an enumerated
    order, whose primes are at most 2^20, so no faster method is needed."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _order_of(x, multiply: Callable, at_identity: Callable, cap: int) -> int:
    """Order of x by repeated multiplication, at most cap steps."""
    cur = x
    for i in range(1, cap + 1):
        if at_identity(cur):
            return i
        cur = multiply(cur, x)
    raise BoundExceeded("element order exceeds cap")


def enumerate_closure(
    G: BlackBoxGroup,
    seeds: Sequence[GroupElement],
    bound: Optional[int] = None,
) -> list[GroupElement]:
    """All distinct elements of <seeds>, BFS order, identity first, closed
    on the raw encodings; each product counts as one group operation."""
    bound = enum_bound() if bound is None else bound
    if bound < 1:
        raise BoundExceeded("bound must be at least 1")
    backend = G.backend
    gens = [s.value for s in seeds if not G.is_identity(s)]
    values = _closure(backend.mul, None, backend.identity, gens, bound)
    G.stats.group_ops += len(values) * len(gens)
    return [_element(v, backend.n) for v in values]


def _closure(multiply: Callable, key: Callable, identity, gens: Sequence, bound: int) -> list:
    """Distinct elements of <gens> under `key`, BFS order, identity first;
    every key call is made, so a view whose key is an f-query pays one query
    per product.  With `key` None the elements are their own keys."""
    seen = {identity if key is None else key(identity): identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = multiply(x, s)
                ky = y if key is None else key(y)
                if ky not in seen:
                    if len(seen) >= bound:
                        raise BoundExceeded(f"closure exceeds bound {bound}")
                    seen[ky] = y
                    nxt.append(y)
        frontier = nxt
    return list(seen.values())


class HidingOracle:
    """Counted oracle f, constant exactly on the left cosets of a hidden H.

    Labels are obfuscated canonical coset labels: the minimum canonical key
    over g*H, spelled as its bitstring and passed through a keyed hash so
    solvers cannot read structure out of them.  ``peek`` is harness-privileged and tallied separately.
    """

    label_length = 128
    _hidden_gens: Optional[list[GroupElement]] = None  # set by make_hiding_oracle

    def __init__(self, G: BlackBoxGroup, h_elements: Sequence[GroupElement], seed: int = 0):
        self.group = G
        self.query_count = 0
        self.harness_queries = 0
        seed_key = seed.to_bytes(16, "little", signed=False)
        digest_size = self.label_length // 8
        spelled = f"0{G.backend.n}b"

        def obfuscate(canonical: int) -> str:
            return hashlib.blake2b(
                format(canonical, spelled).encode(), key=seed_key, digest_size=digest_size
            ).hexdigest()

        self._label = _coset_keys(G, h_elements, obfuscate)

    def eval(self, g: GroupElement) -> str:
        self.query_count += 1
        return self._label(g)

    def peek(self, g: GroupElement) -> str:
        """Harness-side evaluation, exempt from solver query accounting."""
        self.harness_queries += 1
        return self._label(g)

    def hidden_gens(self) -> Optional[list[GroupElement]]:
        """Harness-only, like peek: the generators H was built from, or None."""
        return self._hidden_gens


class CosetLabelOracle:
    """F: x -> sorted tuple of f-labels over x*C for a fixed enumerated C.

    Hides H*C when C is the commutator subgroup; one F-query costs |C|
    f-queries, one F-peek |C| peeks; `solvers.LabelRecord` certifies kernels.
    """

    def __init__(self, G: BlackBoxGroup, f: HidingOracle, c_elements: Sequence[GroupElement]):
        self.group = G
        self.f = f
        self.c_elements = list(c_elements)

    def _label(self, g: GroupElement, probe) -> str:
        return "|".join(sorted(probe(self.group.multiply(g, c)) for c in self.c_elements))

    def eval(self, g: GroupElement) -> str:
        return self._label(g, self.f.eval)

    def peek(self, g: GroupElement) -> str:
        return self._label(g, self.f.peek)

    def hidden_gens(self) -> Optional[list[GroupElement]]:
        """Harness-only: f's generators of H, which with C generate H*C."""
        return self.f.hidden_gens()


class SolveFrame:
    """One solve's f, counters and budget check; every solver opens one on
    its f and config when it starts and returns through `result`.  `eval`
    asks f once per element and keeps the label, so `query_count` counts the
    calls the solve made to f.  Only f's `group`, and for the harness layers
    its `peek` and `hidden_gens`, are forwarded; nothing else of f reads
    through."""

    def __init__(self, f: HidingOracle, cfg):
        self.f, self.cfg, self.query_count, self._labels = f, cfg, 0, {}
        self.group, self.peek, self.hidden_gens = f.group, f.peek, f.hidden_gens
        self._ops_start = f.group.stats.group_ops

    def eval(self, g: GroupElement) -> str:
        label = self._labels.get(g.value)
        if label is None:
            label = self._labels[g.value] = self.f.eval(g)
            self.query_count += 1
        return label

    def result(self, gens, method: str, budget: int, coset_reps=None) -> SubgroupResult:
        """The solve's answer with its counters; BudgetExceeded when it asked
        f more than `budget` times."""
        used = self.query_count
        if used > budget:
            raise BudgetExceeded(f"f-query budget exceeded: {used} > {budget}")
        stats = QueryStats(used, self.f.group.stats.group_ops - self._ops_start, self.cfg.draws)
        return SubgroupResult(gens, stats, method, budget, coset_reps)


def make_hiding_oracle(
    G: BlackBoxGroup,
    h_gens: Sequence[GroupElement],
    seed: int = 0,
    bound: Optional[int] = None,
) -> HidingOracle:
    """Build a hiding oracle for <h_gens> by enumerating the subgroup; the
    generators are validated here, so the oracle trusts what it labels."""
    for g in h_gens:
        G.backend.validate(g.bits)
    f = HidingOracle(G, enumerate_closure(G, h_gens, bound), seed=seed)
    f._hidden_gens = list(h_gens)
    return f
