"""Black-box group model: element encodings, oracle bundles, concrete backends.

Elements are fixed-length bitstrings.  All semantic access goes through the
owning group's oracles; equality is decided by the group's key, never by the
caller comparing raw bits.  A black-box group's encodings are unique, so its
key is the bitstring; the quotient views of linalg have non-unique encodings
and keys of their own.

Whether a bitstring encodes a group element is decided in one place,
`Backend.validate`, where encodings enter: a group's generators, the affine
spec's block, the CLI's --hidden tokens and a hiding oracle's hidden
generators.  Every other element is a product of those, so the backends'
multiply and invert trust their operands and only parse them.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from math import factorial, prod
from typing import Callable, Iterable, Optional, Sequence

from .errors import BadSpec, BoundExceeded, InvalidEncoding

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


@dataclass(frozen=True)
class GroupElement:
    """A group element carried as a fixed-length bitstring encoding."""

    bits: str

    def __post_init__(self):
        if not self.bits or set(self.bits) - {"0", "1"}:
            raise InvalidEncoding(f"not a bitstring: {self.bits!r}")

    @property
    def hex(self) -> str:
        return f"{len(self.bits)}:{int(self.bits, 2):x}"

    @classmethod
    def from_hex(cls, text: str) -> "GroupElement":
        length, _, digits = text.partition(":")
        try:
            width, value = int(length), int(digits, 16)
        except ValueError:
            raise InvalidEncoding(f"not a length:hex token: {text!r}") from None
        if not 0 < width <= MAX_ENCODING_BITS or value < 0 or value.bit_length() > width:
            raise InvalidEncoding(f"hex value does not fit its length: {text!r}")
        return cls(format(value, f"0{width}b"))

    def __repr__(self):
        return f"GroupElement({self.bits})"


@dataclass
class QueryStats:
    """Monotone counters accumulated over a solver run."""

    f_queries: int = 0
    group_ops: int = 0
    rng_draws: int = 0


def _coset_keys(members: Sequence, multiply: Callable, key: Callable, label=None) -> Callable:
    """The function x -> canonical key of the coset x*S: the least key over
    its members, cached per element under key(x).  `label`, when given, maps
    the least key to the value cached and returned."""
    members = list(members)
    cache: dict[str, str] = {}

    def coset_key(x) -> str:
        kx = key(x)
        found = cache.get(kx)
        if found is None:
            found = min(key(multiply(x, s)) for s in members)
            if label is not None:
                found = label(found)
            cache[kx] = found
        return found

    return coset_key


def _chunk_width(n: int) -> int:
    return max(1, (n - 1).bit_length())


def _split(bits: str, width: int) -> list[int]:
    return [int(bits[i : i + width], 2) for i in range(0, len(bits), width)]


def _join(values: Iterable[int], width: int) -> str:
    return "".join(format(v, f"0{width}b") for v in values)


class Backend:
    """Concrete realization of the multiply/invert/identity oracles.

    `decode` only parses, and `mul_bits`/`inv_bits` trust their operands:
    membership is decided once, by `validate`, where an encoding enters.
    """

    kind: str
    n: int
    order_hint: Optional[int] = None

    def identity_bits(self) -> str:
        raise NotImplementedError

    def decode(self, bits: str):
        raise NotImplementedError

    def _is_element(self, decoded) -> bool:
        """Whether a parsed encoding of the right length is a group element."""
        return True

    def validate(self, bits: str) -> None:
        """Raise InvalidEncoding unless bits encodes an element of the group."""
        if len(bits) != self.n or set(bits) - {"0", "1"} or not self._is_element(self.decode(bits)):
            raise InvalidEncoding(f"not a {self.kind} element: {bits!r}")

    def mul_bits(self, a: str, b: str) -> str:
        raise NotImplementedError

    def inv_bits(self, a: str) -> str:
        raise NotImplementedError


class PermutationBackend(Backend):
    """Permutations of {0..d-1}; left action, (g*h)(x) = g(h(x))."""

    kind = "permutation"

    def __init__(self, degree: int):
        if degree < 1 or degree > 64:
            raise BadSpec(f"unsupported permutation degree {degree}")
        self.degree = degree
        self.width = _chunk_width(degree)
        self.n = degree * self.width
        self.order_hint = factorial(degree)

    def decode(self, bits: str) -> list[int]:
        return _split(bits, self.width)

    def _is_element(self, images: list[int]) -> bool:
        return sorted(images) == list(range(self.degree))

    def encode(self, images: Sequence[int]) -> str:
        return _join(images, self.width)

    def identity_bits(self) -> str:
        return self.encode(range(self.degree))

    def mul_bits(self, a: str, b: str) -> str:
        pa, pb = self.decode(a), self.decode(b)
        return self.encode([pa[x] for x in pb])

    def inv_bits(self, a: str) -> str:
        pa = self.decode(a)
        out = [0] * self.degree
        for i, x in enumerate(pa):
            out[x] = i
        return self.encode(out)


class Gf2MatrixBackend(Backend):
    """Invertible dim x dim matrices over GF(2), row-major bit encoding."""

    kind = "gf2matrix"

    def __init__(self, dim: int):
        if dim < 1 or dim > 12:
            raise BadSpec(f"unsupported GF(2) matrix dimension {dim}")
        self.dim = dim
        self.n = dim * dim
        self.order_hint = prod(2**dim - 2**i for i in range(dim))

    def decode(self, bits: str) -> list[int]:
        return [int(bits[i * self.dim : (i + 1) * self.dim], 2) for i in range(self.dim)]

    def encode(self, rows: Sequence[int]) -> str:
        return "".join(format(r, f"0{self.dim}b") for r in rows)

    def _is_element(self, rows: Sequence[int]) -> bool:
        """Invertibility, by Gaussian elimination."""
        work = list(rows)
        rank = 0
        for col in range(self.dim - 1, -1, -1):
            pivot = next((i for i in range(rank, self.dim) if work[i] >> col & 1), None)
            if pivot is None:
                return False
            work[rank], work[pivot] = work[pivot], work[rank]
            for i in range(self.dim):
                if i != rank and work[i] >> col & 1:
                    work[i] ^= work[rank]
            rank += 1
        return True

    def identity_bits(self) -> str:
        return self.encode([1 << (self.dim - 1 - i) for i in range(self.dim)])

    def _mul_rows(self, ra: Sequence[int], rb: Sequence[int]) -> list[int]:
        out = []
        for row in ra:
            acc = 0
            for col in range(self.dim):
                if row >> (self.dim - 1 - col) & 1:
                    acc ^= rb[col]
            out.append(acc)
        return out

    def mul_bits(self, a: str, b: str) -> str:
        return self.encode(self._mul_rows(self.decode(a), self.decode(b)))

    def inv_bits(self, a: str) -> str:
        rows = self.decode(a)
        dim = self.dim
        inv = [1 << (dim - 1 - i) for i in range(dim)]
        work = list(rows)
        rank = 0
        for col in range(dim - 1, -1, -1):
            pivot = next(i for i in range(rank, dim) if work[i] >> col & 1)
            work[rank], work[pivot] = work[pivot], work[rank]
            inv[rank], inv[pivot] = inv[pivot], inv[rank]
            for i in range(dim):
                if i != rank and work[i] >> col & 1:
                    work[i] ^= work[rank]
                    inv[i] ^= inv[rank]
            rank += 1
        return self.encode(inv)


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
    """Wreath product of the elementary Abelian 2-group of rank k with a swap."""

    kind = "wreath"

    def __init__(self, k: int):
        if k < 1 or k > 10:
            raise BadSpec(f"unsupported wreath rank k={k}")
        self.k = k
        self.n = 2 * k + 1
        self.order_hint = 2 ** (2 * k + 1)

    def decode(self, bits: str) -> tuple[int, int, int]:
        k = self.k
        return int(bits[:k], 2), int(bits[k : 2 * k], 2), int(bits[2 * k])

    def encode(self, v: int, w: int, s: int) -> str:
        k = self.k
        return format(v, f"0{k}b") + format(w, f"0{k}b") + str(s)

    def identity_bits(self) -> str:
        return self.encode(0, 0, 0)

    def mul_bits(self, a: str, b: str) -> str:
        v1, w1, s1 = self.decode(a)
        v2, w2, s2 = self.decode(b)
        if s1:
            v2, w2 = w2, v2
        return self.encode(v1 ^ v2, w1 ^ w2, s1 ^ s2)

    def inv_bits(self, a: str) -> str:
        v, w, s = self.decode(a)
        if s:
            v, w = w, v
        return self.encode(v, w, s)


class _MixedRadixBackend(Backend):
    """Coordinate tuples 0 <= v_i < moduli[i], each in a bit field of widths[i]."""

    moduli: Sequence[int]
    widths: list[int]

    def decode(self, bits: str) -> list[int]:
        values, pos = [], 0
        for width in self.widths:
            values.append(int(bits[pos : pos + width], 2))
            pos += width
        return values

    def _is_element(self, values: list[int]) -> bool:
        return all(v < m for v, m in zip(values, self.moduli))

    def encode(self, values: Sequence[int]) -> str:
        return "".join(format(v, f"0{w}b") for v, w in zip(values, self.widths))

    def identity_bits(self) -> str:
        return self.encode([0] * len(self.widths))


class ExtraSpecialBackend(_MixedRadixBackend):
    """Extra-special group of order p^3 for an odd prime p.

    variant "exponent-p": Heisenberg triples (a, b, c) over Z_p with
        (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b').
    variant "exponent-p2": pairs (a mod p^2, b mod p) with
        (a,b)*(a',b') = (a + a'*(1+p)^b, b+b').
    """

    kind = "extraspecial"

    def __init__(self, p: int, variant: str = "exponent-p"):
        from sympy import isprime

        if p == 2 or not isprime(p):
            raise BadSpec(f"extra-special backend needs an odd prime, got {p}")
        if p > 31:
            raise BadSpec(f"unsupported extra-special prime {p}")
        if variant not in ("exponent-p", "exponent-p2"):
            raise BadSpec(f"unknown extra-special variant {variant!r}")
        self.p = p
        self.variant = variant
        if variant == "exponent-p":
            self.widths = [_chunk_width(p)] * 3
            self.moduli = [p, p, p]
        else:
            self.widths = [_chunk_width(p * p), _chunk_width(p)]
            self.moduli = [p * p, p]
        self.n = sum(self.widths)
        self.order_hint = p**3

    def mul_bits(self, a: str, b: str) -> str:
        p = self.p
        if self.variant == "exponent-p":
            a1, b1, c1 = self.decode(a)
            a2, b2, c2 = self.decode(b)
            return self.encode([(a1 + a2) % p, (b1 + b2) % p, (c1 + c2 + a1 * b2) % p])
        x1, y1 = self.decode(a)
        x2, y2 = self.decode(b)
        return self.encode([(x1 + x2 * pow(1 + p, y1, p * p)) % (p * p), (y1 + y2) % p])

    def inv_bits(self, a: str) -> str:
        p = self.p
        if self.variant == "exponent-p":
            x, y, z = self.decode(a)
            return self.encode([(-x) % p, (-y) % p, (x * y - z) % p])
        x, y = self.decode(a)
        return self.encode([(-x * pow(1 + p, -y % p, p * p)) % (p * p), (-y) % p])


class AbelianBackend(_MixedRadixBackend):
    """Direct product of cyclic groups Z_m1 x ... x Z_mk, additive tuples."""

    kind = "abelian"

    def __init__(self, moduli: Sequence[int]):
        if not moduli or any(m < 1 for m in moduli):
            raise BadSpec(f"bad moduli {moduli}")
        if prod(moduli) > 2**20:
            raise BadSpec(f"abelian backend too large: {moduli}")
        self.moduli = tuple(moduli)
        self.widths = [_chunk_width(m) for m in moduli]
        self.n = sum(self.widths)
        self.order_hint = prod(moduli)

    def mul_bits(self, a: str, b: str) -> str:
        va, vb = self.decode(a), self.decode(b)
        return self.encode([(x + y) % m for x, y, m in zip(va, vb, self.moduli)])

    def inv_bits(self, a: str) -> str:
        return self.encode([(-x) % m for x, m in zip(self.decode(a), self.moduli)])


class ProductBackend(Backend):
    """Direct product of arbitrary backends with concatenated encodings."""

    kind = "product"

    def __init__(self, parts: Sequence[Backend]):
        if not parts:
            raise BadSpec("empty product")
        self.parts = list(parts)
        self.n = sum(p.n for p in parts)
        hints = [p.order_hint for p in parts]
        self.order_hint = prod(hints) if all(hints) else None

    def decode(self, bits: str) -> list[str]:
        """The parts' encodings."""
        out, pos = [], 0
        for part in self.parts:
            out.append(bits[pos : pos + part.n])
            pos += part.n
        return out

    def identity_bits(self) -> str:
        return "".join(p.identity_bits() for p in self.parts)

    def validate(self, bits: str) -> None:
        super().validate(bits)
        for part, piece in zip(self.parts, self.decode(bits)):
            part.validate(piece)

    def mul_bits(self, a: str, b: str) -> str:
        return "".join(
            p.mul_bits(x, y) for p, x, y in zip(self.parts, self.decode(a), self.decode(b))
        )

    def inv_bits(self, a: str) -> str:
        return "".join(p.inv_bits(x) for p, x in zip(self.parts, self.decode(a)))


class GroupView:
    """The group interface: identity, multiply, invert and a canonical key
    deciding equality.  A BlackBoxGroup is one; the quotient views of linalg
    are others, whose key decides equality modulo a normal subgroup.  The
    derived operations below are written once, against that interface.
    """

    order_hint: Optional[int] = None  # a known multiple of the group order

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def key(self, a) -> str:
        raise NotImplementedError

    def hkey(self, a) -> str:
        """Harness-privileged key (default: same as key)."""
        return self.key(a)

    def equal(self, g, h) -> bool:
        return self.key(g) == self.key(h)

    def is_identity(self, g) -> bool:
        return self.key(g) == self.key(self.identity())

    def commute(self, a, b) -> bool:
        return self.key(self.multiply(a, b)) == self.key(self.multiply(b, a))

    def power(self, g, k: int):
        if k < 0:
            g, k = self.invert(g), -k
        result = self.identity()
        base = g
        while k:
            if k & 1:
                result = self.multiply(result, base)
            if k >> 1:
                base = self.multiply(base, base)
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
        self._identity = GroupElement(backend.identity_bits())
        for bits in generator_bits:
            backend.validate(bits)
        self.generators = [GroupElement(b) for b in generator_bits] or [self._identity]

    @property
    def order_hint(self) -> Optional[int]:
        return self.backend.order_hint

    def identity(self) -> GroupElement:
        return self._identity

    def multiply(self, g: GroupElement, h: GroupElement) -> GroupElement:
        self.stats.group_ops += 1
        return GroupElement(self.backend.mul_bits(g.bits, h.bits))

    def invert(self, g: GroupElement) -> GroupElement:
        self.stats.group_ops += 1
        return GroupElement(self.backend.inv_bits(g.bits))

    def key(self, g: GroupElement) -> str:
        return g.bits


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
        identity = backend.identity_bits()
        block_order = _order_of(block_gen, backend.mul_bits, lambda b: b == identity, 1 << 20)
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
        if not gens:
            gens = [backend.identity_bits()]
        return BlackBoxGroup(backend, gens, {"moduli": tuple(spec.moduli)})

    if spec.kind == "product":
        if not spec.parts:
            raise BadSpec("product spec needs parts")
        groups = [make_group(p) for p in spec.parts]
        backend = ProductBackend([g.backend for g in groups])
        gens = []
        ids = [g.backend.identity_bits() for g in groups]
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
    """All distinct elements of <seeds>, BFS order, identity first."""
    bound = enum_bound() if bound is None else bound
    if bound < 1:
        raise BoundExceeded("bound must be at least 1")
    return _closure(G, [s for s in seeds if not G.is_identity(s)], bound)


def _closure(group: GroupView, gens: Sequence, bound: int) -> list:
    """Distinct elements of <gens> under the group's key, BFS order, identity
    first; every key call is made, so a view whose key is an f-query pays
    one query per product."""
    identity = group.identity()
    seen = {group.key(identity): identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = group.multiply(x, s)
                ky = group.key(y)
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
    over g*H, passed through a keyed hash so solvers cannot read structure
    out of them.  ``peek`` is harness-privileged and tallied separately.
    """

    label_length = 128

    def __init__(self, G: BlackBoxGroup, h_elements: Sequence[GroupElement], seed: int = 0):
        self.group = G
        self.query_count = 0
        self.harness_queries = 0
        seed_key = seed.to_bytes(16, "little", signed=False)
        digest_size = self.label_length // 8

        def obfuscate(canonical: str) -> str:
            return hashlib.blake2b(
                canonical.encode(), key=seed_key, digest_size=digest_size
            ).hexdigest()

        self._label = _coset_keys(h_elements, G.multiply, G.key, obfuscate)

    def eval(self, g: GroupElement) -> str:
        self.query_count += 1
        return self._label(g)

    def peek(self, g: GroupElement) -> str:
        """Harness-side evaluation, exempt from solver query accounting."""
        self.harness_queries += 1
        return self._label(g)


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
    h_elements = enumerate_closure(G, h_gens, bound)
    return HidingOracle(G, h_elements, seed=seed)
