"""Group backends: axioms, fixed composition tables, hiding oracles."""

import ast
import random
from functools import reduce
from operator import xor
from pathlib import Path

import pytest

import hsplab
from hsplab.core import (
    GroupElement,
    _factor,
    GroupSpec,
    QueryStats,
    SolveFrame,
    enum_bound,
    enumerate_closure,
    make_group,
    make_hiding_oracle,
)
from hsplab.errors import BadSpec, BoundExceeded, BudgetExceeded, InvalidEncoding
from hsplab.linalg import CosetQuotientView
from hsplab.normalsub import normal_closure
from hsplab.sim import RngStream, SolverConfig
from hsplab.specfile import parse_cycles

from conftest import q8_group


def _backend_zoo():
    return [
        make_group(
            GroupSpec(
                kind="permutation",
                degree=6,
                perms=[parse_cycles("(1 2 3 4 5 6)", 6), parse_cycles("(1 2)", 6)],
            )
        ),
        make_group(
            GroupSpec(kind="gf2matrix", dim=3, matrices=[["110", "010", "001"], ["100", "011", "001"]])
        ),
        make_group(
            GroupSpec(
                kind="affinegf2",
                k=3,
                block=["110", "011", "001"],
                translations=["100", "010"],
            )
        ),
        make_group(GroupSpec(kind="wreath", k=2)),
        make_group(GroupSpec(kind="extraspecial", p=3, variant="exponent-p")),
        make_group(GroupSpec(kind="extraspecial", p=3, variant="exponent-p2")),
        make_group(GroupSpec(kind="abelian", moduli=(4, 6))),
        make_group(
            GroupSpec(
                kind="product",
                parts=[
                    GroupSpec(kind="abelian", moduli=(4,)),
                    GroupSpec(kind="permutation", degree=3, perms=[parse_cycles("(1 2 3)", 3)]),
                ],
            )
        ),
    ]


@pytest.mark.parametrize("G", _backend_zoo(), ids=lambda g: g.backend.__class__.__name__)
def test_group_axioms_random_triples(G):
    rng = RngStream(2024)
    elements = enumerate_closure(G, G.generators)
    e = G.identity()
    for _ in range(1000):
        a = rng.choice(elements)
        b = rng.choice(elements)
        c = rng.choice(elements)
        assert G.equal(G.multiply(G.multiply(a, b), c), G.multiply(a, G.multiply(b, c)))
        assert G.equal(G.multiply(e, a), a)
        assert G.is_identity(G.multiply(G.invert(a), a))


def _reference_mul(backend, a: str, b: str) -> str:
    """a*b written from the decoded fields, by each backend's definition."""
    fa, fb = backend.decode(a), backend.decode(b)
    kind = backend.kind
    if kind == "permutation":
        out = [fa[x] for x in fb]
    elif kind in ("gf2matrix", "affinegf2"):
        d = backend.dim
        out = [reduce(xor, (fb[c] for c in range(d) if row >> (d - 1 - c) & 1), 0) for row in fa]
    elif kind == "wreath":
        (v1, w1, s1), (v2, w2, s2) = fa, fb
        if s1:
            v2, w2 = w2, v2
        return backend.encode(v1 ^ v2, w1 ^ w2, s1 ^ s2)
    elif kind == "extraspecial" and backend.variant == "exponent-p":
        p = backend.p
        (a1, b1, c1), (a2, b2, c2) = fa, fb
        out = [(a1 + a2) % p, (b1 + b2) % p, (c1 + c2 + a1 * b2) % p]
    elif kind == "extraspecial":
        p = backend.p
        (x1, y1), (x2, y2) = fa, fb
        out = [(x1 + x2 * pow(1 + p, y1, p * p)) % (p * p), (y1 + y2) % p]
    elif kind == "abelian":
        out = [(x + y) % m for x, y, m in zip(fa, fb, backend.moduli)]
    else:  # a product, part by part
        return "".join(
            _reference_mul(part, format(x, f"0{part.n}b"), format(y, f"0{part.n}b"))
            for part, x, y in zip(backend.parts, fa, fb)
        )
    return backend.encode(out)


@pytest.mark.parametrize("G", _backend_zoo(), ids=lambda g: g.backend.__class__.__name__)
def test_int_backend_matches_field_reference(G):
    """The int mul/inv agree with the group law on decoded fields, and
    decode/encode round-trip."""
    backend = G.backend
    rng = random.Random(14)
    elements = enumerate_closure(G, G.generators)
    identity = G.identity().bits
    for _ in range(60):
        x, y = rng.choice(elements), rng.choice(elements)
        product = format(backend.mul(x.value, y.value), f"0{backend.n}b")
        assert product == _reference_mul(backend, x.bits, y.bits)
        inverse = format(backend.inv(x.value), f"0{backend.n}b")
        assert _reference_mul(backend, x.bits, inverse) == identity
        assert _reference_mul(backend, inverse, x.bits) == identity
        fields = backend.decode(x.bits)
        spelled = backend.encode(*fields) if isinstance(fields, tuple) else backend.encode(fields)
        assert spelled == x.bits


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec(kind="extraspecial", p=3),
        GroupSpec(kind="permutation", degree=4, perms=[[1, 2, 3, 0], [1, 0, 2, 3]]),
    ],
    ids=["es3", "s4"],
)
def test_key_order_is_bitstring_order(spec):
    """A least key over a coset picks the element the least bitstring did."""
    G = make_group(spec)
    elements = enumerate_closure(G, G.generators)
    for a in elements:
        for b in elements:
            assert (G.key(a) < G.key(b)) == (a.bits < b.bits)
            assert (a == b) == (a.bits == b.bits)


def test_element_equality_is_encoding_equality():
    G = make_group(GroupSpec(kind="extraspecial", p=3))
    for x in enumerate_closure(G, G.generators):
        assert GroupElement(x.bits) == x and hash(GroupElement(x.bits)) == hash(x)
        assert GroupElement.from_hex(x.hex) == x
    assert GroupElement("01") != GroupElement("1")
    for bad in (5, "012", "", None, b"01"):
        with pytest.raises(InvalidEncoding):
            GroupElement(bad)


def test_hiding_oracle_label_pinned():
    """A label recorded when elements were still carried as bitstrings."""
    G = make_group(GroupSpec(kind="extraspecial", p=3))
    a, b = G.generators
    f = make_hiding_oracle(G, [G.commutator(a, b)], seed=1414)
    assert f.eval(G.multiply(a, b)) == "fa0338469d3f1edbb58e6b7ef526c18d"
    assert f.eval(a) == "900bea0695410a8148d5105c7f827ba1"


def test_s3_left_action_composition():
    G = make_group(
        GroupSpec(
            kind="permutation",
            degree=3,
            perms=[parse_cycles("(1 2)", 3), parse_cycles("(1 3)", 3)],
        )
    )
    a, b = G.generators
    # left action: (g.h)(x) = g(h(x)), so (1 2)(1 3) = (1 3 2)
    product = G.multiply(a, b)
    assert G.backend.decode(product.bits) == parse_cycles("(1 3 2)", 3)
    three_cycle = GroupElement(G.backend.encode(parse_cycles("(1 2 3)", 3)))
    assert G.backend.decode(G.invert(three_cycle).bits) == parse_cycles("(1 3 2)", 3)
    assert G.is_identity(G.power(three_cycle, 3))


def test_z2k_backend_is_xor():
    G = make_group(GroupSpec(kind="gf2matrix", dim=1, matrices=[["1"]]))
    # xor semantics live in the abelian backend with moduli (2,2,2,2)
    G = make_group(GroupSpec(kind="abelian", moduli=(2, 2, 2, 2)))
    a = GroupElement(G.backend.encode((0, 1, 1, 0)))
    b = GroupElement(G.backend.encode((0, 0, 1, 1)))
    assert tuple(G.backend.decode(G.multiply(a, b).bits)) == (0, 1, 0, 1)
    assert G.equal(G.invert(a), a)


def test_power_conventions():
    G = q8_group()
    g = G.generators[0]
    assert G.is_identity(G.power(g, 0))
    assert G.equal(G.power(g, -1), G.invert(g))
    assert G.is_identity(G.power(g, 4))


def test_word_is_the_ordered_product_of_powers():
    """word(xs, es) = x_1^e_1 ... x_k^e_k in order, negative exponents
    included.  Each power is squared into one running product, so a word
    costs one group op per factor less than multiplying separate powers."""
    G = q8_group()
    i, j = G.generators
    assert G.is_identity(G.word([], []))
    assert G.equal(G.word([i], [-1]), G.invert(i))
    assert G.equal(G.word([i, j], [1, -3]), G.multiply(i, G.power(j, -3)))
    assert not G.equal(G.word([i, j], [1, 1]), G.word([j, i], [1, 1]))  # order kept
    for xs, es in [([i, j, i], [3, 2, -1]), ([j, i], [0, 5]), ([i], [7])]:
        ops = G.stats.group_ops
        x = G.identity()
        for g, e in zip(xs, es):
            x = G.multiply(x, G.power(g, e))
        loop_ops, ops = G.stats.group_ops - ops, G.stats.group_ops
        assert G.equal(G.word(xs, es), x)
        assert G.stats.group_ops - ops == loop_ops - len(xs)
    ops = G.stats.group_ops
    G.power(i, 7)  # a one-factor word: 7 = 0b111, three products and two squarings
    assert G.stats.group_ops - ops == 5


def test_commuting_checks_pairs_in_order():
    G = q8_group()
    i, j = G.generators
    minus_one = G.power(i, 2)
    assert G.commuting([]) and G.commuting([i])
    assert G.commuting([i, G.power(i, 3), minus_one, G.identity()])
    assert not G.commuting([i, j])
    assert not G.commuting([i, minus_one, j])  # only the pairs with j fail
    ops = G.stats.group_ops
    assert not G.commuting([i, j, minus_one])
    assert G.stats.group_ops - ops == 2  # stops at the first pair (i, j)
    # modulo the centre <-1>, Q8 is Abelian
    assert CosetQuotientView(G, enumerate_closure(G, [minus_one])).commuting([i, j])


def test_make_group_orders():
    wreath2 = make_group(GroupSpec(kind="wreath", k=2))
    assert len(enumerate_closure(wreath2, wreath2.generators)) == 32
    es3 = make_group(GroupSpec(kind="extraspecial", p=3))
    els = enumerate_closure(es3, es3.generators)
    assert len(els) == 27
    comms = [
        es3.commutator(a, b)
        for i, a in enumerate(es3.generators)
        for b in es3.generators[i + 1 :]
    ]
    assert len(enumerate_closure(es3, comms)) == 3
    tiny = make_group(GroupSpec(kind="permutation", degree=2, perms=[[1, 0]]))
    assert len(enumerate_closure(tiny, tiny.generators)) == 2


def test_factor_matches_sympy():
    from sympy import factorint

    for n in range(1, 2**14 + 1):
        assert _factor(n) == factorint(n), n
        assert list(_factor(n)) == sorted(factorint(n)), n


def test_make_group_rejects_bad_specs():
    with pytest.raises(BadSpec):
        make_group(GroupSpec(kind="extraspecial", p=4))
    with pytest.raises(BadSpec):
        make_group(GroupSpec(kind="extraspecial", p=2))
    with pytest.raises(BadSpec):
        make_group(GroupSpec(kind="extraspecial", p=37))
    with pytest.raises(BadSpec):
        # singular upper-left block for the affine family
        make_group(
            GroupSpec(kind="affinegf2", k=2, block=["10", "10"], translations=["10"])
        )


def test_enumerate_closure():
    G = make_group(
        GroupSpec(
            kind="permutation",
            degree=3,
            perms=[parse_cycles("(1 2)", 3), parse_cycles("(1 3)", 3)],
        )
    )
    assert len(enumerate_closure(G, [])) == 1
    assert len(enumerate_closure(G, G.generators)) == 6
    Z = make_group(GroupSpec(kind="abelian", moduli=(2, 2, 2, 2)))
    g = GroupElement(Z.backend.encode((0, 0, 1, 1)))
    assert len(enumerate_closure(Z, [g])) == 2
    with pytest.raises(BoundExceeded):
        enumerate_closure(G, G.generators, bound=3)


def test_malformed_encodings_rejected():
    G = make_group(GroupSpec(kind="abelian", moduli=(4,)))
    with pytest.raises(InvalidEncoding):
        G.multiply(GroupElement("zz"), G.identity())


def test_hiding_oracle_label_counts():
    G = make_group(GroupSpec(kind="abelian", moduli=(4,)))
    elements = enumerate_closure(G, G.generators)
    two = GroupElement(G.backend.encode((2,)))

    f_all = make_hiding_oracle(G, elements, seed=1)
    assert len({f_all.eval(g) for g in elements}) == 1

    f_triv = make_hiding_oracle(G, [], seed=2)
    assert len({f_triv.eval(g) for g in elements}) == 4

    f_half = make_hiding_oracle(G, [two], seed=3)
    labels = {G.backend.decode(g.bits)[0]: f_half.eval(g) for g in elements}
    assert labels[0] == labels[2]
    assert labels[1] == labels[3]
    assert labels[0] != labels[1]


def test_hiding_oracle_labels_a_whole_coset_per_miss():
    """With H = G on es(5), the first label keys all of G, and labelling
    every element costs at most |G| multiplies, not |G| per element."""
    G = make_group(GroupSpec(kind="extraspecial", p=5))
    elements = enumerate_closure(G, G.generators)
    f = make_hiding_oracle(G, G.generators, seed=4)
    before = G.stats.group_ops
    assert len({f.eval(g) for g in elements}) == 1
    assert G.stats.group_ops - before <= len(elements) == 125


def test_hiding_oracle_coset_iff_property(q8):
    """eval(g) == eval(g') iff g^-1 g' lies in the hidden subgroup."""
    G = q8
    elements = enumerate_closure(G, G.generators)
    h_gens = [G.power(G.generators[0], 2)]  # <-1>, order 2
    f = make_hiding_oracle(G, h_gens, seed=9)
    h_keys = {G.key(x) for x in enumerate_closure(G, h_gens)}
    for g in elements:
        for g2 in elements:
            same = f.eval(g) == f.eval(g2)
            assert same == (G.key(G.multiply(G.invert(g), g2)) in h_keys)


def test_query_count_tracks_eval_calls():
    G = make_group(GroupSpec(kind="abelian", moduli=(8,)))
    elements = enumerate_closure(G, G.generators)
    f = make_hiding_oracle(G, [], seed=4)
    assert f.query_count == 0
    for i, g in enumerate(elements):
        f.eval(g)
        assert f.query_count == i + 1
    before = f.query_count
    f.peek(elements[0])
    assert f.query_count == before
    assert f.harness_queries >= 1


def test_quotient_view_has_nonunique_encodings():
    """G modulo an enumerated normal subgroup: bitwise-distinct encodings of
    one element, told equal by the view's key alone."""
    G = make_group(GroupSpec(kind="abelian", moduli=(8,)))
    n_elements = enumerate_closure(G, [GroupElement(G.backend.encode((4,)))])
    Q = CosetQuotientView(G, n_elements)
    a = GroupElement(G.backend.encode((1,)))
    b = GroupElement(G.backend.encode((5,)))
    assert a.bits != b.bits
    assert not G.equal(a, b)
    assert Q.equal(a, b)
    # oracles respect the identification
    assert Q.equal(Q.multiply(a, a), Q.multiply(b, b))
    assert Q.equal(Q.invert(a), Q.invert(b))


def test_group_element_hex_round_trip():
    g = GroupElement("01101")
    assert GroupElement.from_hex(g.hex) == g


def _transvections(dim: int) -> list[list[str]]:
    """The matrices 1 + E_ij (i != j) as row bitstrings; they generate GL(dim, 2)."""
    out = []
    for i in range(dim):
        for j in range(dim):
            if i != j:
                rows = [1 << (dim - 1 - r) for r in range(dim)]
                rows[i] |= 1 << (dim - 1 - j)
                out.append([format(r, f"0{dim}b") for r in rows])
    return out


GL32 = GroupSpec(kind="gf2matrix", dim=3, matrices=_transvections(3))


def _accepted(backend) -> set[str]:
    """Every bitstring of the backend's length that validate accepts."""
    accepted = set()
    for value in range(1 << backend.n):
        bits = format(value, f"0{backend.n}b")
        try:
            backend.validate(bits)
        except InvalidEncoding:
            continue
        accepted.add(bits)
    return accepted


@pytest.mark.parametrize(
    "spec, order",
    [
        (GroupSpec(kind="abelian", moduli=(4, 6)), 24),
        (GroupSpec(kind="extraspecial", p=3, variant="exponent-p"), 27),
        (GroupSpec(kind="extraspecial", p=3, variant="exponent-p2"), 27),
        (GroupSpec(kind="wreath", k=2), 32),
        (GroupSpec(kind="permutation", degree=4, perms=[[1, 2, 3, 0], [1, 0, 2, 3]]), 24),
        (GL32, 168),
        (
            GroupSpec(
                kind="product",
                parts=[
                    GroupSpec(kind="abelian", moduli=(3,)),
                    GroupSpec(kind="permutation", degree=3, perms=[[1, 2, 0], [1, 0, 2]]),
                ],
            ),
            18,
        ),
    ],
    ids=lambda x: x.kind if isinstance(x, GroupSpec) else str(x),
)
def test_validate_accepts_exactly_the_group(spec, order):
    """Over all 2^n bitstrings, validate accepts exactly the enumerated group."""
    G = make_group(spec)
    elements = {x.bits for x in enumerate_closure(G, G.generators)}
    assert len(elements) == order
    assert _accepted(G.backend) == elements


def test_affine_validate_accepts_gl_elements_with_last_row_001():
    gl = make_group(GL32)
    affine = make_group(GroupSpec(kind="affinegf2", k=2, block=["11", "10"], translations=["10"]))
    expected = {x.bits for x in enumerate_closure(gl, gl.generators) if x.bits.endswith("001")}
    assert len(expected) == 24
    assert _accepted(affine.backend) == expected


def test_make_hiding_oracle_validates_hidden_generators():
    """The oracle's boundary: a well-formed bitstring that is no element."""
    z3 = make_group(GroupSpec(kind="abelian", moduli=(3,)))
    for bits in ("11", "0"):
        with pytest.raises(InvalidEncoding):
            make_hiding_oracle(z3, [GroupElement(bits)])
    gl = make_group(GL32)
    with pytest.raises(InvalidEncoding):
        make_hiding_oracle(gl, [GroupElement("110110001")])  # singular


def test_zero_bound_refuses():
    G = make_group(GroupSpec(kind="abelian", moduli=(4, 6)))
    assert len(enumerate_closure(G, G.generators)) == 24
    with pytest.raises(BoundExceeded):
        enumerate_closure(G, G.generators, bound=0)
    with pytest.raises(BoundExceeded):
        normal_closure(G, G.generators, bound=0)


def test_enum_bound_environment(monkeypatch):
    monkeypatch.delenv("HSPLAB_MAX_ENUM", raising=False)
    assert enum_bound() == 4096
    monkeypatch.setenv("HSPLAB_MAX_ENUM", "12")
    assert enum_bound() == 12
    for value in ("abc", "0", "-3", "2.5"):
        monkeypatch.setenv("HSPLAB_MAX_ENUM", value)
        with pytest.raises(BadSpec):
            enum_bound()


def test_library_has_no_assert_statements():
    """Guards are typed errors: python -O strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(hsplab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_solve_frame_records_f_and_checks_the_budget():
    """A frame asks f once per element and returns the solve with the
    f-queries, group operations and draws made since it opened; one f-query
    past the budget raises."""
    G = make_group(GroupSpec(kind="abelian", moduli=(4,)))
    g = G.generators[0]
    f = make_hiding_oracle(G, [], seed=1)
    cfg = SolverConfig(seed=2)
    label = f.peek(g)  # g's coset is labelled now, so eval multiplies nothing
    frame = SolveFrame(f, cfg)
    assert frame.eval(g) == frame.eval(g) == label
    assert (frame.query_count, f.query_count) == (1, 1)
    assert frame.group is G
    with pytest.raises(AttributeError):
        frame.harness_queries
    G.multiply(g, g)
    cfg.rng.randrange(2)
    result = frame.result([g], "test", 1)
    assert result.stats == QueryStats(1, 1, 1)
    assert (result.gens, result.method, result.f_query_budget) == ([g], "test", 1)
    with pytest.raises(BudgetExceeded):
        frame.result([g], "test", 0)
