"""Group backends: axioms, fixed composition tables, hiding oracles."""

import ast
from pathlib import Path

import pytest

import hsplab
from hsplab.core import (
    GroupElement,
    GroupSpec,
    enum_bound,
    enumerate_closure,
    make_group,
    make_hiding_oracle,
)
from hsplab.errors import BadSpec, BoundExceeded, InvalidEncoding
from hsplab.linalg import CosetQuotientView
from hsplab.normalsub import normal_closure
from hsplab.sim import RngStream
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


def test_make_group_rejects_bad_specs():
    with pytest.raises(BadSpec):
        make_group(GroupSpec(kind="extraspecial", p=4))
    with pytest.raises(BadSpec):
        make_group(GroupSpec(kind="extraspecial", p=2))
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
