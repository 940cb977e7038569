"""Fourier sampling backends, the Abelian hidden-subgroup loop, order finding."""

import ast
import math
from pathlib import Path

import pytest

import hsplab
from hsplab.core import GroupElement, GroupSpec, enumerate_closure, make_group, make_hiding_oracle
from hsplab.errors import NoOrderBound, TooLarge
from hsplab.linalg import (
    AbelianStructure,
    CosetQuotientView,
    LabelQuotientView,
    decompose_abelian,
    subgroup_elements,
)
from hsplab.sim import (
    QuantumFunctionOracle,
    RngStream,
    SolverConfig,
    abelian_hsp,
    find_order,
    sample_character,
    splitmix64,
)
from hsplab.verify import chi_square_uniform

from conftest import affine4_group, label_oracle


def _coset_oracle(structure, h_gens):
    H = subgroup_elements(structure, [list(h) for h in h_gens])

    def label(t):
        return str(min(structure.add(t, h) for h in H))

    return label_oracle(structure, label)


@pytest.mark.parametrize("backend", ["ideal", "statevector"])
def test_sample_character_z4(backend):
    A = AbelianStructure((4,))
    f = _coset_oracle(A, [(2,)])
    rng = RngStream(11)
    counts = {(0,): 0, (2,): 0}
    for _ in range(400):
        c = tuple(sample_character(f, backend, rng).coeffs)
        counts[c] += 1
    assert counts[(0,)] > 100 and counts[(2,)] > 100


@pytest.mark.parametrize("backend", ["ideal", "statevector"])
def test_sample_character_constant_oracle(backend):
    A = AbelianStructure((4,))
    f = label_oracle(A, lambda t: "same")
    rng = RngStream(5)
    for _ in range(50):
        assert tuple(sample_character(f, backend, rng).coeffs) == (0,)


@pytest.mark.parametrize("backend", ["ideal", "statevector"])
def test_sample_character_z2z2_diagonal(backend):
    A = AbelianStructure((2, 2))
    f = _coset_oracle(A, [(1, 1)])
    rng = RngStream(21)
    seen = set()
    for _ in range(200):
        c = tuple(sample_character(f, backend, rng).coeffs)
        assert c in {(0, 0), (1, 1)}
        seen.add(c)
    assert seen == {(0, 0), (1, 1)}


def test_statevector_cap():
    A = AbelianStructure((2,) * 17)
    f = label_oracle(A, lambda t: "x")
    with pytest.raises(TooLarge):
        sample_character(f, "statevector", RngStream(0))


def test_backend_agreement_chi_square():
    """Both samplers look uniform on the same dual subgroup."""
    A = AbelianStructure((8, 2))
    support = [(0, 0), (2, 1), (4, 0), (6, 1)]
    for backend, seed in [("ideal", 3), ("statevector", 4)]:
        f = _coset_oracle(A, [(2, 1)])
        rng = RngStream(seed)
        draws = [tuple(sample_character(f, backend, rng).coeffs) for _ in range(2000)]
        assert set(draws) <= set(support)
        _, p = chi_square_uniform(draws, support)
        assert p > 1e-3


@pytest.mark.parametrize("moduli,h_gens", [
    ((16,), [(4,)]),
    ((16,), []),
    ((4, 6), [(2, 3)]),
    ((2, 2, 2), [(1, 1, 0), (0, 0, 1)]),
])
def test_abelian_hsp_examples(moduli, h_gens):
    A = AbelianStructure(moduli)
    f = _coset_oracle(A, h_gens)
    cfg = SolverConfig(epsilon=2.0**-20, seed=99)
    out = abelian_hsp(f, cfg)
    found = set(subgroup_elements(A, [list(t) for t in out]))
    zero_label = f.peek(A.zero())
    expected = {t for t in A.elements() if f.peek(t) == zero_label}
    assert found == expected


def test_abelian_hsp_injective_oracle():
    A = AbelianStructure((4, 6))
    f = label_oracle(A, str)
    cfg = SolverConfig(epsilon=2.0**-20, seed=7)
    assert abelian_hsp(f, cfg) == []


def test_label_view_oracle_counts_each_path_once():
    """Over a LabelQuotientView of f, eval is one counted f-query and peek
    one harness query, and both read the label of the mapped element."""
    G = make_group(GroupSpec(kind="abelian", moduli=(4, 6)))
    h_gens = [GroupElement(G.backend.encode((2, 3)))]
    f = make_hiding_oracle(G, h_gens, seed=3)
    reference = make_hiding_oracle(G, h_gens, seed=3)
    dec = decompose_abelian(G, G.generators)
    oracle = QuantumFunctionOracle(dec.structure, LabelQuotientView(G, f), dec.element_of)
    for t in dec.structure.elements():
        queries, peeks = f.query_count, f.harness_queries
        label = reference.eval(dec.element_of(t))
        assert oracle.eval(t) == label
        assert (f.query_count, f.harness_queries) == (queries + 1, peeks)
        assert oracle.peek(t) == label
        assert (f.query_count, f.harness_queries) == (queries + 1, peeks + 1)


def _source_names(path: Path):
    """Every attribute, function, class, variable and imported name in a module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.name
            if node.asname:
                yield node.asname


SRC = Path(hsplab.__file__).parent


@pytest.mark.parametrize("module", ["solvers.py", "membership.py", "normalsub.py"])
def test_solver_code_never_names_the_harness_path(module):
    found = [
        name
        for name in _source_names(SRC / module)
        if name in ("peek", "hkey") or "Harness" in name
    ]
    assert found == []


def test_privileged_keys_are_read_only_in_the_harness_layers():
    harness_layers = {"core", "linalg", "sim", "verify"}
    readers = {
        path.stem
        for path in SRC.glob("*.py")
        if {"peek", "hkey"} & set(_source_names(path))
    }
    assert readers <= harness_layers


def test_find_order_basic(s8):
    cfg = SolverConfig(seed=31)
    assert find_order(s8, s8.identity(), cfg, order_bound=math.factorial(8)) == 1
    G = make_group(GroupSpec(kind="permutation", degree=4, perms=[[1, 2, 3, 0]]))
    assert find_order(G, G.generators[0], SolverConfig(seed=8), order_bound=24) == 4


def test_find_order_divides_bound_and_is_minimal(s8):
    from sympy import factorint

    rng = RngStream(55)
    elements = enumerate_closure(s8, [s8.generators[0], s8.generators[1]], bound=50000)
    cfg = SolverConfig(seed=77)
    bound = math.factorial(8)
    for _ in range(20):
        g = rng.choice(elements)
        n = find_order(s8, g, cfg, order_bound=bound)
        assert bound % n == 0
        assert s8.is_identity(s8.power(g, n))
        for p in factorint(n):
            assert not s8.is_identity(s8.power(g, n // p))


def test_find_order_affine_quotient_block():
    """The 4x4 companion block of x^4+x+1 has multiplicative order 15."""
    G = affine4_group()
    assert G.meta["block_order"] == 15


def test_find_order_requires_bound():
    # an order_hint-free group view with no bound argument must refuse
    A = AbelianStructure((6,))
    G = make_group(GroupSpec(kind="abelian", moduli=(6,)))
    n = find_order(G, G.generators[0], SolverConfig(seed=1), order_bound=6)
    assert n == 6


def test_find_order_on_quotient_view_needs_bound():
    """A quotient view has no order hint: without order_bound, NoOrderBound."""
    from hsplab.linalg import CosetQuotientView, LabelQuotientView

    G = affine4_group()
    n_gens = [GroupElement(b) for b in G.meta["elem2_normal_gens"]]
    views = [
        CosetQuotientView(G, enumerate_closure(G, n_gens)),
        LabelQuotientView(G, make_hiding_oracle(G, n_gens, seed=5)),
    ]
    for view in views:
        with pytest.raises(NoOrderBound):
            find_order(view, G.generators[0], SolverConfig(seed=2))
        assert find_order(view, G.generators[0], SolverConfig(seed=2), order_bound=15) == 15


def test_coset_label():
    """The canonical coset key of G modulo an enumerated N."""
    G = make_group(GroupSpec(kind="abelian", moduli=(2, 2)))
    n = enumerate_closure(G, [GroupElement(G.backend.encode((0, 1)))])
    Q = CosetQuotientView(G, n)
    x = GroupElement(G.backend.encode((1, 0)))
    inside = GroupElement(G.backend.encode((0, 1)))
    assert Q.key(inside) == Q.key(G.identity())
    assert Q.key(x) != Q.key(G.identity())
    # distinct cosets get distinct labels, exhaustively
    elements = enumerate_closure(G, G.generators)
    labels = {}
    for g in elements:
        labels.setdefault(Q.key(g), []).append(g)
    assert len(labels) == 2
    for members in labels.values():
        assert len(members) == 2


def test_rng_stream_determinism():
    a = RngStream(1234)
    b = RngStream(1234)
    seq_a = [a.randrange(1000) for _ in range(50)]
    seq_b = [b.randrange(1000) for _ in range(50)]
    assert seq_a == seq_b
    assert a.draws == 50
    assert splitmix64(1) != splitmix64(2)
    assert splitmix64(1) == splitmix64(1)


def test_solver_config_child_streams_differ():
    cfg = SolverConfig(seed=9)
    c1 = cfg.child("one")
    c2 = cfg.child("two")
    assert c1.seed != c2.seed
    # same seed and same call sequence give the same derived seeds
    again = SolverConfig(seed=9)
    assert again.child("one").seed == c1.seed
    assert again.child("two").seed == c2.seed
