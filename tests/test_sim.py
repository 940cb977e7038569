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
    cover_oracle,
    find_order,
    sample_character,
    splitmix64,
)
from hsplab.specfile import parse_cycles
from hsplab.verify import chi_square_uniform

from conftest import affine4_group, d16_group, label_oracle, q8_group, s8_group


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
        c = sample_character(f, backend, rng)
        counts[c] += 1
    assert counts[(0,)] > 100 and counts[(2,)] > 100


@pytest.mark.parametrize("backend", ["ideal", "statevector"])
def test_sample_character_constant_oracle(backend):
    A = AbelianStructure((4,))
    f = label_oracle(A, lambda t: "same")
    rng = RngStream(5)
    for _ in range(50):
        assert sample_character(f, backend, rng) == (0,)


@pytest.mark.parametrize("backend", ["ideal", "statevector"])
def test_sample_character_z2z2_diagonal(backend):
    A = AbelianStructure((2, 2))
    f = _coset_oracle(A, [(1, 1)])
    rng = RngStream(21)
    seen = set()
    for _ in range(200):
        c = sample_character(f, backend, rng)
        assert c in {(0, 0), (1, 1)}
        seen.add(c)
    assert seen == {(0, 0), (1, 1)}


def test_statevector_cap():
    A = AbelianStructure((2,) * 17)
    f = label_oracle(A, lambda t: "x")
    with pytest.raises(TooLarge):
        sample_character(f, "statevector", RngStream(0))


def test_statevector_state_built_once_per_oracle(monkeypatch):
    """A statevector abelian_hsp builds its state once per oracle: one fftn
    per label class, here the 12 cosets of H = <(2, 3)> in Z4 x Z6, however
    many rounds it draws."""
    import numpy as np

    calls = []
    real = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **k: calls.append(1) or real(*a, **k))
    A = AbelianStructure((4, 6))
    f = _coset_oracle(A, [(2, 3)])
    cfg = SolverConfig(seed=3, backend="statevector")
    gens = abelian_hsp(f, cfg)
    assert sorted(subgroup_elements(A, [list(t) for t in gens])) == [(0, 0), (2, 3)]
    assert cfg.draws > 12
    assert len(calls) == 12


def test_backend_agreement_chi_square():
    """Both samplers look uniform on the same dual subgroup."""
    A = AbelianStructure((8, 2))
    support = [(0, 0), (2, 1), (4, 0), (6, 1)]
    for backend, seed in [("ideal", 3), ("statevector", 4)]:
        f = _coset_oracle(A, [(2, 1)])
        rng = RngStream(seed)
        draws = [sample_character(f, backend, rng) for _ in range(2000)]
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


def test_abelian_hsp_exact_at_large_epsilon():
    """Z2^6 with the trivial subgroup hidden, epsilon = 1/4: every answer is
    exact, though log2(1/epsilon) stable rounds alone miss often."""
    f = label_oracle(AbelianStructure((2,) * 6), str)
    for trial in range(400):
        assert abelian_hsp(f, SolverConfig(0.25, seed=9_000 + trial)) == [], trial


@pytest.mark.parametrize("moduli", [(2,) * 6, (4, 6)])
def test_abelian_hsp_certificate_cost_bounded(moduli):
    """At epsilon = 1/4 certificates often fail, yet one call's counted evals
    stay within 1 + k * (1 + log2|A|), the per-call cost the elem2 budget
    charges: a kernel that fails is not certified again."""
    A = AbelianStructure(moduli)
    f = label_oracle(A, str)
    counted = f.eval
    evals = []
    f.eval = lambda t: evals.append(t) or counted(t)
    bound = 1 + len(moduli) * (1 + math.log2(A.order))
    for trial in range(400):
        evals.clear()
        assert abelian_hsp(f, SolverConfig(0.25, seed=9_500 + trial)) == [], trial
        assert len(evals) <= bound, trial


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
        if name in ("peek", "hkey", "hidden_gens") or "Harness" in name
    ]
    assert found == []


def test_cover_oracle_is_the_one_oracle_of_membership_and_order_finding():
    """membership.py and normalsub.py (the hidden normal subgroup) build
    their oracles through sim.cover_oracle and name no oracle class, harness
    provider or classical decomposition; within sim, cover_oracle is the
    only caller of QuantumFunctionOracle."""
    banned = {"QuantumFunctionOracle", "_kernel_provider", "AbelianStructure", "decompose_abelian"}
    for module in ("membership.py", "normalsub.py"):
        names = set(_source_names(SRC / module))
        assert names & banned == set(), module
        assert "cover_oracle" in names, module
    callers = {
        fn.name
        for fn in ast.walk(ast.parse((SRC / "sim.py").read_text()))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "QuantumFunctionOracle"
    }
    assert callers == {"cover_oracle"}


@pytest.mark.parametrize("module", ["solvers.py", "normalsub.py", "cli.py"])
def test_only_the_solve_frame_keeps_the_books(module):
    """Solvers and the CLI take their f-queries, counters and budget checks
    from core.SolveFrame: none builds QueryStats or raises BudgetExceeded."""
    names = {"QueryStats", "BudgetExceeded", "RecordedOracle"}
    assert [name for name in _source_names(SRC / module) if name in names] == []


def test_privileged_keys_are_read_only_in_the_harness_layers():
    harness_layers = {"core", "linalg", "sim", "verify"}
    readers = {
        path.stem
        for path in SRC.glob("*.py")
        if {"peek", "hkey", "hidden_gens"} & set(_source_names(path))
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


def test_solver_config_draws_counts_children():
    """`draws` sums the root stream and every stream derived from it."""
    cfg = SolverConfig(seed=9)
    child = cfg.child("one")
    grandchild = child.child("two")
    cfg.rng.randrange(5)
    child.rng.random()
    grandchild.rng.randrange(3)
    grandchild.rng.randrange(3)
    assert (cfg.draws, child.draws, grandchild.draws) == (4, 4, 4)
    assert SolverConfig(seed=9).draws == 0


def _perm(G, text):
    return GroupElement(G.backend.encode(parse_cycles(text, 8)))


def _cover_case(name):
    """A view, images commuting in it, and moduli that are multiples of the
    images' orders there."""
    if name == "z4xz6":
        G = make_group(GroupSpec(kind="abelian", moduli=(4, 6)))
        a, b = G.generators
        return G, [a, b, G.multiply(a, b)], (4, 6, 12)
    if name == "s8":
        G = s8_group()
        return G, [_perm(G, t) for t in ("(1 2 3 4)", "(1 3)(2 4)", "(5 6 7)")], (4, 2, 6)
    if name == "d16-mod-hidden-r2":
        G = d16_group()
        r, s = G.generators
        view = LabelQuotientView(G, make_hiding_oracle(G, [G.power(r, 2)], seed=7))
        return view, [r, s, G.multiply(r, s)], (8, 2, 2)
    G = q8_group()  # Q8 modulo its centre <-1>, given by its elements
    i, j = G.generators
    return CosetQuotientView(G, enumerate_closure(G, [G.power(i, 2)])), [i, j], (4, 4)


@pytest.mark.parametrize("backend", ["ideal", "statevector"])
@pytest.mark.parametrize("name", ["z4xz6", "s8", "d16-mod-hidden-r2", "q8-mod-centre"])
def test_cover_oracle_hides_the_relations_of_its_images(name, backend):
    """Over Z_m1 x ... x Z_mk, t -> prod images_i^t_i hides the brute-force
    kernel {t : the product is 1 in the view}; abelian_hsp finds it under
    both samplers, and the default provider names it too."""
    view, images, moduli = _cover_case(name)
    oracle = cover_oracle(view, images, moduli)
    A = oracle.structure
    assert A.moduli == moduli
    kernel = {t for t in A.elements() if view.is_identity(view.word(images, t))}
    assert len(kernel) > 1  # a relation beyond the moduli
    found = abelian_hsp(oracle, SolverConfig(seed=13, backend=backend))
    assert set(subgroup_elements(A, [list(t) for t in found])) == kernel
    provided = oracle.hidden_subgroup_gens()
    assert set(subgroup_elements(A, [list(t) for t in provided])) == kernel


def test_cover_oracle_forms_each_element_once_and_takes_a_provider():
    """Each element is formed by one view.word when first asked and then
    kept; a given provider replaces the default one."""
    G = make_group(GroupSpec(kind="abelian", moduli=(12,)))
    g = G.generators[0]
    oracle = cover_oracle(G, [g], (12,), provider=lambda: [(4,)])
    assert oracle.hidden_subgroup_gens() == [(4,)]
    ops = G.stats.group_ops
    labels = [oracle.eval((5,)), oracle.eval((17,)), oracle.peek((5,))]
    assert G.stats.group_ops - ops == 4  # g^5 by squaring, formed once
    assert labels[0] == labels[1] == labels[2] == G.key(G.power(g, 5))
