"""Brute-force oracles and statistical helpers used as ground truth."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

import hsplab

from hsplab.core import GroupElement, GroupSpec, enumerate_closure, make_group, make_hiding_oracle
from hsplab.sim import RngStream
from hsplab.verify import (
    brute_force_hsp,
    chi_square_uniform,
    subgroup_key,
    subgroups_of,
    verify_hiding,
)


def test_brute_force_hsp_shapes():
    G = make_group(GroupSpec(kind="abelian", moduli=(2, 2)))
    elements = enumerate_closure(G, G.generators)
    f_inj = make_hiding_oracle(G, [], seed=1)
    assert len(brute_force_hsp(G, elements, f_inj)) == 1
    f_const = make_hiding_oracle(G, elements, seed=2)
    assert len(brute_force_hsp(G, elements, f_const)) == 4
    h = [GroupElement(G.backend.encode((1, 1)))]
    f = make_hiding_oracle(G, h, seed=3)
    assert subgroup_key(G, brute_force_hsp(G, elements, f)) == subgroup_key(
        G, enumerate_closure(G, h)
    )


def test_verify_hiding_accepts_harness_oracles_and_rejects_noise():
    G = make_group(GroupSpec(kind="abelian", moduli=(8,)))
    elements = enumerate_closure(G, G.generators)
    h = enumerate_closure(G, [GroupElement(G.backend.encode((4,)))])
    f = make_hiding_oracle(G, h, seed=4)
    assert verify_hiding(G, elements, f, h)
    assert not verify_hiding(G, elements, f, elements)

    class Noise:
        def __init__(self):
            self.rng = random.Random(9)
            self.values = {}

        def peek(self, g):
            return self.values.setdefault(g.bits, str(self.rng.randrange(4)))

        eval = peek

    assert not verify_hiding(G, elements, Noise(), h)


def test_subgroup_counts():
    z22 = make_group(GroupSpec(kind="abelian", moduli=(2, 2)))
    assert len(subgroups_of(z22, enumerate_closure(z22, z22.generators))) == 5
    z4 = make_group(GroupSpec(kind="abelian", moduli=(4,)))
    assert len(subgroups_of(z4, enumerate_closure(z4, z4.generators))) == 3
    triv = make_group(GroupSpec(kind="permutation", degree=2, perms=[[0, 1]]))
    assert len(subgroups_of(triv, enumerate_closure(triv, triv.generators))) == 1


def _subgroups_by_closures(G, elements):
    """The exhaustive fixpoint on the group itself, one enumerate_closure of
    sub + [x] per element x outside each subgroup found."""
    trivial = [G.identity()]
    found = {subgroup_key(G, trivial): trivial}
    work = [trivial]
    while work:
        sub = work.pop()
        sub_keys = subgroup_key(G, sub)
        for x in elements:
            if G.key(x) in sub_keys:
                continue
            extended = enumerate_closure(G, sub + [x], len(elements))
            key = subgroup_key(G, extended)
            if key not in found:
                found[key] = extended
                work.append(extended)
    return list(found.values())


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec(kind="extraspecial", p=3),
        GroupSpec(kind="extraspecial", p=3, variant="exponent-p2"),
        GroupSpec(kind="abelian", moduli=(4, 6)),
        GroupSpec(kind="wreath", k=2),
    ],
    ids=["es3", "es3-p2", "z4xz6", "wreath2"],
)
def test_subgroups_on_the_table_match_closures_in_the_group(spec):
    """The Cayley-table fixpoint finds the same subgroups, in the same order
    and each with its elements in the same order."""
    G = make_group(spec)
    elements = enumerate_closure(G, G.generators)
    assert subgroups_of(G, elements) == _subgroups_by_closures(G, elements)


def test_subgroups_closed_under_intersection():
    G = make_group(GroupSpec(kind="abelian", moduli=(2, 4)))
    elements = enumerate_closure(G, G.generators)
    subs = subgroups_of(G, elements)
    keys = {subgroup_key(G, s) for s in subs}
    for a in subs[:6]:
        for b in subs[:6]:
            meet = [x for x in a if G.key(x) in subgroup_key(G, b)]
            assert subgroup_key(G, meet) in keys


def test_random_subgroup_mode():
    G = make_group(GroupSpec(kind="wreath", k=3))
    elements = enumerate_closure(G, G.generators)
    subs = subgroups_of(G, elements, max_count=10, rng=RngStream(5))
    assert 1 <= len(subs) <= 10
    for sub in subs:
        assert subgroup_key(G, enumerate_closure(G, list(sub))) == subgroup_key(G, sub)


def test_chi_square_examples():
    stat, p = chi_square_uniform(["a"] * 100, ["a", "b", "c", "d"])
    assert stat == 300.0
    assert p < 1e-3
    stat, p = chi_square_uniform(["x"] * 10, ["x"])
    assert p == 1.0


def test_chi_square_accepts_true_uniform():
    rng = random.Random(123)
    support = list(range(8))
    accepted = 0
    for _ in range(100):
        draws = [rng.randrange(8) for _ in range(10_000)]
        _, p = chi_square_uniform(draws, support)
        if p > 1e-3:
            accepted += 1
    assert accepted >= 99


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats costs about a second to import; only chi_square_uniform
    needs it, so it is imported there."""
    src = str(Path(hsplab.__file__).resolve().parent.parent)
    code = "import sys, hsplab; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
