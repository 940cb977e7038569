"""Shared group builders for the test suite.

Q8 and the order-16 dihedral group are realized through the permutation
backend; the two affine instances used by the elementary-2 solvers are fixed
here so every test module agrees on them.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from hsplab.core import BlackBoxGroup, GroupElement, GroupSpec, GroupView, make_group
from hsplab.sim import QuantumFunctionOracle


def _q8_mul(a, b):
    # elements 0..7 stand for 1,-1,i,-i,j,-j,k,-k
    def dec(x):
        return (1 if x % 2 == 0 else -1, x // 2)

    def enc(s, u):
        return u * 2 + (0 if s == 1 else 1)

    sa, ua = dec(a)
    sb, ub = dec(b)
    unit = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    s, u = unit[(ua, ub)]
    return enc(sa * sb * s, u)


def _q8_perm(g):
    return [_q8_mul(x, g) for x in range(8)]


def q8_group() -> BlackBoxGroup:
    """Quaternion group via its regular representation (generators i, j)."""
    return make_group(
        GroupSpec(kind="permutation", degree=8, perms=[_q8_perm(2), _q8_perm(4)])
    )


def q8_minus_one(G: BlackBoxGroup) -> GroupElement:
    return GroupElement(G.backend.encode(_q8_perm(1)))


def d16_group() -> BlackBoxGroup:
    """Dihedral group of order 16 acting on 8 points."""
    r = [1, 2, 3, 4, 5, 6, 7, 0]
    s = [0, 7, 6, 5, 4, 3, 2, 1]
    return make_group(GroupSpec(kind="permutation", degree=8, perms=[r, s]))


# single 5x5 unipotent Jordan block; its order is 8, giving |G/N| = 8
AFFINE5_BLOCK = ["11000", "01100", "00110", "00011", "00001"]
AFFINE5_TRANS = ["10000", "01000", "00100", "00010", "00001"]

# companion matrix of x^4 + x + 1; multiplicative order 15, so G/N is cyclic
AFFINE4_BLOCK = ["0001", "1001", "0100", "0010"]
AFFINE4_TRANS = ["1000", "0100", "0010", "0001"]


def affine5_group() -> BlackBoxGroup:
    return make_group(
        GroupSpec(kind="affinegf2", k=5, block=AFFINE5_BLOCK, translations=AFFINE5_TRANS)
    )


def affine4_group() -> BlackBoxGroup:
    return make_group(
        GroupSpec(kind="affinegf2", k=4, block=AFFINE4_BLOCK, translations=AFFINE4_TRANS)
    )


def s8_group() -> BlackBoxGroup:
    return make_group(
        GroupSpec(
            kind="permutation",
            degree=8,
            perms=[[1, 2, 3, 4, 5, 6, 7, 0], [1, 0, 2, 3, 4, 5, 6, 7]],
        )
    )


SMALL_COMMUTATOR = {
    "es3-p": GroupSpec(kind="extraspecial", p=3, variant="exponent-p"),
    "es3-p2": GroupSpec(kind="extraspecial", p=3, variant="exponent-p2"),
    "d16": None,
    "s4": GroupSpec(kind="permutation", degree=4, perms=[[1, 2, 3, 0], [1, 0, 2, 3]]),
    "wreath2": GroupSpec(kind="wreath", k=2),
}


def small_commutator_group(name: str) -> BlackBoxGroup:
    """One of the SMALL_COMMUTATOR groups, whose subgroups are all small
    enough to enumerate; G' is non-trivial in each, and non-Abelian in S4."""
    spec = SMALL_COMMUTATOR[name]
    return d16_group() if spec is None else make_group(spec)


class LabelView(GroupView):
    """A view over plain tuples whose key is a given label function."""

    def __init__(self, label):
        self.label = label

    def key(self, t) -> str:
        return self.label(t)


def label_oracle(structure, label) -> QuantumFunctionOracle:
    """The oracle t -> label(t) over `structure`, for either path."""
    return QuantumFunctionOracle(structure, LabelView(label), lambda t: t)


@pytest.fixture(scope="session")
def q8():
    return q8_group()


@pytest.fixture(scope="session")
def d16():
    return d16_group()


@pytest.fixture(scope="session")
def s8():
    return s8_group()
