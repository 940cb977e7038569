"""L0 microbatch: BlackBoxGroup.multiply and invert per backend kind.

Each kind runs on fixed seeded element pairs, the same in every run, so the
numbers compare across runs and commits.  The groups are the ones the L0
baselines were first measured on.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from hsplab.core import make_group
from hsplab.specfile import parse_group_spec

from workloads import AFFINE5

KINDS = {
    "extraspecial": "kind = extraspecial\np = 5\n",
    "affinegf2": AFFINE5,
    "permutation": "kind = permutation\ndegree = 8\ngen = (1 2 3 4 5 6 7 8)\ngen = (1 2)\n",
    "wreath": "kind = wreath\nk = 3\n",
    "abelian": "kind = abelian\nmoduli = 4 6\n",
}
PAIRS = 256
WORD_LENGTH = 24
REPEATS = 15
SEED = 0x10


def _pairs(G, rng):
    def word():
        x = G.identity()
        for _ in range(WORD_LENGTH):
            x = G.multiply(x, rng.choice(G.generators))
        return x

    return [(word(), word()) for _ in range(PAIRS)]


def _median_us(op, args) -> float:
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        for a in args:
            op(*a)
        samples.append((perf_counter() - start) / len(args))
    return 1e6 * statistics.median(samples)


def run_microbatch() -> dict:
    """`core.multiply_us.<kind>` and `core.invert_us.<kind>` in microseconds."""
    out = {}
    rng = random.Random(SEED)
    for kind, text in KINDS.items():
        G = make_group(parse_group_spec(text))
        pairs = _pairs(G, rng)
        out[f"core.multiply_us.{kind}"] = _median_us(G.multiply, pairs)
        out[f"core.invert_us.{kind}"] = _median_us(G.invert, [(a,) for a, _ in pairs])
    return out
