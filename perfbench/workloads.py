"""The four benchmark workloads: their groups, seeded instances and checks.

An instance is one hidden-subgroup problem.  Its timed span runs from the
generated inputs to the solver's answer: ``make_hiding_oracle`` plus the
solver call, or one ``cli.run(..., verify=True)`` on ``cli-suite``.  The
answer is checked outside the span by comparing the closure of the returned
generators with the generated H through ``subgroup_key``.

Hidden subgroups of the solver workloads are closures of 0-2 seeded random
elements.  Every seed's pool has the same |H| profile per group (below), so
runs on different seeds measure the same mix of small and large H, which is
what the solvers' cost depends on most; the seed picks which subgroups fill
the profile, their generators, and the oracle and solver seeds.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from hsplab import cli, core, solvers, specfile, verify
from hsplab.core import BlackBoxGroup, GroupElement
from hsplab.errors import HspError
from hsplab.sim import SolverConfig

# The benchmark's own closures and checks use the functions as imported here,
# before any tracer is installed, so that they never count as library work.
# Calls into the library go through the module attributes, which a tracer
# rebinds.
_enumerate_closure = core.enumerate_closure
_subgroup_key = verify.subgroup_key

MAX_DRAWS = 20_000

# |H| of each pool instance, per group: the orders at the midpoints of equal
# blocks (12 per group on commutator-es, 8 on the costlier workloads) of 384
# sorted orders of closures of 0-2 random elements, drawn once with a fixed
# seed.  They follow the distribution of such closures.
PROFILES = {
    "es5-p": (1, 1, 1, 1, 5, 5, 5, 5, 25, 125, 125, 125),
    "es5-p2": (1, 1, 1, 1, 5, 25, 25, 25, 25, 125, 125, 125),
    "es7-p": (1, 1, 1, 1, 7, 7, 7, 7, 7, 343, 343, 343),
    "es7-p2": (1, 1, 1, 1, 7, 49, 49, 49, 49, 343, 343, 343),
    "wreath3": (1, 1, 1, 2, 4, 4, 8, 16),
    "affine5": (1, 1, 1, 4, 8, 8, 64, 256),
    "affine4": (1, 1, 1, 5, 15, 15, 240, 240),
    "z2^8": (1, 1, 1, 2, 2, 4, 4, 4),
    "z3xz9xz9": (1, 1, 1, 9, 9, 9, 27, 81),
    "z4xz6": (1, 1, 1, 3, 6, 12, 12, 24),
}


def _elem2_gens(G: BlackBoxGroup) -> list[GroupElement]:
    return [GroupElement(b) for b in G.meta["elem2_normal_gens"]]


def _commutator(G, f, seed):
    return solvers.solve_small_commutator(G, f, SolverConfig(seed=seed))


def _elem2_small(G, f, seed):
    return solvers.solve_elem2_small_quotient(G, _elem2_gens(G), f, SolverConfig(seed=seed))


def _elem2_cyclic(G, f, seed):
    return solvers.solve_elem2_cyclic(G, _elem2_gens(G), f, SolverConfig(seed=seed))


def _abelian_statevector(G, f, seed):
    return solvers.solve_abelian(G, f, SolverConfig(seed=seed, backend="statevector"))


def _extraspecial(p: int, variant: str) -> str:
    return f"kind = extraspecial\np = {p}\nvariant = {variant}\n"


# 5x5 unipotent Jordan block (order 8, |G/N| = 8) and the companion matrix
# of x^4 + x + 1 (order 15, cyclic G/N): the groups of acceptance criteria
# 6 and 7.
AFFINE5 = (
    "kind = affinegf2\nk = 5\nblock = 11000 01100 00110 00011 00001\n"
    + "".join(f"trans = {'0' * i}1{'0' * (4 - i)}\n" for i in range(5))
)
AFFINE4 = (
    "kind = affinegf2\nk = 4\nblock = 0001 1001 0100 0010\n"
    + "".join(f"trans = {'0' * i}1{'0' * (3 - i)}\n" for i in range(4))
)


@dataclass(frozen=True)
class Workload:
    """One workload; README.md says why each was chosen."""

    name: str
    groups: tuple  # (label, spec text, solve function or None for the CLI)
    # Seconds one pass over the pool takes on a 2-vCPU 2.1 GHz Xeon VM.  It
    # turns --seconds into a fixed number of passes, so the best-of-runs
    # estimate uses the same number of runs whatever the speed of the run.
    pass_seconds: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "commutator-es",
            (
                ("es5-p", _extraspecial(5, "exponent-p"), _commutator),
                ("es5-p2", _extraspecial(5, "exponent-p2"), _commutator),
                ("es7-p", _extraspecial(7, "exponent-p"), _commutator),
                ("es7-p2", _extraspecial(7, "exponent-p2"), _commutator),
            ),
            3.6,
        ),
        Workload(
            "elem2-affine",
            (
                ("wreath3", "kind = wreath\nk = 3\n", _elem2_small),
                ("affine5", AFFINE5, _elem2_small),
                ("affine4", AFFINE4, _elem2_cyclic),
            ),
            7.5,
        ),
        Workload(
            "abelian-statevector",
            (
                ("z2^8", "kind = abelian\nmoduli = 2 2 2 2 2 2 2 2\n", _abelian_statevector),
                ("z3xz9xz9", "kind = abelian\nmoduli = 3 9 9\n", _abelian_statevector),
                ("z4xz6", "kind = abelian\nmoduli = 4 6\n", _abelian_statevector),
            ),
            6.5,
        ),
        Workload(
            "cli-suite",
            (
                ("es3-p", _extraspecial(3, "exponent-p"), None),
                ("es3-p2", _extraspecial(3, "exponent-p2"), None),
                ("z4xz6", "kind = abelian\nmoduli = 4 6\n", None),
                ("d16", "kind = permutation\ndegree = 8\ngen = (1 2 3 4 5 6 7 8)\ngen = (2 8)(3 7)(4 6)\n", None),
                ("wreath2", "kind = wreath\nk = 2\n", None),
            ),
            3.2,
        ),
    )
}


@dataclass
class Group:
    label: str
    G: BlackBoxGroup
    order: int
    solve: Optional[Callable]
    path: Optional[str] = None  # spec file, for the CLI workload


@dataclass
class Instance:
    group: int
    hidden: list  # generators of H, as GroupElements
    h_key: frozenset
    h_order: int
    oracle_seed: int
    solver_seed: int
    hidden_text: str = ""  # --hidden argument, for the CLI workload


@dataclass
class Outcome:
    seconds: float
    ok: bool
    wrong: bool  # an answer was returned and it is not H
    error: Optional[str]
    f_queries: int
    f_query_budget: Optional[int] = None


class Prepared:
    """A workload's groups and instance pool for one seed."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        rng = random.Random(f"{workload.name}:{seed}")
        self.groups: list[Group] = []
        self.work_dir: Optional[Path] = None
        if any(solve is None for _, _, solve in workload.groups):
            self.work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=work_dir))
        pools = []
        for label, text, solve in workload.groups:
            if self.work_dir is not None:
                path = self.work_dir / f"{label}.grp"
                path.write_text(text)
                G = core.make_group(specfile.load_group_spec(path))
            else:
                path = None
                G = core.make_group(specfile.parse_group_spec(text))
            elements = _enumerate_closure(G, G.generators)
            group = Group(label, G, len(elements), solve, str(path) if path else None)
            index = len(self.groups)
            self.groups.append(group)
            sub_rng = random.Random(rng.getrandbits(64))
            if solve is None:
                pools.append(_every_subgroup(index, group, elements, sub_rng))
            else:
                pools.append(_profiled(index, group, elements, PROFILES[label], sub_rng))
        # round-robin over the groups, so every group gets its share of a pass
        self.instances: list[Instance] = []
        for row in range(max(len(p) for p in pools)):
            self.instances.extend(p[row] for p in pools if row < len(p))

    def close(self) -> None:
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir, ignore_errors=True)
            self.work_dir = None

    def fingerprint(self) -> list:
        """The instance set, for comparing seeds."""
        return [
            (i.group, sorted(x.bits for x in i.hidden), i.oracle_seed, i.solver_seed)
            for i in self.instances
        ]

    def run(self, inst: Instance, clock) -> Outcome:
        group = self.groups[inst.group]
        if group.solve is None:
            return self._run_cli(group, inst, clock)
        G = group.G
        try:
            start = clock()
            f = core.make_hiding_oracle(G, inst.hidden, seed=inst.oracle_seed)
            result = group.solve(G, f, inst.solver_seed)
            seconds = clock() - start
        except (HspError, AssertionError) as exc:
            return Outcome(clock() - start, False, False, _describe(exc), 0)
        got = _subgroup_key(G, _enumerate_closure(G, result.gens))
        ok = got == inst.h_key
        return Outcome(
            seconds, ok, not ok, None if ok else "wrong subgroup", f.query_count, result.f_query_budget
        )

    def _run_cli(self, group: Group, inst: Instance, clock) -> Outcome:
        config = cli.RunConfig(
            group.path, inst.hidden_text, solver="auto", seed=inst.solver_seed, verify=True
        )
        try:
            start = clock()
            code, report = cli.run(config)
            seconds = clock() - start
        except AssertionError as exc:
            return Outcome(clock() - start, False, False, _describe(exc), 0)
        f_queries = report.get("stats", {}).get("f_queries", 0)
        if code == 1:
            return Outcome(seconds, False, False, report.get("error"), f_queries)
        if code not in (0, 2):
            raise RuntimeError(f"cli.run exit {code} on a generated spec: {report}")
        G = group.G
        gens = [GroupElement.from_hex(h) for h in report["generators"]]
        ok = code == 0 and _subgroup_key(G, _enumerate_closure(G, gens)) == inst.h_key
        return Outcome(seconds, ok, not ok, None if ok else "wrong subgroup", f_queries)

    def suite_file(self, count: int) -> Path:
        """A cli --suite file with the first `count` instances of the pool."""
        entries = [
            {
                "group": Path(self.groups[i.group].path).name,
                "hidden": i.hidden_text,
                "solver": "auto",
                "verify": True,
            }
            for i in self.instances[:count]
        ]
        path = self.work_dir / "suite.json"
        path.write_text(json.dumps(entries))
        return path

    def input_properties(self) -> dict:
        """Properties of the pool that optimisations depend on."""
        large = 0
        index_counts: Counter = Counter()
        for inst in self.instances:
            order = self.groups[inst.group].order
            large += inst.h_order * inst.h_order >= order
            index_counts[order // inst.h_order] += 1
        n = len(self.instances)
        return {
            "instances": n,
            "distinct_groups": len(self.groups),
            "group_orders": {g.label: g.order for g in self.groups},
            "large_h_share": large / n,
            "large_h_rule": "|H| >= sqrt(|G|)",
            "index_histogram": {str(k): v for k, v in sorted(index_counts.items())},
        }


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _closure_with_key(G, gens):
    elements = _enumerate_closure(G, gens)
    return _subgroup_key(G, elements), len(elements)


def _profiled(index, group, elements, profile, rng) -> list[Instance]:
    """Draw closures until one of every order in the profile is found."""
    needed = Counter(profile)
    elements = sorted(elements, key=lambda x: x.bits)
    pool = []
    for _ in range(MAX_DRAWS):
        if not needed:
            break
        gens = [rng.choice(elements) for _ in range(rng.randrange(3))]
        key, order = _closure_with_key(group.G, gens)
        if needed[order]:
            needed[order] -= 1
            if not needed[order]:
                del needed[order]
            pool.append(
                Instance(index, gens, key, order, rng.getrandbits(64), rng.getrandbits(32))
            )
    if needed:
        raise RuntimeError(f"{group.label}: no closures of orders {dict(needed)} in {MAX_DRAWS} draws")
    rng.shuffle(pool)
    return pool


def _every_subgroup(index, group, elements, rng) -> list[Instance]:
    G = group.G
    pool = []
    for sub in verify.subgroups_of(G, elements):
        target = _subgroup_key(G, sub)
        # a seeded generating set: add shuffled members until they generate H
        members = list(sub)
        rng.shuffle(members)
        gens: list = []
        key = _subgroup_key(G, [G.identity()])
        for x in members:
            if key == target:
                break
            if G.key(x) not in key:
                gens.append(x)
                key = _closure_with_key(G, gens)[0]
        text = ",".join(x.bits for x in gens)
        pool.append(
            Instance(index, gens, target, len(sub), 0, rng.getrandbits(32), hidden_text=text)
        )
    rng.shuffle(pool)
    return pool
