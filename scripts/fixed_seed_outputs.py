"""Dump the fixed-seed outputs of the benchmark pools, to compare two trees.

    python3 scripts/fixed_seed_outputs.py OUT.json
    python3 scripts/fixed_seed_outputs.py --compare OLD.json NEW.json

The first form runs every instance of the four ``perfbench/workloads.py``
pools at seeds 1 and 2, once each, with the library of this checkout
(``src/``), and writes per instance: the answer's generators, the coset
representatives, the solver's ``f_queries``, ``group_ops`` and ``rng_draws``,
and the hiding oracle's query and harness-query counts.  On ``cli-suite`` it
writes the ``cli.run(..., verify=True)`` report instead, without
``wall_time_s`` and the spec path, which name a temporary directory.  Each
instance also gets an ``answer``: a digest of the sorted element keys of the
subgroup the returned generators generate, or null on an error.  Two trees
that compute the same thing write byte-identical files.

Two more pools run code that no benchmark pool reaches, at the same seeds:

* ``membership``: ``find_order`` of each input and ``constructive_membership``
  on fixed inputs in the three regimes (the group, G modulo a hidden normal
  subgroup through a ``LabelQuotientView``, and G modulo a normal subgroup
  given by its elements through a ``CosetQuotientView``); the answer is the
  member flag and the orders.
* ``normal``: ``hidden_normal_subgroup`` on every normal subgroup of es(3)
  (both variants), D16 and wreath k=2; the answer is the subgroup digest.
  ``normal-statevector`` runs the same instances, with the same seeds,
  under the statevector sampler.

Both use only library API that has long been public, so that this script can
run against an older checkout's library.

The second form prints ``identical``, or the number of instances whose
outputs differ and the number whose answers differ as subgroups, followed by
each pool's mean ``f_queries``, ``group_ops`` and ``rng_draws``, old -> new,
its largest ``f_queries / f_query_budget``, old -> new, when either side has
a budget, and each field path that changed with its count of differing
instances (``commutator-es/1: f_queries 48, rng_draws 48``).  It exits 1
when an answer differs as a subgroup, and 0 otherwise: the other fields are
informational.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)


def _answer(G, hexes):
    """Digest of the subgroup the hex-encoded generators generate, which does
    not depend on the generators chosen; None when there is no answer."""
    from workloads import core

    if hexes is None:
        return None
    gens = [core.GroupElement.from_hex(h) for h in hexes]
    keys = sorted(G.key(x) for x in core.enumerate_closure(G, gens))
    return hashlib.sha256(repr(keys).encode()).hexdigest()[:16]


def _solver_outputs(prepared, inst) -> dict:
    from workloads import HspError, core

    group = prepared.groups[inst.group]
    G = group.G
    f = core.make_hiding_oracle(G, inst.hidden, seed=inst.oracle_seed)
    out = {"group": group.label, "hidden": [x.hex for x in inst.hidden], "answer": None}
    try:
        result = group.solve(G, f, inst.solver_seed)
    except HspError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    else:
        gens = [g.hex for g in result.gens]
        out.update(
            answer=_answer(G, gens),
            gens=gens,
            coset_reps=None if result.coset_reps is None else [g.hex for g in result.coset_reps],
            method=result.method,
            f_queries=result.stats.f_queries,
            group_ops=result.stats.group_ops,
            rng_draws=result.stats.rng_draws,
            f_query_budget=result.f_query_budget,
        )
    out.update(oracle_queries=f.query_count, harness_queries=f.harness_queries)
    return out


def _cli_outputs(prepared, inst) -> dict:
    from workloads import cli

    group = prepared.groups[inst.group]
    config = cli.RunConfig(
        group.path, inst.hidden_text, solver="auto", seed=inst.solver_seed, verify=True
    )
    code, report = cli.run(config)
    report.pop("wall_time_s")
    report["config"].pop("group")
    answer = _answer(group.G, report.get("generators"))
    return {"group": group.label, "code": code, "report": report, "answer": answer}


ES3 = "kind = extraspecial\np = 3\nvariant = {}\n"
D16 = "kind = permutation\ndegree = 8\ngen = (1 2 3 4 5 6 7 8)\ngen = (2 8)(3 7)(4 6)\n"
S8 = "kind = permutation\ndegree = 8\ngen = (1 2 3 4 5 6 7 8)\ngen = (1 2)\n"
NORMAL_GROUPS = {
    "es3-p": ES3.format("exponent-p"),
    "es3-p2": ES3.format("exponent-p2"),
    "d16": D16,
    "wreath2": "kind = wreath\nk = 2\n",
}


def _group(text: str):
    from workloads import core, specfile

    return core.make_group(specfile.parse_group_spec(text))


def _word(G, *pairs):
    """x_1^e_1 ... x_k^e_k over G's generators, (i, e) for x = generator i."""
    x = G.identity()
    for i, e in pairs:
        x = G.multiply(x, G.power(G.generators[i], e))
    return x


def _membership_inputs() -> list:
    """(group label, G, regime, N's generators, h_list, g) of each membership
    instance; regime is "group", "hidden" or "generated"."""
    from workloads import AFFINE4, GroupElement, specfile

    s8 = _group(S8)
    perm = lambda text: GroupElement(s8.backend.encode(specfile.parse_cycles(text, 8)))
    z = _group("kind = abelian\nmoduli = 4 6\n")
    d16, es3, affine4 = _group(D16), _group(ES3.format("exponent-p")), _group(AFFINE4)
    centre = [es3.commutator(*es3.generators)]
    n_affine = [GroupElement(b) for b in affine4.meta["elem2_normal_gens"]]
    r2, r4 = [_word(d16, (0, 2))], [_word(d16, (0, 4))]
    w = _word
    return [
        ("s8", s8, "group", [], [perm("(1 2 3 4)"), perm("(5 6)")], perm("(1 3)(2 4)(5 6)")),
        ("s8", s8, "group", [], [perm("(1 2 3 4)"), perm("(5 6)")], perm("(1 4 3 2)")),
        ("s8", s8, "group", [], [perm("(1 2 3 4)"), perm("(5 6)")], perm("(7 8)")),
        ("z4xz6", z, "group", [], [w(z, (0, 1)), w(z, (1, 2))], w(z, (0, 3), (1, 4))),
        ("z4xz6", z, "group", [], [w(z, (0, 2))], w(z, (1, 3))),
        ("d16", d16, "hidden", r2, [w(d16, (0, 1)), w(d16, (1, 1))], w(d16, (0, 5), (1, 1))),
        ("d16", d16, "hidden", r2, [w(d16, (0, 1))], w(d16, (1, 1))),
        ("d16", d16, "hidden", r4, [w(d16, (0, 1))], w(d16, (0, 3))),
        ("es3-p", es3, "hidden", centre, es3.generators, w(es3, (0, 2), (1, 1))),
        ("es3-p", es3, "hidden", centre, [es3.generators[0]], es3.generators[1]),
        ("affine4", affine4, "hidden", n_affine, [affine4.generators[0]], affine4.generators[1]),
        ("es3-p", es3, "generated", centre, [es3.generators[0]], w(es3, (0, 2))),
        ("es3-p", es3, "generated", centre, [es3.generators[0]], es3.generators[1]),
        ("affine4", affine4, "generated", n_affine, [affine4.generators[0]], affine4.generators[2]),
        ("affine4", affine4, "generated", n_affine, [w(affine4, (0, 3))], affine4.generators[0]),
    ]


def membership_outputs(seed: int) -> list:
    """The membership pool at one seed: per instance the orders of h_1..h_r
    and g and the membership verdict, at the view's equality."""
    from workloads import HspError, SolverConfig, core
    from hsplab.linalg import CosetQuotientView, LabelQuotientView
    from hsplab.membership import constructive_membership
    from hsplab.sim import find_order

    rng = random.Random(f"membership:{seed}")
    out = []
    for label, G, regime, n_gens, h_list, g in _membership_inputs():
        f = core.make_hiding_oracle(G, n_gens, seed=rng.getrandbits(64))
        view = {
            "group": G,
            "hidden": LabelQuotientView(G, f),
            "generated": CosetQuotientView(G, core.enumerate_closure(G, n_gens)),
        }[regime]
        cfg = SolverConfig(seed=rng.getrandbits(32))
        ops = G.stats.group_ops
        record = {"group": label, "regime": regime, "answer": None}
        try:
            orders = [find_order(view, x, cfg, order_bound=G.exponent_hint) for x in [*h_list, g]]
            ans = constructive_membership(view, h_list, g, cfg)
        except HspError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            record.update(
                answer=[ans.member, orders],
                exponents=None if ans.exponents is None else list(ans.exponents.values),
                f_queries=f.query_count,
                group_ops=G.stats.group_ops - ops,
                rng_draws=cfg.draws,
            )
        out.append(record)
    return out


def normal_outputs(seed: int, backend: str = "ideal") -> list:
    """The normal pool at one seed: hidden_normal_subgroup on every normal
    subgroup N of each group, H = N, under the given sampler."""
    from workloads import HspError, SolverConfig, core, verify
    from hsplab.normalsub import hidden_normal_subgroup

    rng = random.Random(f"normal:{seed}")
    out = []
    for label, text in NORMAL_GROUPS.items():
        G = _group(text)
        for sub in verify.subgroups_of(G, core.enumerate_closure(G, G.generators)):
            keys = verify.subgroup_key(G, sub)
            if any(G.key(G.conjugate(g, x)) not in keys for g in G.generators for x in sub):
                continue  # not normal
            f = core.make_hiding_oracle(G, sub, seed=rng.getrandbits(64))
            hidden = _answer(G, [x.hex for x in sub])
            record = {"group": label, "hidden": hidden, "hidden_order": len(sub), "answer": None}
            try:
                cfg = SolverConfig(seed=rng.getrandbits(32), backend=backend)
                result = hidden_normal_subgroup(G, f, cfg)
            except HspError as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
            else:
                gens = [x.hex for x in result.gens]
                record.update(
                    answer=_answer(G, gens),
                    gens=gens,
                    f_queries=result.stats.f_queries,
                    group_ops=result.stats.group_ops,
                    rng_draws=result.stats.rng_draws,
                    f_query_budget=result.f_query_budget,
                )
            out.append(record)
    return out


def use_checkout() -> None:
    """Import hsplab from this checkout's src/, and the pools from perfbench/."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def dump(out_path: Path) -> None:
    use_checkout()
    from workloads import WORKLOADS, Prepared, cli

    if Path(cli.__file__).resolve().parent != (ROOT / "src" / "hsplab").resolve():
        raise SystemExit(f"imported hsplab from {cli.__file__}, not from {ROOT / 'src'}")

    outputs = {}
    with tempfile.TemporaryDirectory() as work_dir:
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                prepared = Prepared(workload, seed, Path(work_dir))
                outputs_of = _cli_outputs if name == "cli-suite" else _solver_outputs
                try:
                    outputs[f"{name}/{seed}"] = [
                        outputs_of(prepared, inst) for inst in prepared.instances
                    ]
                finally:
                    prepared.close()
    for seed in SEEDS:
        outputs[f"membership/{seed}"] = membership_outputs(seed)
        outputs[f"normal/{seed}"] = normal_outputs(seed)
        outputs[f"normal-statevector/{seed}"] = normal_outputs(seed, "statevector")
    out_path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")


def differing_instances(old: dict, new: dict) -> tuple[int, int]:
    """Instances whose outputs differ, and those whose answers differ as
    subgroups; a pool present in one file only counts all of its instances
    in both."""
    outputs = answers = 0
    for pool in sorted(set(old) | set(new)):
        a, b = old.get(pool, []), new.get(pool, [])
        extra = abs(len(a) - len(b))
        outputs += sum(x != y for x, y in zip(a, b)) + extra
        answers += sum(x.get("answer") != y.get("answer") for x, y in zip(a, b)) + extra
    return outputs, answers


def changed_fields(old, new, path: str = "") -> set[str]:
    """Dotted paths of the fields in which two records differ; lists and
    scalars are compared whole, and a field present in one record only
    counts as changed."""
    if old == new:
        return set()
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return {path}
    missing = object()
    out = set()
    for key in set(old) | set(new):
        sub = f"{path}.{key}" if path else key
        out |= changed_fields(old.get(key, missing), new.get(key, missing), sub)
    return out


def field_counts(old: list, new: list) -> Counter:
    """Per field path, the number of paired instances in which it differs."""
    return Counter(f for a, b in zip(old, new) for f in changed_fields(a, b))


MEAN_FIELDS = ("f_queries", "group_ops", "rng_draws")


def mean_stat(pool: list, field: str) -> Optional[float]:
    """Mean of a solver counter over a pool's answered instances (a
    cli-suite record keeps it in its report's stats); None when none has
    it."""
    counts = [r.get("report", r).get("stats", r).get(field) for r in pool]
    counts = [c for c in counts if c is not None]
    return sum(counts) / len(counts) if counts else None


def largest_budget_use(pool: list) -> Optional[float]:
    """Largest f_queries / f_query_budget over a pool's instances that have
    a budget; None when none has."""
    uses = [r["f_queries"] / r["f_query_budget"] for r in pool if r.get("f_query_budget")]
    return max(uses) if uses else None


def _text(value: Optional[float], spec: str = ".1f") -> str:
    return "-" if value is None else format(value, spec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", type=Path, help="JSON file to write")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(p.read_text()) for p in args.compare)
        outputs, answers = differing_instances(old, new)
        if outputs == 0:
            print("identical")
        else:
            print(f"{outputs} differing instances, {answers} differing as subgroups")
            for pool in sorted(set(old) | set(new)):
                a, b = old.get(pool, []), new.get(pool, [])
                means = (
                    f"{field} {_text(mean_stat(a, field))} -> {_text(mean_stat(b, field))}"
                    for field in MEAN_FIELDS
                )
                print(f"{pool}: mean " + ", ".join(means))
                uses = [_text(largest_budget_use(side), ".3f") for side in (a, b)]
                if uses != ["-", "-"]:
                    print(f"{pool}: largest budget use " + " -> ".join(uses))
                if counts := field_counts(a, b):
                    print(f"{pool}: " + ", ".join(f"{f} {n}" for f, n in sorted(counts.items())))
        return 1 if answers else 0
    if args.out is None:
        parser.error("give OUT.json or --compare OLD NEW")
    dump(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
