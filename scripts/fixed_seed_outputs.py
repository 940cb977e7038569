"""Dump the fixed-seed outputs of the benchmark pools, to compare two trees.

    python3 scripts/fixed_seed_outputs.py OUT.json
    python3 scripts/fixed_seed_outputs.py --compare OLD.json NEW.json

The first form runs every instance of the four ``perfbench/workloads.py``
pools at seeds 1 and 2, once each, with the library of this checkout
(``src/``), and writes per instance: the answer's generators, the coset
representatives, the solver's ``f_queries``, ``group_ops`` and ``rng_draws``,
and the hiding oracle's query and harness-query counts.  On ``cli-suite`` it
writes the ``cli.run(..., verify=True)`` report instead, without
``wall_time_s`` and the spec path, which name a temporary directory.  Two
trees that compute the same thing write byte-identical files.

The second form prints ``identical`` or the number of instances whose
outputs differ, and exits 0 either way.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)


def _solver_outputs(prepared, inst) -> dict:
    from workloads import HspError, core

    group = prepared.groups[inst.group]
    G = group.G
    f = core.make_hiding_oracle(G, inst.hidden, seed=inst.oracle_seed)
    out = {"group": group.label, "hidden": [x.hex for x in inst.hidden]}
    try:
        result = group.solve(G, f, inst.solver_seed)
    except HspError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    else:
        out.update(
            gens=[g.hex for g in result.gens],
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
    return {"group": group.label, "code": code, "report": report}


def dump(out_path: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
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
    out_path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")


def differing_instances(old: dict, new: dict) -> int:
    """Instances whose outputs differ; a pool present in one file only
    counts all of its instances."""
    count = 0
    for pool in sorted(set(old) | set(new)):
        a, b = old.get(pool, []), new.get(pool, [])
        count += sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", type=Path, help="JSON file to write")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(p.read_text()) for p in args.compare)
        count = differing_instances(old, new)
        print("identical" if count == 0 else f"{count} differing instances")
        return 0
    if args.out is None:
        parser.error("give OUT.json or --compare OLD NEW")
    dump(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
